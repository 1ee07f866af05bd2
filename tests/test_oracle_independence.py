"""The two oracles stay independent: brute force never reaches the closed
forms through imports, and the closed forms never reach brute force.

The imports are read from the source with ast, those inside functions
included, and followed transitively within the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobpow"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def package_imports(module):
    """The package modules that one module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: from inside the package
                base = f"frobpow.{base}".rstrip(".")
            names = [base] if base != "frobpow" else [
                f"frobpow.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("frobpow.") and name.split(".")[1] in MODULES)
    return found


def closure(module):
    """Every package module that module reaches through imports, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {module}


def test_the_walk_sees_imports_inside_functions():
    # cli imports groebner only inside the gbcheck and resolution2d commands
    assert "groebner" in package_imports("cli")
    assert {"invariants", "qseries", "orbits", "groebner"} <= closure("cli")


def test_brute_force_never_reaches_the_closed_forms():
    assert "qseries" not in closure("invariants")


def test_closed_forms_never_reach_brute_force():
    assert not closure("qseries") & {"invariants", "orbits", "groebner"}
