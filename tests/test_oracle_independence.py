"""The two oracles stay independent: brute force never reaches the closed
forms through imports, and the closed forms never reach brute force.

The imports are read from the source with ast, those inside functions
included, and followed transitively within the package.  The same walk,
kept to module level, bounds what importing the command line loads.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobpow"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _nodes(tree, functions):
    """ast.walk, kept out of function bodies unless functions is true."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def package_imports(module, functions=True):
    """The package modules that one module's source imports, anywhere in it,
    or only where they run on import if functions is false."""
    found = set()
    for node in _nodes(ast.parse((PACKAGE / f"{module}.py").read_text()), functions):
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


def closure(module, functions=True):
    """Every package module that module reaches through imports, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop(), functions) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {module}


def test_the_walk_sees_imports_inside_functions():
    # cli imports groebner only inside the gbcheck and resolution2d commands
    assert "groebner" in package_imports("cli")
    assert "groebner" not in package_imports("cli", functions=False)
    assert {"invariants", "qseries", "orbits", "groebner"} <= closure("cli")


def test_importing_the_command_line_loads_only_what_every_check_runs():
    # the series, orbit, polynomial and Groebner layers load inside the
    # functions that call them, so a brute-force check never compiles them
    assert closure("cli", functions=False) == {"ff", "group", "invariants"}


def test_brute_force_never_reaches_the_closed_forms():
    assert "qseries" not in closure("invariants")


def test_closed_forms_never_reach_brute_force():
    assert not closure("qseries") & {"invariants", "orbits", "groebner"}
