"""Every public library name has a caller, or a recorded reason to stay.

A public module-level function or class of src/frobpow is reached when it is
named outside its own definition in src/frobpow, scripts/ or the benchmark's
trace shim.  The shim names functions as (module, name) strings, so its
string constants count as names too.  A name nothing reaches must sit in
TEST_ONLY with the acceptance criterion, ROADMAP item or test-reference role
that keeps it; anything else only tests call is deleted with its tests.  A
listed name that gains a caller must leave the list, so it only shrinks.
The sources are parsed, not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "frobpow").glob("*.py"))
SHIM = ROOT / "perfbench" / "trace_shim.py"
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + [SHIM]

TEST_ONLY = {
    "binom_mod_p": "criterion 10 (FF_CORE); the reference for the Lucas tables",
    "cmp": "criterion 10 (POLY_CORE)",
    "monomial_images": "criterion 10 (POLY_CORE)",
    "act": "criterion 10 (group workload)",
    "transvection_rootspace_dim": "criterion 10 (GROUP_CORE)",
    "group_elements": "criterion 10 (group workload); ROADMAP item 9",
    "subduct": "criterion 10 (GROEBNER_CORE)",
    "initial_ideal_hilbert": "criterion 05 and GROEBNER_CORE; ROADMAP item 2",
    "leading_monomials": "criterion 05; ROADMAP item 2",
    "hilbert_B": "criterion 05; ROADMAP item 2",
    "check_exponent_bound": "criterion 08",
    "gaussian_binomial": "ROADMAP item 6",
    "count_orbits_custom": "ROADMAP item 6",
}


def _public():
    """{name: [module, ...]} of the public module-level defs and classes."""
    found = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.setdefault(node.name, []).append(path.stem)
    return found


def _named():
    """Every identifier the callers name, each outside the top-level def that defines it."""
    named = set()
    for path in CALLERS:
        strings = path == SHIM
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != owner:
                    named.add(name)
    return named


PUBLIC = _public()
UNREACHED = set(PUBLIC) - _named()


def test_every_public_name_is_reached_or_listed():
    # names are matched bare, so one module's caller must not stand in for another's
    assert {name: homes for name, homes in PUBLIC.items() if len(homes) > 1} == {}
    unlisted = sorted(f"{PUBLIC[name][0]}.{name}" for name in UNREACHED - set(TEST_ONLY))
    assert not unlisted, f"reached only from tests; delete them or list why they stay: {unlisted}"


def test_listed_names_exist_and_are_still_unreached():
    missing = sorted(set(TEST_ONLY) - set(PUBLIC))
    assert not missing, f"listed but not defined: {missing}"
    reached = sorted(set(TEST_ONLY) - UNREACHED)
    assert not reached, f"listed but now reached, so unlist them: {reached}"
