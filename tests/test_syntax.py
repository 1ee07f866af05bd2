"""Every source file parses as the oldest Python that pyproject.toml claims."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src/frobpow", "scripts", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())


def test_newer_syntax_is_rejected():
    # feature_version is enforced: except* is 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
