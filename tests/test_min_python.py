"""Every module and test parses under the oldest Python that
`pyproject.toml` declares in `requires-python`.

The version is read with a regex, since `tomllib` needs Python 3.11, and
`ast.parse(..., feature_version=...)` rejects syntax newer than it (match
statements before 3.10, `except*` before 3.11, and so on).  This checks
syntax only, not the library calls a newer Python added.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "afftl").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def minimum_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "requires-python must read \">=X.Y\""
    return int(found[1]), int(found[2])


def test_minimum_is_declared():
    assert minimum_python() >= (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_at_the_minimum(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=minimum_python())
