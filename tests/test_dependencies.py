"""The package imports nothing but numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import tailwise

SOURCES = sorted(Path(tailwise.__file__).parent.glob("*.py"))
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def imported_packages(path: Path):
    """Top-level package of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "train.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    assert sorted(set(imported_packages(path)) - ALLOWED) == []
