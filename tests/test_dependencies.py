"""The third-party packages the library imports are the ones it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "vcspace").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "vcspace"}


def declared_packages() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        specs = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


def test_imports_are_declared_and_declarations_imported():
    imported = imported_packages()
    assert imported, "no third-party import found under src/vcspace"
    assert imported == declared_packages()
