"""The runtime dependencies pyproject.toml declares are the packages the
source imports: no undeclared import, and no declared package left unused."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # the distribution name ends where a version, extra or marker begins
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}


def imported_packages() -> set[str]:
    """Top-level names of every absolute import under src/unitball,
    including imports inside functions."""
    names = set()
    for path in sorted((ROOT / "src" / "unitball").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_are_the_imported_packages():
    assert imported_packages() == declared_dependencies()
