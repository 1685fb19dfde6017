"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairnet").glob("*.py"))


def _imported_roots(tree: ast.AST) -> list[str]:
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "solvers.py", "structure.py"}


def test_every_import_is_standard_library_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"fairnet"}
    outside = {
        f"{path.name}: {root}"
        for path in SOURCES
        for root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    }
    assert not outside


def test_a_third_party_import_is_caught():
    tree = ast.parse("import numpy\nfrom scipy.sparse import csr_matrix\nfrom . import model\n")
    assert _imported_roots(tree) == ["numpy", "scipy"]
