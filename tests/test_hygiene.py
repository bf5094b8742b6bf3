"""Static checks on the library source, with the standard library's ast.

Every module under ``src/centbench`` uses each name it imports (the
package ``__init__`` re-exports its imports, so it is exempt from that
rule), and no module imports from the test suite or its references.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "centbench"
MODULES = sorted(SRC.glob("*.py"))
LIBRARY = [p for p in MODULES if p.name != "__init__.py"]
TEST_ONLY = ("tests", "reference", "conftest")


def imported_names(tree):
    """(bound name, module it comes from) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or ""


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name, _ in imported_names(tree)
                    if name not in used)
    assert not unused, f"{path.name} imports unused name(s): {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_from_tests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = sorted(module for _, module in imported_names(tree)
                 if module.split(".")[0] in TEST_ONLY)
    assert not bad, f"{path.name} imports test code: {bad}"
