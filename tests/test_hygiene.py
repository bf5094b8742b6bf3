"""Static checks on the library source, with the standard library's ast.

Every module under ``src/centbench`` uses each name it imports (the
package ``__init__`` re-exports its imports, so it is exempt from that
rule), no module imports from the test suite or its references, and every
module-level function or class and every method is used somewhere in the
library outside its own definition (a use from the tests alone, or a
re-export from ``__init__``, does not count).
The generators draw through ``rng._Draws`` and never call numpy's
``Generator`` once per draw. An experiment record holds the report CSV's
columns and nothing else. Only ``generators.py``, which holds the family
table, names a graph family in a string constant. Only
``harness.cell_scores`` derives a cell's "gen", "got" and "kpath" sub-seeds.
"""
import ast
from dataclasses import fields
from pathlib import Path

import pytest

from centbench.harness import CSV_COLUMNS, ExperimentRecord

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


def names_outside(node, skip):
    """Every name, attribute or imported name used in ``node``, leaving
    out the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from names_outside(child, skip)


def definitions(tree):
    """Each module-level function and class of ``tree``, and each method
    of its classes but the dunders, in source order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def test_no_dead_definitions():
    """A definition that only the tests call is surface to delete.

    The check goes by name: a use of any function, attribute or import of
    that name anywhere in the library counts. So a method that shares its
    name with another call passes unseen; an ``ExperimentConfig.write``
    that nothing called would hide behind ``fh.write``."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY]
    dead = [node.name for tree in trees for node in definitions(tree)
            if not any(node.name in names_outside(t, node) for t in trees)]
    assert not dead, ("definition(s) used nowhere else in the library: "
                      + ", ".join(dead))


def test_generators_make_no_per_draw_generator_call():
    tree = ast.parse((SRC / "generators.py").read_text(encoding="utf-8"))

    def makes_draws(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_Draws")

    # a _Draws(...) call, or a name bound to one, may give random and below
    draws = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and makes_draws(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    bad = sorted(f"line {node.lineno}: .{node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("integers", "random")
                 and not makes_draws(node.value)
                 and not (isinstance(node.value, ast.Name)
                          and node.value.id in draws))
    assert draws, "generators.py no longer draws through _Draws"
    assert not bad, f"generators.py draws from a numpy Generator: {bad}"
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"make_rng", "default_rng", "Generator"}


def test_record_fields_are_the_report_columns():
    # per-cell data such as stage timings belongs in report.json's cells
    assert [f.name for f in fields(ExperimentRecord)] == CSV_COLUMNS[1:]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "generators.py"],
                         ids=lambda p: p.name)
def test_only_the_family_table_names_a_family(path):
    names = {"SF", "SW", "ER", "sf", "sw", "er"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = sorted(f"line {node.lineno}: {node.value!r}"
                 for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and node.value in names)
    assert not bad, f"{path.name} names a family outside generators.FAMILIES: {bad}"


def test_only_cell_scores_derives_the_stage_sub_seeds():
    tags = {"gen", "got", "kpath"}

    def sub_seed_calls(node):
        """(line, tag) of each derive_seed(..., "<stage tag>") call in node."""
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and len(call.args) == 2
                    and getattr(call.func, "id",
                                getattr(call.func, "attr", None)) == "derive_seed"
                    and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value in tags):
                yield call.lineno, call.args[1].value

    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    seam, = (node for node in trees["harness.py"].body
             if isinstance(node, ast.FunctionDef) and node.name == "cell_scores")
    inside = set(sub_seed_calls(seam))
    bad = sorted(f"{name} line {line}: {tag!r}" for name, tree in trees.items()
                 for line, tag in sub_seed_calls(tree)
                 if not (name == "harness.py" and (line, tag) in inside))
    assert not bad, f"a stage sub-seed derived outside cell_scores: {bad}"
    assert {tag for _, tag in inside} == tags
