"""Every benchmark op starts cold.

`perfbench/run.py` clears the package's functools caches before each op.
A cache it does not clear would live across ops, so repeats of one item
would time a lookup instead of the solver.  The package may therefore hold
exactly the caches the benchmark clears.  A `Graph` memoizes its own
analysis, which is safe because each op parses its own `Graph`.
"""

import ast
import importlib
import pkgutil
from functools import cached_property
from pathlib import Path

import fairnet
from fairnet import Graph, LabelMultiset, cycle_graph, solve_auto
from fairnet.instance_io import Instance, read_instance, write_instance

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fairnet").glob("*.py"))
CACHE_DECORATORS = {"cache", "lru_cache"}
ALLOWED = {
    ("fairnet.structure", "minimum_feedback_vertex_set"),
    ("fairnet.structure", "minimum_vertex_cover"),
}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _cached_objects() -> set[tuple[str, str]]:
    """(module, qualified name) of every functools cache reachable from a
    module or class namespace of the package."""
    found = set()
    # __main__ runs the command line on import
    for info in pkgutil.iter_modules(fairnet.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fairnet.{info.name}")
        for value in vars(module).values():
            members = [value, *vars(value).values()] if isinstance(value, type) else [value]
            for member in members:
                if hasattr(member, "cache_info") and hasattr(member, "cache_clear"):
                    found.add((member.__module__, member.__qualname__))
    return found


def test_the_only_caches_are_the_two_exact_parameters():
    assert _cached_objects() == ALLOWED


def test_every_cache_decorator_is_on_an_allowed_module_function():
    decorated = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(_name(d) in CACHE_DECORATORS for d in node.decorator_list):
                    assert node in top_level, f"{path.name}: {node.name} is cached inside a scope"
                    decorated.add((f"fairnet.{path.stem}", node.name))
    assert decorated == ALLOWED


def test_the_benchmark_clears_every_cache_before_an_op():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    run_op = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "run_op"
    )
    cleared = {
        ("fairnet." + call.func.value.value.id, call.func.value.attr)
        for call in ast.walk(run_op)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "cache_clear"
        and isinstance(call.func.value, ast.Attribute)
        and isinstance(call.func.value.value, ast.Name)
    }
    assert cleared == ALLOWED


def test_each_parse_builds_a_graph_with_no_analysis_yet():
    memo = {name for name, value in vars(Graph).items() if isinstance(value, cached_property)}
    assert "components" in memo
    graph = cycle_graph(5)
    labels = LabelMultiset.from_iterable([1, 2, 3, 4, 5])
    text = write_instance(Instance(graph, labels))
    first = read_instance(text).graph
    solve_auto(first, labels)
    for name in memo:
        getattr(first, name)
    second = read_instance(text).graph
    assert second == first and second is not first
    assert not memo & set(vars(second))
