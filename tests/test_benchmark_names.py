"""The benchmark calls the library by name: every attribute of a gtpush module
that perfbench/workloads.py reaches must exist, so a removed or renamed name
fails here rather than in a benchmark run.  The benchmark is only read."""
import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _gtpush_attributes(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every `module.attribute` whose module was
    imported with `from gtpush import module`."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "gtpush"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_library_name_the_benchmark_uses_exists():
    used = _gtpush_attributes(WORKLOADS.read_text())
    assert len(used) >= 21  # e.g. couplings.left_edge_matches_dynamics, dynamics.geometric_step
    missing = sorted(f"gtpush.{module}.{attr}" for module, attr in used
                     if not hasattr(importlib.import_module(f"gtpush.{module}"), attr))
    assert missing == []


def test_the_name_scan_sees_a_missing_name():
    source = "from gtpush import couplings as c\nc.no_such_name()\nc.wall_sup_samples\n"
    assert _gtpush_attributes(source) == {("couplings", "no_such_name"),
                                          ("couplings", "wall_sup_samples")}
