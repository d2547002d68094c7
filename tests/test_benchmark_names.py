"""The benchmark calls the library by name: every attribute of a gtpush module
that perfbench/workloads.py reaches must exist, and every call it makes must
bind to the library's signature, so a removed name or a changed signature
fails here rather than in a benchmark run.  The names the tracer of
perfbench/spans.py wraps are held to a fixed list of known gaps.  The
benchmark is only read."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _gtpush_modules(tree) -> dict[str, str]:
    """Local name -> module for every `from gtpush import module`."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "gtpush"
            for alias in node.names}


def _gtpush_attributes(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every `module.attribute` whose module was
    imported with `from gtpush import module`."""
    tree = ast.parse(source)
    modules = _gtpush_modules(tree)
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def _gtpush_calls(source: str) -> list[tuple[str, str, int | None, tuple[str, ...]]]:
    """(module, attribute, positional count, keyword names) for every call
    `module.attribute(...)` of a gtpush module; the count is None when the
    call unpacks * or ** arguments, which no static check can bind."""
    tree = ast.parse(source)
    modules = _gtpush_modules(tree)
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            unpacks = (any(isinstance(arg, ast.Starred) for arg in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            calls.append((modules[node.func.value.id], node.func.attr,
                          None if unpacks else len(node.args),
                          tuple(kw.arg for kw in node.keywords if kw.arg is not None)))
    return calls


def _unbound(calls) -> list[str]:
    """The calls whose arguments do not bind to the library's signature."""
    bad = []
    for module, attr, positional, names in calls:
        target = getattr(importlib.import_module(f"gtpush.{module}"), attr)
        try:
            inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(names))
        except TypeError as exc:
            bad.append(f"gtpush.{module}.{attr}: {exc}")
    return bad


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


def test_every_library_call_the_benchmark_makes_binds():
    calls = _gtpush_calls(WORKLOADS.read_text())
    assert len(calls) >= 30  # 31 calls of 21 names when this was written
    assert all(positional is not None for _, _, positional, _ in calls)
    assert _unbound(calls) == []


def test_the_call_scan_sees_a_changed_arity():
    source = ("from gtpush import couplings, dynamics\n"
              "couplings.left_edge_matches_dynamics(panel, 3, q)\n"
              "dynamics.geometric_step(rows, xi, 2)\n"
              "couplings.lpp_G(panel, 3, t_max=4)\n"
              "couplings.lpp_G(panel, 3, steps=4)\n")
    assert _unbound(_gtpush_calls(source)) == [
        "gtpush.couplings.left_edge_matches_dynamics: missing a required argument: 'rng'",
        "gtpush.dynamics.geometric_step: too many positional arguments",
        "gtpush.couplings.lpp_G: got an unexpected keyword argument 'steps'",
    ]


def _traced_names() -> list[tuple[str, bool]]:
    """(owner.name, present) for every name the benchmark's Tracer asks to
    wrap, read by a Tracer whose wrapping step only records."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    seen = []

    class Recorder(spans.Tracer):
        def _add(self, owner, attr, *args, **kwargs):
            seen.append((f"{owner.__name__.removeprefix('gtpush.')}.{attr}",
                         attr in owner.__dict__))

    Recorder()
    return seen


def test_the_tracer_misses_only_the_known_gone_names():
    # the tracer skips a name the library lacks, so its time goes to no layer;
    # these six went with earlier simplifications and wait for the benchmark's
    # next change
    traced = _traced_names()
    assert len(traced) >= 25
    assert sorted(name for name, present in traced if not present) == [
        "dynamics.simulate_geometric", "dynamics.simulate_poisson", "dynamics.simulate_wall",
        "kernels.coupling_generator_poisson", "kernels.coupling_generator_wall_even_odd",
        "kernels.coupling_generator_wall_odd_even",
    ]
