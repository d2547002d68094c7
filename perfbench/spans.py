"""Per-module spans recorded from outside the library.

`Tracer.install()` replaces the public functions the workloads reach with
wrappers that time each call; `uninstall()` puts the originals back, so an
untraced round runs the library untouched.  Callers inside the library look
these names up as module attributes at call time (``schur.schur(...)``,
``dynamics.simulate_wall(...)``), so the wrappers see those calls too.

A layer's self time is the time inside its spans minus the time inside the
wrapped spans they caused.  Counts are taken from arguments and return
values after the span closes, and the time spent counting is charged to no
layer.
"""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

import gtpush.couplings as couplings
import gtpush.dynamics as dynamics
import gtpush.harness as harness
import gtpush.intertwine as intertwine
import gtpush.kernels as kernels
import gtpush.patterns as patterns
import gtpush.schur as schur

KERNEL_BUILDERS = (
    "q_charlier",
    "kernel_geometric",
    "q_symplectic",
    "coupling_generator_poisson",
    "coupling_kernel_geometric",
    "coupling_generator_wall_odd_even",
    "coupling_generator_wall_even_odd",
)


def _count_operator(counts, op, args):
    counts["kernels.states"] += len(op.states)
    counts["kernels.entries"] += sum(len(row) for row in op.rows.values())


def _count_report(counts, report, args):
    counts["intertwine.comparisons"] += report.states_checked


def _count_semigroup(counts, kernel, args):
    counts["intertwine.semigroup_states"] += len(kernel.states)


def _count_trajectory(counts, traj, args):
    counts["dynamics.events"] += len(traj.events)
    counts["dynamics.pushes"] += sum(1 for e in traj.events if e.cause == "push")


def _count_trials(counts, samples, args):
    counts["harness.trials"] += args[0].trials


def _counter(key):
    def count(counts, out, args):
        counts[key] += 1
    return count


def memo_caches(module):
    """The functools caches held at a module's top level."""
    return [f for f in vars(module).values() if callable(getattr(f, "cache_info", None))]


def memo_size(module) -> int:
    return sum(f.cache_info().currsize for f in memo_caches(module))


class Tracer:
    """Spans keyed by the per-layer metric their self time feeds."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original, wrapper)
        self._stack = []  # child time accumulated by each open span
        self.reset()
        add = self._add
        add(schur, "schur", "schur.eval", _counter("schur.calls"))
        add(schur, "sp_schur", "schur.eval", _counter("schur.calls"))
        add(patterns, "sample_pattern", "patterns.sample", _counter("patterns.samples"),
            per_call=True)
        for name in KERNEL_BUILDERS:
            add(kernels, name, "kernels.build", _count_operator)
        add(kernels.LambdaKernel, "support", "kernels.lambda")
        for name in ("verify_generator_intertwining", "verify_kernel_intertwining",
                     "verify_conservative"):
            add(intertwine, name, "intertwine.check", _count_report)
        add(intertwine, "semigroup_intertwining_gap", "intertwine.check")
        add(intertwine, "semigroup", "intertwine.semigroup", _count_semigroup)
        for name in ("simulate_poisson", "simulate_geometric", "simulate_wall"):
            add(dynamics, name, "dynamics.simulate", _count_trajectory, per_call=True)
        for name in ("poisson_panel", "geometric_panel", "wall_panel"):
            add(couplings, name, "couplings.check", _counter("couplings.panels"))
        for name in ("right_edge_equals_lpp", "left_edge_matches_dynamics",
                     "wall_sup_samples"):
            add(couplings, name, "couplings.check")
        add(harness, "endpoint_samples", "harness.endpoint", _count_trials, inclusive=True)
        add(harness, "reference_endpoint_pmf", "harness.reference")
        for name in ("empirical_pmf", "tv_distance", "chi_square_gof"):
            add(harness, name, "harness.stats")

    def reset(self):
        """Start a new round: drop all times and counts."""
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.per_call_s = defaultdict(list)
        self.counts = Counter()

    def _add(self, owner, attr, span, count=None, per_call=False, inclusive=False):
        original = owner.__dict__.get(attr)
        if original is None:
            return  # gone from the library: its time stays with its caller
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                children = stack.pop()
                own = t1 - t0 - children
                tracer.self_s[span] += own
                if per_call:
                    tracer.per_call_s[span].append(own)
                if inclusive:
                    tracer.inclusive_s[span] += t1 - t0
            if count is not None:
                count(tracer.counts, out, args)
            if stack:
                # the caller's self time excludes this span and its counting
                stack[-1] += perf_counter() - t0
            return out

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def round_metrics(self) -> dict:
        """Per-layer metrics of the round since the last reset()."""
        s, c = self.self_s, self.counts
        trials = c["harness.trials"]

        def median_us(span):
            calls = self.per_call_s[span]
            return statistics.median(calls) * 1e6 if calls else 0.0

        return {
            "patterns.sample_s": s["patterns.sample"],
            "patterns.sample_us": median_us("patterns.sample"),
            "patterns.samples": c["patterns.samples"],
            "schur.eval_s": s["schur.eval"],
            "schur.calls": c["schur.calls"],
            "schur.memo_size": memo_size(schur),
            "kernels.build_s": s["kernels.build"],
            "kernels.lambda_s": s["kernels.lambda"],
            "kernels.states": c["kernels.states"],
            "kernels.entries": c["kernels.entries"],
            "intertwine.check_s": s["intertwine.check"],
            "intertwine.comparisons": c["intertwine.comparisons"],
            "intertwine.semigroup_s": s["intertwine.semigroup"],
            "intertwine.semigroup_states": c["intertwine.semigroup_states"],
            "dynamics.simulate_s": s["dynamics.simulate"],
            "dynamics.trial_us": median_us("dynamics.simulate"),
            "dynamics.events": c["dynamics.events"],
            "dynamics.pushes": c["dynamics.pushes"],
            "couplings.check_s": s["couplings.check"],
            "couplings.panels": c["couplings.panels"],
            "harness.endpoint_s": s["harness.endpoint"],
            "harness.trial_us": (self.inclusive_s["harness.endpoint"] / trials * 1e6
                                 if trials else 0.0),
            "harness.trials": trials,
            "harness.reference_s": s["harness.reference"],
            "harness.stats_s": s["harness.stats"],
        }
