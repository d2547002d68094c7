"""The benchmark's workloads, and the process that runs one of them.

    python3 perfbench/workloads.py --workload exact --seed 1 --seconds 25 [--trace] [--quick]
    python3 perfbench/workloads.py --workload exact --seed 1 --setup-only

`perfbench/run.py` starts this file in a fresh interpreter with `src/` on
PYTHONPATH, one BLAS thread and GTPUSH_THREADS unset.  It repeats whole rounds
of the workload's operations for about --seconds and prints one JSON line.
An operation is one verdict; each round starts from cleared memo tables, so
every round does the same work.  With --trace, rounds alternate untraced and
traced, and the traced ones report per-module self times and counts.
After the timed rounds, checks made apart from the library are run once.
"""
from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import oracles
import speed

Q = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))
PERTURBATION = F(1, 97)
SCHUR_SAMPLES = 24
LPP_BRUTE_PANELS = 20


def _perturbed(op, state, rng):
    """Copy of a sparse operator with one off-diagonal entry of one row moved."""
    row = op.row(state)
    target = rng.choice(sorted(t for t in row if t != state))
    rows = dict(op.rows)
    rows[state] = {**row, target: row[target] + PERTURBATION}
    return type(op)(op.states, rows, op.bound, op.label + " perturbed")


def _charged_pair(lam, y, rng):
    """A paired state (x, y) that Lambda charges with positive mass."""
    return rng.choice([pair for pair, mass in lam.support(y) if mass > 0])


# ---------------------------------------------------------------------------
# operations: run() returns (ok, detail) and keeps what the checks need


class IntertwineOp:
    """One two-row intertwining case, zero violations required."""

    def __init__(self, case, n, q, bound):
        self.case, self.n, self.q, self.bound = case, n, q, bound
        self.name = f"intertwine {case} n={n} bound={bound}"

    def run(self):
        from gtpush import cli

        self.last = None
        q_y, gen, lam, checker = cli.build_intertwining_case(self.case, self.n, self.q, self.bound)
        report = checker(q_y, lam, gen, case=self.name)
        self.last = (q_y, gen, lam, checker)
        ok = report.passed and report.states_checked > 0
        return ok, {"comparisons": report.states_checked, "violations": len(report.violations)}

    def non_vacuous(self, rng):
        """The checker must report violations once one coupling rate is moved."""
        q_y, gen, lam, checker = self.last
        # every checker compares at interior states, and there every row moves
        pair = _charged_pair(lam, rng.choice(q_y.interior_states()), rng)
        report = checker(q_y, lam, _perturbed(gen, pair, rng), case=self.name)
        return not report.passed, {"perturbed": str(pair), "violations": len(report.violations)}


class ConservativeOp:
    """Interior rows of the wall marginal generator sum to exactly zero."""

    def __init__(self, n, q, bound):
        self.n, self.q, self.bound = n, q, bound
        self.name = f"conservative q_symplectic n={n} bound={bound}"

    def run(self):
        from gtpush import intertwine, kernels

        self.gen = kernels.q_symplectic(self.n, self.q, self.bound)
        report = intertwine.verify_conservative(self.gen)
        ok = report.passed and report.states_checked > 0
        return ok, {"rows": report.states_checked, "violations": len(report.violations)}

    def non_vacuous(self, rng):
        from gtpush import intertwine

        state = rng.choice(self.gen.interior_states())
        report = intertwine.verify_conservative(_perturbed(self.gen, state, rng))
        return not report.passed, {"perturbed": str(state), "violations": len(report.violations)}


class SemigroupGapOp:
    """Uniformized poisson semigroups stay intertwined up to max_gap."""

    def __init__(self, n, q, bound, t, tol, max_gap):
        self.n, self.q, self.bound, self.t = n, q, bound, t
        self.tol, self.max_gap = tol, max_gap
        self.name = f"semigroup gap poisson n={n} bound={bound} t={t}"

    def run(self):
        from gtpush import cli, intertwine

        self.q_y, self.gen, self.lam, _ = cli.build_intertwining_case(
            "poisson", self.n, self.q, self.bound)
        gap = intertwine.semigroup_intertwining_gap(self.q_y, self.gen, self.lam, self.t, self.tol)
        return gap < self.max_gap, {"gap": gap, "max_gap": self.max_gap}

    def non_vacuous(self, rng):
        from gtpush import intertwine

        cut = self.bound // 4
        y = rng.choice([y for y in self.q_y.states if all(c <= cut for c in y)])
        pair = _charged_pair(self.lam, y, rng)
        gap = intertwine.semigroup_intertwining_gap(
            self.q_y, _perturbed(self.gen, pair, rng), self.lam, self.t, self.tol)
        return gap >= self.max_gap, {"perturbed": str(pair), "gap": gap}


class LawOp:
    """Empirical bottom-row law at the horizon against the reference law,
    under gates set from the trial count and the reference."""

    def __init__(self, model, n, q, z, horizon, bound, trials, seed):
        from gtpush import harness

        self.config = harness.ExperimentConfig(
            model, n, tuple(str(v) for v in q), z, horizon, trials, seed, bound)
        self.name = f"law {model} n={n} z={z} horizon={horizon} trials={trials}"

    def run(self):
        from gtpush import harness

        cfg = self.config
        samples = harness.endpoint_samples(cfg)
        ref = harness.reference_endpoint_pmf(cfg)
        library_tv = harness.tv_distance(harness.empirical_pmf(samples), ref)
        tv = oracles.tv(samples, ref.support, ref.probs)
        gate = oracles.tv_gate(cfg.trials, ref.probs)
        stat, crit = oracles.chi_square(samples, ref.support, ref.probs)
        ok = tv <= gate and stat <= crit and abs(tv - library_tv) <= 1e-9
        return ok, {"tv": tv, "tv_gate": gate, "library_tv": library_tv,
                    "chi2": stat, "chi2_crit": crit, "reference_support": len(ref.support)}


class LppOp:
    """Right edge of the geometric dynamics equals the last passage times."""

    def __init__(self, n, q, steps, panels, seed):
        self.n, self.q, self.steps, self.panels, self.seed = n, q, steps, panels, seed
        self.name = f"coupling lpp n={n} steps={steps} panels={panels}"

    def run(self):
        from gtpush import couplings, harness

        bad = 0
        for trial in range(self.panels):
            panel = couplings.geometric_panel(
                self.n, self.q, self.steps, harness.trial_rng(self.seed, trial))
            if not couplings.right_edge_equals_lpp(
                    panel, self.n, self.q, self.steps, harness.trial_rng(self.seed + 1, trial)):
                bad += 1
        return bad == 0, {"failed_panels": bad}

    def brute_force(self):
        """Drive the geometric step with the first panels on the diagonal and
        compare its right edge with a maximum over up-right paths."""
        from gtpush import couplings, dynamics, harness

        mismatches = 0
        count = min(LPP_BRUTE_PANELS, self.panels)
        ps = [float(1 - v) for v in self.q]
        for trial in range(count):
            eta = couplings.geometric_panel(
                self.n, self.q, self.steps, harness.trial_rng(self.seed, trial)).eta
            rng = harness.trial_rng(self.seed + 1, trial)
            rows = [[0] * j for j in range(1, self.n + 1)]
            for t in range(1, self.steps + 1):
                xi = []
                for r in range(self.n):
                    draws = [int(v) - 1 for v in rng.geometric(ps[r], size=r + 1)]
                    draws[r] = eta[r][t - 1]
                    xi.append(draws)
                rows, _ = dynamics.geometric_step(rows, xi)
                mismatches += sum(rows[k][k] != oracles.lpp_brute(eta, k + 1, t)
                                  for k in range(self.n))
        return mismatches == 0, {"panels": count, "mismatches": mismatches}


class LeftEdgeOp:
    """Left edge of the rightward dynamics equals the reflection recursion."""

    def __init__(self, n, q, t, panels, seed):
        self.n, self.q, self.t, self.panels, self.seed = n, q, t, panels, seed
        self.name = f"coupling left-edge n={n} t={t} panels={panels}"

    def run(self):
        from gtpush import couplings, harness

        bad = 0
        for trial in range(self.panels):
            panel = couplings.poisson_panel(self.n, self.q, self.t,
                                            harness.trial_rng(self.seed, trial))
            if not couplings.left_edge_matches_dynamics(
                    panel, self.n, self.q, harness.trial_rng(self.seed + 1, trial)):
                bad += 1
        return bad == 0, {"failed_panels": bad}


class WallSupOp:
    """Law of the wall sup functional against the last coordinate of the
    conditioned walk, by a chi-square gate."""

    def __init__(self, q, t, samples, bound, seed):
        self.q, self.t, self.samples, self.bound, self.seed = q, t, samples, bound, seed
        self.name = f"coupling wall-sup k={len(q)} t={t} samples={samples}"

    def run(self):
        from gtpush import couplings, harness, intertwine, kernels

        k = len(self.q)
        samples = couplings.wall_sup_samples(k, self.q, self.t, self.samples, self.seed)
        gen = kernels.q_symplectic(2 * k, self.q, self.bound)
        ref = harness.Pmf.from_dense_row(intertwine.semigroup(gen, self.t, 1e-14), (0,) * k)
        last: dict = {}
        for state, p in zip(ref.support, ref.probs):
            last[state[-1]] = last.get(state[-1], 0.0) + float(p)
        support = tuple(sorted(last))
        probs = [last[s] for s in support]
        library_p = harness.chi_square_gof(samples, harness.Pmf(support, probs))
        stat, crit = oracles.chi_square(samples, support, probs)
        return stat <= crit, {"chi2": stat, "chi2_crit": crit, "library_p": library_p}


# ---------------------------------------------------------------------------
# workloads


def build(workload: str, seed: int, quick: bool):
    """(operations, standard-Schur rate vectors, symplectic rate vectors)."""
    base = seed * 1000
    if workload == "exact":
        if quick:
            ops = [IntertwineOp("poisson", 1, Q[:2], 5),
                   IntertwineOp("wall-odd-even", 1, Q[:1], 5),
                   IntertwineOp("wall-even-odd", 1, Q[:2], 5),
                   IntertwineOp("geometric", 1, Q[:2], 5),
                   ConservativeOp(3, Q[:2], 5),
                   SemigroupGapOp(1, Q[:2], 8, F(1, 2), 1e-10, 1e-8)]
        else:
            ops = [IntertwineOp("poisson", 3, Q, 8),
                   IntertwineOp("wall-odd-even", 3, Q[:3], 8),
                   IntertwineOp("wall-even-odd", 3, Q, 8),
                   IntertwineOp("geometric", 3, Q, 4),
                   ConservativeOp(6, Q[:3], 8),
                   SemigroupGapOp(1, Q[:2], 12, F(1, 2), 1e-10, 1e-8)]
        return ops, [Q], [Q[:3]]
    if workload == "mc-zero":
        trials, panels, sups = (300, 20, 500) if quick else (4000, 400, 5000)
        ops = [LawOp("poisson", 2, Q[:2], (0, 0), 1.0, 14, trials, base + 1),
               LawOp("geometric", 2, (F(1, 5), F(1, 7)), (0, 0), 3, 23, trials, base + 2),
               LawOp("wall", 3, Q[:2], (0, 0), 1.0, 21, trials, base + 3),
               LppOp(3, Q[:3], 10, panels, base + 4),
               LeftEdgeOp(3, Q[:3], 2.0, panels, base + 6),
               WallSupOp(Q[:1], 1.0, sups, 30, base + 8)]
        return ops, [Q[:3], (F(1, 5), F(1, 7))], [Q[:2]]
    if workload == "mc-shifted":
        if quick:
            ops = [LawOp("poisson", 3, Q[:3], (1, 2, 4), 0.5, 15, 600, base + 1),
                   LawOp("wall", 4, Q[:2], (1, 3), 0.5, 21, 600, base + 2),
                   LawOp("geometric", 2, (F(1, 5), F(1, 7)), (1, 3), 3, 25, 600, base + 3)]
        else:
            ops = [LawOp("poisson", 3, Q[:3], (1, 2, 4), 1.0, 18, 2000, base + 1),
                   LawOp("wall", 4, Q[:2], (1, 3), 1.0, 28, 2000, base + 2),
                   LawOp("geometric", 2, (F(1, 3), F(1, 5)), (1, 3), 3, 35, 2000, base + 3)]
        return ops, [Q[:3], (F(1, 3), F(1, 5))], [Q[:2]]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running


def clear_memo_tables():
    """Empty every functools cache at the top level of a gtpush module."""
    from spans import memo_caches

    for name, module in list(sys.modules.items()):
        if name == "gtpush" or name.startswith("gtpush."):
            for cache in memo_caches(module):
                cache.cache_clear()


def run_round(ops, tracer=None):
    """Run every operation once; returns (wall seconds, seconds at the
    reference speed, results).  Two calibrations before the first operation
    and two after each one measure the machine's speed during the round."""
    clear_memo_tables()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    results = []
    calibrations = [speed.calibrate(), speed.calibrate()]
    try:
        for op in ops:
            t_op = perf_counter()
            try:
                ok, detail = op.run()
                result = {"op": op.name, "ok": bool(ok), "failed": False, "detail": detail}
            except Exception:  # a fault of the program: count it and go on
                result = {"op": op.name, "ok": False, "failed": True,
                          "detail": traceback.format_exc(limit=3)}
            result["wall_s"] = perf_counter() - t_op
            results.append(result)
            calibrations += [speed.calibrate(), speed.calibrate()]
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(r["wall_s"] for r in results)
    return wall, speed.scale(wall, calibrations), results


def schur_sample_check(rng, std_rates, sp_rates):
    """Library Schur values at seeded rows against the closed formulas."""
    from gtpush import schur

    bad = []
    for i in range(SCHUR_SAMPLES):
        if i % 2 == 0:
            q = rng.choice(std_rates)
            n = rng.randint(1, len(q))
            z = tuple(sorted(rng.randint(0, 6) for _ in range(n)))
            if schur.schur(z, q[:n]) != oracles.bialternant(z, q[:n]):
                bad.append(("schur", z))
        else:
            q = rng.choice(sp_rates)
            k = rng.randint(1, len(q))
            height = rng.choice((2 * k - 1, 2 * k))
            z = tuple(sorted(rng.randint(0, 5) for _ in range(k)))
            if schur.sp_schur(height, z, q[:k]) != oracles.sp_schur_formula(height, z, q[:k]):
                bad.append(("sp_schur", height, z))
    return not bad, {"samples": SCHUR_SAMPLES, "mismatches": [str(b) for b in bad]}


def independent_checks(ops, seed, std_rates, sp_rates):
    """Run once after the timed rounds, on what the last round's operations
    built; operations that failed in that round have nothing to check."""
    rng = random.Random(seed)
    checks = [("schur values vs bialternant and Weyl formulas",
               lambda: schur_sample_check(rng, std_rates, sp_rates))]
    for op in ops:
        if hasattr(op, "non_vacuous"):
            checks.append((f"{op.name}: perturbed rate is caught", lambda op=op: op.non_vacuous(rng)))
        if hasattr(op, "brute_force"):
            checks.append((f"{op.name}: right edge vs brute-force paths", op.brute_force))
    out = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception:
            ok, detail = False, traceback.format_exc(limit=3)
        out.append({"check": name, "ok": bool(ok), "detail": detail})
    return out


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GTPUSH_THREADS": os.environ.get("GTPUSH_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import gtpush

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(gtpush.__file__).resolve().parents:
        raise SystemExit(f"gtpush was imported from {gtpush.__file__}, not from {src}")
    ops, std_rates, sp_rates = build(args.workload, args.seed, args.quick)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    min_rounds = (2 if args.trace else 1) if args.quick else 3
    scaled = {"untraced": [], "traced": []}
    wall = {"untraced": [], "traced": []}
    layers = []
    failed, wrong = 0, 0
    start = perf_counter()
    elapsed_s = []  # each round with its calibrations, to decide when to stop
    while True:
        kind = "traced" if tracer and len(scaled["untraced"]) > len(scaled["traced"]) \
            else "untraced"
        t_round = perf_counter()
        seconds, at_ref, results = run_round(ops, tracer if kind == "traced" else None)
        elapsed_s.append(perf_counter() - t_round)
        failed += sum(r["failed"] for r in results)
        wrong += sum(not r["ok"] and not r["failed"] for r in results)
        scaled[kind].append(at_ref)
        wall[kind].append(seconds)
        if kind == "traced":
            factor = at_ref / seconds
            layers.append({k: v * factor if isinstance(v, float) else v
                           for k, v in tracer.round_metrics().items()})
        spent = perf_counter() - start
        if len(elapsed_s) >= min_rounds and spent + statistics.median(elapsed_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ran = [op for op, r in zip(ops, results) if not r["failed"]]
    checks = independent_checks(ran, args.seed, std_rates, sp_rates)

    correct = wrong == 0 and all(c["ok"] for c in checks)
    out = {
        "untraced_rounds_s": scaled["untraced"],
        "traced_rounds_s": scaled["traced"],
        "untraced_wall_s": wall["untraced"],
        "traced_wall_s": wall["traced"],
        "attempted": len(ops) * len(elapsed_s),
        "failed": failed,
        "correct": correct,
        "peak_rss_mb": peak_rss_mb,
        "operations": results,
        "checks": checks,
        "environment": environment(),
    }
    if tracer is not None:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
        out["counts_repeat"] = all(c == counts[0] for c in counts)
        out["correct"] = correct and out["counts_repeat"]
        out["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        out["layers"].update(counts[0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
