"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Monte Carlo criteria use
fixed master seeds, so every outcome here is reproducible bit for bit.
"""
import time
from fractions import Fraction as F

import numpy as np

from gtpush import couplings, intertwine, kernels
from gtpush.harness import (
    ExperimentConfig,
    chi_square_gof,
    empirical_pmf,
    endpoint_samples,
    reference_endpoint_pmf,
    tv_distance,
    wall_sup_reference,
)
from gtpush.intertwine import build_intertwining_case, run_intertwine_case

from _oracles import lpp_brute

Q = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}" + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_poisson_intertwining_exact():
    t0 = time.time()
    reports = [run_intertwine_case("poisson", n, Q[:3], 6) for n in (1, 2)]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 60
    checked = sum(r.states_checked for r in reports)
    _report(1, "poisson generator intertwining", ok,
            f"{checked} comparisons, 0 violations required, {elapsed:.1f}s")


def test_criterion_02_geometric_intertwining_exact():
    t0 = time.time()
    reports = [
        run_intertwine_case("geometric", 1, Q[:3], 8),
        run_intertwine_case("geometric", 2, Q[:3], 5),
    ]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 120
    checked = sum(r.states_checked for r in reports)
    _report(2, "geometric kernel intertwining", ok,
            f"{checked} comparisons, {elapsed:.1f}s")


def test_criterion_03_wall_intertwinings_and_conservativeness():
    reports = [
        run_intertwine_case("wall-odd-even", 1, Q[:2], 6),
        run_intertwine_case("wall-odd-even", 2, Q[:2], 6),
        run_intertwine_case("wall-even-odd", 1, Q[:2], 6),
    ]
    cons = []
    for n in (1, 2, 3, 4):
        k = (n + 1) // 2
        cons.append(intertwine.verify_conservative(kernels.q_symplectic(n, Q[:k], 6)))
    ok = all(r.passed for r in reports) and all(r.passed for r in cons)
    _report(3, "wall intertwinings + conservative Q_n", ok,
            f"{len(reports)} intertwinings, Q_1..Q_4 row sums exactly 0")


def test_criterion_04_schur_equalities_exact():
    r = intertwine.verify_schur_sums(Q, 4, 4)
    _report(4, "schur = oracle = pattern sum (both kinds)", r.passed,
            f"{r.states_checked} comparisons, {len(r.violations)} mismatches")


def test_criterion_05_harmonicity_exact():
    r = intertwine.verify_harmonicity(Q, 4, 3)
    _report(5, "harmonicity of the conditioned-walk h", r.passed,
            f"{r.states_checked} comparisons, {len(r.violations)} mismatches")


def test_criterion_06_integrating_out_lemma_exact():
    r = intertwine.verify_integrating_out(F(1, 2), 5)
    _report(6, "blocking/pushing integrating-out lemma", r.passed,
            f"{r.states_checked} comparisons, {len(r.violations)} failures")


def test_criterion_07_lpp_pathwise_identity():
    failures = couplings.lpp_failures(3, Q[:3], 10, 1000, 700)
    rng = np.random.default_rng(702)
    oracle_bad = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 5))
        eta = tuple(tuple(int(v) for v in rng.integers(0, 6, size=t)) for _ in range(n))
        g = couplings.lpp_G(couplings.GeometricPanel(eta), n, t)
        for k in range(1, n + 1):
            for tt in range(1, t + 1):
                if g[k - 1][tt - 1] != lpp_brute(eta, k, tt):
                    oracle_bad += 1
    ok = not failures and oracle_bad == 0
    _report(7, "right edge = last passage times, pathwise", ok,
            f"{len(failures)} trial failures, {oracle_bad} oracle mismatches")


def test_criterion_08_left_edge_pathwise_identity():
    failures = couplings.left_edge_failures(3, Q[:3], 2.0, 1000, 800)
    _report(8, "left edge = reflection recursion, pathwise", not failures,
            f"{len(failures)} / 1000 panels failed")


def test_criterion_09_poisson_marginal_law():
    t0 = time.time()
    cfg = ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 0), 1.0, 100_000, 901, 16)
    emp = empirical_pmf(endpoint_samples(cfg))
    ref = reference_endpoint_pmf(cfg)
    tv = tv_distance(emp, ref)
    elapsed = time.time() - t0
    _report(9, "bottom row law, rightward dynamics", tv <= 0.02 and elapsed < 300,
            f"TV={tv:.4f} at 1e5 trials, {elapsed:.0f}s")


def test_criterion_10_geometric_marginal_law():
    cfg = ExperimentConfig("geometric", 2, ("1/2", "1/3"), (0, 0), 4, 100_000, 1001, 60)
    emp = empirical_pmf(endpoint_samples(cfg))
    ref = reference_endpoint_pmf(cfg)
    tv = tv_distance(emp, ref)
    _report(10, "bottom row law, geometric dynamics", tv <= 0.02,
            f"TV={tv:.4f} vs the 4-step Gessel-Viennot law")


def test_criterion_11_wall_marginal_law():
    cfg2 = ExperimentConfig("wall", 2, ("1/2",), (0,), 1.0, 100_000, 1101, 25)
    tv2 = tv_distance(empirical_pmf(endpoint_samples(cfg2)), reference_endpoint_pmf(cfg2))
    cfg3 = ExperimentConfig("wall", 3, ("1/2", "1/3"), (0, 0), 1.0, 100_000, 1102, 28)
    tv3 = tv_distance(empirical_pmf(endpoint_samples(cfg3)), reference_endpoint_pmf(cfg3))
    _report(11, "bottom row law, wall dynamics", tv2 <= 0.02 and tv3 <= 0.03,
            f"TV(n=2)={tv2:.4f} <= 0.02, TV(n=3)={tv3:.4f} <= 0.03")


def test_criterion_12_wall_sup_identity():
    ref1 = wall_sup_reference(1, (F(1, 2),), 1.0, 30)
    pvals = []
    for seed in (1201, 1202, 1203):
        samples = couplings.wall_sup_samples(1, (F(1, 2),), 1.0, 100_000, seed)
        pvals.append(chi_square_gof(samples, ref1))
    ok = all(p > 0.01 for p in pvals)
    _report(12, "wall sup functional law", ok,
            "p-values " + ", ".join(f"{p:.3f}" for p in pvals))


def test_criterion_13_semigroup_intertwining():
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q[:2], 12)
    gap = intertwine.semigroup_intertwining_gap(q_y, gen, lam, F(1, 2), 1e-10)
    _report(13, "uniformized semigroup intertwining", gap < 1e-8, f"gap={gap:.2e}")


def test_criterion_14_wall_edge_pathwise_identity():
    failed = {k: couplings.wall_edge_failures(k, Q[:k], 1.5, 1000, 1400 + k) for k in (1, 2, 3)}
    _report(14, "wall right edge = wall sup functional, pathwise, every row",
            not any(failed.values()),
            ", ".join(f"k={k}: {len(f)} / 1000 panels failed" for k, f in failed.items()))
