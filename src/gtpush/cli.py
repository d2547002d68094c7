"""Command line front end: exact verification runs, simulators and statistics.

Exit codes: 0 on success/pass, 1 on a verification or comparison failure,
2 on usage errors (bad flags, malformed or nonpositive rates), 3 when a
computation cannot be carried out as asked (for instance a horizon past the
underflow limit of uniformization, or a reference law losing mass past the
truncation bound); the one-line message says what to change.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import couplings, dynamics, harness, intertwine, kernels, schur
from .patterns import SYMPLECTIC, frac, rates_of, row_length, sample_pattern


def _parse_rates(text: str, open_unit: bool = False):
    return rates_of([frac(part.strip()) for part in text.split(",")], open_unit=open_unit)


def _parse_row(text: str):
    return tuple(int(part) for part in text.split(","))


def build_intertwining_case(case: str, n: int, q, bound: int):
    """Assemble (marginal operator, coupling kernel/generator, Lambda, checker)
    for one intertwining case; q supplies at least the rates the case needs.
    The case's rows come from ``kernels._Y_ROW``: the lower row Y takes one
    rate per entry, and the upper row X above it has n entries."""
    if case not in kernels._Y_ROW:
        raise ValueError(f"unknown case {case!r}")
    kind, y_row = kernels._Y_ROW[case]
    k = next(k for k in (n, n + 1) if row_length(y_row(k) - 1, kind) == n)
    ext = rates_of(rates_of(q)[:k], k, open_unit=case == kernels.GEOMETRIC)
    lam = kernels.LambdaKernel(case, ext)
    if case == kernels.GEOMETRIC:
        return (kernels.kernel_geometric(k, ext, bound),
                kernels.coupling_kernel_geometric(n, ext, bound), lam,
                intertwine.verify_kernel_intertwining)
    return (kernels.row_generator(kind, y_row(k), ext, bound),
            kernels.coupling_generator(case, n, ext, bound), lam,
            intertwine.verify_generator_intertwining)


def run_intertwine_case(case: str, n: int, q, bound: int) -> intertwine.VerificationReport:
    q_y, gen, lam, checker = build_intertwining_case(case, n, q, bound)
    return checker(q_y, lam, gen, case=f"{case} n={n} bound={bound}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gtpush")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="evaluate the ordered-walk generating function")
    ps = p.add_subparsers(dest="action", required=True)
    e = ps.add_parser("eval")
    e.add_argument("--row", required=True)
    e.add_argument("--q", required=True)

    p = sub.add_parser("sp-schur", help="evaluate the wall generating function")
    ps = p.add_subparsers(dest="action", required=True)
    e = ps.add_parser("eval")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--row", required=True)
    e.add_argument("--q", required=True)

    p = sub.add_parser("verify", help="exact verification runs")
    ps = p.add_subparsers(dest="action", required=True)
    v = ps.add_parser("intertwine")
    v.add_argument("--case", required=True,
                   choices=["poisson", "geometric", "wall-odd-even", "wall-even-odd"])
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--q", required=True)
    v.add_argument("--bound", type=int, required=True)
    v.add_argument("--out")
    v = ps.add_parser("conservative")
    v.add_argument("--family", required=True, choices=["charlier", "symplectic"])
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--q", required=True)
    v.add_argument("--bound", type=int, required=True)
    v.add_argument("--out")
    v = ps.add_parser("semigroup")
    v.add_argument("--case", default="poisson", choices=["poisson"])
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--q", required=True)
    v.add_argument("--t", required=True)
    v.add_argument("--bound", type=int, required=True)
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--max-gap", type=float, default=1e-8)
    v = ps.add_parser("algebra")
    v.add_argument("--q", required=True)
    v.add_argument("--max-entry", type=int, default=4)
    v.add_argument("--max-rows", type=int, default=4)
    v.add_argument("--lemma-max", type=int, default=5)

    p = sub.add_parser("simulate", help="run one of the three dynamics")
    p.add_argument("--model", required=True, choices=["poisson", "geometric", "wall"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--horizon", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--max-tv", type=float, default=None)
    p.add_argument("--out")

    p = sub.add_parser("coupling", help="pathwise/distributional identity checks")
    ps = p.add_subparsers(dest="action", required=True)
    c = ps.add_parser("check")
    c.add_argument("--identity", required=True, choices=["left-edge", "lpp", "wall-sup"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", required=True)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--horizon", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--bound", type=int, default=30)
    c.add_argument("--min-p", type=float, default=0.01)

    p = sub.add_parser("stats", help="distribution file comparisons")
    ps = p.add_subparsers(dest="action", required=True)
    c = ps.add_parser("compare")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--max-tv", type=float, default=None)
    return top


def _cmd_schur(args) -> int:
    print(schur.schur(_parse_row(args.row), _parse_rates(args.q)))
    return 0


def _cmd_sp_schur(args) -> int:
    print(schur.sp_schur(args.n, _parse_row(args.row), _parse_rates(args.q)))
    return 0


def _cmd_verify(args) -> int:
    if args.action == "intertwine":
        report = run_intertwine_case(args.case, args.n, _parse_rates(args.q), args.bound)
        text = report.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return 0 if report.passed else 1
    if args.action == "conservative":
        qs = _parse_rates(args.q)
        if args.family == "charlier":
            gen = kernels.q_charlier(args.n, qs[: args.n], args.bound)
        else:
            k = (args.n + 1) // 2
            gen = kernels.q_symplectic(args.n, qs[:k], args.bound)
        report = intertwine.verify_conservative(gen)
        text = report.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return 0 if report.passed else 1
    if args.action == "semigroup":
        # uniformized kernels must stay intertwined up to the tolerance
        qs = _parse_rates(args.q)
        q_y, gen, lam, _ = build_intertwining_case("poisson", args.n, qs, args.bound)
        gap = intertwine.semigroup_intertwining_gap(q_y, gen, lam, Fraction(args.t), args.tol)
        print(json.dumps({"case": f"semigroup poisson n={args.n}", "t": args.t,
                          "gap": gap, "max_gap": args.max_gap}))
        return 0 if gap < args.max_gap else 1
    return _cmd_verify_algebra(args)


def _cmd_verify_algebra(args) -> int:
    """Exact sweep: generating-function equalities, harmonicity, and the
    integrating-out lemma, over the requested grid."""
    from itertools import combinations_with_replacement

    from .patterns import enumerate_patterns, weight
    from .schur import schur_oracle, sp_schur
    from .schur import schur as schur_eval

    qs = _parse_rates(args.q)
    top, rows_max = args.max_entry, args.max_rows
    mismatches = checks = 0
    for n in range(1, rows_max + 1):
        sub_q = qs[:n]
        for z in combinations_with_replacement(range(top + 1), n):
            via_rec = schur_eval(z, sub_q)
            via_det = schur_oracle(z, sub_q)
            via_sum = sum(weight(p, sub_q) for p in enumerate_patterns(z))
            checks += 1
            if not (via_rec == via_det == via_sum):
                mismatches += 1
    for k in range(1, (rows_max + 1) // 2 + 1):
        sub_q = qs[:k]
        for z in combinations_with_replacement(range(min(top, 3) + 1), k):
            for n in (2 * k - 1, 2 * k):
                raw = sum(weight(p, sub_q)
                          for p in enumerate_patterns(z, "symplectic", nrows=n))
                checks += 1
                if sp_schur(n, z, sub_q) != raw:
                    mismatches += 1
    for n in range(1, min(rows_max, 3) + 1):
        sub_q = qs[:n]
        total = sum(sub_q)
        for x in combinations_with_replacement(range(top + 1), n):
            lhs = Fraction(0)
            for i in range(n):
                if i == n - 1 or x[i] < x[i + 1]:
                    lhs += schur_eval(x[:i] + (x[i] + 1,) + x[i + 1:], sub_q)
            checks += 1
            if lhs != total * schur_eval(x, sub_q):
                mismatches += 1
    q = qs[0]
    for v1p in range(args.lemma_max + 1):
        for v2 in range(v1p, args.lemma_max + 1):
            for up in range(v1p, args.lemma_max + 1):
                total = sum(
                    q ** (-u) * kernels.blocking_factor(u, v1p, q)
                    for u in range(v1p, min(v2, up) + 1)
                ) * kernels.pushing_factor(up, v2, q)
                checks += 1
                if total != q ** (-up - v2):
                    mismatches += 1
    status = "pass" if mismatches == 0 else "fail"
    print(json.dumps({"case": "algebra", "checks": checks,
                      "mismatches": mismatches, "status": status}))
    return 0 if mismatches == 0 else 1


def _cmd_simulate(args) -> int:
    if args.trials > 1:
        return _cmd_simulate_endpoints(args)
    qs = _parse_rates(args.q)
    rng = harness.trial_rng(args.seed, 0)
    n = args.n
    if args.model == "wall":
        z = _parse_row(args.z) if args.z else (0,) * ((n + 1) // 2)
        init = sample_pattern(z, qs, "symplectic", rng, nrows=n)
        traj = dynamics.simulate_wall(n, qs, init, float(Fraction(args.horizon)), rng)
    elif args.model == "poisson":
        z = _parse_row(args.z) if args.z else (0,) * n
        init = sample_pattern(z, qs, "standard", rng, nrows=n)
        traj = dynamics.simulate_poisson(n, qs, init, float(Fraction(args.horizon)), rng)
    else:
        z = _parse_row(args.z) if args.z else (0,) * n
        init = sample_pattern(z, qs, "standard", rng, nrows=n)
        traj = dynamics.simulate_geometric(n, qs, init, int(args.horizon), rng)
    header = json.dumps({"model": args.model, "n": n, "q": [str(v) for v in qs],
                         "z": list(z), "horizon": args.horizon, "seed": args.seed})
    body = header + "\n" + traj.to_json_lines() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


def _cmd_simulate_endpoints(args) -> int:
    """Monte Carlo endpoint run; with --max-tv the empirical bottom-row law is
    held against the conditioned-walk reference law of the bottom row."""
    qs = _parse_rates(args.q)
    k = (args.n + 1) // 2 if args.model == "wall" else args.n
    z = _parse_row(args.z) if args.z else (0,) * k
    if args.model == "geometric":
        horizon: float | int = int(args.horizon)
    else:
        horizon = float(Fraction(args.horizon))
    bound = args.bound if args.bound is not None else max(z) + 8
    cfg = harness.ExperimentConfig(args.model, args.n, tuple(str(v) for v in qs),
                                   z, horizon, args.trials, args.seed, bound)
    emp = harness.empirical_pmf(harness.endpoint_samples(cfg))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(emp.to_csv())
    summary = {"model": args.model, "n": args.n, "trials": args.trials,
               "seed": args.seed}
    if args.max_tv is not None:
        ref = harness.reference_endpoint_pmf(cfg)
        tv = harness.tv_distance(emp, ref)
        summary.update({"tv": tv, "max_tv": args.max_tv, "escaped_mass": ref.escaped_mass})
        print(json.dumps(summary))
        return 0 if tv <= args.max_tv else 1
    print(json.dumps(summary))
    return 0


def _cmd_coupling(args) -> int:
    qs = _parse_rates(args.q)
    n, trials, seed = args.n, args.trials, args.seed
    if args.identity == "left-edge":
        t_end = float(Fraction(args.horizon))
        for trial in range(trials):
            rng = harness.trial_rng(seed, trial)
            panel = couplings.poisson_panel(n, qs, t_end, rng)
            if not couplings.left_edge_matches_dynamics(panel, n, qs, rng):
                print(json.dumps({"identity": "left-edge", "trial": trial, "status": "fail"}))
                return 1
        print(json.dumps({"identity": "left-edge", "trials": trials, "status": "pass"}))
        return 0
    if args.identity == "lpp":
        steps = int(args.horizon)
        open_qs = rates_of(qs[:n], open_unit=True)
        for trial in range(trials):
            rng = harness.trial_rng(seed, trial)
            panel = couplings.geometric_panel(n, open_qs, steps, rng)
            if not couplings.right_edge_equals_lpp(panel, n, open_qs, steps, rng):
                print(json.dumps({"identity": "lpp", "trial": trial, "status": "fail"}))
                return 1
        print(json.dumps({"identity": "lpp", "trials": trials, "status": "pass"}))
        return 0
    # wall-sup: distributional match against the conditioned-walk reference
    k = n
    t = float(Fraction(args.horizon))
    open_qs = rates_of(qs[:k], open_unit=True)
    samples = couplings.wall_sup_samples(k, open_qs, t, trials, seed)
    gen = kernels.row_generator_float(SYMPLECTIC, 2 * k, open_qs, args.bound)
    ref = harness.Pmf.from_dense_row(
        intertwine.semigroup(gen, t, 1e-14), (0,) * k)
    # the functional matches the last coordinate of the conditioned walk
    collapsed: dict = {}
    for state, p in zip(ref.support, ref.probs):
        key = state[-1]
        collapsed[key] = collapsed.get(key, 0.0) + float(p)
    ref1 = harness.Pmf(tuple(sorted(collapsed)), np.array([collapsed[s] for s in sorted(collapsed)]))
    pval = harness.chi_square_gof(samples, ref1)
    print(json.dumps({"identity": "wall-sup", "trials": trials, "p_value": pval,
                      "min_p": args.min_p}))
    return 0 if pval > args.min_p else 1


def _cmd_stats(args) -> int:
    with open(args.a) as fh:
        pa = harness.Pmf.from_csv(fh.read())
    with open(args.b) as fh:
        pb = harness.Pmf.from_csv(fh.read())
    tv = harness.tv_distance(pa, pb)
    print(json.dumps({"tv": tv, "max_tv": args.max_tv}))
    if args.max_tv is not None and tv > args.max_tv:
        return 1
    return 0


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "schur":
            return _cmd_schur(args)
        if args.command == "sp-schur":
            return _cmd_sp_schur(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "coupling":
            return _cmd_coupling(args)
        if args.command == "stats":
            return _cmd_stats(args)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> int:
    return cli_dispatch()


if __name__ == "__main__":
    sys.exit(main())
