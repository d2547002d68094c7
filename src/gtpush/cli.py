"""Command line front end: exact verification runs, simulators and statistics.

Every check sweep lives in the library module that owns its subject
(``intertwine``, ``couplings``, ``harness``); this module parses arguments,
calls one library function per command, prints its result and maps it to an
exit code.

Exit codes: 0 on success/pass, 1 on a verification or comparison failure,
2 on usage errors (bad flags, malformed or nonpositive rates), 3 when a
computation cannot be carried out as asked (for instance a horizon past the
underflow limit of uniformization, or a reference law losing mass past the
truncation bound); the one-line message says what to change.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import couplings, dynamics, harness, intertwine, kernels, schur
from .intertwine import build_intertwining_case
from .patterns import STANDARD, SYMPLECTIC, frac, rates_of, row_length, sample_pattern


def _parse_rates(text: str):
    return rates_of([frac(part.strip()) for part in text.split(",")])


def _parse_row(text: str):
    return tuple(int(part) for part in text.split(","))


def _parse_horizon(text: str, steps: bool, what: str = "the horizon"):
    """A horizon: a whole number of steps, or an exact time such as 3/2."""
    try:
        return int(text) if steps else float(Fraction(text))
    except (ValueError, OverflowError, ZeroDivisionError):
        form = "a whole number of steps" if steps else "an exact time such as 3/2"
        raise ValueError(f"{what} must be {form}, got {text}") from None


def _threshold(text: str) -> float:
    """A float gate; NaN, which fails every comparison, is refused."""
    if math.isnan(value := float(text)):
        raise argparse.ArgumentTypeError(f"a threshold must be a number, got {text}")
    return value


def _refuse_unused(flags: dict, use: str) -> None:
    """A usage error naming the first flag given (not None) that this run
    would ignore; use says what the flag is for."""
    for flag, value in flags.items():
        if value is not None:
            raise ValueError(f"{flag} is for {use}")


def _join_negative_rows(argv: list[str]) -> list[str]:
    """'--row -1,0' as '--row=-1,0': argparse takes a word that starts with
    '-' and is no plain number, such as -1,0, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and re.fullmatch(r"-\d+(,\s*-?\d+)+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    for action, flag, choices in (
            ("intertwine", "--case", list(kernels._Y_ROW)),
            ("conservative", "--family", ["charlier", "symplectic"])):
        v = ps.add_parser(action)
        v.add_argument(flag, required=True, choices=choices)
        v.add_argument("--n", type=int, required=True)
        v.add_argument("--q", required=True)
        v.add_argument("--bound", type=int, required=True)
        v.add_argument("--out")
    v = ps.add_parser("semigroup")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--q", required=True)
    v.add_argument("--t", required=True)
    v.add_argument("--bound", type=int, required=True)
    v.add_argument("--tol", type=_threshold, default=1e-10)
    v.add_argument("--max-gap", type=_threshold, default=1e-8)
    v = ps.add_parser("algebra")
    v.add_argument("--q", required=True)
    v.add_argument("--max-entry", type=int, default=4)
    v.add_argument("--max-rows", type=int, default=4)
    v.add_argument("--lemma-max", type=int, default=5)

    p = sub.add_parser("simulate", help="run one of the three dynamics")
    p.add_argument("--model", required=True, choices=dynamics.MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--horizon", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--max-tv", type=_threshold, default=None)
    p.add_argument("--out")

    p = sub.add_parser("coupling", help="pathwise/distributional identity checks")
    ps = p.add_subparsers(dest="action", required=True)
    c = ps.add_parser("check")
    c.add_argument("--identity", required=True,
                   choices=["left-edge", "lpp", "wall-edge", "wall-sup"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", required=True)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--horizon", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--bound", type=int, default=None)
    c.add_argument("--min-p", type=_threshold, default=None)

    p = sub.add_parser("stats", help="distribution file comparisons")
    ps = p.add_subparsers(dest="action", required=True)
    c = ps.add_parser("compare")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--max-tv", type=_threshold, default=None)
    return top


def _cmd_schur(args) -> int:
    print(schur.schur(_parse_row(args.row), _parse_rates(args.q)))
    return 0


def _cmd_sp_schur(args) -> int:
    print(schur.sp_schur(args.n, _parse_row(args.row), _parse_rates(args.q)))
    return 0


def _cmd_verify_report(args) -> int:
    """verify intertwine / conservative: one exact report, printed as JSON."""
    qs = _parse_rates(args.q)
    if args.action == "intertwine":
        report = intertwine.run_intertwine_case(args.case, args.n, qs, args.bound)
    else:
        kind = STANDARD if args.family == "charlier" else SYMPLECTIC
        report = intertwine.verify_conservative(kernels.row_generator(kind, args.n, qs, args.bound))
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.passed else 1


def _cmd_verify_semigroup(args) -> int:
    # uniformized kernels must stay intertwined up to the tolerance
    t = _parse_horizon(args.t, False, "--t")
    q_y, gen, lam, _ = build_intertwining_case("poisson", args.n, _parse_rates(args.q), args.bound)
    gap = intertwine.semigroup_intertwining_gap(q_y, gen, lam, t, args.tol)
    print(json.dumps({"case": f"semigroup poisson n={args.n}", "t": args.t,
                      "gap": gap, "max_gap": args.max_gap}))
    return 0 if gap < args.max_gap else 1


def _cmd_verify_algebra(args) -> int:
    """Exact sweeps: Schur sums, harmonicity and the integrating-out lemma."""
    qs = _parse_rates(args.q)
    reports = [intertwine.verify_schur_sums(qs, args.max_entry, args.max_rows),
               intertwine.verify_harmonicity(qs, args.max_entry, args.max_rows),
               intertwine.verify_integrating_out(qs[0], args.lemma_max)]
    passed = all(r.passed for r in reports)
    print(json.dumps({"case": "algebra", "checks": sum(r.states_checked for r in reports),
                      "mismatches": sum(len(r.violations) for r in reports),
                      "status": "pass" if passed else "fail"}))
    return 0 if passed else 1


def _cmd_simulate(args) -> int:
    horizon = _parse_horizon(args.horizon, args.model == "geometric")
    kind, qs = dynamics._model_rates(args.model, args.n, _parse_rates(args.q), horizon)
    z = _parse_row(args.z) if args.z else (0,) * row_length(args.n, kind)
    if args.trials != 1:  # ExperimentConfig refuses fewer than one trial
        return _simulate_endpoints(args, qs, z, horizon)
    # one trial prints its moves and holds them to no law
    _refuse_unused({"--max-tv": args.max_tv, "--bound": args.bound},
                   "endpoint runs of --trials 2 or more, not for the log of one trial")
    rng = harness.trial_rng(args.seed, 0)
    init = sample_pattern(z, qs, kind, rng, nrows=args.n)
    _, log = dynamics.simulate(args.model, args.n, qs, init, horizon, rng)
    header = json.dumps({"model": args.model, "n": args.n, "q": [str(v) for v in qs],
                         "z": list(z), "horizon": args.horizon, "seed": args.seed})
    moves = (json.dumps(dict(zip(("t", "row", "i", "d", "cause"), move))) for move in log)
    body = "\n".join([header, *moves]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


def _simulate_endpoints(args, qs, z, horizon) -> int:
    """Monte Carlo endpoint run; with --max-tv the empirical bottom-row law is
    held against the conditioned-walk reference law of the bottom row."""
    bound = args.bound if args.bound is not None else max(z, default=0) + 8
    cfg = harness.ExperimentConfig(args.model, args.n, qs, z, horizon, args.trials, args.seed, bound)
    emp = harness.empirical_pmf(harness.endpoint_samples(cfg))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(emp.to_csv())
    summary = {"model": args.model, "n": args.n, "trials": args.trials, "seed": args.seed}
    if args.max_tv is not None:
        ref = harness.reference_endpoint_pmf(cfg)
        summary.update({"tv": harness.tv_distance(emp, ref), "max_tv": args.max_tv,
                        "escaped_mass": ref.escaped_mass})
    print(json.dumps(summary))
    return 0 if args.max_tv is None or summary["tv"] <= args.max_tv else 1


def _cmd_coupling(args) -> int:
    n, trials, seed = args.n, args.trials, args.seed
    qs = _parse_rates(args.q)[:n]  # every identity takes the first n rates
    horizon = _parse_horizon(args.horizon, args.identity == "lpp")
    if args.identity == "wall-sup":
        # distributional match against the conditioned-walk reference
        bound = 30 if args.bound is None else args.bound
        min_p = 0.01 if args.min_p is None else args.min_p
        samples = couplings.wall_sup_samples(n, qs, horizon, trials, seed)
        pval = harness.chi_square_gof(samples, harness.wall_sup_reference(n, qs, horizon, bound))
        print(json.dumps({"identity": "wall-sup", "trials": trials, "p_value": pval,
                          "min_p": min_p}))
        return 0 if pval > min_p else 1
    _refuse_unused({"--bound": args.bound, "--min-p": args.min_p},
                   f"--identity wall-sup, which tests a law; {args.identity} is checked path "
                   f"by path")
    sweep = {"left-edge": couplings.left_edge_failures, "lpp": couplings.lpp_failures,
             "wall-edge": couplings.wall_edge_failures}[args.identity]
    failures = sweep(n, qs, horizon, trials, seed)
    if failures:
        print(json.dumps({"identity": args.identity, "trial": failures[0], "status": "fail"}))
        return 1
    print(json.dumps({"identity": args.identity, "trials": trials, "status": "pass"}))
    return 0


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


# (command, action) -> handler; argparse admits no other pair
_COMMANDS = {
    ("schur", "eval"): _cmd_schur,
    ("sp-schur", "eval"): _cmd_sp_schur,
    ("verify", "intertwine"): _cmd_verify_report,
    ("verify", "conservative"): _cmd_verify_report,
    ("verify", "semigroup"): _cmd_verify_semigroup,
    ("verify", "algebra"): _cmd_verify_algebra,
    ("simulate", None): _cmd_simulate,
    ("coupling", "check"): _cmd_coupling,
    ("stats", "compare"): _cmd_stats,
}


def cli_dispatch(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_join_negative_rows(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command, getattr(args, "action", None)](args)
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
