"""Benchmark of gtpush: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload mc-zero --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 25     # every workload, untraced
    python3 perfbench/run.py --workload exact --seed 1 --quick  # small inputs, for tests

Run it from the root of a checkout: it imports gtpush from `src/`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are setup_s, verdict_s
and peak_rss_mb, with --trace 1 the per-module metrics and trace.overhead_s.
A run record with the same metrics, the operations' verdicts, the checks and
the machine goes to perfbench/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("exact", "mc-zero", "mc-shifted")
# The BLAS thread count is fixed so that runs compare; one thread keeps the
# whole workload on one core, whatever else the second core runs.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GTPUSH_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "workloads.py"), *args]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload process failed with exit code {done.returncode}")
    return done


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import gtpush and build the
    workload's inputs.  The first one is not counted, so that every run
    measures with the same file cache and compiled bytecode.  They are not
    scaled to the reference speed: scaled by calibrations in this process,
    start-up times spread more than unscaled ones."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for i in range(repeats + 1):
        t0 = perf_counter()
        run_child(args, timeout=60)
        if i:
            times.append(perf_counter() - t0)
    return times


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    start = perf_counter()
    setup = [] if trace else measure_setup(workload, seed, 2 if quick else SETUP_REPEATS)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace"] * trace + ["--quick"] * quick
    done = run_child(args, timeout=max(10.0, DEADLINE_S - (perf_counter() - start)))
    child = json.loads(done.stdout.strip().splitlines()[-1])

    untraced = statistics.median(child["untraced_rounds_s"])
    if trace:
        values = dict(child["layers"])
        values["trace.overhead_s"] = statistics.median(child["traced_rounds_s"]) - untraced
    else:
        values = {"setup_s": statistics.median(setup), "verdict_s": untraced,
                  "peak_rss_mb": child["peak_rss_mb"]}
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    result = {"correct": child["correct"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  quick=quick, blas_threads=BLAS_THREADS, reference_speed_s=speed.REF_S,
                  setup_samples_s=setup,
                  untraced_rounds_s=child["untraced_rounds_s"],
                  traced_rounds_s=child["traced_rounds_s"],
                  untraced_wall_s=child["untraced_wall_s"],
                  traced_wall_s=child["traced_wall_s"],
                  counts_repeat=child.get("counts_repeat"),
                  operations=child["operations"], checks=child["checks"],
                  environment=child["environment"])
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one short round")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gtpush" / "__init__.py").is_file():
        print(f"error: no gtpush sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = 1 if args.quick else args.seconds
    for workload in WORKLOADS if args.all else (args.workload,):
        result = run_workload(workload, args.seed, seconds, bool(args.trace), args.quick)
        print(json.dumps({"workload": workload, **result} if args.all else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
