"""Form of the benchmark's output and run records, on the quick inputs.

    python3 -m pytest perfbench/test_record.py -q
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload, trace, cwd=ROOT, seed=SEED):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def check_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert set(metrics[m["name"]]) == {"value", "unit"}
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result_and_record(workload):
    result = result_of(run(workload, 0))
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    record = json.loads((BENCH / "results" / f"{workload}-seed{SEED}-trace0-quick.json").read_text())
    assert record["metrics"] == result["metrics"]
    assert (record["attempted"], record["failed"], record["seed"]) == \
        (result["attempted"], result["failed"], SEED)
    env = record["environment"]
    assert set(env) >= {"nproc", "python", "numpy", "scipy", "openblas_threads",
                        "OPENBLAS_NUM_THREADS", "GTPUSH_THREADS"}
    assert env["GTPUSH_THREADS"] is None
    assert env["OPENBLAS_NUM_THREADS"] == record["blas_threads"]
    assert all(op["ok"] for op in record["operations"])
    assert record["checks"] and all(c["ok"] for c in record["checks"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    check_metrics(first, SPEC["per_layer"])
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_refuses_without_the_program():
    """A directory with only BENCHMARK.json and the benchmark has no program
    to measure: the run fails without printing a result."""
    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = run(WORKLOADS[0], 0, cwd=bare)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
