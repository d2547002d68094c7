import dataclasses
import json

import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from gtpush import couplings, harness
from gtpush.cli import cli_dispatch
from gtpush.harness import (
    ExperimentConfig,
    Pmf,
    chi_square_gof,
    empirical_pmf,
    endpoint_samples,
    tv_distance,
)


def test_tv_examples():
    a = Pmf(((0,), (1,)), np.array([0.5, 0.5]))
    b = Pmf(((0,), (1,)), np.array([1.0, 0.0]))
    c = Pmf(((2,), (3,)), np.array([0.5, 0.5]))
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(a, c) == pytest.approx(1.0)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(((0,),), np.array([0.5]))
    with pytest.raises(ValueError, match="length mismatch"):
        Pmf(((0,), (1,)), np.array([1.0]))
    with pytest.raises(ValueError):
        Pmf(((0,), (1,)), np.array([1.2, -0.2]))


def test_pmf_csv_round_trip():
    for p in (Pmf(((0, 1), (2, 3)), np.array([0.25, 0.75])),
              Pmf(((0,), (1,), (2,)), np.array([0.5, 0.25, 0.25]))):
        again = Pmf.from_csv(p.to_csv())
        assert again.support == p.support
        assert np.allclose(again.probs, p.probs)
    # an int state would read back as a 1-tuple, another state
    with pytest.raises(ValueError, match="tuple states only, got the state 0"):
        Pmf((0, 1, 2), np.array([0.5, 0.25, 0.25])).to_csv()


def test_pmf_refuses_a_repeated_state_or_a_nan_and_names_a_malformed_line():
    # the law of a state listed twice is not its last entry's
    with pytest.raises(ValueError, match=r"the state \(0,\) is listed more than once"):
        Pmf(((0,), (1,), (0,)), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(ValueError, match=r"the state \(0,\) is listed more than once"):
        Pmf.from_csv("state,prob\n0,0.5\n0,0.5\n")
    with pytest.raises(ValueError, match=r"line 3: expected a state and its probability, got \[\]"):
        Pmf.from_csv("state,prob\n0,0.5\n\n1,0.5\n")
    with pytest.raises(ValueError, match=r"line 2: .*got \['0', 'half'\]"):
        Pmf.from_csv("state,prob\n0,half\n")
    with pytest.raises(ValueError, match="probabilities sum to nan, not 1"):
        Pmf.from_csv("0,nan\n1,0.5\n")


def test_chi_square_null_is_calibrated():
    rng = np.random.default_rng(17)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    ref = Pmf(((0,), (1,), (2,), (3,)), probs)
    counts = rng.multinomial(100_000, probs)
    samples = [s for s, c in zip(ref.support, counts) for _ in range(c)]
    assert chi_square_gof(samples, ref) > 0.001


def test_chi_square_rejects_shifted_distribution():
    rng = np.random.default_rng(18)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    shifted = np.array([0.25, 0.25, 0.25, 0.25])  # TV = 0.15 from ref
    ref = Pmf(((0,), (1,), (2,), (3,)), probs)
    counts = rng.multinomial(100_000, shifted)
    samples = [s for s, c in zip(ref.support, counts) for _ in range(c)]
    assert chi_square_gof(samples, ref) < 1e-6


def test_chi_square_merges_thin_bins():
    # many states with tiny expected counts collapse into one tail bin
    rng = np.random.default_rng(19)
    support = tuple((i,) for i in range(50))
    probs = np.array([0.9] + [0.1 / 49] * 49)
    ref = Pmf(support, probs)
    counts = rng.multinomial(200, probs)
    samples = [s for s, c in zip(support, counts) for _ in range(c)]
    assert 0.0 <= chi_square_gof(samples, ref) <= 1.0


def test_chi_square_degenerate_errors():
    ref = Pmf(((0,),), np.array([1.0]))
    with pytest.raises(ValueError):
        chi_square_gof([(0,)] * 100, ref)


def test_chi_square_refutes_samples_the_reference_cannot_produce():
    # the listed law sums to 1 and leaves no mass for (7,): 20 samples there
    # used to be dropped, and the rest passed at p = 0.0455
    ref = Pmf(((0,), (1,)), np.array([0.5, 0.5]))
    assert chi_square_gof([(0,)] * 40 + [(1,)] * 40 + [(7,)] * 20, ref) == 0.0
    assert chi_square_gof([(0,)] * 50 + [(1,)] * 50, ref) == 1.0
    # a one-state reference is refused first, whatever the samples
    with pytest.raises(ValueError, match="at least two states"):
        chi_square_gof([(0,)] * 90 + [(7,)] * 10, Pmf(((0,),), np.array([1.0])))


def test_config_validation():
    ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 0), 1.0, 10, 1, 8)
    with pytest.raises(ValueError):
        ExperimentConfig("brownian", 2, ("1/2",), (0,), 1.0, 10, 1, 8)
    with pytest.raises(ValueError):
        ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 0), 1.0, 0, 1, 8)
    with pytest.raises(ValueError):
        ExperimentConfig("poisson", 2, ("1/2", "1/3"), (7, 7), 1.0, 10, 1, 8)
    with pytest.raises(ValueError):
        ExperimentConfig("poisson", 2, ("0", "1/3"), (0, 0), 1.0, 10, 1, 8)
    # the bottom row must fit the model: two entries for wall n=3, in order, nonnegative
    with pytest.raises(ValueError):
        ExperimentConfig("wall", 3, ("1/2", "1/3"), (2, 3, 4), 1.0, 10, 0, 25)
    with pytest.raises(ValueError):
        ExperimentConfig("geometric", 2, ("1/2", "1/3"), (2, 1), 1, 10, 1, 8)
    with pytest.raises(ValueError):
        ExperimentConfig("poisson", 2, ("1/2", "1/3"), (-1, 0), 1.0, 10, 1, 8)
    # the rates are checked as a run checks them: their count, and below 1 but for poisson
    with pytest.raises(ValueError, match="expected 2 rates, got 3"):
        ExperimentConfig("poisson", 2, ("1/2", "1/3", "1/5"), (0, 0), 1.0, 10, 1, 8)
    with pytest.raises(ValueError, match="open interval"):
        ExperimentConfig("geometric", 2, ("1/2", "3/2"), (0, 0), 1, 10, 1, 8)


def test_a_fractional_geometric_horizon_is_refused():
    # int(2.5) would silently run 2 steps
    with pytest.raises(ValueError, match="whole number of steps >= 0, got horizon = 2.5"):
        ExperimentConfig("geometric", 2, ("1/2", "1/3"), (0, 0), 2.5, 10, 1, 8)
    # a whole number of steps written as a float runs that many steps
    whole = ExperimentConfig("geometric", 2, ("1/2", "1/3"), (0, 0), 2.0, 300, 1, 8)
    assert endpoint_samples(whole) == endpoint_samples(dataclasses.replace(whole, horizon=2))


def test_endpoint_samples_reproducible():
    cfg = ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 0), 0.5, 64, 21, 8)
    a = endpoint_samples(cfg)
    b = endpoint_samples(cfg)
    assert a == b
    assert all(len(s) == 2 for s in a)


def test_endpoint_samples_block_zero_does_not_depend_on_the_trial_count():
    # two full blocks and a remainder; block 0 draws from the stream (seed, 0)
    # whatever follows it, so its samples are those of a one-block run
    trials = 2 * harness.BLOCK_TRIALS + 5
    cfg = ExperimentConfig("geometric", 2, ("1/2", "1/3"), (0, 0), 2, trials, 22, 30)
    samples = endpoint_samples(cfg)
    one_block = endpoint_samples(dataclasses.replace(cfg, trials=harness.BLOCK_TRIALS))
    assert len(samples) == trials
    assert samples[:harness.BLOCK_TRIALS] == one_block


def test_cli_schur_eval(capsys):
    assert cli_dispatch(["schur", "eval", "--row", "0,1", "--q", "1/2,1/3"]) == 0
    assert capsys.readouterr().out.strip() == "5/6"


def test_cli_sp_schur_eval(capsys):
    assert cli_dispatch(["sp-schur", "eval", "--n", "2", "--row", "1", "--q", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"


def test_cli_reads_a_negative_row_after_a_space(capsys):
    # argparse takes a word such as -1,0 for an option unless it is joined to
    # its flag; s_(-1,0) = s_(0,1) / (q1 q2) = (5/6) / (1/6)
    for row in (["--row", "-1,0"], ["--row=-1,0"]):
        assert cli_dispatch(["schur", "eval", *row, "--q", "1/2,1/3"]) == 0
        assert capsys.readouterr().out.strip() == "5"
    # the wall's chamber is nonnegative: 0 off it
    assert cli_dispatch(["sp-schur", "eval", "--n", "3", "--row", "-1,0", "--q", "1/2,1/3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_verify_intertwine_pass(capsys):
    code = cli_dispatch(
        ["verify", "intertwine", "--case", "poisson", "--n", "1",
         "--q", "1/2,1/3", "--bound", "6"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"


def test_cli_verify_rejects_nonpositive_rate(capsys):
    code = cli_dispatch(
        ["verify", "intertwine", "--case", "poisson", "--n", "1",
         "--q", "0,1/3", "--bound", "6"]
    )
    assert code == 2


def test_cli_rejects_float_rate():
    code = cli_dispatch(["schur", "eval", "--row", "0,1", "--q", "0.5,0.3"])
    assert code == 2


def test_cli_unknown_flag_usage_error():
    assert cli_dispatch(["verify", "intertwine", "--frobnicate"]) == 2
    assert cli_dispatch(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    *(["verify", "intertwine", "--case", case, "--n", "0", "--q", "1/2,1/3", "--bound", "4"]
      for case in ("poisson", "geometric", "wall-odd-even", "wall-even-odd")),
    *(["verify", "conservative", "--family", family, "--n", "0", "--q", "1/2", "--bound", "4"]
      for family in ("charlier", "symplectic")),
    ["verify", "semigroup", "--n", "0", "--q", "1/2,1/3", "--t", "1", "--bound", "4"],
    ["coupling", "check", "--identity", "wall-sup", "--n", "0", "--q", "1/2", "--horizon", "1"],
    ["coupling", "check", "--identity", "lpp", "--n", "0", "--q", "1/2", "--horizon", "1"],
    ["coupling", "check", "--identity", "lpp", "--n", "1", "--q", "1/2", "--horizon", "1",
     "--trials", "0"],
    *(["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "1",
       "--trials", trials] for trials in ("0", "-3")),
    *(["verify", "intertwine", "--case", case, "--n", "1", "--q", "1/2,1/3", "--bound", bound]
      for case in ("poisson", "geometric", "wall-odd-even", "wall-even-odd")
      for bound in ("0", "-2")),
    ["sp-schur", "eval", "--n", "0", "--row", "1", "--q", "1/2"],
    ["verify", "algebra", "--q", "1/2", "--max-rows", "0", "--lemma-max", "-1"],
    ["verify", "algebra", "--q", "1/2", "--max-entry", "-1", "--lemma-max", "-1"],
    ["verify", "algebra", "--q", "1/2", "--max-entry", "0", "--max-rows", "1", "--lemma-max", "-1"],
    ["verify", "algebra", "--q", "1/2,1/3"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("--")))
def test_cli_sizes_below_one_are_usage_errors(capsys, argv):
    # nothing checked is neither a pass nor a failed verification
    assert cli_dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,named", [
    (["stats", "compare", "--a", "{a}", "--b", "{b}", "--max-tv", "nan"], "--max-tv"),
    (["simulate", "--model", "poisson", "--n", "1", "--q", "1/2", "--horizon", "1",
      "--trials", "10", "--max-tv", "nan"], "--max-tv"),
    (["coupling", "check", "--identity", "wall-sup", "--n", "1", "--q", "1/2", "--horizon", "1",
      "--min-p", "nan"], "--min-p"),
    (["verify", "semigroup", "--n", "1", "--q", "1/2,1/3", "--t", "1", "--bound", "4",
      "--max-gap", "nan"], "--max-gap"),
    (["verify", "semigroup", "--n", "1", "--q", "1/2,1/3", "--t", "1", "--bound", "4",
      "--tol", "nan"], "--tol"),
    (["simulate", "--model", "poisson", "--n", "1", "--q", "1/2", "--horizon", "1e400"],
     "got 1e400"),
    (["coupling", "check", "--identity", "left-edge", "--n", "1", "--q", "1/2",
      "--horizon", "1e400"], "got 1e400"),
], ids=["stats-max-tv", "simulate-max-tv", "min-p", "max-gap", "tol", "simulate-horizon",
        "coupling-horizon"])
def test_cli_refuses_nan_gates_and_an_overflowing_horizon(tmp_path, capsys, argv, named):
    # a NaN gate passes or fails whatever is measured, and a horizon past the
    # float range is no time: both are usage errors, not results
    law = Pmf(((0,), (1,)), np.array([0.5, 0.5])).to_csv()
    (tmp_path / "a.csv").write_text(law)
    (tmp_path / "b.csv").write_text(law)
    paths = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
    assert cli_dispatch([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["schur", "eval", "--row", "1", "--q", "1/0"],
    ["simulate", "--model", "poisson", "--n", "1", "--q", "1/2", "--horizon", "1/0"],
    ["verify", "semigroup", "--n", "1", "--q", "1/2,1/3", "--t", "1/0", "--bound", "4"],
], ids=["rate", "horizon", "t"])
def test_cli_a_zero_denominator_is_a_usage_error(capsys, argv):
    # 1/0 is no rational: refused as input, naming it, rather than reaching
    # the arithmetic
    assert cli_dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "1/0" in err


def test_wall_sup_reference_refuses_a_bound_below_two(capsys):
    # the reference law starts at the zero row, which needs a box of bound 2;
    # the refusal names the bound, not a bottom row the caller never gave
    with pytest.raises(ValueError, match="bound >= 2, got bound = 1"):
        harness.wall_sup_reference(1, (F(1, 2),), 1.0, 1)
    assert cli_dispatch(["coupling", "check", "--identity", "wall-sup", "--n", "1", "--q", "1/2",
                         "--horizon", "1", "--bound", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "bound = 1" in err and "z =" not in err
    with pytest.raises(RuntimeError, match="truncation bound 2: the bound must go up"):
        harness.wall_sup_reference(1, (F(1, 2),), 1.0, 2)  # bound 2 passes, but t = 1 escapes it


@pytest.mark.parametrize("argv", [
    ["coupling", "check", "--identity", "left-edge", "--n", "2", "--q", "1/2,1/3",
     "--horizon", "1e15", "--trials", "1"],
    ["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "1e15"],
    ["simulate", "--model", "wall", "--n", "2", "--q", "1/2", "--horizon", "1e15",
     "--trials", "2"],
], ids=["left-edge", "one-trajectory", "endpoints"])
def test_cli_a_horizon_past_the_ring_event_cap_exits_3(capsys, argv):
    # refused before a draw is made, rather than exhausting memory
    assert cli_dispatch(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "t_end = 1e+15" in err


@pytest.mark.parametrize("trials", ["1", "2"], ids=["one-trajectory", "endpoints"])
def test_cli_a_geometric_horizon_past_the_jump_cap_exits_3(capsys, trials):
    # 1e11 steps are refused before the first jump is drawn, not stepped through
    start = time.perf_counter()
    code = cli_dispatch(["simulate", "--model", "geometric", "--n", "1", "--q", "1/2",
                         "--trials", trials, "--horizon", "100000000000"])
    assert code == 3 and time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "horizon of 100000000000 steps" in err


@pytest.mark.parametrize("argv,code", [
    (["--n", "2", "--q", "1/2,1/3", "--horizon", "4", "--bound", "1"], 2),
    (["--n", "1", "--q", "1/2", "--horizon", "20", "--bound", "6"], 3),
], ids=["bound-below-two", "bound-the-law-leaves"])
def test_cli_wall_sup_refuses_its_bound_before_sampling(capsys, monkeypatch, argv, code):
    # the reference is built first, so a bad bound is refused without drawing
    # the 400,000 trials asked for
    def no_samples(*args):
        raise AssertionError("wall_sup_samples ran before the bound was checked")

    monkeypatch.setattr(couplings, "wall_sup_samples", no_samples)
    start = time.perf_counter()
    assert cli_dispatch(["coupling", "check", "--identity", "wall-sup", *argv,
                         "--trials", "400000"]) == code
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "bound" in err


def test_cli_verify_conservative(capsys):
    code = cli_dispatch(
        ["verify", "conservative", "--family", "symplectic", "--n", "3",
         "--q", "1/2,1/3", "--bound", "5"]
    )
    assert code == 0


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--model", "wall", "--n", "2", "--q", "1/2",
            "--horizon", "1", "--seed", "9"]
    assert cli_dispatch(args + ["--out", str(out1)]) == 0
    assert cli_dispatch(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert json.loads(lines[0])["model"] == "wall"


def test_cli_simulate_prints_one_json_line_per_record(tmp_path, capsys):
    # the header, then one line per move, and no empty line when there is none
    base = ["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--seed", "4"]
    for horizon, moves in (("1/100", False), ("3", True)):
        assert cli_dispatch(base + ["--horizon", horizon]) == 0
        printed = capsys.readouterr().out
        header, *log = printed.split("\n")[:-1]
        assert printed.endswith("}\n") and json.loads(header)["horizon"] == horizon
        assert bool(log) == moves and all(json.loads(line) for line in log)
        out = tmp_path / f"{horizon.replace('/', '-')}.jsonl"
        assert cli_dispatch(base + ["--horizon", horizon, "--out", str(out)]) == 0
        assert out.read_text() == printed and capsys.readouterr().out == ""


@pytest.mark.parametrize("identity,horizon", [("left-edge", "1"), ("lpp", "3"),
                                              ("wall-edge", "1")])
@pytest.mark.parametrize("flag,value", [("--bound", "1"), ("--min-p", "0.99")])
def test_cli_pathwise_couplings_refuse_the_wall_sup_flags(capsys, identity, horizon, flag, value):
    # a pathwise identity holds on every trial or fails on one: a reference box
    # or a p-value gate would be ignored, so asking for one is a usage error
    code = cli_dispatch(["coupling", "check", "--identity", identity, "--n", "2", "--q",
                         "1/2,1/3", "--horizon", horizon, "--trials", "5", flag, value])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.count("\n") == 1 and flag in out.err and "wall-sup" in out.err


def test_cli_verify_intertwine_writes_the_report_it_prints(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_dispatch(["verify", "intertwine", "--case", "poisson", "--n", "1", "--q",
                         "1/2,1/3", "--bound", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed and json.loads(printed)["status"] == "pass"


def test_cli_coupling_check_left_edge(capsys):
    code = cli_dispatch(
        ["coupling", "check", "--identity", "left-edge", "--n", "2",
         "--q", "1/2,1/3", "--trials", "25", "--horizon", "1", "--seed", "3"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_cli_coupling_check_lpp(capsys):
    code = cli_dispatch(
        ["coupling", "check", "--identity", "lpp", "--n", "2",
         "--q", "1/2,1/3", "--trials", "25", "--horizon", "5", "--seed", "4"]
    )
    assert code == 0


def test_cli_stats_compare(tmp_path, capsys):
    a = Pmf(((0,), (1,)), np.array([0.5, 0.5]))
    b = Pmf(((0,), (1,)), np.array([0.6, 0.4]))
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    fa.write_text(a.to_csv())
    fb.write_text(b.to_csv())
    assert cli_dispatch(["stats", "compare", "--a", str(fa), "--b", str(fb)]) == 0
    capsys.readouterr()
    code = cli_dispatch(["stats", "compare", "--a", str(fa), "--b", str(fb),
                         "--max-tv", "0.05"])
    assert code == 1


def test_cli_stats_compare_refuses_a_repeated_state_a_blank_line_or_a_nan(tmp_path, capsys):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    fb.write_text(Pmf(((0,), (1,)), np.array([0.5, 0.5])).to_csv())
    for text, message in (("0,0.5\n0,0.5\n", "error: the state (0,) is listed more than once"),
                          ("0,0.5\n\n1,0.5\n", "error: line 2: expected a state"),
                          ("0,nan\n1,0.5\n", "error: probabilities sum to nan, not 1")):
        fa.write_text(text)
        assert cli_dispatch(["stats", "compare", "--a", str(fa), "--b", str(fb)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(message)


def test_cli_verify_semigroup(capsys):
    code = cli_dispatch(
        ["verify", "semigroup", "--n", "1", "--q", "1/2,1/3", "--t", "1/4",
         "--bound", "8", "--tol", "1e-10", "--max-gap", "1e-8"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] < 1e-8
    # the semigroup check is of the poisson case only and takes no --case
    assert cli_dispatch(["verify", "semigroup", "--case", "poisson", "--n", "1", "--q", "1/2,1/3",
                         "--t", "1/4", "--bound", "8"]) == 2


def test_cli_coupling_check_wall_sup(capsys):
    code = cli_dispatch(
        ["coupling", "check", "--identity", "wall-sup", "--n", "1",
         "--q", "1/2", "--trials", "4000", "--horizon", "1", "--seed", "1201"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["p_value"] > 0.01


def test_cli_wall_sup_with_too_few_trials_asks_for_more(capsys):
    code = cli_dispatch(["coupling", "check", "--identity", "wall-sup", "--n", "2",
                         "--q", "1/2,1/3", "--trials", "20", "--horizon", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "20 samples" in out.err and "more samples are needed" in out.err


def test_cli_verify_algebra(capsys):
    code = cli_dispatch(
        ["verify", "algebra", "--q", "1/2,1/3,1/5", "--max-entry", "2",
         "--max-rows", "3", "--lemma-max", "3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass" and doc["mismatches"] == 0


def test_algebra_sweeps_refuse_empty_grids():
    from gtpush import intertwine

    q = (F(1, 2),)
    for sweep in (intertwine.verify_schur_sums, intertwine.verify_harmonicity):
        with pytest.raises(ValueError, match="max_entry must be >= 0 and max_rows >= 1, got 2, 0"):
            sweep(q, 2, 0)
        with pytest.raises(ValueError, match="got -1, 2"):
            sweep(q, -1, 2)
    with pytest.raises(ValueError, match="lemma_max must be >= 0, got -1"):
        intertwine.verify_integrating_out(q[0], -1)
    # a sweep that reads more rates than given is refused before it runs
    with pytest.raises(ValueError, match="max_rows 4 needs 4 rates, got 2"):
        intertwine.verify_schur_sums(q * 2, 2, 4)
    with pytest.raises(ValueError, match="max_rows 4 needs 3 rates, got 2"):
        intertwine.verify_harmonicity(q * 2, 2, 4)


@pytest.mark.parametrize("argv,seed", [
    (["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "1"], "-1"),
    (["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "1",
      "--trials", "5"], "-1"),
    (["coupling", "check", "--identity", "lpp", "--n", "2", "--q", "1/2,1/3", "--horizon", "2"],
     "-2"),
    (["coupling", "check", "--identity", "wall-sup", "--n", "1", "--q", "1/2", "--horizon", "1"],
     "-2"),
], ids=["one-trial", "endpoints", "lpp", "wall-sup"])
def test_cli_refuses_a_negative_seed(capsys, argv, seed):
    # every stream comes from harness.trial_rng, which names the seed
    assert cli_dispatch(argv + ["--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: the seed must be >= 0, got {seed}\n"


def test_cli_verify_algebra_runs_the_criteria_grids(capsys):
    # the default grid is that of acceptance criteria 4, 5 and 6
    assert cli_dispatch(["verify", "algebra", "--q", "1/2,1/3,1/5,1/7"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == 193 + 55 + 91


def test_cli_simulate_rejects_bad_bottom_row(capsys):
    code = cli_dispatch(["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3",
                         "--z=-1,0", "--horizon", "1", "--trials", "10", "--max-tv", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "bottom row" in out.err


@pytest.mark.parametrize("trials", [[], ["--trials", "5"]], ids=["one-trial", "endpoints"])
@pytest.mark.parametrize("model", ["poisson", "wall", "geometric"])
def test_cli_simulate_zero_rows_names_n(capsys, model, trials):
    code = cli_dispatch(["simulate", "--model", model, "--n", "0", "--q", "1/2",
                         "--horizon", "1"] + trials)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: a pattern needs n >= 1 rows, got n = 0\n"


def test_cli_simulate_endpoint_mode(tmp_path, capsys):
    out = tmp_path / "emp.csv"
    code = cli_dispatch(
        ["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3",
         "--horizon", "1", "--trials", "4000", "--seed", "5",
         "--bound", "16", "--max-tv", "0.05", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tv"] <= 0.05
    emp = Pmf.from_csv(out.read_text())
    assert abs(float(emp.probs.sum()) - 1.0) < 1e-9


def test_cli_simulate_reports_escaped_mass(capsys):
    # the reference law's mass past an explicit bound, as 1 - (row sum); the
    # float reference agrees with the exact generator's semigroup row
    from gtpush import intertwine, kernels

    code = cli_dispatch(
        ["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3",
         "--horizon", "1", "--trials", "200", "--seed", "5", "--bound", "12", "--max-tv", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    ref = harness.reference_endpoint_pmf(
        ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 0), 1.0, 200, 5, 12))
    assert doc["escaped_mass"] == 1.0 - float(ref.probs.sum())
    assert 1e-15 < doc["escaped_mass"] <= 1e-12
    gen = kernels.q_charlier(2, (F(1, 2), F(1, 3)), 12)
    row = intertwine.semigroup(gen, 1.0, 1e-14).row((0, 0))
    assert abs(doc["escaped_mass"] - (1.0 - float(row.sum()))) <= 1e-15


@pytest.mark.parametrize("model,n,q,horizon,margin", [
    ("poisson", 2, ("1/2", "1/3"), 0.5, 9),
    ("wall", 3, ("1/2", "1/3"), 0.5, 14),
    ("geometric", 2, ("1/5", "1/7"), 1, 17),
])
def test_reference_laws_record_the_mass_their_probabilities_miss(model, n, q, horizon, margin):
    # the continuous laws' escaped mass is 1 minus the sum of the
    # probabilities kept, exactly: a sum of the whole row, zeros included,
    # groups its terms differently and differs in the last bits at about half
    # of these laws.  The geometric law's is 1 minus the exact sum of its
    # terms, correctly rounded: here, one step, 1 minus the exact kernel's
    # row on the box
    from gtpush import kernels

    for z in ((0, 0), (1, 2)):
        for bound in range(max(z) + margin, max(z) + 29):
            ref = harness.reference_endpoint_pmf(
                ExperimentConfig(model, n, q, z, horizon, 1, 0, bound))
            if model == "geometric":
                row = kernels.kernel_geometric(n, q, bound).row(z)
                assert ref.escaped_mass == float(1 - sum(row.values())), (z, bound)
            else:
                assert ref.escaped_mass == 1.0 - float(ref.probs.sum()), (z, bound)


@pytest.mark.parametrize("q,z,horizon,bound", [
    (("1/5", "1/7"), (0, 0), 3, 23),  # the benchmark's mc-zero law
    (("1/3", "1/5"), (1, 3), 3, 35),  # its mc-shifted law
    (("1/2", "1/3"), (0, 0), 4, 60),  # criterion 10
    (("1/5", "1/7"), (0, 0), 40, 60),  # binomials up to C(100, 39), past int64
])
def test_geometric_reference_is_the_kernel_power(q, z, horizon, bound):
    # the closed-form reference against the exact kernel in floats applied
    # horizon times: the same support, and within 1e-15
    from gtpush import kernels

    cfg = ExperimentConfig("geometric", 2, q, z, horizon, 1, 0, bound)
    fk = kernels.kernel_geometric(2, cfg.q, bound).float_kernel()
    row = np.eye(len(fk.states))[fk.states.index(z)]
    for _ in range(horizon):
        row = fk.apply(row)
    power = harness.Pmf.from_row(fk.states, row)
    ref = harness.reference_endpoint_pmf(cfg)
    assert ref.support == power.support
    assert np.max(np.abs(ref.probs - power.probs)) <= 1e-15


def test_endpoint_samples_respect_nonzero_start():
    # with the initial pattern drawn from the exact bottom-row measure, the
    # bottom row follows the conditioned-walk semigroup from any starting row
    from gtpush import intertwine, kernels

    cfg = ExperimentConfig("poisson", 2, ("1/2", "1/3"), (0, 2), 1.0, 20_000, 23, 16)
    emp = empirical_pmf(endpoint_samples(cfg))
    gen = kernels.q_charlier(2, (F(1, 2), F(1, 3)), 16)
    ref = harness.Pmf.from_dense_row(intertwine.semigroup(gen, 1.0, 1e-14), (0, 2))
    assert tv_distance(emp, ref) < 0.03
    # from a nonzero start the law tells which row jumps at which rate, which
    # the symmetric law from zero cannot.  The geometric gate is the poisson
    # one, fixed with the seed before the first run: 0.03 is 2.3 times the
    # 0.013 that 20,000 exact draws average against this reference (the sum
    # over states of sqrt(2 p (1 - p) / (pi N)) / 2).
    cfg = ExperimentConfig("geometric", 2, ("1/3", "1/5"), (1, 3), 3, 20_000, 29, 36)
    emp = empirical_pmf(endpoint_samples(cfg))
    assert tv_distance(emp, harness.reference_endpoint_pmf(cfg)) < 0.03


def test_console_entry_point_runs():
    args = ["schur", "eval", "--row", "0,1", "--q", "1/2,1/3"]
    for cmd in ([sys.executable, "-c",
                 "import sys; from gtpush.cli import cli_dispatch;"
                 f"sys.exit(cli_dispatch({args!r}))"],
                [sys.executable, "-m", "gtpush.cli", *args],
                [sys.executable, "-m", "gtpush", *args]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5/6" and proc.stderr == ""
    proc = subprocess.run([sys.executable, "-m", "gtpush", "schur", "eval", "--bogus"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""


def test_cli_semigroup_past_underflow_exits_3():
    # theta*t far beyond exp's underflow: an internal limit, not a failed check
    proc = subprocess.run(
        [sys.executable, "-m", "gtpush.cli", "verify", "semigroup", "--n", "1",
         "--q", "1/2,1/3", "--t", "1000", "--bound", "12"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "underflow" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "10",
         "--trials", "200", "--max-tv", "0.05"],
        ["simulate", "--model", "geometric", "--n", "2", "--q", "1/2,1/3", "--horizon", "20",
         "--trials", "200", "--max-tv", "0.05"],
        ["coupling", "check", "--identity", "wall-sup", "--n", "1", "--q", "1/2",
         "--trials", "200", "--horizon", "20", "--bound", "6"],
        # 1000 steps carry the walks far past bound 20: the law on the box rounds to 0
        ["simulate", "--model", "geometric", "--n", "2", "--q", "1/2,1/3", "--horizon", "1000",
         "--trials", "2", "--bound", "20", "--max-tv", "1"],
    ],
)
def test_cli_lost_truncation_mass_exits_3(args):
    # the reference law leaves the box: a bound too small for the horizon,
    # not a usage error
    proc = subprocess.run([sys.executable, "-m", "gtpush.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "lost" in proc.stderr and "bound" in proc.stderr


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gtpush; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_cli_geometric_reference_past_the_float_schur_range_is_served():
    # schur((x,), (1/7,)) = 7^-x is below the normal floats for x > 364, but
    # the geometric law is formed from exact integers: its tail goes
    # subnormal, then 0, and the command is served.  Its escaped mass,
    # (1/7)^401, is read off the same integers, not off a float sum's rounding
    proc = subprocess.run(
        [sys.executable, "-m", "gtpush.cli", "simulate", "--model", "geometric", "--n", "1",
         "--q", "1/7", "--horizon", "1", "--trials", "20", "--bound", "400", "--max-tv", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["escaped_mass"] <= 1e-300


@pytest.mark.parametrize("model,n", [("poisson", 1), ("wall", 2)])
def test_cli_walk_reference_past_float_range_exits_3(model, n):
    # at rate 1/7 and bound 400 the float Schur values of the poisson walk fall
    # below the normal floats (7^-x) and those of the wall walk overflow (7^x)
    proc = subprocess.run(
        [sys.executable, "-m", "gtpush.cli", "simulate", "--model", model, "--n", str(n),
         "--q", "1/7", "--horizon", "1", "--trials", "20", "--bound", "400", "--max-tv", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "bound 400" in proc.stderr


@pytest.mark.parametrize("model,n,q,z", [("poisson", 2, ("1/2", "1/3"), (0, 0)),
                                         ("wall", 4, ("1/2", "1/3"), (0, 1)),
                                         ("geometric", 2, ("1/2", "1/3"), (0, 1))])
def test_reference_laws_form_no_fraction_per_state(monkeypatch, model, n, q, z):
    # the continuous references run on float Schur values and the geometric
    # one divides exact integers once per state: the Fractions they form are
    # the rates and constants, far fewer than the 1,326 states of the box
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    cfg = ExperimentConfig(model, n, q, z, 1, 1, 0, 50)
    monkeypatch.setattr(F, "__new__", counting_new)
    harness.reference_endpoint_pmf(cfg)
    monkeypatch.undo()
    assert len(made) < 50


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--model", "geometric", "--n", "2", "--q", "1/2,1/3", "--horizon", "-1",
      "--trials", "100", "--max-tv", "1"], "horizon = -1"),
    (["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "-1",
      "--trials", "100", "--max-tv", "1"], "horizon = -1.0"),
    (["coupling", "check", "--identity", "left-edge", "--n", "2", "--q", "1/2,1/3",
      "--horizon", "-1"], "horizon = -1.0"),
    (["coupling", "check", "--identity", "wall-sup", "--n", "1", "--q", "1/2",
      "--horizon", "-1"], "horizon = -1.0"),
    (["coupling", "check", "--identity", "lpp", "--n", "2", "--q", "1/2,1/3",
      "--horizon", "1.5"], "got 1.5"),
    (["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3", "--horizon", "-1"],
     "horizon = -1.0"),
    (["simulate", "--model", "geometric", "--n", "2", "--q", "1/2,1/3", "--horizon", "-1"],
     "horizon = -1"),
    (["simulate", "--model", "wall", "--n", "2", "--q", "1/2", "--horizon", "-1"],
     "horizon = -1.0"),
], ids=["simulate-geometric", "simulate-poisson", "left-edge", "wall-sup", "lpp-fraction",
        "one-trajectory-poisson", "one-trajectory-geometric", "one-trajectory-wall"])
def test_cli_refuses_a_horizon_that_checks_nothing(capsys, argv, named):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "horizon" in out.err and named in out.err


def test_sweeps_refuse_a_zero_horizon_and_configs_accept_it():
    with pytest.raises(ValueError, match="a horizon > 0, got .*horizon = 0$"):
        couplings.lpp_failures(2, (F(1, 2), F(1, 3)), 0, 5, 1)
    with pytest.raises(ValueError, match="horizon > 0"):
        couplings.wall_edge_failures(1, (F(1, 2),), 0.0, 5, 1)
    cfg = ExperimentConfig("poisson", 1, ("1/2",), (0,), 0.0, 10, 1, 4)
    assert endpoint_samples(cfg) == [(0,)] * 10


@pytest.mark.parametrize("flags,named", [
    (["--max-tv", "0"], "--max-tv"),
    (["--bound", "3"], "--bound"),
    (["--max-tv", "0", "--bound", "3"], "--max-tv"),
    (["--trials", "1", "--bound", "8"], "--bound"),
], ids=["max-tv", "bound", "both", "explicit-trials"])
def test_cli_simulate_one_trial_refuses_the_endpoint_gates(capsys, flags, named):
    # one trial prints its log of moves: a TV gate or a reference box would be
    # ignored, so asking for one is a usage error, not a pass
    code = cli_dispatch(["simulate", "--model", "poisson", "--n", "2", "--q", "1/2,1/3",
                         "--horizon", "1"] + flags)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.count("\n") == 1 and named in out.err and "--trials" in out.err


# seeds and trials on both sides of the 32-bit and 64-bit word boundaries of
# SeedSequence's entropy and of the STREAM_BLOCK boundaries; trial 700 comes
# before trial 3
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 9)
STREAM_TRIALS = (700, 3, 0, 1, 1023, 1024, 4095, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                 2**64 + 1)


def _same_stream(got: np.random.Generator, seed: int, trial: int) -> bool:
    want = np.random.default_rng((seed, trial))
    return (got.bit_generator.state == want.bit_generator.state
            and np.array_equal(got.random(3), want.random(3))
            and np.array_equal(got.integers(0, 2**62, 3), want.integers(0, 2**62, 3)))


def test_trial_rng_streams_are_default_rng_streams():
    # a block's row 0 and streams past 2**64 are built by numpy's SeedSequence,
    # the other rows from the block's words hashed in one pass: all are
    # default_rng's, whichever calls came before
    for _ in range(2):  # from an empty cache, and again after it is cleared
        harness._stream_words.cache_clear()
        for seed in STREAM_SEEDS:
            for trial in STREAM_TRIALS:
                for _ in range(2):
                    assert _same_stream(harness.trial_rng(seed, trial), seed, trial), (seed, trial)
    # every row of a block, here one past trial 2**32 at the largest seed hashed
    seed, block = 2**64 - 1, 2**32 // harness.STREAM_BLOCK + 1
    words = harness._stream_words(seed, block)
    first = block * harness.STREAM_BLOCK
    assert words.dtype == np.uint64 and words.shape == (harness.STREAM_BLOCK, 4)
    assert all(np.array_equal(row, np.random.SeedSequence((seed, first + r)).generate_state(
        4, np.uint64)) for r, row in enumerate(words))


def test_trial_rng_hashes_no_block_for_row_0():
    # a lone stream (trial 0, or a block's first) costs one default_rng call,
    # not a block hash; the block is hashed once a later row is asked for
    harness._stream_words.cache_clear()
    harness.trial_rng(7, 0)
    assert harness._stream_words.cache_info().currsize == 0
    harness.trial_rng(7, 1)
    assert harness._stream_words.cache_info().currsize == 1


@pytest.mark.parametrize("seed,trial,error,match", [
    (-1, 0, ValueError, "the seed must be >= 0, got -1"),
    (0, -1, ValueError, "non-negative"),
    (1.5, 0, TypeError, None),
    (0, 2.0, TypeError, None),
], ids=["seed-minus-1", "trial-minus-1", "float-seed", "float-trial"])
def test_trial_rng_refuses_what_default_rng_refuses(seed, trial, error, match):
    harness.trial_rng(0, 5)  # block 0 of seed 0 has its words
    with pytest.raises(error, match=match):
        harness.trial_rng(seed, trial)
    if seed >= 0:
        with pytest.raises(error, match=match):
            np.random.default_rng((seed, trial))
