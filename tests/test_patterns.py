from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from gtpush.patterns import (
    Pattern,
    enumerate_patterns,
    frac,
    interlace_nest,
    interlace_shift,
    is_valid,
    rates_of,
    row_length,
    row_offsets,
    sample_pattern,
    sample_patterns,
    weight,
)
from gtpush import schur as schur_mod
from gtpush.harness import Pmf, tv_distance

from _oracles import count_patterns_brute, is_valid_by_interlacing, sample_patterns_by_dict


def test_interlace_shift_examples():
    assert interlace_shift((0, 1), (0, 2))
    assert not interlace_shift((0, 1), (2, 3))
    assert interlace_shift((5,), (5,))


def test_interlace_shift_length_mismatch():
    with pytest.raises(ValueError):
        interlace_shift((0,), (0, 1))


def test_interlace_nest_examples():
    assert interlace_nest((1,), (0, 2))
    assert not interlace_nest((3,), (0, 2))
    assert interlace_nest((0, 2), (0, 1, 2))


def test_interlace_nest_length_mismatch():
    with pytest.raises(ValueError):
        interlace_nest((1,), (0, 1, 2))


def test_rates_of_rejects_nonpositive_and_open_unit():
    assert rates_of(("1/2", F(1, 3))) == (F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        rates_of((F(0),))
    with pytest.raises(ValueError):
        rates_of((F(3, 2),), open_unit=True)


def test_pattern_row_lengths_validated():
    Pattern(((1,), (0, 2)))
    with pytest.raises(ValueError):
        Pattern(((1, 2), (0, 2)))
    Pattern(((0,), (1,), (0, 2)), kind="symplectic")
    with pytest.raises(ValueError):
        Pattern(((0,), (1, 2)), kind="symplectic")


@pytest.mark.parametrize("call,error,match", [
    (lambda: frac(0.5), TypeError, "refusing float 0.5"),
    (lambda: Pattern(((0,),), kind="gaussian"), ValueError, "unknown pattern kind 'gaussian'"),
    (lambda: sample_pattern((0, 1), (F(1, 2), F(1, 3))), ValueError, "needs an explicit rng"),
], ids=["float-rate", "unknown-kind", "no-rng"])
def test_pattern_inputs_refused(call, error, match):
    # exactness is part of the contract, and every draw names its stream
    with pytest.raises(error, match=match):
        call()


def test_is_valid_examples():
    assert is_valid(Pattern(((1,), (0, 2))))
    assert not is_valid(Pattern(((1,), (2, 3))))
    assert is_valid(Pattern(((0,), (1,)), kind="symplectic"))
    assert not is_valid(Pattern(((2,), (1,)), kind="symplectic"))


@pytest.mark.parametrize("kind,checked,valid", [("standard", 43_756, 1_007),
                                                ("symplectic", 16_281, 240)])
def test_is_valid_agrees_with_the_interlacing_predicates(kind, checked, valid):
    # every configuration of up to 4 rows with entries in -1..3, valid or not;
    # of the 4-row standard ones (10 entries) those with ordered rows and
    # entries in 0..3, disorder inside a row being covered by the others
    seen = []
    for nrows in range(5):
        every = kind == "symplectic" or nrows < 4
        rows = [[r for r in product(range(-1 if every else 0, 4), repeat=row_length(j, kind))
                 if every or list(r) == sorted(r)] for j in range(1, nrows + 1)]
        for config in product(*rows):
            p = Pattern(config, kind)
            assert is_valid(p) == is_valid_by_interlacing(p), config
            seen.append(is_valid(p))
    assert (len(seen), sum(seen)) == (checked, valid)


def test_is_valid_catches_disorder_inside_rows():
    # bottom row must itself be ordered even though no row sits below it
    p = Pattern.__new__(Pattern)
    object.__setattr__(p, "rows", ((1,), (2, 0)))
    object.__setattr__(p, "kind", "standard")
    assert not is_valid(p)


def test_enumerate_small_examples():
    assert len(enumerate_patterns((0, 1))) == 2
    assert len(enumerate_patterns((0, 1, 2))) == 8
    assert len(enumerate_patterns((7,))) == 1
    pats = enumerate_patterns((0, 1, 2))
    assert len(set(p.rows for p in pats)) == len(pats)
    assert all(is_valid(p) for p in pats)
    tops = sorted(p.rows[0][0] for p in pats)
    assert tops[0] == 0 and tops[-1] == 2


def test_enumerate_counts_match_brute_force():
    for z in [(0,), (2,), (0, 1), (1, 3), (0, 0, 2), (0, 1, 2), (1, 2, 3)]:
        assert len(enumerate_patterns(z)) == count_patterns_brute(z)


def test_enumerate_symplectic_counts_match_brute_force():
    cases = [((1,), 1), ((1,), 2), ((0, 2), 3), ((0, 1), 3), ((0, 1), 4), ((1, 2), 4)]
    for z, n in cases:
        pats = enumerate_patterns(z, "symplectic", nrows=n)
        assert all(is_valid(p) for p in pats)
        assert len(set(p.rows for p in pats)) == len(pats)
        assert len(pats) == count_patterns_brute(z, "symplectic", n)


def test_enumerate_symplectic_needs_height():
    with pytest.raises(ValueError):
        enumerate_patterns((0, 1), "symplectic")


def test_weight_examples():
    q = (F(1, 2), F(1, 3))
    zero = Pattern(((0,), (0, 0)))
    assert weight(zero, q) == 1
    assert weight(Pattern(((0,), (0, 1))), q) == F(1, 3)
    assert weight(Pattern(((1,),), kind="symplectic"), (F(1, 2),)) == F(1, 2)


def test_weight_length_mismatch():
    with pytest.raises(ValueError):
        weight(Pattern(((0,), (0, 1))), (F(1, 2),))


def test_weights_normalise_against_schur():
    q = (F(1, 2), F(1, 3), F(1, 5))
    for z in [(0, 1), (1, 1), (0, 2)]:
        total = sum(weight(p, q[: len(z)]) for p in enumerate_patterns(z))
        assert total == schur_mod.schur(z, q[: len(z)])
    # symplectic, both parities
    for z, n in [((1,), 1), ((1,), 2), ((0, 1), 3), ((0, 1), 4)]:
        k = (n + 1) // 2
        total = sum(weight(p, q[:k]) for p in enumerate_patterns(z, "symplectic", nrows=n))
        assert total == schur_mod.sp_schur(n, z, q[:k])


def test_sample_zero_row_is_deterministic():
    rng = np.random.default_rng(0)
    q = (F(1, 2), F(1, 3), F(1, 5))
    for _ in range(5):
        p = sample_pattern((0, 0, 0), q, rng=rng)
        assert p.rows == ((0,), (0, 0), (0, 0, 0))


def test_sample_single_row():
    rng = np.random.default_rng(0)
    assert sample_pattern((4,), (F(1, 2),), rng=rng).rows == ((4,),)


def test_sample_always_valid():
    rng = np.random.default_rng(3)
    q = (F(1, 2), F(1, 3), F(1, 5))
    for _ in range(200):
        assert is_valid(sample_pattern((0, 2, 4), q, rng=rng))
    for _ in range(200):
        assert is_valid(sample_pattern((0, 2), q[:2], "symplectic", rng, nrows=4))


def _measure_pattern_tv(z, q, kind, nrows, draws, seed):
    pats = enumerate_patterns(z, kind, nrows=nrows)
    total = sum(weight(p, q) for p in pats)
    exact = Pmf(
        tuple(p.rows for p in pats),
        np.array([float(weight(p, q) / total) for p in pats]),
    )
    offs = row_offsets(nrows, kind)
    counts = {}
    for flat in sample_patterns(z, q, kind, np.random.default_rng(seed), nrows, draws).tolist():
        rows = tuple(tuple(flat[a:b]) for a, b in zip(offs, offs[1:]))
        counts[rows] = counts.get(rows, 0) + 1
    return tv_distance(Pmf.from_counts(counts, draws), exact)


def test_sampler_matches_measure_standard():
    q = (F(1, 2), F(1, 3), F(1, 5))
    tv = _measure_pattern_tv((0, 1, 2), q, "standard", 3, 100_000, 42)
    assert tv <= 0.02


def test_sampler_matches_measure_symplectic():
    tv = _measure_pattern_tv((0, 2), (F(1, 2), F(1, 3)), "symplectic", 4, 30_000, 43)
    assert tv <= 0.02


Q5 = (F(1, 2), F(1, 3), F(1, 5), F(2, 3), F(5, 7))


@pytest.mark.parametrize("z, kind, nrows, trials", [
    ((-2, 0, 3), "standard", 3, 3000),
    ((1, 4), "symplectic", 3, 2000),
    ((1, 4), "symplectic", 4, 2000),
    ((1, 4, 6), "symplectic", 5, 2000),
    ((0, 2, 3, 5, 8), "standard", 5, 3000),
    ((-2, 0, 3), "standard", 3, 1),
    ((-2, 0, 3), "standard", 3, 0),
    ((1, 4, 6), "symplectic", 5, 0),
], ids=["negative", "wall-3", "wall-4", "wall-5", "wide", "one-trial", "no-trials",
        "wall-no-trials"])
def test_sampler_matches_dict_grouping(z, kind, nrows, trials):
    # sorted runs of equal rows draw what the dict groups drew, byte for byte,
    # and leave the stream where they did
    rng, oracle_rng = np.random.default_rng(61), np.random.default_rng(61)
    got = sample_patterns(z, Q5[:len(z)], kind, rng, nrows, trials)
    want = sample_patterns_by_dict(z, Q5[:len(z)], kind, oracle_rng, nrows, trials)
    assert got.shape == want.shape == (trials, row_offsets(nrows, kind)[-1])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if z == (0, 2, 3, 5, 8):  # many runs: row 4 has 72 candidates, all drawn at this seed
        assert len({tuple(row) for row in got[:, 6:10].tolist()}) > 50


def test_sampler_refuses_a_negative_trial_count():
    with pytest.raises(ValueError, match="trials = -1"):
        sample_patterns((0, 1), (F(1, 2), F(1, 3)), "standard", np.random.default_rng(0), 2, -1)


def test_sampler_two_pattern_split():
    # both fillings of the two-pattern shape carry equal weight at equal rates
    q = (F(1, 2), F(1, 2))
    rng = np.random.default_rng(7)
    hits = sum(sample_pattern((0, 1), q, rng=rng).rows[0] == (0,) for _ in range(20_000))
    assert abs(hits / 20_000 - 0.5) < 0.02
