from fractions import Fraction as F
from itertools import combinations_with_replacement

import numpy as np
import pytest

import gtpush.kernels
import gtpush.patterns
import gtpush.schur
from gtpush.kernels import LambdaKernel
from gtpush.patterns import (
    STANDARD,
    SYMPLECTIC,
    branching,
    enumerate_patterns,
    row_length,
    sample_patterns,
    scaled_rates,
    weight,
)
from gtpush.schur import (
    OracleInapplicableError,
    branching_law,
    clear_caches,
    exact_values,
    float_values,
    schur,
    schur_oracle,
    sp_schur,
)

from _oracles import pattern_sum, row_above_law

Q4 = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))


def chamber(n, top):
    return list(combinations_with_replacement(range(top + 1), n))


def test_schur_trivial_values():
    assert schur((0, 0, 0), Q4[:3]) == 1
    assert schur((4,), (F(1, 3),)) == F(1, 81)
    assert schur((0, 1), Q4[:2]) == F(1, 2) + F(1, 3)


def test_schur_oracle_examples():
    assert schur_oracle((0, 1), (F(1, 2), F(1, 3))) == F(5, 6)
    assert schur_oracle((0, 0), (F(1, 2), F(1, 3))) == 1
    assert schur_oracle((1, 1), (F(1, 2), F(1, 3))) == F(1, 6)


def test_determinant_oracle_swaps_rows_and_finds_singular_matrices():
    # the determinants behind schur_oracle, criterion 4's second evaluation:
    # a zero pivot swaps rows and flips the sign; no pivot at all gives 0
    det = gtpush.schur._det
    assert det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert det([[F(0), F(2), F(1)], [F(1), F(1), F(1)], [F(2), F(3), F(5)]]) == -5


def test_schur_oracle_rejects_repeated_rates():
    with pytest.raises(OracleInapplicableError):
        schur_oracle((0, 1), (F(1, 2), F(1, 2)))


def test_schur_invalid_row_is_zero():
    assert schur((2, 1), Q4[:2]) == 0
    assert schur_oracle((2, 1), Q4[:2]) == 0


def test_schur_length_mismatch():
    with pytest.raises(ValueError):
        schur((0, 1), Q4[:3])


def test_schur_matches_oracle_and_pattern_sum_small():
    for n in (1, 2, 3):
        for z in chamber(n, 3):
            qs = Q4[:n]
            via_rec = schur(z, qs)
            via_sum = sum(weight(p, qs) for p in enumerate_patterns(z))
            assert via_rec == via_sum
            assert via_rec == schur_oracle(z, qs)
            assert via_rec > 0


def test_schur_negative_entries_supported():
    # shifting every entry scales by the product of the rates
    qs = Q4[:2]
    assert schur((-1, 0), qs) * (qs[0] * qs[1]) == schur((0, 1), qs)
    assert schur_oracle((-2, 1), qs) == schur((-2, 1), qs)


def test_sp_schur_examples():
    assert sp_schur(1, (3,), (F(1, 2),)) == F(1, 8)
    assert sp_schur(2, (0,), (F(1, 2),)) == 1
    assert sp_schur(2, (1,), (F(1, 2),)) == F(1, 2) + 2


def test_sp_schur_invalid_rows_zero():
    assert sp_schur(2, (-1,), (F(1, 2),)) == 0
    assert sp_schur(3, (2, 1), (F(1, 2), F(1, 3))) == 0
    assert sp_schur(3, (-1, 2), (F(1, 2), F(1, 3))) == 0


def test_sp_schur_refuses_a_height_or_length_as_the_samplers_do():
    with pytest.raises(ValueError, match=r"^a pattern needs n >= 1 rows, got n = 0$"):
        sp_schur(0, (), ())
    with pytest.raises(ValueError,
                       match=r"^invalid bottom row \(0,\) for a symplectic pattern of height 3$"):
        sp_schur(3, (0,), (F(1, 2), F(1, 3)))


def test_sp_schur_matches_pattern_sum_both_parities():
    for k in (1, 2):
        qs = Q4[:k]
        for z in chamber(k, 2):
            for n in (2 * k - 1, 2 * k):
                raw = sum(
                    weight(p, qs) for p in enumerate_patterns(z, "symplectic", nrows=n)
                )
                assert sp_schur(n, z, qs) == raw


def _h(x, qs):
    # the harmonic function: rate powers stripped off the Schur value
    val = schur(x, qs)
    for c, q in zip(x, qs):
        val *= q ** (-c)
    return val


def test_harmonicity_small():
    # q_i h(x+e_i) summed over admissible moves equals (sum q_i) h(x);
    # equivalently sum_i S_{x+e_i} = (sum q_i) S_x.
    for n in (1, 2, 3):
        qs = Q4[:n]
        for x in chamber(n, 3):
            lhs_h = F(0)
            lhs_s = F(0)
            for i in range(n):
                if i == n - 1 or x[i] < x[i + 1]:
                    xt = x[:i] + (x[i] + 1,) + x[i + 1:]
                    lhs_h += qs[i] * _h(xt, qs)
                    lhs_s += schur(xt, qs)
            assert lhs_h == sum(qs) * _h(x, qs)
            assert lhs_s == sum(qs) * schur(x, qs)


def test_branching_standard_examples():
    # every rate is t, and row j's own rate is its last one
    t = F(1, 4)
    assert branching(STANDARD, 1, (0,), (t,)) == [((), 1)]
    assert branching(STANDARD, 1, (3,), (t,)) == [((), t ** 3)]
    assert dict(branching(STANDARD, 2, (0, 1), (t, t))) == {(0,): t, (1,): F(1)}
    assert branching(STANDARD, 2, (2, 2), (t, t)) == [((2,), t ** 2)]


def test_branching_standard_consistent_with_schur():
    qs = Q4[:3]
    z = (0, 1, 3)
    total = sum(c * schur(za, qs[:2]) for za, c in branching(STANDARD, 3, z, qs))
    assert total == schur(z, qs)


def test_branching_symplectic_consistent_with_sp_schur():
    qs = Q4[:2]
    # even row 4: same-length rows shifted below, wall at 0, q_2^(|z'|-|z|)
    z = (1, 2)
    total = sum(c * sp_schur(3, za, qs) for za, c in branching(SYMPLECTIC, 4, z, qs))
    assert total == sp_schur(4, z, qs)
    # odd row 3 = 2m+1 (m = 1): one-shorter rows nested below, q_{m+1}^(|z|-|z'|)
    odd = branching(SYMPLECTIC, 3, z, qs)
    assert dict(odd) == {(1,): qs[1] ** 2, (2,): qs[1]}
    assert sum(c * sp_schur(2, za, qs[:1]) for za, c in odd) == sp_schur(3, z, qs)


def test_clear_caches_empties_every_schur_memo():
    qs = Q4[:3]
    schur((0, 1, 2), qs)
    sp_schur(3, (1, 2), qs[:2])
    LambdaKernel("poisson", qs[:2]).support((0, 2))
    sample_patterns((0, 1, 2), qs, STANDARD, np.random.default_rng(0), 3, 5)
    gtpush.kernels.coupling_generator("poisson", 1, qs[:2], 3)
    # the memos defined in these modules (kernels also holds dynamics.ring_table)
    memos = [f for module in (gtpush.patterns, gtpush.schur, gtpush.kernels)
             for f in vars(module).values()
             if callable(getattr(f, "cache_info", None)) and f.__module__ == module.__name__]
    assert gtpush.schur._box in memos and all(f.cache_info().currsize > 0 for f in memos)
    clear_caches()
    assert all(f.cache_info().currsize == 0 for f in memos)


def test_float_references_leave_the_exact_values_exact():
    # at rates 1 the integer form has L = 1, so the exact recursion's rates
    # (1, 1) and the float references' (1.0, 1.0) hash and compare equal: a
    # float value left in the recursion's memo would reach exact callers.  The
    # float references of the continuous dynamics fill no memo (the geometric
    # one reads the exact values), and each exact value is held against its
    # pattern sum.
    for qs in ((F(1, 2), F(1, 4)), (F(1), F(1))):
        clear_caches()
        gtpush.kernels.row_generator_float(STANDARD, 2, qs, 5)
        gtpush.kernels.row_generator_float(SYMPLECTIC, 3, qs, 5)
        gtpush.kernels.row_generator_float(SYMPLECTIC, 4, qs, 5)
        assert gtpush.schur._value.cache_info().currsize == 0
        assert gtpush.schur._box.cache_info().currsize == 0
        _, up, down = scaled_rates(qs)
        for z in chamber(2, 5):
            value = schur(z, qs)
            assert type(value) is F and value == pattern_sum(z, STANDARD, 2, qs)
            for za, p in branching_law(STANDARD, 2, z, up, down):
                assert type(p) is F
                assert p == qs[1] ** (sum(z) - sum(za)) * pattern_sum(za, STANDARD, 1, qs) / value
        for z in chamber(2, 3):
            for n in (3, 4):
                value = sp_schur(n, z, qs)
                assert type(value) is F and value == pattern_sum(z, SYMPLECTIC, n, qs)


def test_integer_recursion_away_from_unit_numerators():
    # rates a/b with a > 1, some above 1, and L (the lcm of every a and b)
    # unequal to the product of the denominators
    std = (F(2, 3), F(3, 7), F(5, 9))
    wall = (F(2, 3), F(3, 2), F(5, 7))
    assert scaled_rates(wall) == (210, (140, 315, 150), (315, 140, 294))
    _, up, down = scaled_rates(std)
    for n in (1, 2, 3):
        rows = chamber(n, 3) + [tuple(v - 2 for v in z) for z in chamber(n, 2)]
        for z in rows:
            value = schur(z, std[:n])
            assert type(value) is F and value == pattern_sum(z, STANDARD, n, std)
            if n > 1:
                law = branching_law(STANDARD, n, z, up[:n], down[:n])
                assert all(type(p) is F for _, p in law)
                assert dict(law) == row_above_law(z, STANDARD, n, std)
    _, up, down = scaled_rates(wall)
    for k in (1, 2, 3):
        for z in chamber(k, 3 if k < 3 else 2):
            for n in (2 * k - 1, 2 * k):
                value = sp_schur(n, z, wall[:k])
                assert type(value) is F and value == pattern_sum(z, SYMPLECTIC, n, wall)
                if n > 1:
                    law = branching_law(SYMPLECTIC, n, z, up[:k], down[:k])
                    assert all(type(p) is F for _, p in law)
                    assert dict(law) == row_above_law(z, SYMPLECTIC, n, wall)


def test_box_pass_equals_the_row_recursion_at_every_state():
    # each row of the box pass against the memoised recursion on that one
    # row, at unit numerators and at rates a/b with a > 1, some above 1
    for qs in (Q4, (F(2, 3), F(3, 7), F(5, 9), F(7, 4))):
        _, up, down = scaled_rates(qs)
        for kind, heights in ((STANDARD, range(1, 5)), (SYMPLECTIC, range(1, 8))):
            for j in heights:
                k = row_length(j, kind)
                for bound in range(6):
                    _, values = exact_values(kind, j, qs, bound)
                    assert values == [gtpush.schur._value(kind, j, x, up[:k], down[:k])
                                      for x in chamber(k, bound)]


def test_a_negative_bound_is_refused():
    # a box of no states is no result; the box of the zero row is one
    for values in (exact_values, float_values):
        with pytest.raises(ValueError, match="bound = -1"):
            values(STANDARD, 2, Q4[:3], -1)
    with pytest.raises(ValueError, match="bound = -2"):
        LambdaKernel("poisson", Q4[:2]).on_box(-2)
    assert LambdaKernel("poisson", Q4[:2]).on_box(0) == (2, [1], [1])
