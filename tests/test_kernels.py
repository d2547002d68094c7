import math
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from gtpush import intertwine, kernels
from gtpush import schur as schur_module
from gtpush.dynamics import geometric_step
from gtpush.kernels import (
    LambdaKernel,
    blocking_factor,
    coupling_generator,
    coupling_kernel_geometric,
    kernel_geometric,
    pushing_factor,
    q_charlier,
    q_symplectic,
)
from gtpush.patterns import (
    STANDARD,
    SYMPLECTIC,
    chamber_states,
    enumerate_patterns,
    interlace_nest,
    interlace_shift,
    row_length,
    weight,
)
from gtpush.schur import float_values, schur, sp_schur

from _oracles import geometric_pair_prob_1d, geometric_row_total_2d, pattern_sum

Q2 = (F(1, 2), F(1, 3))
Q3 = (F(1, 2), F(1, 3), F(1, 5))
# rates for the float references against the exact-Schur ones; a dyadic rate
# is exact in floats
RATES = {
    "below-1": Q3,
    "above-1": (F(3, 2), F(5, 4), F(7, 5)),
    "dyadic": (F(1, 2), F(1, 4), F(1, 8)),
}


def _assert_float_schur_values(kind, height, qs, bound):
    # the float box pass against the exact recursion, within 1e-14 relative
    # error at every state
    exact = [schur(x, qs) if kind == STANDARD else sp_schur(height, x, qs)
             for x in kernels.chamber_states(len(qs), bound)]
    approx = float_values(kind, height, qs, bound)
    assert len(approx) == len(exact)
    assert all(abs(F(a) - e) <= F(1, 10 ** 14) * e for a, e in zip(approx.tolist(), exact))


def test_charlier_single_walker_rates():
    gen = q_charlier(1, (F(1, 2),), 6)
    for x in range(5):
        assert gen.rate((x,), (x + 1,)) == F(1, 2)
        assert gen.rate((x,), (x,)) == -F(1, 2)


def test_charlier_two_walker_rates():
    gen = q_charlier(2, Q2, 6)
    # from the diagonal state the single admissible jump carries the full rate
    assert gen.rate((0, 0), (0, 1)) == F(5, 6)
    assert gen.rate((0, 0), (1, 0)) == 0
    assert gen.rate((1, 1), (1, 2)) == F(5, 6)
    assert gen.rate((0, 1), (1, 1)) == schur((1, 1), Q2) / schur((0, 1), Q2)
    assert gen.rate((0, 0), (0, 0)) == -F(5, 6)


def test_charlier_interior_rows_conserve():
    gen = q_charlier(2, Q2, 5)
    for s in gen.interior_states():
        assert sum(gen.row(s).values()) == 0


def test_kernel_geometric_single_walker():
    kern = kernel_geometric(1, (F(1, 2),), 30)
    for d in range(5):
        assert kern.prob((3,), (3 + d,)) == F(1, 2) ** (d + 1)
    # geometric series sums to one over the untruncated targets
    assert sum(kern.row((3,)).values()) == 1 - F(1, 2) ** 28


def test_kernel_geometric_examples():
    kern = kernel_geometric(2, Q2, 8)
    assert kern.prob((0, 0), (0, 1)) == F(5, 18)
    assert kern.prob((0, 0), (0, 0)) == F(1, 2) * F(2, 3)
    assert kern.prob((0, 1), (2, 2)) == 0  # not shifted-interlaced


def _exact_power(kern, z, t):
    """The row at z of the exact kernel's t-th power, as a dict of Fractions."""
    law = {z: F(1)}
    for _ in range(t):
        step = {}
        for x, p in law.items():
            for xt, v in kern.row(x).items():
                step[xt] = step.get(xt, 0) + p * v
        law = step
    return law


@pytest.mark.parametrize("n,bound", [(1, 10), (2, 7), (3, 5)])
def test_float_geometric_power_matches_exact_power(n, bound):
    # the closed-form float law from every start after 1 to 4 steps, against
    # exact Fraction powers of kernel_geometric, whose targets are in turn
    # held against the shifted interlacing x_i <= xt_i <= x_{i+1} (the bound
    # last)
    qs = Q3[:n]
    exact = kernel_geometric(n, qs, bound)
    for x in exact.states:
        highs = x[1:] + (bound,)
        assert set(exact.row(x)) == {
            xt for xt in exact.states if all(x[i] <= xt[i] <= highs[i] for i in range(n))}
    for z in exact.states:
        for t in range(1, 5):
            states, row, _ = kernels.geometric_law(n, qs, z, t, bound)
            law = _exact_power(exact, z, t)
            expected = np.array([float(law.get(s, 0)) for s in states])
            assert states == exact.states
            assert np.array_equal(row > 0, expected > 0)
            assert np.max(np.abs(row - expected)) <= 1e-15


@pytest.mark.parametrize("rates", ["below-1", "dyadic"])
@pytest.mark.parametrize("n,bound", [(1, 10), (2, 7), (3, 5)])
def test_float_geometric_kernel_matches_exact_schur_kernel(n, bound, rates):
    # the closed-form float law against the exact kernel's entries rounded
    # once and stepped 1 to 3 times from every start
    qs = RATES[rates][:n]
    _assert_float_schur_values(STANDARD, n, qs, bound)
    exact = kernel_geometric(n, qs, bound)
    rounded = exact.float_kernel()
    for z in exact.states:
        ref = np.eye(len(exact.states))[exact.states.index(z)]
        for t in range(1, 4):
            ref = rounded.apply(ref)
            states, row, _ = kernels.geometric_law(n, qs, z, t, bound)
            assert states == exact.states
            assert np.array_equal(row > 0, ref > 0)
            assert np.max(np.abs(row - ref)) <= 1e-15


@pytest.mark.parametrize("n,z,t,bound", [(2, (1, 3), 3, 12), (3, (0, 1, 2), 2, 8),
                                         (3, (0, 0, 0), 3, 7)])
def test_gessel_viennot_law_is_the_exact_kernel_power(n, z, t, bound):
    # a^t s(y') / s(z) times the library's exact determinant, in Fractions,
    # equals the row at z of kernel_geometric^t at every state of the box,
    # with zero tolerance, and the float law is that law correctly rounded
    qs = Q3[:n]
    exact = kernel_geometric(n, qs, bound)
    power = _exact_power(exact, z, t)
    coords = np.array(exact.states).reshape(-1, n)
    dets = kernels._gessel_viennot(coords, z, t).tolist()
    a = math.prod(1 - v for v in qs)
    law = [a ** t * schur(y, qs) / schur(z, qs) * d for y, d in zip(exact.states, dets)]
    assert law == [power.get(y, 0) for y in exact.states]
    states, row, _ = kernels.geometric_law(n, qs, z, t, bound)
    assert states == exact.states
    assert row.tolist() == [float(p) for p in law]


@pytest.mark.parametrize("q,t,bound", [(F(9, 10), 330, 4000), (F(1, 7), 1, 400)])
def test_one_walker_law_is_the_negative_binomial_correctly_rounded(q, t, bound):
    # at n = 1 the law is C(y + t - 1, t - 1) (1 - q)^t q^y; far past the
    # float range of (1 - q)^t (0.1^330) or of the Schur value (7^-400), each
    # probability is float() of it, down to the subnormal tail and its zeros
    states, row, _ = kernels.geometric_law(1, (q,), (0,), t, bound)
    law = [math.comb(y + t - 1, t - 1) * (1 - q) ** t * q ** y for y in range(bound + 1)]
    assert states == [(y,) for y in range(bound + 1)]
    assert row.tolist() == [float(p) for p in law]


@pytest.mark.parametrize("q,t,bound,tail", [
    (F(9, 10), 330, 4339, "1.0126e-12"),  # the smallest bound under 1e-12 is 4340
    (F(9, 10), 330, 4340, "9.7995e-13"),
    (F(1, 7), 1, 400, "0.0000e+00"),  # (1/7)^401, below the subnormals
    (F(1, 5), 3, 20, "3.4737e-13"),
])
def test_one_walker_escaped_mass_is_the_negative_binomial_tail(q, t, bound, tail):
    # the mass past the bound is 1 minus the exact sum of C(y + t - 1, t - 1)
    # (1 - q)^t q^y over y <= bound, correctly rounded: not the rounding of a
    # float sum (1.1e-16 at q = 1/7)
    a, b = q.numerator, q.denominator
    kept = sum(math.comb(y + t - 1, t - 1) * (b - a) ** t * a ** y * b ** (bound - y)
               for y in range(bound + 1))
    escaped = kernels.geometric_law(1, (q,), (0,), t, bound)[2]
    assert escaped == (b ** (t + bound) - kept) / b ** (t + bound)
    assert f"{escaped:.4e}" == tail


@pytest.mark.parametrize("rates", sorted(RATES))
@pytest.mark.parametrize("kind,height", [(STANDARD, 1), (STANDARD, 2), (STANDARD, 3),
                                         (SYMPLECTIC, 2), (SYMPLECTIC, 3), (SYMPLECTIC, 4),
                                         (SYMPLECTIC, 5)])
def test_float_walk_matches_exact_schur_walk(kind, height, rates):
    # the float conditioned walk against the exact generator: the same
    # (source, target) pairs in the same order, and time-1 semigroup rows from
    # every start with the same support and within 1e-15
    qs = RATES[rates][: row_length(height, kind)]
    _assert_float_schur_values(kind, height, qs, 6)
    exact = kernels.row_generator(kind, height, qs, 6)
    approx = kernels.row_generator_float(kind, height, qs, 6)
    assert approx.states == exact.states
    pairs = [(x, xt) for x in exact.states for xt in exact.row(x)]
    assert [(approx.states[i], approx.states[j])
            for i, j in zip(approx.src.tolist(), approx.dst.tolist())] == pairs
    p_exact = intertwine.semigroup(exact, 1, 1e-14)
    p_float = intertwine.semigroup(approx, 1, 1e-14)
    for s in exact.states:
        a, b = p_float.row(s), p_exact.row(s)
        assert np.array_equal(a > 0, b > 0)
        assert np.max(np.abs(a - b)) <= 1e-15


def _pairs_of(states, src, dst):
    return [(states[i], states[j]) for i, j in zip(src.tolist(), dst.tolist())]


@pytest.mark.parametrize("kind,height", [(STANDARD, 1), (STANDARD, 2), (STANDARD, 3),
                                         (SYMPLECTIC, 2), (SYMPLECTIC, 3), (SYMPLECTIC, 4),
                                         (SYMPLECTIC, 5)])
def test_walk_moves_match_brute_force(kind, height):
    # every (x, xt) of the box with xt = x, or xt = x + e_i (and x - e_i for
    # the wall) still ordered and in [0, 6]: the chamber holds exactly the
    # ordered targets right of the wall.  Each source lists its diagonal,
    # then entry i right, then entry i left.
    k = row_length(height, kind)
    states, src, dst = kernels._walk_moves(kind, k, 6)
    assert states == kernels.chamber_states(k, 6)
    steps = (1, -1) if kind == SYMPLECTIC else (1,)

    def rank(x, xt):  # the place of xt in x's row, or None if no move leads there
        diff = [(i, b - a) for i, (a, b) in enumerate(zip(x, xt)) if b != a]
        if not diff:
            return 0
        if len(diff) == 1 and diff[0][1] in steps:
            return 1 + 2 * diff[0][0] + (diff[0][1] < 0)
        return None

    expected = [(x, xt) for x in states
                for _, xt in sorted((rank(x, xt), xt) for xt in states if rank(x, xt) is not None)]
    assert _pairs_of(states, src, dst) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_moves_match_brute_force(n):
    # every (x, xt) of the box with x_i <= xt_i <= x_{i+1} (6 last), by source
    # and then target in the order of the states
    states, src, dst = kernels._step_moves(n, 6)
    assert states == kernels.chamber_states(n, 6)
    expected = [(x, xt) for x in states for xt in states
                if all(a <= b <= c for a, b, c in zip(x, xt, x[1:] + (6,)))]
    assert _pairs_of(states, src, dst) == expected


@pytest.mark.parametrize("bound", [0, -1])
def test_operator_builders_refuse_a_bound_below_one(bound):
    builders = [lambda: q_charlier(2, Q2, bound),
                lambda: q_symplectic(3, Q2, bound),
                lambda: kernels.row_generator_float(STANDARD, 2, Q2, bound),
                lambda: kernels.row_generator_float(SYMPLECTIC, 3, Q2, bound),
                lambda: kernel_geometric(2, Q2, bound),
                lambda: kernels.geometric_law(2, Q2, (0, 0), 1, bound)]
    for build in builders:
        with pytest.raises(ValueError, match="bound must be >= 1"):
            build()


def test_box_operators_refuse_a_row_of_no_entries_by_name():
    # the box itself refuses k = 0, before numpy meets a state of no entries
    for build in (lambda: kernels.row_generator_float(STANDARD, 0, ("1/2",), 3),
                  lambda: kernels.geometric_law(0, (), (), 1, 3)):
        with pytest.raises(ValueError, match="needs k >= 1 entries, got k = 0"):
            build()


@pytest.mark.parametrize("kind,height,qs,bound", [
    (STANDARD, 3, Q3, 18),
    (STANDARD, 2, (F(1, 3), F(1, 5)), 35),
    (SYMPLECTIC, 3, Q2, 21),
    (SYMPLECTIC, 4, Q2, 28),
])
def test_float_schur_values_on_long_ranges(kind, height, qs, bound):
    # the boxes of the benchmark's shifted-start reference laws, where each
    # candidate coordinate ranges over up to bound + 1 values
    _assert_float_schur_values(kind, height, qs, bound)


@pytest.mark.parametrize("kind,height,qs,last", [
    (STANDARD, 1, (F(1, 7),), 364),
    (SYMPLECTIC, 1, (F(1, 7),), 364),
    (SYMPLECTIC, 2, (F(1, 7),), 364),
    (STANDARD, 2, (F(1, 7), F(1, 5)), 199),
    (SYMPLECTIC, 4, (F(1, 3), F(1, 7)), 233),
])
def test_float_schur_values_refuse_past_the_float_range(kind, height, qs, last):
    # the last bound whose values all stay normal floats: 7^-364 is normal and
    # 7^-365 subnormal, (1/35)^199 normal and (1/35)^200 subnormal, and the
    # wall values overflow past 7^364 (height 2) and at (231, 234) (height 4)
    assert len(float_values(kind, height, qs, last)) == math.comb(last + len(qs), len(qs))
    with pytest.raises(RuntimeError, match=f"bound {last + 1} is past the float range"):
        float_values(kind, height, qs, last + 1)


def _pattern_sums(kind, height, qs, bound):
    # Schur values of the box as raw pattern sums, no recursion involved
    return {x: pattern_sum(x, kind, height, qs)
            for x in combinations_with_replacement(range(bound + 1), row_length(height, kind))}


def test_exact_operators_match_pattern_sum_ratios():
    # every off-diagonal rate of the conditioned walks and every geometric
    # kernel entry, as a ratio of pattern sums, at rates with numerators > 1
    std, wall = (F(2, 3), F(3, 7), F(5, 9)), (F(2, 3), F(3, 2), F(5, 7))
    for n in (1, 2, 3):
        s = _pattern_sums(STANDARD, n, std, 4)
        gen = q_charlier(n, std[:n], 4)
        kern = kernel_geometric(n, std[:n], 4)
        a = math.prod(1 - v for v in std[:n])
        for x in gen.states:
            assert all(v == s[t] / s[x] for t, v in gen.row(x).items() if t != x)
            assert all(v == a * s[t] / s[x] for t, v in kern.row(x).items())
            assert len(kern.row(x)) == math.prod(hi - lo + 1 for lo, hi in zip(x, x[1:] + (4,)))
    for height in range(1, 7):
        bound = 4 if height < 5 else 2
        s = _pattern_sums(SYMPLECTIC, height, wall, bound)
        gen = q_symplectic(height, wall[:row_length(height, SYMPLECTIC)], bound)
        for x in gen.states:
            assert all(v == s[t] / s[x] for t, v in gen.row(x).items() if t != x)


@pytest.mark.parametrize("case", ("poisson", "wall-odd-even", "wall-even-odd"))
def test_coupling_diagonals_on_every_row(case):
    # the diagonal is X's diagonal minus the rate of every Y ring that is not
    # blocked, counted ring by ring, on boundary rows too; a Y move is blocked
    # when it would break the interlacing with X or cross the wall
    for n in (1, 2, 3):
        k = n if case == "wall-odd-even" else n + 1
        qs = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))[:k]
        gen = coupling_generator(case, n, qs, 4)
        kind = STANDARD if case == "poisson" else SYMPLECTIC
        r = {"poisson": n, "wall-odd-even": 2 * n - 1, "wall-even-odd": 2 * n}[case]
        marginal = kernels.row_generator(kind, r, qs, 4)
        if case == "poisson":
            moves = [(1, qs[-1])]
        elif case == "wall-odd-even":  # Y is an even row
            moves = [(1, 1 / qs[-1]), (-1, qs[-1])]
        else:
            moves = [(1, qs[-1]), (-1, 1 / qs[-1])]
        for x, y in gen.states:
            diag = marginal.rate(x, x)
            for j, (d, rate) in product(range(len(y)), moves):
                yt = y[:j] + (y[j] + d,) + y[j + 1:]
                if kind == SYMPLECTIC and yt[0] < 0:
                    continue  # the wall
                if interlace_nest(x, yt) if len(yt) > len(x) else interlace_shift(x, yt):
                    diag -= rate
            assert gen.rate((x, y), (x, y)) == diag, (case, n, x, y)


@pytest.mark.parametrize("case", ("poisson", "wall-odd-even", "wall-even-odd"))
def test_coupling_x_moves_are_the_marginals(case):
    # every move of X in the coupling is a move of X's marginal generator at
    # its rate, and every marginal move is taken from every pair over x: a Y
    # entry that X pushes lands next to x', so it never leaves the box
    for n in (1, 2, 3):
        k = n if case == "wall-odd-even" else n + 1
        qs = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))[:k]
        gen = coupling_generator(case, n, qs, 4)
        kind = STANDARD if case == "poisson" else SYMPLECTIC
        r = {"poisson": n, "wall-odd-even": 2 * n - 1, "wall-even-odd": 2 * n}[case]
        marginal = kernels.row_generator(kind, r, qs, 4)
        for x, y in gen.states:
            moves = [(xt, v) for (xt, _), v in gen.row((x, y)).items() if xt != x]
            assert sorted(moves) == sorted((xt, v) for xt, v in marginal.row(x).items()
                                           if xt != x), (case, x, y)


def test_kernel_geometric_untruncated_rows_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x1 = int(rng.integers(0, 6))
        x2 = x1 + int(rng.integers(0, 6))
        assert geometric_row_total_2d((x1, x2), *Q2) == 1


def test_q_symplectic_single_particle():
    gen = q_symplectic(1, (F(1, 2),), 6)
    assert gen.rate((2,), (3,)) == F(1, 2)
    assert gen.rate((2,), (1,)) == 2
    assert gen.rate((0,), (-1,)) == 0
    assert gen.rate((0,), (0,)) == -F(1, 2)
    assert gen.rate((2,), (2,)) == -F(5, 2)


def test_q_symplectic_even_rates_and_diagonal():
    gen = q_symplectic(2, (F(1, 2),), 6)
    assert gen.rate((0,), (1,)) == F(5, 2)  # (q + 1/q) from the origin
    assert gen.rate((0,), (0,)) == -F(5, 2)
    assert gen.rate((3,), (3,)) == -F(5, 2)


def test_q_symplectic_conservative_small():
    for n in (1, 2, 3, 4):
        k = (n + 1) // 2
        gen = q_symplectic(n, Q2[:k], 5)
        for s in gen.interior_states():
            assert sum(gen.row(s).values()) == 0


def test_coupling_poisson_entries():
    gen = coupling_generator("poisson", 1, Q2, 6)
    qx = Q2[:1]
    # pushing move: x at the upper edge drags the second lower particle
    s = ((2,), (1, 2))
    assert gen.rate(s, ((3,), (1, 3))) == schur((3,), qx) / schur((2,), qx)
    assert gen.rate(s, ((3,), (1, 2))) == 0
    # free X move
    s = ((1,), (1, 3))
    assert gen.rate(s, ((2,), (1, 3))) == schur((2,), qx) / schur((1,), qx)
    # Y jump blocked when it would overtake x
    s = ((1,), (1, 2))
    assert gen.rate(s, ((1,), (2, 2))) == 0
    assert gen.rate(s, ((1,), (1, 3))) == F(1, 3)
    # diagonal with no slack anywhere
    assert gen.rate(((0,), (0, 0)), ((0,), (0, 0))) == -F(5, 6)
    # diagonal with one strict gap adds one blocked-free rate
    assert gen.rate(((1,), (0, 2)), ((1,), (0, 2))) == -(F(5, 6) + F(1, 3))


def test_blocking_pushing_factors():
    q = F(1, 3)
    assert blocking_factor(3, 3, q) == 1
    assert blocking_factor(5, 3, q) == 1 - q
    assert blocking_factor(2, 3, q) == 0
    assert pushing_factor(2, 1, q) == q ** -2
    assert pushing_factor(1, 2, q) == q ** -2


def test_integrating_out_identity_small():
    q = F(1, 2)
    # two-term instance: v1'=0, v2=1, u'=2
    total = sum(q ** (-u) * blocking_factor(u, 0, q) for u in range(0, 2)) * pushing_factor(2, 1, q)
    assert total == q ** (-3)


def test_integrating_out_identity_range():
    q = F(1, 2)
    for v1p in range(0, 4):
        for v2 in range(v1p, 4):
            for up in range(v1p, 4):
                total = sum(
                    q ** (-u) * blocking_factor(u, v1p, q)
                    for u in range(v1p, min(v2, up) + 1)
                ) * pushing_factor(up, v2, q)
                assert total == q ** (-up - v2)


def test_coupling_kernel_geometric_matches_direct_probability():
    # one X particle: the r-factor equals the update-rule probability
    kern = coupling_kernel_geometric(1, Q2, 8)
    qx = Q2[:1]
    a = 1 - qx[0]
    for x, y, xt, yt in [
        ((0,), (0, 0), (1,), (0, 2)),
        ((2,), (1, 3), (2,), (2, 3)),
        ((2,), (1, 3), (4,), (2, 5)),
        ((1,), (0, 1), (1,), (1, 2)),
    ]:
        px = a * schur(xt, qx) / schur(x, qx)
        want = geometric_pair_prob_1d(x[0], y, xt[0], yt, Q2[1]) * px
        assert kern.prob((x, y), (xt, yt)) == want


def test_coupling_kernel_geometric_row_mass_reasonable():
    kern = coupling_kernel_geometric(1, Q2, 12)
    total = sum(kern.row(((0,), (0, 0))).values())
    assert 0 < total <= 1
    assert 1 - total < F(1, 1000)


def _simulator_mismatches(kern, n, qs, bound):
    """Compare each entry of the geometric pair kernel with the exact law of
    the simulator's step, dynamics.geometric_step([x, y], [xt - x, xi]), times
    X's marginal entry.  Each jump xi_j takes 0..top with mass (1-q) q^k, or
    top + 1 with the rest, q^(top+1): a jump that large lands Y_j on its cap
    or outside the box, and so does every larger one.  Returns the number of
    comparisons and the mismatches."""
    qy, top = qs[n], bound + 1
    jumps = [(k, (1 - qy) * qy ** k) for k in range(top + 1)] + [(top + 1, qy ** (top + 1))]
    marginal = kernel_geometric(n, qs[:n], bound)
    compared, mismatches = 0, []
    for x, y in kern.states:
        row = kern.row((x, y))
        for xt, px in marginal.row(x).items():
            law: dict = {}
            for draws in product(jumps, repeat=n + 1):
                (_, yt), _ = geometric_step([x, y], [[b - a for a, b in zip(x, xt)],
                                                     [k for k, _ in draws]])
                if max(yt) <= bound:
                    law[tuple(yt)] = law.get(tuple(yt), 0) + math.prod(p for _, p in draws)
            for yt in set(law) | {yt for xt2, yt in row if xt2 == xt}:
                compared += 1
                if px * law.get(yt, 0) != row.get((xt, yt), 0):
                    mismatches.append(((x, y), (xt, yt)))
    return compared, mismatches


@pytest.mark.parametrize("n,bound,comparisons", [(1, 6, 1386), (2, 3, 429), (3, 2, 168)])
def test_coupling_kernel_geometric_is_the_simulator_step(n, bound, comparisons):
    # the simulators' update rule, pushed forward exactly, gives the kernel
    qs = (*Q3, F(1, 7))[:n + 1]
    kern = coupling_kernel_geometric(n, qs, bound)
    assert _simulator_mismatches(kern, n, qs, bound) == (comparisons, [])
    # one doubled entry is caught
    source = kern.states[len(kern.states) // 2]
    target, value = next(iter(kern.row(source).items()))
    rows = {**kern.rows, source: {**kern.row(source), target: 2 * value}}
    doubled = kernels.StepKernel(kern.states, rows, bound)
    assert _simulator_mismatches(doubled, n, qs, bound)[1] == [(source, target)]


def test_wall_odd_even_entries():
    q1 = (F(1, 2),)
    gen = coupling_generator("wall-odd-even", 1, q1, 6)
    # push: equal positions, X moving right carries Y along
    s = ((2,), (2,))
    assert gen.rate(s, ((3,), (3,))) == sp_schur(1, (3,), q1) / sp_schur(1, (2,), q1)
    assert gen.rate(s, ((3,), (2,))) == 0
    # free Y moves at reversed rates
    s = ((1,), (3,))
    assert gen.rate(s, ((1,), (4,))) == 2  # right at 1/q
    assert gen.rate(s, ((1,), (2,))) == F(1, 2)  # left at q
    # diagonal at the doubly-pinned origin
    assert gen.rate(((0,), (0,)), ((0,), (0,))) == -(F(1, 2) + 2)


def test_wall_odd_even_drag():
    gen = coupling_generator("wall-odd-even", 2, Q2, 6)
    # x = (1, 2), y = (2, 3): X_2 at y_1 dragging it left
    s = ((1, 2), (2, 3))
    rate = sp_schur(3, (1, 1), Q2) / sp_schur(3, (1, 2), Q2)
    assert gen.rate(s, ((1, 1), (1, 3))) == rate
    assert gen.rate(s, ((1, 1), (2, 3))) == 0


def test_wall_even_odd_entries():
    gen = coupling_generator("wall-even-odd", 1, Q2, 6)
    qx = Q2[:1]
    # push: x equal to the upper y particle
    s = ((2,), (1, 2))
    assert gen.rate(s, ((3,), (1, 3))) == sp_schur(2, (3,), qx) / sp_schur(2, (2,), qx)
    # drag: x equal to the lower y particle
    s = ((1,), (1, 2))
    assert gen.rate(s, ((0,), (0, 2))) == sp_schur(2, (0,), qx) / sp_schur(2, (1,), qx)
    # wall: leftmost Y cannot cross zero (no such entry)
    s = ((1,), (0, 2))
    assert gen.rate(s, ((1,), (-1, 2))) == 0
    assert gen.rate(s, ((1,), (0, 1))) == 3  # inner left jump at 1/q_{n+1}
    # diagonal example: everything pinned at the origin
    assert gen.rate(((0,), (0, 0)), ((0,), (0, 0))) == -(F(1, 2) + 2 + F(1, 3))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("case", ("poisson", "wall-odd-even", "wall-even-odd"))
def test_coupling_generators_conserve_interior(case, n):
    # X keeps its marginal's closed-form diagonal, so zero interior row sums
    # still rest on the harmonicity of the Schur and symplectic Schur values
    rates = n if case == "wall-odd-even" else n + 1
    gen = coupling_generator(case, n, (Q3 + (F(1, 7),))[:rates], 4)
    for s in gen.states:
        row = gen.row(s)
        assert all(v >= 0 if t != s else v <= 0 for t, v in row.items()), (s, row)
        if gen.is_interior(s):
            assert sum(row.values()) == 0, s


def test_all_off_diagonals_nonnegative_and_diagonals_nonpositive():
    gens = [
        q_charlier(2, Q2, 4),
        q_symplectic(3, Q2, 4),
        coupling_generator("poisson", 1, Q2, 4),
        coupling_generator("wall-odd-even", 2, Q2, 4),
        coupling_generator("wall-even-odd", 1, Q2, 4),
    ]
    for gen in gens:
        for s in gen.states:
            for t, v in gen.row(s).items():
                assert v >= 0 if t != s else v <= 0, (gen.label, s, t)


def test_step_kernel_entries_are_probabilities():
    for kern in (kernel_geometric(2, Q2, 6), coupling_kernel_geometric(1, Q2, 6)):
        for s in kern.states:
            row = kern.row(s)
            assert all(v >= 0 for v in row.values())
            assert sum(row.values()) <= 1


def test_m_weight_poisson_examples():
    lam = LambdaKernel("poisson", Q2)
    assert lam.weight((0,), (0, 0)) == 1
    assert lam.weight((0,), (0, 1)) == F(1, 3) / F(5, 6)
    assert lam.weight((1,), (0, 1)) == F(1, 2) / F(5, 6)
    assert lam.weight((2,), (0, 1)) == 0


def test_m_weight_wall_examples():
    q1 = (F(1, 2),)
    lam = LambdaKernel("wall-odd-even", q1)
    denom = sp_schur(2, (1,), q1)
    assert lam.weight((0,), (1,)) == 2 / denom
    assert lam.weight((1,), (1,)) == F(1, 2) / denom


@pytest.mark.parametrize(
    "variant,q,ys",
    [
        ("poisson", Q2, [(0, 0), (0, 2), (1, 3)]),
        ("geometric", Q2, [(0, 1), (2, 2)]),
        ("wall-odd-even", Q2[:1], [(0,), (3,)]),
        ("wall-even-odd", Q2, [(0, 0), (1, 2)]),
    ],
)
def test_m_weights_sum_to_one(variant, q, ys):
    for y in ys:
        masses = LambdaKernel(variant, q).support(y)
        assert sum(m for _, m in masses) == 1
        assert all(m >= 0 for _, m in masses)
        assert all(state[1] == y for state, _ in masses)


@pytest.mark.parametrize(
    "variant,kind,height",
    [
        ("poisson", "standard", 2), ("poisson", "standard", 3),
        ("geometric", "standard", 2), ("geometric", "standard", 3),
        ("wall-odd-even", "symplectic", 2), ("wall-odd-even", "symplectic", 4),
        ("wall-even-odd", "symplectic", 3), ("wall-even-odd", "symplectic", 5),
    ],
)
def test_lambda_is_gibbs_projection(variant, kind, height):
    # Lambda(y, .) is the law of the row above y when the whole pattern with
    # bottom row y is drawn with probability weight(P) / (sum of weights),
    # built here from enumerate_patterns and weight alone
    k = row_length(height, kind)
    qs = Q3[:k]
    for y in combinations_with_replacement(range(4), k):
        masses: dict = {}
        for p in enumerate_patterns(y, kind, nrows=height):
            masses[p.rows[-2]] = masses.get(p.rows[-2], F(0)) + weight(p, qs)
        total = sum(masses.values())
        assert dict(LambdaKernel(variant, qs).support(y)) == {
            (x, y): w / total for x, w in masses.items()
        }


def test_lambda_on_the_box_is_its_support():
    # the integers the exact sums read Lambda from give its exact law
    for case, qs in (("poisson", Q3), ("wall-odd-even", Q3[:2]), ("wall-even-odd", Q3[:2]),
                     ("geometric", Q3)):
        lam = LambdaKernel(case, qs)
        t, n_x, n_y = lam.on_box(4)
        above = chamber_states(row_length(lam.y_row - 1, lam.kind), 4)
        for y, n in zip(chamber_states(len(qs), 4), n_y):
            assert lam.support(y) == [((x, y), F(t ** (sum(y) - sum(x)) * n_x[above.index(x)], n))
                                      for (x, _), _ in lam.support(y)]


def test_lambda_kernel_zero_row_is_point_mass():
    masses = LambdaKernel("poisson", Q2).support((0, 0))
    assert masses == [(((0,), (0, 0)), F(1))]


def test_a_two_row_case_takes_one_schur_scale():
    # X's marginal scales its Schur values by every rate of the case, as
    # Lambda does, and X's row is a level of Y's box pass, so once Y's
    # marginal is built neither X's marginal nor Lambda's integers add to the
    # memo; the entries are those of the marginal on X's own rates
    schur_module.clear_caches()
    q_charlier(3, Q3, 4)
    size = schur_module._box.cache_info().currsize
    marginal = kernels.row_generator(STANDARD, 2, Q3, 4)
    LambdaKernel("poisson", Q3).on_box(4)
    assert schur_module._box.cache_info().currsize == size
    assert marginal.rows == q_charlier(2, Q3[:2], 4).rows
    # the geometric pair kernel's X steps take the scale of all three rates
    # too, so Lambda adds nothing after Y's kernel and the pair kernel either
    schur_module.clear_caches()
    kernel_geometric(3, Q3, 4)
    size = schur_module._box.cache_info().currsize
    coupling_kernel_geometric(2, Q3, 4)
    LambdaKernel("geometric", Q3).on_box(4)
    assert schur_module._box.cache_info().currsize == size
    assert kernels._geometric_step(2, Q3, 4).rows == kernel_geometric(2, Q3[:2], 4).rows


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        LambdaKernel("brownian", Q2)


@pytest.mark.parametrize("call,match", [
    (lambda: coupling_generator("brownian", 1, Q2, 4), "unknown continuous-time coupling"),
    (lambda: coupling_generator("geometric", 1, Q2, 4), "unknown continuous-time coupling"),
    (lambda: coupling_generator("poisson", 1, Q3, 4), "1 upper entries got 3 rates"),
    (lambda: LambdaKernel("poisson", Q2).support((0, 0, 0)), "one rate per entry of y"),
    (lambda: kernels.row_generator(SYMPLECTIC, 3, Q2[:1], 4), "at least 2 rates, got 1"),
    # an empty row has no box: refused naming the size, not failing in numpy
    (lambda: q_charlier(0, (), 3), "numbered from 1, got row 0"),
    (lambda: q_symplectic(0, (), 3), "numbered from 1, got row 0"),
    (lambda: kernel_geometric(0, (), 3), "n >= 1 walkers, got n = 0"),
    (lambda: coupling_kernel_geometric(0, (F(1, 2),), 3), "n >= 1 walkers, got n = 0"),
    (lambda: LambdaKernel("poisson", ()).on_box(3), r"one rate per entry of y, got q = \(\)"),
], ids=["unknown-case", "discrete-case", "rate-count", "row-length", "too-few-rates",
        "no-charlier-entries", "no-symplectic-entries", "no-geometric-walkers",
        "no-coupling-walkers", "no-lambda-rates"])
def test_coupling_operators_refuse_a_case_or_size_they_do_not_have(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_rows_are_read_only_views_of_the_arrays():
    # a row changed in place would show a value that no check reads
    gen = q_charlier(2, Q2, 4)
    source = gen.states[0]
    target = next(t for t in gen.row(source) if t != source)
    with pytest.raises(TypeError):
        gen.rows[source][target] = F(1)
    with pytest.raises(TypeError):
        del gen.rows[source][target]
    with pytest.raises(TypeError):
        gen.rows[source] = {}
    with pytest.raises(AttributeError):
        gen.rows = {}
    assert gen.rows == {s: gen.row(s) for s in gen.states}
    # an operator built from rows keeps them as arrays too
    copied = kernels.SparseGenerator(gen.states, gen.rows, gen.bound)
    assert copied.rows == gen.rows and len(copied.ratios.src) == len(gen.ratios.src)


@pytest.mark.parametrize("rows,named", [
    ({(0,): {(0,): -1, (2,): 1}}, r"row \(0,\) of SparseGenerator names \(2,\)"),
    ({(3,): {(0,): 1}}, r"row \(3,\) of SparseGenerator names \(3,\)"),
], ids=["target", "source"])
def test_rows_off_the_states_are_refused(rows, named):
    # such a row used to be kept, and a later check died on a bare KeyError
    with pytest.raises(ValueError, match=named + ", which is not among its states"):
        kernels.SparseGenerator([(0,), (1,)], rows, 5)
