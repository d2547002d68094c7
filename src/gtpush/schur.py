"""Evaluation of Schur and symplectic Schur functions at positive rates.

Both are one recursion over ``patterns.branching``, the row-to-row rule of
the geometric-weight pattern measure.  At exact rates q_i = a_i / b_i, with L
the lcm of every a_i and b_i, the value at a row of sum s is N / L^s for an
integer N.  The recursion computes N in Python integers from the integer
rates L q_i and L / q_i (``patterns.scaled_rates``), and is memoized on (kind,
row index, row, those rates).  ``schur`` and ``sp_schur`` form one Fraction
per value; ``exact_values`` hands the integers N of a whole box to the exact
operators, which keep each entry as a constant times a ratio of them;
``branching_law`` divides integer weights out into the exact law of one row
given the row below it: the intertwining kernels Lambda and the pattern
samplers read that law.  The Monte Carlo reference laws take float values of
a whole box from ``float_values``, which applies the same row rule
(``patterns.branching_rule``) to float arrays over the box, one row at a
time, with no memo.  A determinant ratio evaluated in exact rationals serves
as an independent oracle for the standard case.

Convention: evaluation at a row violating the chamber ordering (or
nonnegativity, in the symplectic case) returns 0, so indicator factors in
kernel formulas stay implicit.  A standard row with negative entries is
moved into the nonnegative chamber by s_{z+c}(q) = (q_1 ... q_n)^c s_z(q).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .patterns import (
    STANDARD,
    SYMPLECTIC,
    branching,
    branching_cdf,
    branching_rule,
    chamber_states,
    check_bottom_row,
    coords_of,
    is_ordered,
    rates_of,
    row_length,
    scaled_rates,
)


class OracleInapplicableError(ValueError):
    """The determinant oracle needs pairwise distinct rate values."""


def schur(z, q) -> Fraction:
    """Sum of geometric pattern weights over all patterns with bottom row z."""
    z = coords_of(z)
    qs = rates_of(q, len(z))
    if not is_ordered(z):
        return Fraction(0)
    scale, up, down = scaled_rates(qs)
    c = _shift(z)
    zc = tuple(v + c for v in z)
    # s_z = s_zc / (q_1 ... q_n)^c, with s_zc = N / L^|zc| and q_i = u_i / L
    value = _value(STANDARD, len(z), zc, up, down)
    return Fraction(value * scale ** (len(z) * c), scale ** sum(zc) * math.prod(up) ** c)


def _shift(z) -> int:
    """The c >= 0 that moves an ordered row z into the nonnegative chamber."""
    return max(0, -z[0]) if z else 0


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def schur_oracle(z, q) -> Fraction:
    """Determinant-ratio evaluation, used purely as a cross-check of schur().

    Requires pairwise distinct rates (the denominator vanishes otherwise).
    """
    z = coords_of(z)
    qs = rates_of(q, len(z))
    if len(set(qs)) != len(qs):
        raise OracleInapplicableError("oracle requires pairwise distinct rates")
    if not is_ordered(z):
        return Fraction(0)
    n = len(z)
    num = [[qs[i] ** (z[j] + j) for j in range(n)] for i in range(n)]
    den = [[qs[i] ** j for j in range(n)] for i in range(n)]
    return _det(num) / _det(den)


def sp_schur(n: int, z, q) -> Fraction:
    """Symplectic Schur function of pattern height n (= 2k-1 or 2k) at z; a bad
    height or length is refused as ``check_bottom_row`` refuses it."""
    z = coords_of(z)
    if n < 1 or len(z) != row_length(n, SYMPLECTIC):
        check_bottom_row(z, SYMPLECTIC, n)
    qs = rates_of(q, len(z))
    if not is_ordered(z) or (z and z[0] < 0):
        return Fraction(0)
    scale, up, down = scaled_rates(qs)
    return Fraction(_value(SYMPLECTIC, n, z, up, down), scale ** sum(z))


@lru_cache(maxsize=None)
def _value(kind: str, j: int, row: tuple, up: tuple, down: tuple) -> int:
    """Summed weight of the patterns of height j with bottom row `row`, times
    L^|row|: the recursion in integers on rates up (L q) and inverse rates
    down (L / q), one of each per entry of the row.  The row's entries are
    nonnegative."""
    if j == 0:
        return 1
    terms = branching(kind, j, row, up, down)
    k = len(terms[0][0])  # the candidates of one row share a length
    up, down = up[:k], down[:k]
    return sum(c * _value(kind, j - 1, za, up, down) for za, c in terms)


def exact_values(kind: str, j: int, q, bound: int) -> tuple[int, list]:
    """L and the integers N(x) = L^|x| s(x) at the states x of
    ``chamber_states(row_length(j, kind), bound)``, in that order, where s is
    the Schur value (symplectic of height j for SYMPLECTIC) at the first
    row_length(j, kind) exact rates q and L is taken from all of q, so that
    the exact operators of a two-row case and its kernel Lambda, which take
    their ratios from these, share one L and memo."""
    k = row_length(j, kind)
    qs = rates_of(q)
    if len(qs) < k:
        raise ValueError(f"expected at least {k} rates, got {len(qs)}")
    scale, up, down = scaled_rates(qs)
    return scale, [_value(kind, j, x, up[:k], down[:k]) for x in chamber_states(k, bound)]


def float_values(kind: str, j: int, q, bound: int) -> np.ndarray:
    """Schur values of row j (1-based; symplectic of height j for SYMPLECTIC)
    at every state of ``chamber_states(row_length(j, kind), bound)``, in that
    order, at the float rates q.

    One pass per pattern row over the cube [0, bound]^k of the row: row r's
    values are summed from row r-1's by ``patterns.branching_rule``, one
    candidate coordinate z'_i at a time, as a product with the triangular
    matrix of the powers t^(z_i - z'_i) on z'_i <= z_i after the entries below
    z_{i-1} are set to 0 (a dropped z'_1 is pinned at 0), so every sum has
    only positive terms.  The Monte Carlo reference laws take ratios of these
    values, which a value outside the normal float range (0, subnormal, or
    past the largest float) would make 0/0 or inexact: it is refused with a
    RuntimeError naming the bound."""
    qs = tuple(float(v) for v in q)
    b = np.arange(bound + 1)
    below = b[:, None] <= b  # below[a, z]: a <= z
    h = np.ones(())  # row 0, the empty row
    with np.errstate(all="ignore"):
        for r in range(1, j + 1):
            drop, t = branching_rule(kind, r, qs)
            powers = np.where(below, t ** (b - b[:, None]), 0.0)
            # axes of h: the candidate's coordinates z'_i, ... still to sum,
            # then the row's entries z_1, ..., z_{i-1} summed in so far
            h = h[None] if drop else h
            for i in range(1, row_length(r, kind) + 1):
                if i > 1:  # z'_i >= z_{i-1}: the first axis against the last
                    h = np.where(below.T.reshape(len(b), *(1,) * (h.ndim - 2), len(b)), h, 0.0)
                h = np.tensordot(h, powers[:len(h)], axes=(0, 0))  # z'_i <= z_i
        states = chamber_states(row_length(j, kind), bound)
        values = h[tuple(np.array(states).T)]
        bad = np.flatnonzero(~((values >= sys.float_info.min) & (values < math.inf)))
    if len(bad):
        raise RuntimeError(f"the Schur value at {states[bad[0]]} is {values[bad[0]]:.3g} in "
                           f"floats: the truncation bound {bound} is past the float range of "
                           f"the reference law and must come down")
    return values


@lru_cache(maxsize=None)
def branching_law(kind: str, j: int, row: tuple, up: tuple, down: tuple) -> tuple:
    """Exact law of row j-1 given row j (1-based) under the geometric-weight
    measure whose rates have the integer form up, down (``scaled_rates``):
    ((candidate, probability), ...) in the order of ``patterns.branching``,
    each probability the candidate's integer coefficient times its integer
    value N over their sum.  A standard row with negative entries takes the
    law of its shift into the chamber, shifted back."""
    shift = _shift(row)
    weights = [(za, c * _value(kind, j - 1, za, up[:len(za)], down[:len(za)]))
               for za, c in branching(kind, j, tuple(v + shift for v in row), up, down)]
    total = sum(w for _, w in weights)
    return tuple((tuple(v - shift for v in za), Fraction(w, total)) for za, w in weights)


def clear_caches():
    """Drop every memo table built from Schur values: the recursion, the exact
    branching laws and the pattern samplers' float CDFs (mostly useful when
    profiling memory)."""
    _value.cache_clear()
    branching_law.cache_clear()
    branching_cdf.cache_clear()
