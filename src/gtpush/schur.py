"""Evaluation of Schur and symplectic Schur functions at positive rates.

Both are sums over patterns by ``patterns.branching``, the row-to-row rule
of the geometric-weight pattern measure.  At exact rates q_i = a_i / b_i,
with L the lcm of every a_i and b_i, the value at a row of sum s is N / L^s
for an integer N, computed in Python integers from the integer rates L q_i
and L / q_i (``patterns.scaled_rates``) by one of two evaluators:

- a row: ``_value``, a recursion memoised on (kind, row index, row, those
  rates), whose work is the interlacing cone below the one row.  ``schur``
  and ``sp_schur`` form one Fraction per value from it, and
  ``branching_law`` divides integer weights out into the exact law of one
  row given the row below it, which Lambda and the pattern samplers read.
- a box: ``_box``, one bottom-up pass over every state of the box, one
  ``_level`` per pattern row (a multiply-add per state and candidate
  coordinate, by Horner's rule), memoised per level on (kind, row index,
  that row's rates, bound).  ``exact_values`` hands its integers N to the
  exact operators; the row above a case's lower row is a level of the lower
  row's pass, so the two share it.

Both stay because each is small where the other is not: the box of 4
entries at bound 8 costs the recursion 495 memo rows, each enumerating its
candidates with a big-int power apiece, and the row (0, 3000) fills 3,003
memo rows of the recursion where its box would hold 4.5 M states at row 2.

``float_values``, for the continuous Monte Carlo reference laws, is the box
pass's level step on float rates, with no memo; the geometric reference law
reads ``exact_values``.  A determinant ratio in exact rationals is an
independent oracle for the standard case.

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
    their ratios from these, share one L and memo (``_box``)."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got bound = {bound}")
    k = row_length(j, kind)
    qs = rates_of(q)
    if len(qs) < k:
        raise ValueError(f"expected at least {k} rates, got {len(qs)}")
    scale, up, down = scaled_rates(qs)
    return scale, list(_box(kind, j, up[:k], down[:k], bound))


def _cells(k: int, bound: int) -> list[int]:
    """The places of the states of ``chamber_states(k, bound)``, in that
    order, in the flat cube [-1, bound]^k of side bound + 2 (entry c at
    c + 1)."""
    states = chamber_states(k, bound)
    coords = np.array(states, dtype=np.int64).reshape(len(states), k) + 1
    return (coords @ (bound + 2) ** np.arange(k - 1, -1, -1)).tolist()


@lru_cache(maxsize=None)
def _box(kind: str, j: int, up: tuple, down: tuple, bound: int) -> tuple:
    """The integers N of row j (``_value``) at every state of
    ``chamber_states(row_length(j, kind), bound)``, in that order: row j-1's
    box, memoised, then one ``_level``."""
    if j == 0:
        return (1,)
    k = row_length(j, kind) - branching_rule(kind, j)[0]
    return _level(kind, j, up, down, bound, _box(kind, j - 1, up[:k], down[:k], bound))


def _level(kind: str, j: int, up, down, bound: int, below) -> tuple:
    """Row j's values at every state of ``chamber_states(row_length(j, kind),
    bound)``, in that order, from row j-1's values below: integers on the
    rates up and down of ``scaled_rates``, or floats on q and 1 / q.

    By ``patterns.branching_rule``, the value at z sums t^(|z| - |z'|) times
    the value at z' over the candidates z' with z'_i in [z_{i-1}, z_i] (wall
    z_0 = 0; a dropped z'_1 leaves the factor t^z_1).  The power factorises
    over the coordinates, so the cube starts at z' = z and sums coordinate i
    by Horner's rule, S(.., z_i, ..) += t S(.., z_i - 1, ..), in place over
    the states in lexicographic order.  A step below the lower limit z_{i-1}
    is off the chamber, and the cube of ``_cells`` holds 0 there, as at -1,
    below the wall.  Zero is t - t, so integers stay integers, and every
    power is a product, so floats overflow to inf, not OverflowError."""
    k = row_length(j, kind)
    drop, t = branching_rule(kind, j, up, down)
    zero, width = t - t, bound + 2
    lower = [zero] * width ** (k - drop)
    for c, value in zip(_cells(k - drop, bound), below):
        lower[c] = value
    cells, cube, lead = _cells(k, bound), [zero] * width ** k, width ** (k - 1)
    for c in cells:  # z' = z past a dropped z'_1, times t^z_1: t times the state at z_1 - 1
        cube[c] = t * cube[c - lead] if drop and c >= 2 * lead else lower[c % len(lower)]
    for i in range(drop, k):
        step = width ** (k - 1 - i)
        for c in cells:
            cube[c] += t * cube[c - step]
    return tuple(cube[c] for c in cells)


def float_values(kind: str, j: int, q, bound: int) -> np.ndarray:
    """Schur values of row j (1-based; symplectic of height j for SYMPLECTIC)
    at every state of ``chamber_states(row_length(j, kind), bound)``, in that
    order, at the float rates q: the box pass's ``_level`` run row by row on
    q and 1 / q, with no memo, so every sum has only positive terms and no
    float reaches the exact values' memos.  The continuous reference laws
    take ratios of these values, which a value outside the normal float range
    (0, subnormal, or past the largest float) would make 0/0 or inexact: it
    is refused with a RuntimeError naming the bound."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got bound = {bound}")
    qs = tuple(float(v) for v in q)
    values = (1.0,)  # row 0, the empty row
    for r in range(1, j + 1):
        values = _level(kind, r, qs, tuple(1 / v for v in qs), bound, values)
    values = np.array(values)
    bad = np.flatnonzero(~((values >= sys.float_info.min) & (values < math.inf)))
    if len(bad):
        states = chamber_states(row_length(j, kind), bound)
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
    """Drop every memo table built from Schur values, the recursion, the exact
    branching laws and the pattern samplers' float CDFs, and the two-row pairs
    of ``kernels._pairs`` (mostly useful when profiling memory)."""
    from . import kernels  # kernels reads this module, so it is imported here

    kernels._pairs.cache_clear()
    _value.cache_clear()
    _box.cache_clear()
    branching_law.cache_clear()
    branching_cdf.cache_clear()
