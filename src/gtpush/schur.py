"""Evaluation of Schur and symplectic Schur functions at positive rates.

Both are one recursion over ``patterns.branching``, the row-to-row rule of
the geometric-weight pattern measure, memoized on (kind, row index, row,
rates of that row and the rows above, number field).  It runs in exact
rationals for the exact half, and on float rates for the Monte Carlo
reference laws (``float_values``); the field is part of the memo key, because
a dyadic rate and its float hash and compare equal.  ``branching_law``
divides the exact values out into the exact law of one row given the row
below it: the intertwining kernels Lambda and the pattern samplers read that
law.  A determinant ratio evaluated in exact rationals serves as an
independent oracle for the standard case.

Convention: evaluation at a row violating the chamber ordering (or
nonnegativity, in the symplectic case) returns 0, so indicator factors in
kernel formulas stay implicit.
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
    chamber_states,
    coords_of,
    is_ordered,
    rates_of,
    row_length,
)


class OracleInapplicableError(ValueError):
    """The determinant oracle needs pairwise distinct rate values."""


def schur(z, q) -> Fraction:
    """Sum of geometric pattern weights over all patterns with bottom row z."""
    z = coords_of(z)
    qs = rates_of(q, len(z))
    if not is_ordered(z):
        return Fraction(0)
    return _value(STANDARD, len(z), z, qs, Fraction)


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
    """Symplectic Schur function of pattern height n (= 2k-1 or 2k) at z."""
    if n < 1:
        raise ValueError("pattern height must be >= 1")
    k = (n + 1) // 2
    z = coords_of(z)
    if len(z) != k:
        raise ValueError(f"height-{n} bottom row needs {k} entries, got {len(z)}")
    qs = rates_of(q, k)
    if not is_ordered(z) or (z and z[0] < 0):
        return Fraction(0)
    return _value(SYMPLECTIC, n, z, qs, Fraction)


@lru_cache(maxsize=None)
def _value(kind: str, j: int, row: tuple, qs: tuple, field: type):
    """Summed weight of the patterns of height j with bottom row `row`; qs
    holds one rate per entry of the row, as elements of field (Fraction or
    float)."""
    if j == 0:
        return field(1)
    total = field(0)
    for za, c in branching(kind, j, row, qs):
        total += c * _value(kind, j - 1, za, qs[: len(za)], field)
    return total


def float_values(kind: str, j: int, q, bound: int) -> np.ndarray:
    """Schur values of row j (1-based; symplectic of height j for SYMPLECTIC)
    at every state of ``chamber_states(row_length(j, kind), bound)``, in that
    order, from the recursion run on the float rates.  The Monte Carlo
    reference laws take ratios of these, which a value outside the normal
    float range (0, subnormal, or a rate power past the largest float) would
    make 0/0 or inexact: it is refused with a RuntimeError naming the bound."""
    qs = tuple(float(v) for v in q)
    states = chamber_states(row_length(j, kind), bound)
    h = np.empty(len(states))
    for i, x in enumerate(states):
        try:
            h[i] = _value(kind, j, x, qs, float)
        except OverflowError:
            h[i] = math.inf
        if not sys.float_info.min <= h[i] < math.inf:
            raise RuntimeError(f"the Schur value at {x} is {h[i]:.3g} in floats: the truncation "
                               f"bound {bound} is past the float range of the reference law "
                               f"and must come down")
    return h


@lru_cache(maxsize=None)
def branching_law(kind: str, j: int, row: tuple, qs: tuple) -> tuple:
    """Exact law of row j-1 given row j (1-based) under the geometric-weight
    measure with rates qs: ((candidate, probability), ...) in the order of
    ``patterns.branching``, each probability the candidate's coefficient times
    its Schur value over the Schur value of the row."""
    weights = [(za, c * _value(kind, j - 1, za, qs[: len(za)], Fraction))
               for za, c in branching(kind, j, row, qs)]
    total = sum(w for _, w in weights)
    return tuple((za, w / total) for za, w in weights)


def clear_caches():
    """Drop every memo table built from Schur values: the recursion, the exact
    branching laws and the pattern samplers' float CDFs (mostly useful when
    profiling memory)."""
    _value.cache_clear()
    branching_law.cache_clear()
    branching_cdf.cache_clear()
