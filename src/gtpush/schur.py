"""Exact evaluation of Schur and symplectic Schur functions at rational points.

The workhorse is the branching recursion over interlacing rows, memoized on
(row, rate-prefix).  A determinant ratio evaluated in exact rationals serves
as an independent oracle for the standard case.

Convention: evaluation at a row violating the chamber ordering (or
nonnegativity, in the symplectic case) returns 0, so indicator factors in
kernel formulas stay implicit.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .patterns import (
    branching_cdf,
    coords_of,
    frac,
    is_ordered,
    nest_candidates,
    rates_of,
    shift_candidates_below,
)


class OracleInapplicableError(ValueError):
    """The determinant oracle needs pairwise distinct rate values."""


def schur(z, q) -> Fraction:
    """Sum of geometric pattern weights over all patterns with bottom row z."""
    z = coords_of(z)
    qs = rates_of(q, len(z))
    if not is_ordered(z):
        return Fraction(0)
    return _schur(z, qs)


@lru_cache(maxsize=None)
def _schur(z: tuple, qs: tuple) -> Fraction:
    if not z:
        return Fraction(1)
    total = Fraction(0)
    s = sum(z)
    for za in nest_candidates(z):
        total += qs[-1] ** (s - sum(za)) * _schur(za, qs[:-1])
    return total


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
    return _sp_schur(n, z, qs)


@lru_cache(maxsize=None)
def _sp_schur(n: int, z: tuple, qs: tuple) -> Fraction:
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    if n % 2 == 1:
        # strip the nested row below: coefficient q_{m+1}^{|z|-|z'|}
        m = n // 2
        s = sum(z)
        for za in nest_candidates(z):
            total += qs[m] ** (s - sum(za)) * _sp_schur(n - 1, za, qs[:m])
    else:
        # strip the same-length row below the even row: coefficient q_m^{|z'|-|z|}
        m = n // 2
        s = sum(z)
        for za in shift_candidates_below(z):
            total += qs[m - 1] ** (sum(za) - s) * _sp_schur(n - 1, za, qs)
    return total


def branching_standard(z, q_next) -> list[tuple[tuple[int, ...], Fraction]]:
    """All one-shorter rows z' nested below z with coefficient q_next^(|z|-|z'|)."""
    z = coords_of(z)
    t = frac(q_next)
    s = sum(z)
    return [(za, t ** (s - sum(za))) for za in nest_candidates(z)]


def branching_symplectic(z, q_k) -> list[tuple[tuple[int, ...], Fraction]]:
    """Same-length rows z' below z (wall at 0) with coefficient q_k^(|z'|-|z|)."""
    z = coords_of(z)
    t = frac(q_k)
    s = sum(z)
    return [(za, t ** (sum(za) - s)) for za in shift_candidates_below(z)]


def clear_caches():
    """Drop the memo tables, including the pattern samplers' branching CDFs
    built from them (mostly useful when profiling memory)."""
    _schur.cache_clear()
    _sp_schur.cache_clear()
    branching_cdf.cache_clear()
