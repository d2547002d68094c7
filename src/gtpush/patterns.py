"""Cone geometry for integer Gelfand-Tsetlin patterns, standard and symplectic.

States are nondecreasing integer vectors (Weyl chamber points); a pattern
stacks such rows tied together by interlacing constraints.  Weights and
probabilities are exact ``fractions.Fraction``.  ``branching_rule`` states
once which candidates a row takes for the row above it and at which rate
power: ``is_valid`` and ``upper_candidates`` read its candidate box,
``branching`` its coefficients on exact or integer rates (``scaled_rates``),
the box pass of ``schur`` the exact and float Schur values of a whole box, and
``dynamics`` its nest/shift test and ring rates.  ``check_bottom_row`` is the
one check of a bottom row.  The pattern samplers round each exact branching
law to a float CDF once and draw from it.
"""
from __future__ import annotations

import math
import re

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product

import numpy as np

STANDARD = "standard"
SYMPLECTIC = "symplectic"


_RATIONAL_RE = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?")  # no zero denominator


def frac(value) -> Fraction:
    """Exact rational from int, 'p/q' string or Fraction.  Float values and
    decimal notation are refused: exactness is part of the contract."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass an exact rational (int, 'p/q' string or Fraction)"
        )
    if isinstance(value, str) and not _RATIONAL_RE.fullmatch(value.strip()):
        raise ValueError(f"not a p/q rational with q >= 1: {value!r}")
    return Fraction(value)


def coords_of(x) -> tuple[int, ...]:
    """Plain integer tuple of any int sequence."""
    return tuple(int(c) for c in x)


def is_ordered(z) -> bool:
    return all(z[i] <= z[i + 1] for i in range(len(z) - 1))


def chamber_states(n: int, bound: int) -> list[tuple[int, ...]]:
    """Nondecreasing integer vectors of length n with entries in [0, bound]."""
    return list(combinations_with_replacement(range(bound + 1), n))


def rates_of(q, expect: int | None = None, open_unit: bool = False) -> tuple[Fraction, ...]:
    """Normalise a sequence of rates to positive Fractions."""
    qs = tuple(frac(v) for v in q)
    if expect is not None and len(qs) != expect:
        raise ValueError(f"expected {expect} rates, got {len(qs)}")
    if any(v.numerator <= 0 for v in qs):  # a Fraction's denominator is positive
        raise ValueError("rates must be positive")
    if open_unit and any(v.numerator >= v.denominator for v in qs):
        raise ValueError("rates must lie in the open interval (0,1)")
    return qs


def scaled_rates(qs) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Integer form of exact rates q_i = a_i / b_i: L, the lcm of every a_i and
    b_i, with the rates u_i = q_i L and their inverses d_i = L / q_i."""
    scale = math.lcm(*(v.numerator for v in qs), *(v.denominator for v in qs))
    return (scale, tuple(v.numerator * (scale // v.denominator) for v in qs),
            tuple(v.denominator * (scale // v.numerator) for v in qs))


def row_length(j: int, kind: str) -> int:
    """Entries in row j (1-based): j for standard patterns, ceil(j/2) symplectic."""
    return j if kind == STANDARD else (j + 1) // 2


@dataclass(frozen=True)
class Pattern:
    """Rows of a (symplectic) Gelfand-Tsetlin configuration, top row first.

    Row lengths are validated here; interlacing is the business of
    :func:`is_valid`, so deliberately broken configurations can be built for
    testing.
    """

    rows: tuple[tuple[int, ...], ...]
    kind: str = STANDARD

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.kind not in (STANDARD, SYMPLECTIC):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        for j, row in enumerate(rows, start=1):
            want = row_length(j, self.kind)
            if len(row) != want:
                raise ValueError(
                    f"{self.kind} row {j} must have {want} entries, got {len(row)}"
                )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def bottom_row(self) -> tuple[int, ...]:
        return self.rows[-1]


# ---------------------------------------------------------------------------
# interlacing predicates

def interlace_shift(x, xp) -> bool:
    """x1 <= x'1 <= x2 <= ... <= x'_{n-1} <= xn <= x'n for equal lengths."""
    a, b = coords_of(x), coords_of(xp)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for i in range(len(a)):
        if not a[i] <= b[i]:
            return False
        if i + 1 < len(a) and not b[i] <= a[i + 1]:
            return False
    return True


def interlace_nest(x, y) -> bool:
    """y_i <= x_i <= y_{i+1} where y is one entry longer than x."""
    a, b = coords_of(x), coords_of(y)
    if len(b) != len(a) + 1:
        raise ValueError(f"length mismatch: expected {len(a) + 1}, got {len(b)}")
    return all(b[i] <= a[i] <= b[i + 1] for i in range(len(a)))


def is_valid(p: Pattern) -> bool:
    """The bottom row passes :func:`check_bottom_row` and every row above it
    lies in the candidate box of the row below (``branching_rule``)."""
    rows = p.rows
    try:
        if rows:
            check_bottom_row(rows[-1], p.kind, len(rows))
    except ValueError:
        return False
    return all(lo <= c <= hi for j in range(2, len(rows) + 1)
               for c, (lo, hi) in zip(rows[j - 2], _candidate_box(p.kind, j, rows[j - 1])))


# ---------------------------------------------------------------------------
# interlacing-bounded candidate enumeration

def branching_rule(kind: str, j: int, qs=None, inverses=None) -> tuple[int, object]:
    """How row j (1-based) branches into row j-1, as (drop, t); t is None
    when no rates are given.

    Put the wall z_0 = 0 in front of row j's entries z_1 <= ... <= z_k.  A
    candidate z' for row j-1 has coordinates z'_i in [z_{i-1}, z_i]; a
    standard or odd symplectic row drops z'_1 (drop 1: its candidates are one
    entry shorter and nest in it), an even symplectic row keeps all k (drop
    0: its candidates are shifted below it, above the wall).  The candidate
    takes t to the power |z| - |z'|, where t is the rate of row j's last
    entry, qs[k-1], when it drops one and its inverse (inverses[k-1], or
    1 / qs[k-1]) when it drops none: q_j on a standard row, q_k on an odd
    symplectic row and 1/q_k on an even one.  On rows with nonnegative
    entries both powers are >= 0, so the Schur recursion runs on the integers
    L q and L / q of ``scaled_rates``."""
    k = row_length(j, kind)
    drop = 1 if kind == STANDARD or j % 2 == 1 else 0
    if qs is None:
        return drop, None
    if drop:
        return drop, qs[k - 1]
    return drop, 1 / qs[k - 1] if inverses is None else inverses[k - 1]


def _candidate_box(kind: str, j: int, row):
    """The range (lo, hi) of each coordinate of a candidate for row j-1 given
    row j (1-based), by ``branching_rule``."""
    z = coords_of(row)
    drop, _ = branching_rule(kind, j)
    return zip(((0,) + z)[drop:], z[drop:])


def upper_candidates(kind: str, j: int, row):
    """Candidates for row j-1 given row j (1-based row index), in
    lexicographic order, by ``branching_rule``."""
    return product(*(range(lo, hi + 1) for lo, hi in _candidate_box(kind, j, row)))


def check_bottom_row(z, kind: str, nrows: int | None = None) -> tuple[tuple[int, ...], int]:
    """z as the bottom row of a pattern of nrows rows, with nrows: a standard
    pattern is as high as z is long unless told otherwise, a symplectic one
    must be told (rows 2k-1 and 2k share a length).  ValueError unless the
    height is >= 1 and z has its row's length, is nondecreasing and, in a
    symplectic pattern, stands right of the wall at 0."""
    z = coords_of(z)
    if nrows is None:
        if kind != STANDARD:
            raise ValueError("a symplectic pattern needs nrows (2k-1 or 2k)")
        nrows = len(z)
    if nrows < 1:
        raise ValueError(f"a pattern needs n >= 1 rows, got n = {nrows}")
    if len(z) != row_length(nrows, kind) or not is_ordered(z) or (
            kind == SYMPLECTIC and z and z[0] < 0):
        raise ValueError(f"invalid bottom row {z} for a {kind} pattern of height {nrows}")
    return z, nrows


def enumerate_patterns(z, kind: str = STANDARD, nrows: int | None = None) -> list[Pattern]:
    """Exhaustive list of patterns with bottom row z (``check_bottom_row``).
    Desk scale only."""
    z, nrows = check_bottom_row(z, kind, nrows)
    out: list[Pattern] = []

    def descend(stack):
        j = nrows - len(stack) + 1  # 1-based index of stack[-1]
        if j == 1:
            out.append(Pattern(tuple(reversed(stack)), kind))
            return
        for above in upper_candidates(kind, j, stack[-1]):
            descend(stack + [above])

    descend([z])
    return out


def weight(p: Pattern, q) -> Fraction:
    """Geometric pattern weight: the product of per-row rate powers."""
    n = p.nrows
    qs = rates_of(q, row_length(n, p.kind))
    sums = [0] + [sum(row) for row in p.rows]
    w = Fraction(1)
    if p.kind == STANDARD:
        for i in range(1, n + 1):
            w *= qs[i - 1] ** (sums[i] - sums[i - 1])
        return w
    for j in range(1, n + 1):
        i = (j + 1) // 2
        if j % 2 == 1:
            w *= qs[i - 1] ** (sums[j] - sums[j - 1])
        else:
            w *= qs[i - 1] ** (sums[j - 1] - sums[j])
    return w


def row_offsets(nrows: int, kind: str = STANDARD) -> tuple[int, ...]:
    """Where each row starts when a pattern is flattened top row first; the
    last entry is the particle count."""
    out = [0]
    for j in range(1, nrows + 1):
        out.append(out[-1] + row_length(j, kind))
    return tuple(out)


def branching(kind: str, j: int, row, qs, inverses=None) -> list[tuple[tuple[int, ...], Fraction]]:
    """Candidates for row j-1 given row j (1-based), each with its coefficient
    t^(|row| - |candidate|) by ``branching_rule``, on exact rates or their
    integer form (rates up = L q, inverses down = L / q).  A pattern's
    geometric weight is the product of these coefficients over its rows;
    ``weight`` states the same product independently."""
    _, t = branching_rule(kind, j, qs, inverses)
    s = sum(row)
    return [(za, t ** (s - sum(za))) for za in upper_candidates(kind, j, row)]


@lru_cache(maxsize=None)
def branching_cdf(kind: str, j: int, row: tuple, up: tuple, down: tuple):
    """Candidates for row j-1 given row j (1-based) and the float cumulative
    sums of their exact probabilities (``schur.branching_law``, at the integer
    rates up, down of ``scaled_rates``).  Both arrays are read-only."""
    from . import schur  # deferred: schur builds on this module's geometry

    law = schur.branching_law(kind, j, row, up, down)
    above = np.array([za for za, _ in law], dtype=np.int64).reshape(len(law), -1)
    cdf = np.array([float(acc) for acc in accumulate(p for _, p in law)])
    above.setflags(write=False)
    cdf.setflags(write=False)
    return above, cdf


def sample_patterns(z, q, kind: str, rng, nrows: int, trials: int) -> np.ndarray:
    """Independent draws of patterns with bottom row z from the geometric-weight
    measure, as an int array (trials, particles) laid out by row_offsets.

    Rows are drawn bottom-up: each trial takes one uniform for row j-1, then
    the trials are sorted by their row j (np.lexsort) and each run of equal
    rows draws row j-1 from the cached branching_cdf; 0 trials draw nothing."""
    z, nrows = check_bottom_row(z, kind, nrows)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got trials = {trials}")
    _, up, down = scaled_rates(rates_of(q, len(z)))
    offs = row_offsets(nrows, kind)
    out = np.empty((trials, offs[-1]), dtype=np.int64)
    out[:, offs[-2]:] = z
    for j in range(nrows, 1, -1) if trials else ():
        u = rng.random(trials)
        order = np.lexsort(out[:, offs[j - 1]:offs[j]].T)
        rows = out[order, offs[j - 1]:offs[j]]
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
        for a, b, row in zip(starts, [*starts[1:], trials], rows[starts].tolist()):
            cands, cdf = branching_cdf(kind, j, tuple(row), up, down)
            out[order[a:b], offs[j - 2]:offs[j - 1]] = cands[np.searchsorted(cdf, u[order[a:b]])]
    return out


def sample_pattern(z, q, kind: str = STANDARD, rng=None, nrows: int | None = None) -> Pattern:
    """Draw one pattern with bottom row z from its geometric-weight
    distribution: a one-trial call of :func:`sample_patterns`."""
    if rng is None:
        raise ValueError("sample_pattern needs an explicit rng")
    z, nrows = check_bottom_row(z, kind, nrows)
    flat = sample_patterns(z, q, kind, rng, nrows, 1)[0].tolist()
    offs = row_offsets(nrows, kind)
    return Pattern(tuple(tuple(flat[a:b]) for a, b in zip(offs, offs[1:])), kind)
