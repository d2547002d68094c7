"""Generators and transition kernels as explicit sparse maps over truncated cones.

Every object lives on a finite box {0 <= coordinate <= bound}; entries whose
target falls outside the box are dropped.  The exact half's values are exact
rationals.  Each marginal operator's moves are written once, as index arrays
over the box (``_walk_moves`` for the conditioned walk, ``_step_moves`` for
the geometric step).  The exact operators keep their entries as arrays,
``_Ratios``: entry e is c N(target) / N(source), c one of a few exact
constants and N the integer Schur values of ``schur.exact_values``, taken at
the one scale L of the case's rates, the scale that Lambda takes too.  So no
exact builder forms a Fraction, and the arrays are every exact operator's
one form, also of one built from given rows: ``row`` and the read-only
``rows`` form Fractions on demand, and ``intertwine`` reads the arrays.
The float generators of the continuous Monte Carlo reference laws
(``row_generator_float``) are ``FloatKernel`` arrays of the float Schur
values of the whole box (``schur.float_values``).  The geometric reference
forms no kernel: ``geometric_law`` is the t-step law in closed form, a
Gessel-Viennot determinant times a Schur ratio, both in exact integers, with
one correctly rounded division per state.  The continuous-time coupling
generators run the simulators' engine, ``dynamics.run_rings``, ring
by ring over every pair of the box, an X ring at its marginal's step
constant for its direction; the geometric pair kernel states its own floors
and caps, the max / add / min of ``dynamics.geometric_update``, and a test
holds it to ``dynamics.geometric_step``.
One table says which pattern rows a variant pairs: its two-row states are the
lower rows on the box with their ``patterns.branching`` candidates above
(``_pairs``, built once per case with each pair's place among X's and Y's
states), and its kernel Lambda (``LambdaKernel``) is the pattern measure's
exact law of the upper row given the lower (``schur.branching_law``),
t^(|y| - |x|) N_X(x) / N_Y(y) in the same integers (``LambdaKernel.on_box``).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from types import MappingProxyType

import numpy as np

from . import schur
from .dynamics import NEVER, _ring_rates, ring_table, run_rings
from .patterns import (
    STANDARD,
    SYMPLECTIC,
    branching_rule,
    chamber_states,
    coords_of,
    rates_of,
    row_length,
    scaled_rates,
)

POISSON = "poisson"
GEOMETRIC = "geometric"
WALL_ODD_EVEN = "wall-odd-even"
WALL_EVEN_ODD = "wall-even-odd"

# variant -> (pattern kind, index of the lower row Y given its length k); the
# upper row X is the row above Y, and a variant takes one rate per entry of Y
_Y_ROW = {
    POISSON: (STANDARD, lambda k: k),
    GEOMETRIC: (STANDARD, lambda k: k),
    WALL_ODD_EVEN: (SYMPLECTIC, lambda k: 2 * k),
    WALL_EVEN_ODD: (SYMPLECTIC, lambda k: 2 * k - 1),
}


def _y_row(variant: str, qs) -> tuple[str, int]:
    """Pattern kind and index of the lower row Y for a variant with rates qs."""
    if variant not in _Y_ROW:
        raise ValueError(f"unknown variant {variant!r}")
    kind, row = _Y_ROW[variant]
    return kind, row(len(qs))


@lru_cache(maxsize=None)
def _pairs(kind: str, j: int, qs, bound: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (x, y) on the box: every y of row j, then every candidate x for
    the row above it in lexicographic order, as ``patterns.upper_candidates``
    and ``patterns.branching`` list them; their coordinates, x's then y's;
    and each pair's place among X's and among Y's states, the last three as
    read-only int arrays.  x_i lies between the wall-padded (0, y)'s entries
    i - 1 + drop and i + drop (``patterns.branching_rule``).  Built once per
    case, for its coupling and its check; ``schur.clear_caches`` empties the
    memo."""
    ys = chamber_states(len(qs), bound)
    padded = np.pad(np.array(ys, dtype=np.int64).reshape(len(ys), -1), ((0, 0), (1, 0)))
    drop = branching_rule(kind, j)[0]
    of_y, xs = _lattice(padded[:, drop:-1], padded[:, 1 + drop:])
    pairs = list(zip(map(tuple, xs.tolist()), (ys[i] for i in of_y.tolist())))
    arrays = np.column_stack([xs, padded[of_y, 1:]]), _chamber_index(xs, bound), of_y
    for a in arrays:
        a.flags.writeable = False
    return (pairs, *arrays)


def _pair_codes(flat: np.ndarray, n: int, bound: int) -> np.ndarray:
    """One integer per row (x, y) of flat, x of n entries, y's entries first,
    so the codes of ``_pairs`` ascend in their order; an entry may lie one
    step off the box, in [-1, bound + 1], as one ring can move it."""
    return np.ravel_multi_index(tuple(np.roll(flat, -n, axis=1).T + 1),
                                (bound + 3,) * flat.shape[1])


def _chamber_index(coords: np.ndarray, bound: int) -> np.ndarray:
    """The place of each row of coords, a state of the box, in
    ``chamber_states(coords.shape[1], bound)``."""
    k = coords.shape[1]
    return _box_coords(k, bound)[2][np.ravel_multi_index(tuple(coords.T), (bound + 1,) * k)]


def _ramp(counts: np.ndarray) -> np.ndarray:
    """arange(c) for each count c, run together."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _lattice(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer vector v with lo[r] <= v <= hi[r] coordinatewise, for
    each row r of the int arrays lo <= hi, in lexicographic order per row:
    (r of each vector, the vectors as rows)."""
    of, cols = np.arange(len(lo)), []
    for i in range(lo.shape[1]):
        counts = hi[of, i] - lo[of, i] + 1
        cols = [c.repeat(counts) for c in cols] + [np.repeat(lo[of, i], counts) + _ramp(counts)]
        of = np.repeat(of, counts)
    return of, np.column_stack(cols).reshape(len(of), lo.shape[1])


def _flat(state):
    if state and isinstance(state[0], tuple):
        return [c for part in state for c in part]
    return list(state)


def _fmt_state(state):
    if state and isinstance(state[0], tuple):
        return [list(part) for part in state]
    return list(state)


class _Ratios:
    """An exact operator as arrays: entry e, from state src[e] to dst[e], is
    const[ci[e]] * h[hs[dst[e]]] / h[hs[src[e]]], where const holds a few
    exact rationals, h the positive Schur integers N of
    ``schur.exact_values`` and hs each state's place in h.  Entries run by
    source, each row in the order that its builder, or its given row, lists
    them; src, dst, ci and hs are intp arrays."""

    def __init__(self, src, dst, ci, const, h, hs):
        self.src, self.dst, self.ci, self.hs = src, dst, ci, hs
        self.const, self.h = tuple(const), h

    def integers(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Entries lo..hi-1 as unreduced (numerator, denominator) products."""
        h, const = self.h, self.const
        return [(const[c].numerator * h[a], const[c].denominator * h[b])
                for a, b, c in zip(self.hs[self.dst[lo:hi]].tolist(),
                                   self.hs[self.src[lo:hi]].tolist(), self.ci[lo:hi].tolist())]

    def floats(self) -> np.ndarray:
        """Every entry in floats, each one correctly rounded division of
        integers, as float() of the entry's Fraction is."""
        return np.array([num / den for num, den in self.integers(0, len(self.src))], dtype=float)


class _SparseOperator:
    """Row-major sparse map state -> {state: value}, kept as ``_Ratios``
    arrays only.  The library's builders make one from their arrays
    (``_of``); an operator built from given rows turns each distinct value
    into a constant, on Schur integers of 1.  ``row`` forms one row of
    Fractions from the arrays, and ``rows`` all of them, once and read-only,
    so what they show is what the checks read."""

    def __init__(self, states, rows, bound: int, label: str = ""):
        self.states, self.bound, self.label = list(states), bound, label
        index = {s: i for i, s in enumerate(self.states)}
        for s, t in ((s, t) for s, row in rows.items() for t in (s, *row) if t not in index):
            raise ValueError(f"row {s} of {label or type(self).__name__} names {t}, "
                             f"which is not among its states")
        entries = [(index[s], index[t], v)
                   for s in self.states for t, v in rows.get(s, {}).items()]
        const = {}
        ci = [const.setdefault(Fraction(v), len(const)) for _, _, v in entries]
        src, dst = np.array([e[:2] for e in entries], dtype=np.intp).reshape(-1, 2).T
        self.ratios = _Ratios(src, dst, np.array(ci, dtype=np.intp), const, [1],
                              np.zeros(len(self.states), dtype=np.intp))

    @classmethod
    def _of(cls, states, ratios: _Ratios, bound: int, label: str):
        op = cls.__new__(cls)
        op.states, op.bound, op.label, op.ratios = list(states), bound, label, ratios
        return op

    @property
    def rows(self) -> MappingProxyType:
        return self._rows

    @cached_property
    def _rows(self) -> MappingProxyType:
        return MappingProxyType({s: MappingProxyType(self.row(s)) for s in self.states})

    @cached_property
    def _starts(self) -> tuple[dict, list]:
        """Each state's place, and where each source's entries start."""
        return ({s: i for i, s in enumerate(self.states)},
                np.searchsorted(self.ratios.src, np.arange(len(self.states) + 1)).tolist())

    def row(self, s) -> dict:
        index, starts = self._starts
        if s not in index:
            return {}
        lo, hi = starts[index[s]], starts[index[s] + 1]
        return dict(zip((self.states[j] for j in self.ratios.dst[lo:hi].tolist()),
                        (Fraction(*e) for e in self.ratios.integers(lo, hi))))

    def value(self, s, t) -> Fraction:
        return self.row(s).get(t, Fraction(0))

    def is_interior(self, s) -> bool:
        return all(c <= self.bound - 1 for c in _flat(s))

    def interior_states(self):
        return [s for s in self.states if self.is_interior(s)]

    def float_kernel(self) -> "FloatKernel":
        """The operator in floats, entry for entry in row order."""
        r = self.ratios
        return FloatKernel(self.states, r.src, r.dst, r.floats())


class FloatKernel:
    """A float matrix on a list of states, kept as coordinate arrays (row,
    column, value) and applied to row vectors; no m x m array is formed."""

    def __init__(self, states, src, dst, val):
        self.states = list(states)
        self.src = np.asarray(src, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The row vector vec times the matrix."""
        return np.bincount(self.dst, weights=vec[self.src] * self.val, minlength=len(self.states))


class SparseGenerator(_SparseOperator):
    """Truncated Q-matrix: nonnegative off-diagonals, nonpositive diagonal."""

    def rate(self, s, t) -> Fraction:
        return self.value(s, t)


class StepKernel(_SparseOperator):
    """Truncated one-step transition kernel: entries are probabilities."""

    def prob(self, s, t) -> Fraction:
        return self.value(s, t)


# ---------------------------------------------------------------------------
# marginal generators / kernels

def _box_coords(k: int, bound: int):
    """The states of ``chamber_states(k, bound)``; their coordinates as an
    m x (k+2) array between a column of 0s and a column of bounds, the limits
    of the first and the last entry; a flat cube of side bound + 1 holding
    each state's index (-1 off the chamber); and each state's place in it."""
    if k < 1:
        raise ValueError(f"a state of the box needs k >= 1 entries, got k = {k}")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    states = chamber_states(k, bound)
    coords = np.pad(np.array(states, dtype=np.intp).reshape(len(states), k), ((0, 0), (1, 1)),
                    constant_values=((0, 0), (0, bound)))
    flat = np.ravel_multi_index(tuple(coords[:, 1:-1].T), (bound + 1,) * k)
    cube = np.full((bound + 1) ** k, -1, dtype=np.intp)
    cube[flat] = np.arange(len(states))
    return states, coords, cube, flat


def _walk_moves(kind: str, k: int, bound: int):
    """(states, src, dst): every move of the conditioned walk of k entries on
    the box, as index arrays.  Entry i steps right to x + e_i up to the entry
    after it (the last one up to the bound), and for the wall also left to
    x - e_i down to the entry before it (the first one down to the wall).
    Each source lists its diagonal, then entry i right and left, i = 1..k."""
    states, coords, cube, flat = _box_coords(k, bound)
    src, dst = [np.arange(len(states))], [np.arange(len(states))]
    for i in range(1, k + 1):
        for d in (1, -1) if kind == SYMPLECTIC else (1,):
            ok = np.flatnonzero(coords[:, i] != coords[:, i + d])
            src.append(ok)
            dst.append(cube[flat[ok] + d * (bound + 1) ** (k - i)])
    src, dst = np.concatenate(src), np.concatenate(dst)
    order = np.argsort(src, kind="stable")
    return states, src[order], dst[order]


def _step_moves(n: int, bound: int):
    """(states, src, dst): every pair of a state x of the box and a target xt
    of one geometric step, x_i <= xt_i <= x_{i+1} (the bound last), as index
    arrays, by source and then target in the order of the states."""
    states, coords, cube, _ = _box_coords(n, bound)
    src, targets = _lattice(coords[:, 1:-1], coords[:, 2:])
    return states, src, cube[np.ravel_multi_index(tuple(targets.T), (bound + 1,) * n)]


def _sums(states) -> np.ndarray:
    """|x| of every state."""
    return np.array(states, dtype=np.intp).reshape(len(states), -1).sum(axis=1)


def _walk_diagonal(kind: str, r: int, qs) -> tuple:
    """Diagonal of the conditioned walk of row r off the wall and at it: minus
    the total step rate before truncation, in the closed form that the
    harmonicity identity makes exact at every chamber point."""
    out = sum(qs) if kind == STANDARD else sum(v + 1 / v for v in qs)
    # a wall row that drops an entry rings left at 1/t, barred at the wall
    drop, t = branching_rule(kind, r, qs)
    at_wall = 1 / t if kind == SYMPLECTIC and drop else 0
    return -out, at_wall - out


def _conditioned_walk(kind: str, r: int, qs, bound: int) -> SparseGenerator:
    """Generator of row r of a pattern on its own, with one rate per entry off
    the front of qs: each move of ``_walk_moves`` at the ratio of the Schur
    values of target and x, N(x +- e_i) / (N(x) L^(+-1)) in the integers N
    of ``schur.exact_values``, and the diagonal of ``_walk_diagonal``."""
    if r < 1:
        raise ValueError(f"a pattern row is numbered from 1, got row {r}")
    k = row_length(r, kind)
    states, src, dst = _walk_moves(kind, k, bound)
    scale, h = schur.exact_values(kind, r, qs, bound)
    diag, wall_diag = _walk_diagonal(kind, r, qs[:k])
    sums = _sums(states)
    # const, as coupling_generator reads it: right, left, diagonal off the wall, at it
    ci = np.where(src == dst, np.where(np.array(states)[src, 0] == 0, 3, 2),
                  (sums[src] - sums[dst] + 1) // 2)
    ratios = _Ratios(src, dst, ci, (Fraction(1, scale), Fraction(scale), diag, wall_diag), h,
                     np.arange(len(states)))
    family = "charlier" if kind == STANDARD else "symplectic"
    return SparseGenerator._of(states, ratios, bound, f"{family} n={r}")


def q_charlier(n: int, q, bound: int) -> SparseGenerator:
    """Generator of n ordered walkers conditioned to stay ordered: rate to
    x+e_i the ratio of Schur values, diagonal -(sum of rates)."""
    return _conditioned_walk(STANDARD, n, rates_of(q, n), bound)


def q_symplectic(n: int, q, bound: int) -> SparseGenerator:
    """Generator of the row-n marginal of the wall dynamics: nearest-neighbour
    moves with symplectic-Schur ratio rates and the parity-dependent diagonal."""
    return _conditioned_walk(SYMPLECTIC, n, rates_of(q, (n + 1) // 2), bound)


def row_generator(kind: str, r: int, q, bound: int) -> SparseGenerator:
    """Generator of row r of a pattern on its own: the conditioned walk of its
    entries, with one rate per entry off the front of q, on Schur values
    scaled by all of q (``schur.exact_values``)."""
    return _conditioned_walk(kind, r, rates_of(q), bound)


def row_generator_float(kind: str, r: int, q, bound: int) -> FloatKernel:
    """``row_generator`` in floats, for the reference laws: a ``FloatKernel``
    of the Q-matrix, diagonal included, over the moves of ``_walk_moves`` in
    the exact rows' order, with the Schur values of ``schur.float_values``."""
    k = row_length(r, kind)
    qs = tuple(float(v) for v in rates_of(q[:k], k))
    states, src, dst = _walk_moves(kind, k, bound)
    h = schur.float_values(kind, r, qs, bound)
    diag, wall_diag = _walk_diagonal(kind, r, qs)
    val = h[dst] / h[src]
    val[src == dst] = np.where(np.array(states)[:, 0] == 0, wall_diag, diag)
    return FloatKernel(states, src, dst, val)


def _geometric_step(n: int, qs, bound: int) -> StepKernel:
    """One-step kernel of n walkers at the first n rates of qs: the entry
    from x to xt is a N(xt) / (N(x) L^(|xt| - |x|)), a the product of the
    1 - q_i, on the integers N of ``schur.exact_values``, scaled by all of
    qs."""
    if n < 1:
        raise ValueError(f"a geometric step moves n >= 1 walkers, got n = {n}")
    states, src, dst = _step_moves(n, bound)
    scale, h = schur.exact_values(STANDARD, n, qs, bound)
    rise = _sums(states)[dst] - _sums(states)[src]
    a = math.prod(1 - v for v in qs[:n])
    const = [a / scale ** d for d in range(int(rise.max(initial=0)) + 1)]
    return StepKernel._of(states, _Ratios(src, dst, rise, const, h, np.arange(len(states))),
                          bound, f"geometric n={n}")


def kernel_geometric(n: int, q, bound: int) -> StepKernel:
    """One-step kernel of ordered walkers with geometric jumps, conditioned
    to stay shifted-interlaced; rows sum to 1 over the untruncated targets."""
    return _geometric_step(n, rates_of(q, n, open_unit=True), bound)


def _gessel_viennot(coords: np.ndarray, z, t: int) -> np.ndarray:
    """det[C(w'_j - w_i + t - 1, t - 1)] at each row y' of coords, with the
    strict coordinates w_i = z_i + i - 1 and w'_j = y'_j + j - 1: by
    Lindstrom-Gessel-Viennot, the number of families of non-intersecting
    t-step paths from z to y' (at t = 0, the entry is 1 at w'_j = w_i and 0
    elsewhere).  Exact, by Leibniz's n! products: in int64 where n! times the
    n-th power of the largest entry fits, in Python ints (an object array)
    past that."""
    n = len(z)
    strict = np.arange(n)
    d = (coords + strict)[:, None, :] - (np.asarray(z) + strict)[None, :, None]
    table = [math.comb(v + t - 1, v) if t else int(v == 0) for v in range(int(d.max()) + 1)]
    fits = math.factorial(n) * max(table) ** n < 2 ** 63
    entries = np.array([0, *table], dtype=np.int64 if fits else object)[np.maximum(d + 1, 0)]
    det = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        det = det + sign * np.prod(entries[:, strict, perm], axis=1)
    return det


def geometric_law(n: int, q, z, t: int, bound: int) -> tuple[list, np.ndarray, float]:
    """The law after t steps from z of the geometric dynamics' bottom row of n
    entries, in floats over ``chamber_states(n, bound)``: (the states, the
    law's row, the mass past the bound).  In closed form, as the row at z of
    ``kernel_geometric``^t: the bottom row is an h-transform by the Schur
    value s of independent geometric walks killed when they meet, so P_t(z,
    y') = a^t s(y') / s(z) times the exact determinant of
    ``_gessel_viennot``, a = A / B the product of the 1 - q_i.  No step
    kernel is formed, and none is needed on the box: the walks only move
    right, so a path to a state of the box never leaves it, and the truncated
    kernel's power has the same row.  On the integers
    N = L^|x| s(x) of ``schur.exact_values``, each probability is one Python
    int division, A^t N(y') det / (B^t N(z) L^(|y'| - |z|)), so it is the
    exact law correctly rounded: it cannot overflow, and it is 0 only where
    it rounds to 0.  The mass past the bound is 1 minus the exact sum of the
    row's terms, over their common denominator, so it too is correctly
    rounded.  The laws of the other three dynamics have the same form, with
    other determinants."""
    states, coords, _, _ = _box_coords(n, bound)
    qs = rates_of(q, n, open_unit=True)
    z = tuple(z)
    if z not in states:
        raise ValueError(f"the start z = {z} is not a state of the box of {n} entries <= {bound}")
    det = _gessel_viennot(coords[:, 1:-1], z, t)
    on = np.flatnonzero(det > 0)
    scale, h = schur.exact_values(STANDARD, n, qs, bound)
    a = math.prod(1 - v for v in qs)
    rise = coords[on, 1:-1].sum(axis=1) - sum(z)
    lead = a.denominator ** t * h[states.index(z)]  # B^t N(z), times L^d at rise d
    top = int(rise.max(initial=0))
    below = np.array([lead * scale ** d for d in range(top + 1)], dtype=object)
    terms = a.numerator ** t * np.array(h, dtype=object)[on] * det[on].astype(object)
    row = np.zeros(len(states))
    row[on] = terms / below[rise]
    # every term over the common denominator B^t N(z) L^top: the terms'
    # sums at each rise, gathered by Horner's rule in L
    sums = [0] * (top + 1)
    for term, d in zip(terms.tolist(), rise.tolist()):
        sums[d] += term
    kept = 0
    for part in sums:
        kept = kept * scale + part
    return states, row, (below[top] - kept) / below[top]


# ---------------------------------------------------------------------------
# two-row coupling generators / kernels

def coupling_generator(case: str, n: int, q, bound: int) -> SparseGenerator:
    """Joint generator of an upper row X (row r of a pattern) and the row Y
    below it, for case poisson (r = n), wall-odd-even (r = 2n-1) or
    wall-even-odd (r = 2n).

    Every move is read off ``dynamics.run_rings``: each pair (x, y) of the box
    is a flat pattern whose rows above X hold NEVER, so they block nothing,
    and each ring of X and Y runs as one single-column block over all the
    pairs.  A ring that leaves a pair as it was is blocked there, and a
    target off the pair list is dropped.  An X ring takes the step constant
    of X's marginal generator (``_conditioned_walk``) for its direction, 1/L
    right and L left, so it moves at the marginal's rate; a Y ring moves at
    its ``_ring_rates`` rate.  The diagonal is X's diagonal constant minus
    Y's unblocked out-rate, counted before truncation, formed once per X
    diagonal and set of unblocked Y rings.
    """
    if case == GEOMETRIC or case not in _Y_ROW:
        raise ValueError(f"unknown continuous-time coupling {case!r}")
    qs = rates_of(q)
    kind, j = _y_row(case, qs)
    r = j - 1
    if row_length(r, kind) != n:
        raise ValueError(f"{case} coupling with {n} upper entries got {len(qs)} rates")
    marginal = row_generator(kind, r, qs, bound).ratios
    states, pairs, xs, _ = _pairs(kind, j, qs, bound)
    table = ring_table(j, kind)
    rates = _ring_rates(table, qs)
    start = np.pad(pairs, ((0, 0), (table.offsets[r - 1], 0)), constant_values=NEVER)
    codes = _pair_codes(pairs, n, bound)
    const = list(marginal.const)
    src, dst, ci = [], [], []
    free = []  # per Y ring, the pairs in which it is unblocked
    for ring in range(table.keys.index((r, 1, 1)), table.idle):  # the rings of X, then Y
        row, _, d = table.keys[ring]
        out = run_rings(table, start, np.full((len(states), 1), ring))[:, -pairs.shape[1]:]
        out = _pair_codes(out, n, bound)
        moved = out != codes  # a blocked ring leaves its pair as it was
        at = np.minimum(np.searchsorted(codes, out), len(codes) - 1)
        hit = np.flatnonzero(moved & (codes[at] == out))
        if row > r:
            free.append(moved)
            which = len(const)
            const.append(rates[ring])
        else:  # X's marginal step constant: 1/L right, L left
            which = (1 - d) // 2
        src.append(hit)
        dst.append(at[hit])
        ci.append(np.full(len(hit), which, dtype=np.intp))
    # the diagonal: X's diagonal minus the out-rate of the unblocked Y rings,
    # one constant per X diagonal and set of unblocked Y rings (bit i: ring i)
    x_diag = np.where(pairs[:, 0] == 0, 3, 2)  # X's diagonal constant, at the wall or off it
    masks = sum(m.astype(np.intp) << i for i, m in enumerate(free))
    kinds, which = np.unique(x_diag << len(free) | masks, return_inverse=True)
    y_rates = rates[-len(free):]  # the Y rings are the table's last
    for kind_code in kinds.tolist():
        const.append(marginal.const[kind_code >> len(free)] - sum(
            rate for i, rate in enumerate(y_rates) if kind_code >> i & 1))
    src.append(np.arange(len(states)))
    dst.append(np.arange(len(states)))
    ci.append(len(const) - len(kinds) + which.reshape(-1))
    src, dst, ci = (np.concatenate(a) for a in (src, dst, ci))
    order = np.argsort(src, kind="stable")
    ratios = _Ratios(src[order], dst[order], ci[order], const, marginal.h, xs)
    return SparseGenerator._of(states, ratios, bound, f"coupling-{case} n={n}")


def blocking_factor(u: int, v: int, q) -> Fraction:
    """Factor of criterion 6's integrating-out lemma (no kernel reads it): the
    driven particle ends at v under a cap at u."""
    q = Fraction(q)
    if v < u:
        return 1 - q
    if v == u:
        return Fraction(1)
    return Fraction(0)


def pushing_factor(u: int, v: int, q) -> Fraction:
    """Factor of criterion 6's integrating-out lemma (no kernel reads it): the
    rate-normalising power q^{-max(u,v)} for a particle pushed to max(u,v)."""
    q = Fraction(q)
    return q ** (-v) if u <= v else q ** (-u)


def coupling_kernel_geometric(n: int, q_ext, bound: int) -> StepKernel:
    """One-step kernel of the paired geometric rows: X (n entries) and the row
    Y below it, with n+1 rates.

    X steps by its own marginal kernel (``kernel_geometric``, on Schur values
    scaled by all n+1 rates).  Given X's step x -> xt, Y's entries move
    independently as ``dynamics.geometric_update`` moves them: Y_j is pushed
    up to its floor max(y_j, xt_{j-1}) (Y_0's floor is y_0), jumps
    geometrically at the last rate q and is blocked at its cap x_j; the last
    entry has no cap and is cut at the bound.  So Y lands on each yt of the
    box between floors and caps with mass q^rise (1-q)^free: rise = |yt| -
    |floors|, and free counts the entries below their cap, the last one
    always.  The targets are laid out one Y entry at a time, each pair and X
    step repeated over the range of the entry, as ``_step_moves`` lays out X's.
    """
    qs = rates_of(q_ext, n + 1, open_unit=True)
    a, b = qs[n].numerator, qs[n].denominator
    marginal = _geometric_step(n, qs, bound).ratios
    kind, j = _y_row(GEOMETRIC, qs)
    states, pairs, xs, _ = _pairs(kind, j, qs, bound)
    # every X step x -> xt of every pair: step e of the marginal from pair src
    starts = np.searchsorted(marginal.src, np.arange(len(marginal.h) + 1))
    counts = np.diff(starts)[xs]
    src = np.repeat(np.arange(len(states)), counts)
    step = np.repeat(starts[xs], counts) + _ramp(counts)
    xt = np.array(chamber_states(n, bound), dtype=np.int64).reshape(-1, n)[marginal.dst[step]]
    y = pairs[src, n:]
    floors = np.column_stack([y[:, 0], np.maximum(y[:, 1:], xt)])
    caps = np.column_stack([pairs[src, :n], np.full(len(src), bound)])
    at, yt = _lattice(floors, caps)  # the X step of each target, and its yt
    rise = yt.sum(axis=1) - floors[at].sum(axis=1)
    free = 1 + (yt[:, :n] < caps[at, :n]).sum(axis=1)
    # the targets' codes as _pair_codes reads them, y first, by Horner's rule
    # one column at a time, with no stacked copy of the targets
    codes = np.zeros(len(at), dtype=np.int64)
    for i in range(2 * n + 1):
        codes *= bound + 3
        codes += (yt[:, i] if i <= n else xt[at, i - n - 1]) + 1
    dst = np.searchsorted(_pair_codes(pairs, n, bound), codes)
    # one constant per (X step constant, rise, free): q^rise (1-q)^free as
    # integers over b^(rise+free), for q = a/b
    width = int(rise.max(initial=0)) + 1
    kinds, which = np.unique((marginal.ci[step[at]] * width + rise) * (n + 2) + free,
                             return_inverse=True)
    const = []
    for k in kinds.tolist():
        (c, r), f = divmod(k // (n + 2), width), k % (n + 2)
        const.append(marginal.const[c] * Fraction((b - a) ** f * a ** r, b ** (f + r)))
    ratios = _Ratios(src[at], dst, which.reshape(-1), const, marginal.h, xs)
    return StepKernel._of(states, ratios, bound, f"coupling-geometric n={n}")


# ---------------------------------------------------------------------------
# the coupling weight m and the kernel Lambda it induces

class LambdaKernel:
    """Markov kernel y -> (x, y) of a variant: the pattern measure's exact law
    of the upper row x given the lower row y (``schur.branching_law``).  Its
    support is finite by interlacing, so no truncation bound is needed."""

    def __init__(self, variant: str, q_ext):
        self.qs = rates_of(q_ext)
        self.variant = variant
        self.kind, self.y_row = _y_row(variant, self.qs)  # rejects an unknown variant
        if not self.qs:
            raise ValueError(f"a {variant} Lambda needs one rate per entry of y, got q = {q_ext!r}")
        _, self._up, self._down = scaled_rates(self.qs)

    def support(self, y) -> list[tuple[tuple, Fraction]]:
        """Distribution over paired states ((x, y), weight); masses sum to 1."""
        y = coords_of(y)
        if len(y) != len(self.qs):
            raise ValueError(f"{self.variant} weight needs one rate per entry of y, "
                             f"got {len(self.qs)} for {y}")
        law = schur.branching_law(self.kind, self.y_row, y, self._up, self._down)
        return [((x, y), p) for x, p in law]

    def on_box(self, bound: int) -> tuple[int, list, list]:
        """Lambda on the box in integers: (t, N_X, N_Y), with N_X and N_Y the
        Schur integers of ``schur.exact_values`` for the row of x and the row
        of y over their chamber states, and t the integer rate of
        ``patterns.branching_rule``, so that Lambda(y, x) = t^(|y| - |x|)
        N_X(x) / N_Y(y) for each candidate x above y: ``support`` divides the
        same integers, as N_Y(y) is their sum."""
        _, t = branching_rule(self.kind, self.y_row, self._up, self._down)
        return (t, schur.exact_values(self.kind, self.y_row - 1, self.qs, bound)[1],
                schur.exact_values(self.kind, self.y_row, self.qs, bound)[1])

    def weight(self, x, y) -> Fraction:
        """Exact weight of x given y: zero unless x interlaces with y; for
        fixed y the weights over all admissible x sum to 1."""
        return dict(self.support(y)).get((coords_of(x), coords_of(y)), Fraction(0))
