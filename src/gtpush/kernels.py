"""Generators and transition kernels as explicit sparse maps over truncated cones.

Every object lives on a finite box {0 <= coordinate <= bound}; entries whose
target falls outside the box are dropped.  The exact half's values are exact
rationals.  Each marginal operator's moves are written once, as index arrays
over the box (``_walk_moves`` for the conditioned walk, ``_step_moves`` for
the geometric step): the exact operators form one Fraction per entry from
the integer Schur values of ``schur.exact_values``, and their float forms
for the Monte Carlo reference laws (``row_generator_float``,
``kernel_geometric_float``) are ``FloatKernel`` arrays of the float Schur
values of the whole box (``schur.float_values``).  The continuous-time
coupling generators run the simulators' engine, ``dynamics.run_rings``, ring
by ring over every pair of the box; the geometric pair kernel states its own
floors and caps, the max / add / min of ``dynamics.geometric_update``, and a
test holds it to ``dynamics.geometric_step``.
One table says which pattern rows a variant pairs: its two-row states are the
lower rows on the box with their ``patterns.branching`` candidates above, and
its kernel Lambda (``LambdaKernel``) is the pattern measure's exact law of the
upper row given the lower (``schur.branching_law``).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

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
    upper_candidates,
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


def _pairs(kind: str, j: int, qs, bound: int) -> list[tuple[tuple, tuple]]:
    """Pairs (x, y) on the box: every y of row j, then every candidate x for
    the row above it (``patterns.upper_candidates``, the order of
    ``patterns.branching``)."""
    return [(x, y) for y in chamber_states(len(qs), bound) for x in upper_candidates(kind, j, y)]


def _flat(state):
    if state and isinstance(state[0], tuple):
        return [c for part in state for c in part]
    return list(state)


def _fmt_state(state):
    if state and isinstance(state[0], tuple):
        return [list(part) for part in state]
    return list(state)


class _SparseOperator:
    """Common storage: row-major sparse map state -> {state: value}."""

    def __init__(self, states, rows, bound: int, label: str = ""):
        self.states = list(states)
        self.rows = rows
        self.bound = bound
        self.label = label

    def row(self, s) -> dict:
        return self.rows.get(s, {})

    def value(self, s, t) -> Fraction:
        return self.rows.get(s, {}).get(t, Fraction(0))

    def is_interior(self, s) -> bool:
        return all(c <= self.bound - 1 for c in _flat(s))

    def interior_states(self):
        return [s for s in self.states if self.is_interior(s)]


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
    src = np.arange(len(states))
    flat = np.zeros(len(states), dtype=np.intp)  # the target's cube index so far
    for i in range(1, n + 1):
        lo = coords[src, i]
        counts = coords[src, i + 1] - lo + 1
        # one arange(lo, hi + 1) per source, run together
        ramp = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        src = np.repeat(src, counts)
        flat = np.repeat(flat * (bound + 1) + lo, counts) + ramp
    return states, src, cube[flat]


def _ratio_rows(states, src, dst, scale: int, h: dict, a: Fraction) -> dict:
    """Exact rows x -> {xt: a s(xt) / s(x)} over the (source, target) arrays,
    each one Fraction of integers, with s(x) = h[x] / scale^|x|."""
    rows = {x: {} for x in states}
    for i, j in zip(src.tolist(), dst.tolist()):
        x, xt = states[i], states[j]
        d = sum(xt) - sum(x)
        rows[x][xt] = Fraction(a.numerator * h[xt] * scale ** max(-d, 0),
                               a.denominator * h[x] * scale ** max(d, 0))
    return rows


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
    values of target and x, and the diagonal of ``_walk_diagonal``."""
    k = row_length(r, kind)
    states, src, dst = _walk_moves(kind, k, bound)
    rows = _ratio_rows(states, src, dst, *schur.exact_values(kind, r, qs, bound), Fraction(1))
    diag, wall_diag = _walk_diagonal(kind, r, qs[:k])
    for x, row in rows.items():
        row[x] = wall_diag if x[0] == 0 else diag
    family = "charlier" if kind == STANDARD else "symplectic"
    return SparseGenerator(states, rows, bound, f"{family} n={r}")


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
    if r < 1:
        raise ValueError(f"a pattern row is numbered from 1, got row {r}")
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


def kernel_geometric(n: int, q, bound: int) -> StepKernel:
    """One-step kernel of ordered walkers with geometric jumps, conditioned
    to stay shifted-interlaced; rows sum to 1 over the untruncated targets."""
    qs = rates_of(q, n, open_unit=True)
    states, src, dst = _step_moves(n, bound)
    rows = _ratio_rows(states, src, dst, *schur.exact_values(STANDARD, n, qs, bound),
                       math.prod(1 - v for v in qs))
    return StepKernel(states, rows, bound, f"geometric n={n}")


def kernel_geometric_float(n: int, q, bound: int) -> FloatKernel:
    """``kernel_geometric`` in floats: the entry from x to xt is a h(xt) / h(x),
    with the Schur values h from ``schur.float_values``."""
    qs = rates_of(q, n, open_unit=True)
    states, src, dst = _step_moves(n, bound)
    h = schur.float_values(STANDARD, n, qs, bound)
    return FloatKernel(states, src, dst, float(math.prod(1 - v for v in qs)) * h[dst] / h[src])


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
    target off the pair list is dropped.  An X ring keeps the moves of X's
    marginal generator, at its rates; a Y ring moves at its ``_ring_rates``
    rate.  The diagonal is X's diagonal minus Y's unblocked out-rate, counted
    before truncation, formed once per x and set of unblocked Y rings.
    """
    if case == GEOMETRIC or case not in _Y_ROW:
        raise ValueError(f"unknown continuous-time coupling {case!r}")
    qs = rates_of(q)
    kind, j = _y_row(case, qs)
    r = j - 1
    if row_length(r, kind) != n:
        raise ValueError(f"{case} coupling with {n} upper entries got {len(qs)} rates")
    marginal = row_generator(kind, r, qs, bound)
    states = _pairs(kind, j, qs, bound)
    table = ring_table(j, kind)
    rates = _ring_rates(table, qs)
    pairs = np.array([[*x, *y] for x, y in states], dtype=np.int64)
    start = np.pad(pairs, ((0, 0), (table.offsets[r - 1], 0)), constant_values=NEVER)
    # a code puts y's entries first, so the codes of the pairs ascend in their
    # order; one ring moves an entry to between -1 and bound + 1
    code = lambda flat: np.ravel_multi_index(tuple(np.roll(flat, -n, axis=1).T + 1),
                                             (bound + 3,) * flat.shape[1])
    codes = code(pairs)
    rows = {s: {} for s in states}
    free = []  # per Y ring, the pairs in which it is unblocked
    for ring in range(table.keys.index((r, 1, 1)), table.idle):  # the rings of X, then Y
        row = table.keys[ring][0]
        out = code(run_rings(table, start, np.full((len(states), 1), ring))[:, -pairs.shape[1]:])
        moved = out != codes  # a blocked ring leaves its pair as it was
        at = np.minimum(np.searchsorted(codes, out), len(codes) - 1)
        hit = np.flatnonzero(moved & (codes[at] == out))
        if row > r:
            free.append(moved)
        for i, t in zip(hit.tolist(), at[hit].tolist()):
            s, target = states[i], states[t]
            rate = rates[ring] if row > r else marginal.rows[s[0]].get(target[0])
            if rate is not None:
                rows[s][target] = rate
    masks = sum(m << i for i, m in enumerate(free)).tolist()  # bit i: Y ring i unblocked
    out_rates = {m: sum(rate for i, rate in enumerate(rates[-len(free):]) if m >> i & 1)
                 for m in set(masks)}  # the Y rings are the table's last
    diags = {}  # (x, unblocked Y rings) -> diagonal
    for s, m in zip(states, masks):
        if (s[0], m) not in diags:
            diags[s[0], m] = marginal.rows[s[0]][s[0]] - out_rates[m]
        rows[s][s] = diags[s[0], m]
    return SparseGenerator(states, rows, bound, f"coupling-{case} n={n}")


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

    X steps by its own marginal kernel ``kernel_geometric``.  Given X's step
    x -> xt, Y's entries move independently as ``dynamics.geometric_update``
    moves them: Y_j is pushed up to its floor max(y_j, xt_{j-1}) (Y_0's floor
    is y_0), jumps geometrically at the last rate q and is blocked at its cap
    x_j; the last entry has no cap and is cut at the bound.  So Y lands on
    each yt of the box between floors and caps with mass q^rise (1-q)^free:
    rise = |yt| - |floors|, and free counts the entries below their cap, the
    last one always.
    """
    qs = rates_of(q_ext, n + 1, open_unit=True)
    a, b = qs[n].numerator, qs[n].denominator
    marginal = kernel_geometric(n, qs[:n], bound)
    kind, j = _y_row(GEOMETRIC, qs)
    states = _pairs(kind, j, qs, bound)
    # q^rise (1-q)^free as integers over b^(rise+free), for q = a/b
    weight = lru_cache(maxsize=None)(lambda rise, free: ((b - a) ** free * a ** rise,
                                                         b ** (free + rise)))
    rows = {}
    for x, y in states:
        stops = tuple(c + 1 for c in x) + (bound + 1,)
        row = {}
        for xt, px in marginal.row(x).items():
            floors = (y[0],) + tuple(map(max, y[1:], xt))
            base = sum(floors)
            for yt in itertools.product(*map(range, floors, stops)):
                num, den = weight(sum(yt) - base, 1 + sum(map(int.__lt__, yt, x)))
                row[(xt, yt)] = Fraction(px.numerator * num, px.denominator * den)
        rows[(x, y)] = row
    return StepKernel(states, rows, bound, f"coupling-geometric n={n}")


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
        _, self._up, self._down = scaled_rates(self.qs)

    def support(self, y) -> list[tuple[tuple, Fraction]]:
        """Distribution over paired states ((x, y), weight); masses sum to 1."""
        y = coords_of(y)
        if len(y) != len(self.qs):
            raise ValueError(f"{self.variant} weight needs one rate per entry of y, "
                             f"got {len(self.qs)} for {y}")
        law = schur.branching_law(self.kind, self.y_row, y, self._up, self._down)
        return [((x, y), p) for x, p in law]

    def weight(self, x, y) -> Fraction:
        """Exact weight of x given y: zero unless x interlaces with y; for
        fixed y the weights over all admissible x sum to 1."""
        return dict(self.support(y)).get((coords_of(x), coords_of(y)), Fraction(0))
