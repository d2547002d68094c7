"""Simulators for the three pattern dynamics.

Every particle moves on its own, on constant-rate ring clocks in continuous
time or by a geometric jump per step, and one blocking and pushing rule acts
on top.  For the continuous-time dynamics the rule is one neighbour table per
dynamics (ring_table), with ring rates from _ring_rates; the exact two-row
coupling generators of ``kernels.coupling_generator`` read the same table.
The ring clocks superpose: a trial draws N ~ Poisson(t * total rate) rings,
each picked in proportion to its rate (_ring_draws), and one time-ordered
sequence of ring indices is the only input of two loops.  run_rings moves a
block of trials as int arrays (trials, particles); trace_rings moves one
trial and reports each move, and ``simulate`` gives it sorted uniform times.
A blocked ring is discarded, and a push cascade resolves downward at its
ring's time.  Discrete time updates rows strictly top to bottom with the old
row above blocking and the new row above pushing: geometric_step for one
trial, geometric_update for a block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .patterns import (
    Pattern,
    STANDARD,
    SYMPLECTIC,
    is_valid,
    rates_of,
    row_offsets,
)


# ---------------------------------------------------------------------------
# blocking and pushing: one neighbour table per continuous-time dynamics

NEVER = np.iinfo(np.int64).min  # value of the slot no particle ever reaches


@dataclass(frozen=True)
class RingTable:
    """Every ring clock (particle, direction) of a pattern with its blocking
    and pushing neighbours.

    Particles are numbered in the flat layout of ``patterns.row_offsets``;
    two more slots follow them, ``zero`` (always 0: the wall) and ``never``
    (always NEVER: no neighbour).  A ring is discarded when its particle is
    level with ``blocker[ring]``.  Otherwise the particle moves by
    ``step[ring]``, and the move cascades to ring ``push[ring]``, which moves
    its own particle when that one sat level with the mover's old position.
    The ring after the last, ``idle``, is always blocked and pushes nothing;
    it pads ring sequences of unequal length.
    """

    kind: str
    offsets: tuple[int, ...]
    keys: tuple[tuple[int, int, int], ...]  # (row, index, direction), 1-based
    particle: tuple[int, ...]
    step: tuple[int, ...]
    blocker: tuple[int, ...]
    push: tuple[int, ...]

    @property
    def idle(self) -> int:
        return len(self.keys)


@lru_cache(maxsize=None)
def ring_table(n: int, kind: str) -> RingTable:
    """The neighbour table of the rightward (standard) or wall (symplectic)
    dynamics on n rows.

    Adjacent rows either nest (the lower row is one longer, l_i <= u_i <=
    l_{i+1}) or, for symplectic row pairs (2i-1, 2i), shift (equal lengths,
    u_i <= l_i <= u_{i+1}).  A move by d is blocked by the neighbour on side d
    in the row above and pushes the neighbour on side d in the row below;
    left of a symplectic row's first particle sits the wall.  Standard
    patterns ring rightwards only.
    """
    offs = row_offsets(n, kind)
    zero, never = offs[-1], offs[-1] + 1

    def nests(r):  # rows r-1 and r nest; the empty row 0 nests above row 1
        return kind == STANDARD or r % 2 == 1

    def slot(r, j, default):
        return offs[r - 1] + j - 1 if r >= 1 and 1 <= j <= offs[r] - offs[r - 1] else default

    keys = tuple((r, j, d) for r in range(1, n + 1)
                 for j in range(1, offs[r] - offs[r - 1] + 1)
                 for d in ((1,) if kind == STANDARD else (1, -1)))
    ring_of = {key: i for i, key in enumerate(keys)}
    particle, blocker, push = [], [], []
    for r, j, d in keys:
        particle.append(offs[r - 1] + j - 1)
        above = j + (d - 1) // 2 if nests(r) else j + (d + 1) // 2
        wall = zero if kind == SYMPLECTIC and above < 1 else never
        blocker.append(slot(r - 1, above, wall))
        below = j + (d + 1) // 2 if nests(r + 1) else j + (d - 1) // 2
        push.append(ring_of.get((r + 1, below, d), len(keys)))
    return RingTable(kind, offs, keys, tuple(particle) + (never,),
                     tuple(d for _, _, d in keys) + (0,), tuple(blocker) + (never,),
                     tuple(push) + (len(keys),))


def _ring_rates(table: RingTable, qs) -> list[Fraction]:
    """Exact rate of every ring: row r rings at q_r (rightward dynamics); odd
    rows of the wall dynamics ring right at q_k and left at 1/q_k, even rows
    the other way round."""
    if table.kind == STANDARD:
        return [qs[r - 1] for r, _, _ in table.keys]
    return [qs[(r + 1) // 2 - 1] ** (d if r % 2 else -d) for r, _, d in table.keys]


# ---------------------------------------------------------------------------
# ring sequences: a block of trials, or one trial with its moves

def _ring_draws(rates, t_end: float, trials: int, rng) -> np.ndarray:
    """Superposition of ring clocks at the given rates: per trial
    N ~ Poisson(t_end * total rate) rings, each picked with probability
    rate / total, in rows padded with the idle ring len(rates)."""
    rates = [float(v) for v in rates]
    total = sum(rates)
    counts = rng.poisson(total * t_end, size=trials)
    width = int(counts.max(initial=0))
    cdf = np.cumsum(rates) / (total or 1.0)
    rings = np.minimum(np.searchsorted(cdf, rng.random((trials, width)), side="right"),
                       len(rates) - 1)
    rings[np.arange(width) >= counts[:, None]] = len(rates)
    return rings


def run_rings(table: RingTable, start: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Apply ring sequences, rings[trial] in order and padded with
    ``table.idle``, to the flat patterns start[trial]; returns the final flat
    patterns."""
    trials, size = start.shape
    x = np.empty((trials, size + 2), dtype=np.int64)
    x[:, :size] = start
    x[:, size] = 0
    x[:, size + 1] = NEVER
    particle, step, blocker, push = (np.array(v) for v in (
        table.particle, table.step, table.blocker, table.push))
    row = np.arange(trials)
    depth = len(table.offsets) - 2  # a cascade moves at most one particle per lower row
    for col in rings.T:
        slot = particle[col]
        pre = x[row, slot]
        moved = pre != x[row, blocker[col]]
        x[row, slot] = pre + step[col] * moved
        ring = push[col]
        for _ in range(depth):
            slot = particle[ring]
            moved &= x[row, slot] == pre
            x[row, slot] += step[ring] * moved
            ring = push[ring]
    return x[:, :size]


def trace_rings(table: RingTable, flat, timed_rings) -> tuple[list[int], list[tuple]]:
    """One-trial form of run_rings: apply timed_rings, pairs (time, ring) in
    time order, to the flat pattern.  Returns the final flat pattern and every
    move (time, row, index, displacement, cause), cause "self" for the ringing
    particle and "push" for those its cascade carries."""
    particle, step, blocker, push = table.particle, table.step, table.blocker, table.push
    x = list(flat) + [0, NEVER]
    moves = []
    for t, ring in timed_rings:
        pre = x[particle[ring]]
        if pre == x[blocker[ring]]:
            continue  # blocked
        cause = "self"
        while x[particle[ring]] == pre:
            x[particle[ring]] += step[ring]
            moves.append((t, *table.keys[ring], cause))
            ring, cause = push[ring], "push"
    return x[:-2], moves


def _batch_rings(table: RingTable, qs, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Final flat patterns of a block of trials, one ring sequence each."""
    return run_rings(table, start, _ring_draws(_ring_rates(table, qs), t_end, len(start), rng))


def batch_poisson(n: int, q, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Final flat patterns of the rightward dynamics from each row of start."""
    return _batch_rings(ring_table(n, STANDARD), rates_of(q, n), start, t_end, rng)


def batch_wall(n: int, q, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Final flat patterns of the wall dynamics from each row of start."""
    qs = rates_of(q, (n + 1) // 2, open_unit=True)
    return _batch_rings(ring_table(n, SYMPLECTIC), qs, start, t_end, rng)


# ---------------------------------------------------------------------------
# discrete-time geometric dynamics

def geometric_step(rows, xi):
    """One synchronous update given the jump draws xi[row][index].

    Returns (new_rows, moves) where moves are (row, index, displacement,
    cause) with 1-based indices.  The old row above blocks, the freshly
    updated row above pushes before the jump.
    """
    new_rows: list[list[int]] = []
    moves = []
    for r0, row in enumerate(rows):
        new_row = []
        for j0, pos in enumerate(row):
            inter = pos
            cause = "self"
            if r0 > 0 and j0 > 0 and new_rows[r0 - 1][j0 - 1] > inter:
                inter = new_rows[r0 - 1][j0 - 1]
                cause = "push"
            nxt = inter + int(xi[r0][j0])
            if r0 > 0 and j0 < len(rows[r0 - 1]):
                nxt = min(nxt, rows[r0 - 1][j0])
            new_row.append(nxt)
            if nxt != pos:
                moves.append((r0 + 1, j0 + 1, nxt - pos, cause))
        new_rows.append(new_row)
    return new_rows, moves


def geometric_update(x: np.ndarray, xi: np.ndarray, n: int) -> np.ndarray:
    """Batched geometric_step on flat patterns x (trials, particles) with the
    jump draws xi laid out alike: row by row, take the maximum with the new
    row above, add xi, then take the minimum with the old row above."""
    offs = row_offsets(n)
    new = x + xi
    for r in range(1, n):
        above, lo, hi = slice(offs[r - 1], offs[r]), offs[r], offs[r + 1]
        new[:, lo + 1:hi] = np.maximum(x[:, lo + 1:hi], new[:, above]) + xi[:, lo + 1:hi]
        new[:, lo:hi - 1] = np.minimum(new[:, lo:hi - 1], x[:, above])
    return new


def batch_geometric(n: int, q, start: np.ndarray, steps: int, rng) -> np.ndarray:
    """Final flat patterns of the geometric dynamics from each row of start."""
    qs = rates_of(q, n, open_unit=True)
    ps = np.repeat([float(1 - v) for v in qs], range(1, n + 1))
    x = start
    for _ in range(steps):
        x = geometric_update(x, rng.geometric(ps, size=x.shape) - 1, n)
    return x


# ---------------------------------------------------------------------------
# one trial of any dynamics, with its log of moves

def simulate(model: str, n: int, q, init: Pattern, horizon, rng) -> tuple[Pattern, list[tuple]]:
    """One trial of the "poisson", "wall" or "geometric" dynamics from init up
    to the horizon, a time or, for the geometric model, a number of steps.
    Returns the final pattern and the log of moves (t, row, index,
    displacement, cause) in order: a cascade shares its ring's time, and a
    geometric move carries the number of its step."""
    if model not in ("poisson", "wall", "geometric"):
        raise ValueError(f"unknown model {model!r}")
    kind = SYMPLECTIC if model == "wall" else STANDARD
    qs = rates_of(q, (n + 1) // 2 if model == "wall" else n, open_unit=model != "poisson")
    if init.kind != kind or init.nrows != n or not is_valid(init):
        raise ValueError(f"init must be a valid {kind} pattern of matching size")
    if not horizon >= 0:
        raise ValueError(f"the horizon must be >= 0, got horizon = {horizon}")
    if model == "geometric":
        rows, log = [list(r) for r in init.rows], []
        ps = [float(1 - v) for v in qs]
        for t in range(1, horizon + 1):
            rows, moves = geometric_step(
                rows, [rng.geometric(p, size=r0 + 1) - 1 for r0, p in enumerate(ps)])
            log.extend((t, *move) for move in moves)
        return Pattern(tuple(map(tuple, rows)), kind), log
    table = ring_table(n, kind)
    rings = _ring_draws(_ring_rates(table, qs), horizon, 1, rng)[0]
    times = np.sort(rng.random(len(rings))) * horizon
    flat, log = trace_rings(table, [c for row in init.rows for c in row],
                            zip(times.tolist(), rings.tolist()))
    offs = table.offsets
    return Pattern(tuple(tuple(flat[a:b]) for a, b in zip(offs, offs[1:])), kind), log


@lru_cache(maxsize=None)
def zero_pattern(n: int, kind: str = STANDARD) -> Pattern:
    """The all-zero pattern of height n."""
    if kind == STANDARD:
        return Pattern(tuple((0,) * j for j in range(1, n + 1)), kind)
    return Pattern(tuple((0,) * ((j + 1) // 2) for j in range(1, n + 1)), kind)
