"""Simulators for the three pattern dynamics: event-driven trajectories, and a
batched engine that moves many independent trials at once as int arrays
(trials, particles).

Continuous-time dynamics use per-particle exponential candidate clocks
(regenerated after every event, so independent Poisson candidate streams are
exact); a candidate ring that is blocked is discarded.  Push and drag cascades
resolve recursively downward within a single timestamp.  Blocking and pushing
are read from one neighbour table per dynamics (ring_table) and ring rates
from _ring_rates: both simulators use them, and so do the exact two-row
coupling generators of ``kernels.coupling_generator``.  As every clock has a
constant rate, the batched engine draws each trial's ring count and then each
ring's clock in proportion to its rate.  Discrete time updates rows strictly
top to bottom with the old row above blocking and the new row above pushing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class MoveEvent:
    time: float | int
    row: int
    index: int
    displacement: int
    cause: str  # "self" | "push"


@dataclass
class Trajectory:
    initial: object  # Pattern or chamber tuple
    events: list[MoveEvent] = field(default_factory=list)
    final: object = None

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(
                {"t": e.time, "row": e.row, "i": e.index, "d": e.displacement,
                 "cause": e.cause}
            )
            for e in self.events
        )

    def replay(self, validate: bool = False):
        """Re-apply the events to the initial state; optionally check cone
        membership after every timestamp (cascades share a timestamp)."""
        if isinstance(self.initial, Pattern):
            rows = [list(r) for r in self.initial.rows]
            kind = self.initial.kind
            last_t = None
            for e in self.events:
                if validate and last_t is not None and e.time != last_t:
                    if not is_valid(Pattern(tuple(tuple(r) for r in rows), kind)):
                        raise AssertionError(f"invalid state before t={e.time}")
                rows[e.row - 1][e.index - 1] += e.displacement
                last_t = e.time
            state = Pattern(tuple(tuple(r) for r in rows), kind)
            if validate and not is_valid(state):
                raise AssertionError("invalid final state")
            return state
        state = list(self.initial)
        for e in self.events:
            state[e.index - 1] += e.displacement
        return tuple(state)


def _ring_times(rate: float, t_end: float, rng) -> list[float]:
    if rate <= 0.0:
        return []
    out = []
    t = rng.exponential(1.0 / rate)
    while t < t_end:
        out.append(t)
        t += rng.exponential(1.0 / rate)
    return out


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


def _simulate_rings(table: RingTable, qs, init: Pattern, t_end: float, rng) -> Trajectory:
    if init.kind != table.kind or init.nrows != len(table.offsets) - 1 or not is_valid(init):
        raise ValueError(f"init must be a valid {table.kind} pattern of matching size")
    if not t_end >= 0:
        raise ValueError(f"the horizon must be >= 0, got horizon = {t_end}")
    rings = {key: _ring_times(float(rate), t_end, rng)
             for key, rate in zip(table.keys, _ring_rates(table, qs))}
    return from_rings(table, rings, init, t_end)


def from_rings(table: RingTable, rings: dict, init: Pattern, t_end: float) -> Trajectory:
    """Run a dynamics off explicit candidate ring times, keyed (row, index,
    direction) as in ``table.keys``, in time order up to t_end."""
    particle, step, blocker, push = table.particle, table.step, table.blocker, table.push
    ring_of = {key: i for i, key in enumerate(table.keys)}
    place = [(r, j) for r, j, d in table.keys if d == 1]  # (row, index) of each slot
    x = [c for row in init.rows for c in row] + [0, NEVER]
    events: list[MoveEvent] = []
    agenda = sorted(
        (t, key) for key, times in rings.items() for t in times if t < t_end
    )
    for t, key in agenda:
        ring = ring_of[key]
        pre = x[particle[ring]]
        if pre == x[blocker[ring]]:
            continue  # blocked
        cause = "self"
        while x[particle[ring]] == pre:
            slot = particle[ring]
            x[slot] = pre + step[ring]
            events.append(MoveEvent(t, *place[slot], step[ring], cause))
            ring, cause = push[ring], "push"
    offs = table.offsets
    final = Pattern(tuple(tuple(x[a:b]) for a, b in zip(offs, offs[1:])), init.kind)
    return Trajectory(init, events, final)


def run_rings(table: RingTable, start: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Batched form of the event-driven simulators: apply ring sequences,
    rings[trial] in order and padded with ``table.idle``, to the flat
    patterns start[trial]; returns the final flat patterns."""
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


def _batch_rings(table: RingTable, qs, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Superposition of the ring clocks: per trial N ~ Poisson(t * total rate)
    rings, each ring picked with probability rate / total."""
    rates = [float(v) for v in _ring_rates(table, qs)]
    total = sum(rates)
    counts = rng.poisson(total * t_end, size=len(start))
    width = int(counts.max(initial=0))
    cdf = np.cumsum(rates) / total
    rings = np.minimum(np.searchsorted(cdf, rng.random((len(start), width)), side="right"),
                       len(rates) - 1)
    rings[np.arange(width) >= counts[:, None]] = table.idle
    return run_rings(table, start, rings)


# ---------------------------------------------------------------------------
# rightward (continuous-time) dynamics

def simulate_poisson(n: int, q, init: Pattern, t_end: float, rng) -> Trajectory:
    """Rightward dynamics: row-k particles ring at the k-th rate, blocked by
    the particle above-left, pushing the particle below-right."""
    return _simulate_rings(ring_table(n, STANDARD), rates_of(q, n), init, t_end, rng)


def batch_poisson(n: int, q, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Final flat patterns of the rightward dynamics from each row of start."""
    return _batch_rings(ring_table(n, STANDARD), rates_of(q, n), start, t_end, rng)


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


def simulate_geometric(n: int, q, init: Pattern, steps: int, rng) -> Trajectory:
    """Discrete dynamics with geometric jumps, P(jump = j) = (1-q) q^j."""
    qs = rates_of(q, n, open_unit=True)
    if init.kind != STANDARD or init.nrows != n or not is_valid(init):
        raise ValueError("init must be a valid standard pattern of matching size")
    if not steps >= 0:
        raise ValueError(f"the horizon must be >= 0 steps, got horizon = {steps}")
    rows = [list(r) for r in init.rows]
    events: list[MoveEvent] = []
    ps = [float(1 - v) for v in qs]
    for step in range(1, steps + 1):
        xi = [rng.geometric(ps[r0], size=r0 + 1) - 1 for r0 in range(n)]
        rows, moves = geometric_step(rows, xi)
        events.extend(MoveEvent(step, r, j, d, c) for r, j, d, c in moves)
    return Trajectory(init, events, Pattern(tuple(tuple(r) for r in rows), STANDARD))


def batch_geometric(n: int, q, start: np.ndarray, steps: int, rng) -> np.ndarray:
    """Final flat patterns of the geometric dynamics from each row of start."""
    qs = rates_of(q, n, open_unit=True)
    ps = np.repeat([float(1 - v) for v in qs], range(1, n + 1))
    x = start
    for _ in range(steps):
        x = geometric_update(x, rng.geometric(ps, size=x.shape) - 1, n)
    return x


# ---------------------------------------------------------------------------
# wall (symplectic) dynamics

def simulate_wall(n: int, q, init: Pattern, t_end: float, rng) -> Trajectory:
    """Two-sided dynamics behind a wall: odd rows jump right at their rate and
    left at its inverse, even rows with the rates reversed; left jumps of the
    leftmost odd-row particles are suppressed at the origin."""
    qs = rates_of(q, (n + 1) // 2, open_unit=True)
    return _simulate_rings(ring_table(n, SYMPLECTIC), qs, init, t_end, rng)


def batch_wall(n: int, q, start: np.ndarray, t_end: float, rng) -> np.ndarray:
    """Final flat patterns of the wall dynamics from each row of start."""
    qs = rates_of(q, (n + 1) // 2, open_unit=True)
    return _batch_rings(ring_table(n, SYMPLECTIC), qs, start, t_end, rng)


@lru_cache(maxsize=None)
def zero_pattern(n: int, kind: str = STANDARD) -> Pattern:
    """The all-zero pattern of height n."""
    if kind == STANDARD:
        return Pattern(tuple((0,) * j for j in range(1, n + 1)), kind)
    return Pattern(tuple((0,) * ((j + 1) // 2) for j in range(1, n + 1)), kind)
