"""Simulators for the three pattern dynamics.

Every particle moves on its own, on constant-rate ring clocks in continuous
time or by a geometric jump per step, and one blocking and pushing rule acts
on top.  For the continuous-time dynamics the rule is one neighbour table per
dynamics (ring_table), with ring rates from _ring_rates, applied by run_rings;
the exact two-row coupling generators of ``kernels.coupling_generator`` run
run_rings itself, one ring over every pair of their box at a time.
_ring_picks is the package's one sampler of ring clocks: they superpose, so a
trial draws N ~ Poisson(t * total rate) rings, each picked in proportion to
its rate; _ring_draws adds their sorted uniform times, and _ring_trial draws
one trial of them alike as lists, with no numpy call per ring.  The picks'
total and CDF are cached on the float rates, as a sweep of one-trial draws
asks for the same ones each trial, and the geometric jump probabilities are
read off each rate's numerator and denominator: such a draw hashes no
Fraction.  Ring sequences drive two loops: run_rings moves a block of trials
in one flat int array, trace_rings one trial, reporting each move.  A blocked
ring is discarded; a push cascade resolves downward at its ring's time.
Discrete time updates rows top to bottom, the old row above blocking and the
new row above pushing: geometric_rows states the rule once for one trial,
geometric_step reads its moves off the difference of the rows, and
geometric_update runs a block.  run_block and simulate run any model.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .patterns import (
    Pattern,
    STANDARD,
    SYMPLECTIC,
    branching_rule,
    is_valid,
    rates_of,
    row_length,
    row_offsets,
)


# ---------------------------------------------------------------------------
# blocking and pushing: one neighbour table per continuous-time dynamics

NEVER = np.iinfo(np.int64).min  # value of the slot no particle ever reaches
MAX_RING_EVENTS = 1 << 22  # most events one ring draw may expect (about 26 bytes each),
# and most geometric jumps one draw of ``couplings`` or one block of a run may take


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
    ring_of: MappingProxyType = field(compare=False, repr=False)  # key -> ring, read-only

    @property
    def idle(self) -> int:
        return len(self.keys)


@lru_cache(maxsize=None)
def ring_table(n: int, kind: str) -> RingTable:
    """The neighbour table of the rightward (standard) or wall (symplectic)
    dynamics on n rows.

    Adjacent rows r-1 and r either nest (the lower row is one longer, l_i <=
    u_i <= l_{i+1}) or shift (equal lengths, u_i <= l_i <= u_{i+1}), as row r
    drops an entry or not (``patterns.branching_rule``).  A move by d is
    blocked by the neighbour on side d in the row above and pushes the
    neighbour on side d in the row below; left of a symplectic row's first
    particle sits the wall.  Standard patterns ring rightwards only.
    """
    offs = row_offsets(n, kind)
    zero, never = offs[-1], offs[-1] + 1

    def slot(r, j, default):
        return offs[r - 1] + j - 1 if r >= 1 and 1 <= j <= offs[r] - offs[r - 1] else default

    keys = tuple((r, j, d) for r in range(1, n + 1)
                 for j in range(1, offs[r] - offs[r - 1] + 1)
                 for d in ((1,) if kind == STANDARD else (1, -1)))
    ring_of = {key: i for i, key in enumerate(keys)}
    particle, blocker, push = [], [], []
    for r, j, d in keys:
        particle.append(offs[r - 1] + j - 1)
        above = j + (d - 1) // 2 if branching_rule(kind, r)[0] else j + (d + 1) // 2
        wall = zero if kind == SYMPLECTIC and above < 1 else never
        blocker.append(slot(r - 1, above, wall))
        below = j + (d + 1) // 2 if branching_rule(kind, r + 1)[0] else j + (d - 1) // 2
        push.append(ring_of.get((r + 1, below, d), len(keys)))
    return RingTable(kind, offs, keys, tuple(particle) + (never,),
                     tuple(d for _, _, d in keys) + (0,), tuple(blocker) + (never,),
                     tuple(push) + (len(keys),), MappingProxyType(ring_of))


@lru_cache(maxsize=None)
def _ring_rates(table: RingTable, qs: tuple) -> tuple[Fraction, ...]:
    """Exact rate t ** d of every ring (r, j, d), t being row r's rate by
    ``patterns.branching_rule``; cached, as each edge check asks once."""
    return tuple(branching_rule(table.kind, r, qs)[1] ** d for r, _, d in table.keys)


def _jump_probs(qs: tuple) -> tuple[float, ...]:
    """Success probability 1 - q of each row's geometric jumps, as floats:
    (b - a) / b for q = a / b, one correctly rounded int division, as
    float(1 - q) is."""
    return tuple((v.denominator - v.numerator) / v.denominator for v in qs)


# ---------------------------------------------------------------------------
# ring sequences: a block of trials, or one trial with its moves

@lru_cache(maxsize=None)
def _pick_cdf(rates: tuple[float, ...]) -> tuple[float, np.ndarray, list[float]]:
    """Total rate and CDF of the picks among ring clocks at the float rates:
    read-only, and as a list for one-trial draws."""
    cdf = np.array(rates).cumsum()
    total = float(cdf[-1])  # not sum(rates): the CDF then ends at exactly 1
    cdf /= total or 1.0
    cdf.flags.writeable = False
    return total, cdf, cdf.tolist()


def _check_draw_size(events, horizon: str, what: str, cut: str = "the horizon") -> None:
    """Refuse, before anything is drawn, a draw expecting more than
    MAX_RING_EVENTS events: horizon names the horizon, what the events and
    cut what must come down."""
    if events > MAX_RING_EVENTS:
        raise RuntimeError(f"the horizon {horizon} asks for {events:.3g} {what}, past the "
                           f"{MAX_RING_EVENTS} of one draw: {cut} must come down")


def _pick_setup(rates, t_end, trials: int) -> tuple[float, float, np.ndarray, list[float]]:
    """t_end as a float, then _pick_cdf's total and CDFs, once the draw of
    trials on [0, t_end] is known to be valid and not too large."""
    if not t_end >= 0:
        raise ValueError(f"ring clocks run on [0, t_end], got t_end = {t_end}")
    t_end = float(t_end)
    total, cdf, cdf_list = _pick_cdf(tuple(map(float, rates)))
    _check_draw_size(trials * total * t_end, f"t_end = {t_end:g}",
                     f"ring events (trials = {trials})", "the horizon or the trial count")
    return t_end, total, cdf, cdf_list


def _ring_picks(rates, t_end: float, trials: int, rng) -> np.ndarray:
    """The rings of a superposition of ring clocks at the given rates on [0,
    t_end], without their times: per trial N ~ Poisson(t_end * total rate)
    rings, each picked with probability rate / total, rows padded with the
    idle ring len(rates).  A draw expecting more than MAX_RING_EVENTS rings
    is refused before anything is drawn."""
    t_end, total, cdf, _ = _pick_setup(rates, t_end, trials)
    counts = rng.poisson(total * t_end, size=trials)
    width = int(counts.max(initial=0))
    rings = np.searchsorted(cdf, rng.random((trials, width)), side="right")
    if trials > 1:  # one trial is never padded
        rings[np.arange(width) >= counts[:, None]] = len(cdf)
    return rings


def _ring_draws(rates, t_end: float, trials: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """_ring_picks, then their times drawn after them: sorted uniforms on [0,
    t_end], inf where the idle ring pads (set before sorting, so a row's times
    are the order statistics of its own count)."""
    rings = _ring_picks(rates, t_end, trials, rng)
    times = rng.random(rings.shape) * float(t_end)
    if trials > 1:
        times[rings == len(rates)] = np.inf
    times.sort(axis=1)
    return rings, times


def _ring_trial(rates, t_end: float, rng) -> tuple[list[int], list[float]]:
    """One trial of _ring_draws as lists, drawn alike with no per-ring numpy
    call: a scalar count, its uniforms each looked up in the CDF list, then
    its sorted times.  The same rings, times, generator state and refusals."""
    t_end, total, _, cdf = _pick_setup(rates, t_end, 1)
    count = rng.poisson(total * t_end)
    rings = [bisect_right(cdf, u) for u in rng.random(count).tolist()]
    return rings, sorted((rng.random(count) * t_end).tolist())


def run_rings(table: RingTable, start: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Apply ring sequences, rings[trial] in order and padded with
    ``table.idle``, to the flat patterns start[trial]; returns the final flat
    patterns.  Slot s of trial i is flat[i * (size + 2) + s] of one flat view;
    a ring moves the trials it is not blocked in, then cascades over the trials
    it moved until no pushed particle sits level with the mover's old position."""
    trials, size = start.shape
    x = np.empty((trials, size + 2), dtype=np.int64)
    x[:, :size] = start
    x[:, size] = 0
    x[:, size + 1] = NEVER
    particle, step, blocker, push = (np.array(v) for v in (
        table.particle, table.step, table.blocker, table.push))
    flat, base = x.reshape(-1), np.arange(trials) * (size + 2)
    for col in rings.T:
        slot = base + particle[col]
        pre = flat[slot]
        hit, ring, at = np.flatnonzero(pre != flat[base + blocker[col]]), col, base
        while hit.size:
            ring, pre, at = ring[hit], pre[hit], at[hit]
            flat[slot[hit]] = pre + step[ring]
            ring = push[ring]
            slot = at + particle[ring]
            hit = np.flatnonzero(flat[slot] == pre)
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


# ---------------------------------------------------------------------------
# discrete-time geometric dynamics

def geometric_rows(rows, xi) -> list[list[int]]:
    """One synchronous update given the jump draws xi[row][index], whole
    numbers, with no move log: the rule of the geometric dynamics.  Row by
    row from the top, each particle is lifted to the new place of the
    particle up-left of it (the new row above pushes), jumps by its draw and
    stops at the old place of the particle above it (the old row above
    blocks); a top row moves freely.  A plain loop, as rows are short and
    comprehensions cost more here: this runs at every step of an LPP check."""
    new_rows = []
    old = new = None  # the row above, before and after this step
    for row, jumps in zip(rows, xi):
        new_row = []
        for j, pos in enumerate(row):
            if new is not None:
                if j and new[j - 1] > pos:
                    pos = new[j - 1]
                pos += jumps[j]
                if j < len(old) and old[j] < pos:
                    pos = old[j]
            else:
                pos += jumps[j]
            new_row.append(pos)
        new_rows.append(new_row)
        old, new = row, new_row
    return new_rows


def geometric_step(rows, xi):
    """geometric_rows with its moves read off the difference of the rows.

    Returns (new_rows, moves) where moves are (row, index, displacement,
    cause) with 1-based indices, cause "push" where the new place of the
    particle up-left has passed the old place, "self" elsewhere."""
    new_rows = geometric_rows(rows, [[int(e) for e in jumps] for jumps in xi])
    moves = [(r0 + 1, j0 + 1, nxt - pos,
              "push" if r0 and j0 and new_rows[r0 - 1][j0 - 1] > pos else "self")
             for r0, (row, new) in enumerate(zip(rows, new_rows))
             for j0, (pos, nxt) in enumerate(zip(row, new)) if nxt != pos]
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


# ---------------------------------------------------------------------------
# runs of any dynamics: a block of trials, or one trial with its log of moves
MODELS = ("poisson", "geometric", "wall")  # the three dynamics a run may name


def _model_rates(model: str, n: int, q, horizon) -> tuple[str, tuple[Fraction, ...]]:
    """Pattern kind and exact rates of a run of one of the MODELS on n rows
    up to the horizon, a time or, for the geometric model, a whole number of
    steps: the one model-to-kind map."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if n < 1:
        raise ValueError(f"a pattern needs n >= 1 rows, got n = {n}")
    kind = SYMPLECTIC if model == "wall" else STANDARD
    qs = rates_of(q, row_length(n, kind), open_unit=model != "poisson")
    if not horizon >= 0 or model == "geometric" and not float(horizon).is_integer():
        form = "a whole number of steps >= 0" if model == "geometric" else ">= 0"
        raise ValueError(f"the horizon must be {form}, got horizon = {horizon}")
    return kind, qs


def run_block(model: str, n: int, q, start: np.ndarray, horizon, rng) -> np.ndarray:
    """Final flat patterns of a block of trials of the dynamics up to the
    horizon, trial i from the flat pattern start[i]."""
    kind, qs = _model_rates(model, n, q, horizon)
    if model == "geometric":
        _check_draw_size(int(horizon) * start.size, f"of {int(horizon)} steps", f"geometric "
                         f"jumps (trials = {len(start)})", "the horizon or the trial count")
        ps = np.repeat(_jump_probs(qs), range(1, n + 1))
        x = start
        for _ in range(int(horizon)):
            x = geometric_update(x, rng.geometric(ps, size=x.shape) - 1, n)
        return x
    table = ring_table(n, kind)
    return run_rings(table, start, _ring_picks(_ring_rates(table, qs), horizon, len(start), rng))


def simulate(model: str, n: int, q, init: Pattern, horizon, rng) -> tuple[Pattern, list[tuple]]:
    """One trial of the dynamics from init up to the horizon, as run_block.
    Returns the final pattern and the log of moves (t, row, index,
    displacement, cause) in order: a cascade shares its ring's time, and a
    geometric move carries the number of its step."""
    kind, qs = _model_rates(model, n, q, horizon)
    if init.kind != kind or init.nrows != n or not is_valid(init):
        raise ValueError(f"init must be a valid {kind} pattern of matching size")
    if model == "geometric":
        _check_draw_size(int(horizon) * sum(map(len, init.rows)), f"of {int(horizon)} steps",
                         "geometric jumps")
        rows, log = [list(r) for r in init.rows], []
        ps = _jump_probs(qs)
        for t in range(1, int(horizon) + 1):
            rows, moves = geometric_step(
                rows, [rng.geometric(p, size=r0 + 1) - 1 for r0, p in enumerate(ps)])
            log.extend((t, *move) for move in moves)
        return Pattern(tuple(map(tuple, rows)), kind), log
    table = ring_table(n, kind)
    rings, times = _ring_trial(_ring_rates(table, qs), horizon, rng)
    flat, log = trace_rings(table, [c for row in init.rows for c in row], zip(times, rings))
    offs = table.offsets
    return Pattern(tuple(tuple(flat[a:b]) for a, b in zip(offs, offs[1:])), kind), log


@lru_cache(maxsize=None)
def zero_pattern(n: int, kind: str = STANDARD) -> Pattern:
    """The all-zero pattern of height n."""
    return Pattern(tuple((0,) * row_length(j, kind) for j in range(1, n + 1)), kind)
