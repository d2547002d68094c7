"""Pathwise functionals of the driving noise and the checks coupling them to
edge processes of the pattern dynamics.

A noise panel is materialised once and drives both sides of an identity, so
equality claims are checked exactly, path by path.  The pathwise sweeps run
one trial at a time: trial i's panel comes from the stream (seed, i) and the
rest of the pattern's noise from (seed + 1, i).  The wall-sup functional is
deterministic in its panel but only matches its conditioned-walk reference
in distribution; its samples are drawn and evaluated as arrays, in blocks of
WALL_BLOCK_TRIALS panels, block b from the stream (seed, b).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .patterns import rates_of

WALL_BLOCK_TRIALS = 1024
_NOT_A_SPLIT = np.iinfo(np.int32).min // 2


@dataclass(frozen=True)
class PoissonPanel:
    """Jump times of independent counting processes, one tuple per component."""

    times: tuple[tuple[float, ...], ...]
    t_end: float


@dataclass(frozen=True)
class GeometricPanel:
    """Nonnegative integer field eta[k][t-1], jump draws for site (t, k+1)."""

    eta: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WallPanel:
    """Signed jumps ((time, +-1), ...) of the interleaved walk components."""

    jumps: tuple[tuple[tuple[float, int], ...], ...]
    t_end: float


def poisson_panel(n: int, q, t_end: float, rng) -> PoissonPanel:
    qs = rates_of(q, n)
    times = tuple(
        tuple(dynamics._ring_times(float(v), t_end, rng)) for v in qs
    )
    return PoissonPanel(times, t_end)


def geometric_panel(n: int, q, t_max: int, rng) -> GeometricPanel:
    qs = rates_of(q, n, open_unit=True)
    eta = tuple(
        tuple(int(v) for v in rng.geometric(float(1 - qs[k]), size=t_max) - 1)
        for k in range(n)
    )
    return GeometricPanel(eta)


def wall_panel(k: int, q, t_end: float, rng) -> WallPanel:
    """Interleaved components (Z_1, Z~_1, ..., Z_k, Z~_k): Z_i steps +1 at rate
    1/q_i and -1 at rate q_i; Z~_i is distributed as -Z_i.  Row 0 of a
    one-trial block draw (:func:`_wall_block`)."""
    times, codes = _wall_block(rates_of(q, k, open_unit=True), t_end, 1, rng)
    return _row_panel(times[0], codes, 2 * k, t_end)


def _row_panel(times, codes, m: int, t_end: float) -> WallPanel:
    """One row of a block draw, padding dropped, as a WallPanel of m components."""
    comps = [[] for _ in range(m)]
    for tt, code in zip(times.tolist(), codes.tolist()):
        if tt != np.inf:
            comps[abs(code) - 1].append((tt, 1 if code > 0 else -1))
    return WallPanel(tuple(tuple(sorted(c)) for c in comps), t_end)


class _StepPath:
    """Right-continuous integer step function of time."""

    def __init__(self, jumps):
        # jumps: iterable of (time, increment), time-sorted
        self.times = [0.0]
        self.values = [0]
        for t, d in jumps:
            if t == self.times[-1]:
                self.values[-1] += d
            else:
                self.times.append(t)
                self.values.append(self.values[-1] + d)

    def value(self, t: float) -> int:
        return self.values[bisect_right(self.times, t) - 1]


# ---------------------------------------------------------------------------
# left edge of the rightward dynamics

def left_edge_from_walk(panel: PoissonPanel, t_grid) -> list[list[int]]:
    """Rows of the reflection recursion along t_grid, starting from zero.

    Row 1 is the first counting process; row k+1 adds the running infimum of
    (row k minus the (k+1)-th process) to that process.
    """
    grid = list(t_grid)
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("t_grid must be sorted")
    n = len(panel.times)
    z_paths = [_StepPath((t, 1) for t in ts) for ts in panel.times]
    event_times = sorted({t for ts in panel.times for t in ts})
    rows = [z_paths[0]]
    for k in range(1, n):
        prev, z = rows[k - 1], z_paths[k]
        inf_jumps = []
        running = prev.value(0.0) - z.value(0.0)  # = 0 at the origin
        level = running
        for t in event_times:
            diff = prev.value(t) - z.value(t)
            if diff < running:
                inf_jumps.append((t, diff - level))
                level = diff
                running = diff
        inf_path = _StepPath(inf_jumps)
        combined = _StepPath([])
        combined.times = event_times[:] if event_times else [0.0]
        if not combined.times or combined.times[0] != 0.0:
            combined.times = [0.0] + combined.times
        combined.values = [z.value(t) + inf_path.value(t) for t in combined.times]
        rows.append(combined)
    return [[path.value(t) for t in grid] for path in rows]


def left_edge_matches_dynamics(panel: PoissonPanel, n: int, q, rng=None) -> bool:
    """Exact pathwise equality between the constructed left edge and the left
    edge of the full simulated pattern driven by the same panel."""
    qs = rates_of(q, n)
    rng = rng if rng is not None else np.random.default_rng(0)
    t_end = panel.t_end
    rings = {}
    for k in range(1, n + 1):
        rings[(k, 1)] = list(panel.times[k - 1])
        for j in range(2, k + 1):
            rings[(k, j)] = dynamics._ring_times(float(qs[k - 1]), t_end, rng)
    traj = dynamics.poisson_from_rings(n, rings, dynamics.zero_pattern(n), t_end)
    edge_jumps = {k: [] for k in range(1, n + 1)}
    for e in traj.events:
        if e.index == 1:
            edge_jumps[e.row].append((e.time, e.displacement))
    simulated = [_StepPath(edge_jumps[k]) for k in range(1, n + 1)]
    checkpoints = sorted({t for ts in panel.times for t in ts} | {t_end})
    constructed = left_edge_from_walk(panel, checkpoints)
    for k in range(n):
        if any(simulated[k].value(t) != constructed[k][i] for i, t in enumerate(checkpoints)):
            return False
    return True


def _check_sweep(n: int, trials: int):
    """Refuse a sweep over trials that would check nothing."""
    if n < 1 or trials < 1:
        raise ValueError(f"a sweep needs n >= 1 and trials >= 1, got n = {n}, trials = {trials}")


def left_edge_failures(n: int, q, t: float, trials: int, seed: int) -> list[int]:
    """Trials whose constructed left edge differs from the simulated one."""
    _check_sweep(n, trials)
    return [trial for trial in range(trials)
            if not left_edge_matches_dynamics(
                poisson_panel(n, q, t, np.random.default_rng((seed, trial))), n, q,
                np.random.default_rng((seed + 1, trial)))]


# ---------------------------------------------------------------------------
# last passage times

def lpp_G(panel: GeometricPanel, n: int, t_max: int | None = None) -> list[list[int]]:
    """Last passage times G[k-1][t-1] into (t, k) by the corner recursion."""
    eta = panel.eta
    if t_max is None:
        t_max = len(eta[0]) if eta else 0
    g = [[0] * (t_max + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        for t in range(1, t_max + 1):
            g[k][t] = max(g[k - 1][t], g[k][t - 1]) + eta[k - 1][t - 1]
    return [row[1:] for row in g[1:]]


def right_edge_equals_lpp(
    panel: GeometricPanel, n: int, q, t_max: int | None = None, rng=None
) -> bool:
    """True iff the simulated right edge equals the last passage times at
    every step, when the diagonal particles consume the panel draws."""
    qs = rates_of(q, n, open_unit=True)
    if t_max is None:
        t_max = len(panel.eta[0])
    rng = rng if rng is not None else np.random.default_rng(0)
    g = lpp_G(panel, n, t_max)
    rows = [[0] * j for j in range(1, n + 1)]
    # every step's jumps in one draw, row r0 taking r0 + 1 columns
    ps = [float(1 - qs[r0]) for r0 in range(n) for _ in range(r0 + 1)]
    steps = (rng.geometric(ps, size=(t_max, len(ps))) - 1).tolist()
    for t, draws in enumerate(steps, 1):
        xi = [draws[r0 * (r0 + 1) // 2:(r0 + 1) * (r0 + 2) // 2] for r0 in range(n)]
        for r0 in range(n):
            xi[r0][r0] = panel.eta[r0][t - 1]
        rows, _ = dynamics.geometric_step(rows, xi)
        if any(rows[k][k] != g[k][t - 1] for k in range(n)):
            return False
    return True


def lpp_failures(n: int, q, steps: int, trials: int, seed: int) -> list[int]:
    """Trials whose simulated right edge differs from the last passage times."""
    _check_sweep(n, trials)
    return [trial for trial in range(trials)
            if not right_edge_equals_lpp(
                geometric_panel(n, q, steps, np.random.default_rng((seed, trial))), n, q, steps,
                np.random.default_rng((seed + 1, trial)))]


# ---------------------------------------------------------------------------
# wall functional

def _wall_block(qs, t_end: float, trials: int, rng):
    """Panels of a block of trials as padded arrays: jump times (trials,
    jumps), inf past each trial's count, and the signed component code
    +-(c+1) of every column.

    Given its Poisson count, a clock's jump times are i.i.d. uniform on
    [0, t_end].  Draws go rate by rate, component Z_i then Z~_i, the +1
    clock then the -1 clock."""
    t_end = float(t_end)
    times, codes = [], []
    for i, v in enumerate(qs):
        up, down = float(1 / v), float(v)
        for c, rates in ((2 * i, (up, down)), (2 * i + 1, (down, up))):
            for sign, rate in zip((1, -1), rates):
                counts = rng.poisson(rate * t_end, size=trials)
                width = int(counts.max())
                cols = rng.random((trials, width)) * t_end
                cols[np.arange(width) >= counts[:, None]] = np.inf
                times.append(cols)
                codes.append(np.full(width, sign * (c + 1), dtype=np.int8))
    return np.hstack(times), np.concatenate(codes)


def _wall_sup(times, codes, m: int) -> np.ndarray:
    """Wall functional of every row of a block: the m-stage dynamic program
    over the row's merged, sorted jump times, with time 0 in front.

    Split points are the grid's times, each with its components' values after
    every jump at that time: a grid point tied with the next jump is no split
    point, the last one of its time stands for it.  inf marks padding, which
    moves no component; the grid's last point is always a split point."""
    order = np.argsort(times, axis=1, kind="stable")
    ts = np.take_along_axis(times, order, axis=1)
    cs = np.where(np.isfinite(ts), codes[order], 0)
    grid = np.hstack([np.zeros((len(ts), 1)), ts])
    tied = np.zeros(grid.shape, dtype=bool)
    tied[:, :-1] = grid[:, :-1] == ts
    prev = np.zeros(grid.shape, dtype=np.int32)  # component values on the grid
    best = np.zeros(grid.shape, dtype=np.int32)
    for c in range(m):
        cur = np.zeros(grid.shape, dtype=np.int32)
        np.cumsum((cs == c + 1).astype(np.int32) - (cs == -(c + 1)), axis=1, out=cur[:, 1:])
        best += prev - cur
        best[tied] = _NOT_A_SPLIT
        np.maximum.accumulate(best, axis=1, out=best)
        prev = cur
    return prev[:, -1] + best[:, -1]


def wall_sup_functional(panel: WallPanel, t: float) -> int:
    """Maximal interleaved increment sum over ordered split times up to t:
    a one-row call of the block dynamic program, jumps after t as padding."""
    if any(d not in (1, -1) for jumps in panel.jumps for _, d in jumps):
        raise ValueError("the jumps of a wall panel are steps of +1 or -1")
    times = np.array([[tt if tt <= t else np.inf for jumps in panel.jumps for tt, _ in jumps]])
    codes = np.array([d * (c + 1) for c, jumps in enumerate(panel.jumps) for _, d in jumps],
                     dtype=np.int8)
    return int(_wall_sup(times, codes, len(panel.jumps))[0])


def wall_sup_samples(k: int, q, t: float, trials: int, seed: int) -> list[int]:
    """Independent draws of the wall functional, in blocks of
    WALL_BLOCK_TRIALS panels, block b drawn from the stream (seed, b)."""
    _check_sweep(k, trials)
    qs = rates_of(q, k, open_unit=True)
    out: list[int] = []
    for block, lo in enumerate(range(0, trials, WALL_BLOCK_TRIALS)):
        rng = np.random.default_rng((seed, block))
        times, codes = _wall_block(qs, t, min(WALL_BLOCK_TRIALS, trials - lo), rng)
        out.extend(_wall_sup(times, codes, 2 * k).tolist())
    return out
