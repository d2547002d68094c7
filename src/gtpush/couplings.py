"""Pathwise functionals of the driving noise and the checks coupling them to
edge processes of the pattern dynamics.

A noise panel is materialised once and drives both sides of an identity, so
equality claims are checked exactly, path by path.  Poisson and wall panels
are ring clocks drawn by ``dynamics._ring_draws``, a clock being a component
or a (component, sign).  Both continuous-time edges are one reflection map,
_reflect: the wall edge (the wall functional) with the wall at stage 0, the
left edge on negated paths with no wall.  On the dynamics' side a panel rings
the edge particles, the other rings come from one more _ring_draws draw, and
the merged sequence runs through ``dynamics.trace_rings``.  The pathwise
sweeps run one trial at a time, trial i's panel from the stream (seed, i) and
the rest of its noise from (seed + 1, i).  The wall functional's samples are
reflected in blocks of WALL_BLOCK_TRIALS panels, block b from (seed, b).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .harness import trial_rng
from .patterns import STANDARD, SYMPLECTIC, rates_of, row_length

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
    """Component c rings at rate q_{c+1}: one trial of the ring clocks of
    ``dynamics._ring_draws``, a ring's index its component."""
    rings, times = dynamics._ring_draws(rates_of(q, n), t_end, 1, rng)
    comps = [[] for _ in range(n)]
    for c, t in zip(rings[0].tolist(), times[0].tolist()):
        comps[c].append(t)
    return PoissonPanel(tuple(map(tuple, comps)), t_end)


def geometric_panel(n: int, q, t_max: int, rng) -> GeometricPanel:
    return GeometricPanel(tuple(tuple((rng.geometric(float(1 - v), size=t_max) - 1).tolist())
                                for v in rates_of(q, n, open_unit=True)))


def wall_panel(k: int, q, t_end: float, rng) -> WallPanel:
    """Interleaved components (Z_1, Z~_1, ..., Z_k, Z~_k): Z_i steps +1 at rate
    1/q_i and -1 at rate q_i; Z~_i is distributed as -Z_i.  Row 0 of a
    one-trial block draw (:func:`_wall_block`)."""
    times, codes = _wall_block(rates_of(q, k, open_unit=True), t_end, 1, rng)
    return _row_panel(times[0], codes[0], 2 * k, t_end)


def _wall_block(qs, t_end: float, trials: int, rng):
    """Panels of a block of trials as padded arrays: jump times (trials,
    jumps), sorted and inf past each trial's count, and the signed component
    code +-(c+1) of every jump, 0 at the padding.  One draw of the 4k ring
    clocks of ``dynamics._ring_draws``, clock by clock Z_i then Z~_i, the +1
    clock then the -1 clock."""
    rates, codes = [], []
    for i, v in enumerate(qs):
        for c, up, down in ((2 * i + 1, 1 / v, v), (2 * i + 2, v, 1 / v)):
            rates += [up, down]
            codes += [c, -c]
    rings, times = dynamics._ring_draws(rates, t_end, trials, rng)
    return times, np.array(codes + [0], dtype=np.int8)[rings]


def _row_panel(times, codes, m: int, t_end: float) -> WallPanel:
    """One row of a block draw, padding dropped, as a WallPanel of m components."""
    comps = [[] for _ in range(m)]
    for tt, code in zip(times.tolist(), codes.tolist()):
        if tt != np.inf:
            comps[abs(code) - 1].append((tt, 1 if code > 0 else -1))
    return WallPanel(tuple(map(tuple, comps)), t_end)


def _panel_arrays(comps, sign: int):
    """Jump times and the codes sign * d * (c+1) of every jump (time, d) of
    component c, as one row of the reflection map's input."""
    times = np.array([[t for jumps in comps for t, _ in jumps]], dtype=float)
    codes = np.array([[sign * d * c for c, jumps in enumerate(comps, 1) for _, d in jumps]],
                     dtype=np.int8)
    return times, codes


# ---------------------------------------------------------------------------
# the reflection map

def _reflect(times, codes, m: int, wall: bool):
    """Every stage E_c of the reflection map, for each row of a block.

    A row's jumps, times[row] (inf: padding) with codes[row] = +-(c+1) for
    a step +-1 of component c, are sorted into a grid with time 0 in front,
    where V_c is component c's path.  E_c(u) = V_c(u) + max over split points
    s <= u of (E_{c-1}(s) - V_c(s)), with E_{-1} = 0 (the wall) if wall is
    set and E_0 = V_0 if not.  Returns (grid, E of shape (m, rows, grid)).

    A split point holds the values after every jump at its time: a grid point
    tied with the next jump is none, and E is read at the last of its time.
    The origin is a split point too, with the values from before any jump,
    as the dynamics starts there."""
    order = np.arange(len(times))[:, None], times.argsort(axis=1, kind="stable")
    ts, cs = times[order], codes[order]
    cs[ts == np.inf] = 0
    grid = np.zeros((len(ts), ts.shape[1] + 1))
    grid[:, 1:] = ts
    tied = np.zeros(grid.shape, dtype=bool)
    np.equal(grid[:, :-1], ts, out=tied[:, :-1])
    tied[:, 0] = False  # the origin, even when a jump falls at time 0
    paths = np.zeros((m,) + grid.shape, dtype=np.int32)  # every V_c in one cumsum
    steps = np.sign(cs) * (np.abs(cs) == np.arange(1, m + 1, dtype=np.int8).reshape(m, 1, 1))
    np.cumsum(steps, axis=2, dtype=np.int32, out=paths[:, :, 1:])
    above = 0  # the wall
    for c, path in enumerate(paths):  # V_c becomes E_c in place
        if c or wall:
            best = above - path
            best[tied] = _NOT_A_SPLIT
            np.maximum.accumulate(best, axis=1, out=best)
            path += best
        above = path
    return grid, paths


# ---------------------------------------------------------------------------
# the continuous-time edges

def left_edge_from_walk(panel: PoissonPanel, t_grid) -> list[list[int]]:
    """Rows of the reflection recursion along t_grid, starting from zero.

    Row 1 is the first counting process; row k+1 adds the running infimum of
    (row k minus the (k+1)-th process) to that process: the reflection map
    of the negated processes with no wall.
    """
    grid = list(t_grid)
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("t_grid must be sorted")
    if grid and grid[0] < 0:
        raise ValueError(f"t_grid must start at time 0 or later, got time {grid[0]}")
    comps = [[(t, 1) for t in ts] for ts in panel.times]
    jumps, edges = _reflect(*_panel_arrays(comps, -1), len(comps), wall=False)
    return (-edges[:, 0, np.searchsorted(jumps[0], grid, side="right") - 1]).tolist()


def _edge_matches_dynamics(kind: str, n: int, qs, comps, t_end: float, rng) -> bool:
    """The body of both edge checks.  Row r's edge particle (first of a
    standard row, last of a symplectic one) rings d at the steps d of panel
    component r-1, comps[r-1] = ((time, d), ...); the other rings of
    ``dynamics.ring_table(n, kind)`` are one superposed draw at their rates,
    with uniform times.  Both run, merged in time order, through
    ``dynamics.trace_rings`` from the zero pattern, and each row's edge must
    equal its stage of the reflection map at every panel jump time and at
    t_end."""
    if len(comps) != n:
        raise ValueError(f"{n} rows need {n} panel components, got {len(comps)}")
    table = dynamics.ring_table(n, kind)
    wall = kind == SYMPLECTIC
    edge = [row_length(r, kind) if wall else 1 for r in range(n + 1)]
    rates = [0 if j == edge[r] else rate
             for (r, j, _), rate in zip(table.keys, dynamics._ring_rates(table, qs))]
    rings, times = dynamics._ring_draws(rates, t_end, 1, rng)
    timed = [(t, table.ring_of[r, edge[r], d])
             for r, jumps in enumerate(comps, 1) for t, d in jumps]
    timed += zip(times[0].tolist(), rings[0].tolist())
    _, moves = dynamics.trace_rings(table, [0] * table.offsets[-1], sorted(timed))
    sign = 1 if wall else -1
    grid, edges = _reflect(*_panel_arrays(comps, sign), n, wall)
    cuts = grid[0].tolist() + [t_end]
    want = (sign * edges[:, 0, np.searchsorted(grid[0], cuts, side="right") - 1]).tolist()
    got = [[0] * len(cuts) for _ in range(n)]
    for t, r, j, d, _ in moves:  # an edge move counts at every cut from its time on
        if j == edge[r]:
            for i in range(bisect_left(cuts, t), len(cuts)):
                got[r - 1][i] += d
    return got == want


def left_edge_matches_dynamics(panel: PoissonPanel, n: int, q, rng) -> bool:
    """Exact pathwise equality between the constructed left edge and the left
    edge of the full simulated pattern driven by the same panel: row k's
    first particle rings at the jump times of the panel's k-th process."""
    comps = [[(t, 1) for t in ts] for ts in panel.times]
    return _edge_matches_dynamics(STANDARD, n, rates_of(q, n), comps, panel.t_end, rng)


def wall_edge_matches_dynamics(panel: WallPanel, k: int, q, rng) -> bool:
    """Exact pathwise equality between the wall functional of the first r
    components and the last particle of row r of the height-2k wall dynamics,
    whose rings (r, last, +-1) are component r-1's steps +-1.

    Z_i steps up at 1/q_i while row 2i-1 rings right at q_i: the panel drives
    the edge at inverted rates.  The identity holds whatever the rates, and in
    law the inversion is harmless at height 2k, where sp_schur(2k, z, q) ==
    sp_schur(2k, z, 1/q); at odd heights it is not."""
    return _edge_matches_dynamics(SYMPLECTIC, 2 * k, rates_of(q, k, open_unit=True),
                                  panel.jumps, panel.t_end, rng)


def _check_sweep(n: int, trials: int, horizon):
    """Refuse a sweep over trials that would check nothing."""
    if n < 1 or trials < 1 or not horizon > 0:
        raise ValueError(f"a sweep needs n >= 1, trials >= 1 and a horizon > 0, got n = {n}, "
                         f"trials = {trials}, horizon = {horizon}")


def _sweep(n: int, horizon, trials: int, seed: int, panel_of, check) -> list[int]:
    """Trials whose check fails: trial i's panel from the stream (seed, i),
    the rest of its noise from (seed + 1, i)."""
    _check_sweep(n, trials, horizon)
    return [trial for trial in range(trials)
            if not check(panel_of(trial_rng(seed, trial)), trial_rng(seed + 1, trial))]


def left_edge_failures(n: int, q, t: float, trials: int, seed: int) -> list[int]:
    """Trials whose constructed left edge differs from the simulated one."""
    return _sweep(n, t, trials, seed, lambda rng: poisson_panel(n, q, t, rng),
                  lambda panel, rng: left_edge_matches_dynamics(panel, n, q, rng))


def wall_edge_failures(k: int, q, t: float, trials: int, seed: int) -> list[int]:
    """Trials whose wall functional differs from the simulated wall edge."""
    return _sweep(k, t, trials, seed, lambda rng: wall_panel(k, q, t, rng),
                  lambda panel, rng: wall_edge_matches_dynamics(panel, k, q, rng))


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


def right_edge_equals_lpp(panel: GeometricPanel, n: int, q, t_max: int, rng) -> bool:
    """True iff the simulated right edge equals the last passage times at
    every step up to t_max, when the diagonal particles consume the panel
    draws."""
    qs = rates_of(q, n, open_unit=True)
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
    return _sweep(n, steps, trials, seed, lambda rng: geometric_panel(n, q, steps, rng),
                  lambda panel, rng: right_edge_equals_lpp(panel, n, q, steps, rng))


# ---------------------------------------------------------------------------
# the wall functional in law

def wall_sup_functional(panel: WallPanel, t: float) -> int:
    """Maximal interleaved increment sum over ordered split times up to t:
    the last stage of a one-row reflection, jumps after t as padding."""
    if any(d not in (1, -1) for jumps in panel.jumps for _, d in jumps):
        raise ValueError("the jumps of a wall panel are steps of +1 or -1")
    times, codes = _panel_arrays(panel.jumps, 1)
    _, edges = _reflect(np.where(times <= t, times, np.inf), codes, len(panel.jumps), wall=True)
    return int(edges[-1, 0, -1])


def wall_sup_samples(k: int, q, t: float, trials: int, seed: int) -> list[int]:
    """Independent draws of the wall functional, in blocks of
    WALL_BLOCK_TRIALS panels, block b drawn from the stream (seed, b)."""
    _check_sweep(k, trials, t)
    qs = rates_of(q, k, open_unit=True)
    out: list[int] = []
    for block, lo in enumerate(range(0, trials, WALL_BLOCK_TRIALS)):
        rng = trial_rng(seed, block)
        times, codes = _wall_block(qs, t, min(WALL_BLOCK_TRIALS, trials - lo), rng)
        out.extend(_reflect(times, codes, 2 * k, wall=True)[1][-1, :, -1].tolist())
    return out
