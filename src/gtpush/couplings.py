"""Pathwise functionals of the driving noise and the checks coupling them to
edge processes of the pattern dynamics.

A noise panel is materialised once and drives both sides of an identity, so
equality claims are checked exactly, path by path.  Poisson and wall panels
are ring clocks drawn by ``dynamics._ring_trial``, one trial of
``dynamics._ring_draws`` as lists, a clock being a component or a
(component, sign).  Both continuous-time edges are one reflection map:
the wall edge (the wall functional) with the wall at stage 0, the left edge on
negated paths with no wall.  It has two forms, as ``dynamics`` has run_rings
and trace_rings: _reflect runs a block of padded array rows, for the blocks of
wall_sup_samples, and _reflect_row one panel's merged (time, code) jumps in a
list loop, for left_edge_from_walk, wall_sup_functional and both edge checks.
On the dynamics' side a panel rings the edge particles, the other rings come
from one more _ring_trial draw, and the merged sequence runs through
``dynamics.trace_rings``.  The LPP check draws every step's jumps at once,
lists them per row with the panel's draws on the diagonal, and runs
``dynamics.geometric_rows``, the step with no move log.  The float rates of
the edge checks' draws and the geometric jump probabilities are cached,
keyed on the rates' (numerator, denominator) pairs (and on the ring table
itself for the edge rings), as the picks' CDF in ``dynamics`` is keyed on
float rates: a one-panel check hashes no Fraction and makes no numpy call
per ring or per step, and each check stops at the first mismatch.  The
pathwise sweeps run one trial at a time, trial i's panel from the stream
(seed, i) and the rest of its noise from (seed + 1, i).  The wall
functional's samples are reflected in blocks of WALL_BLOCK_TRIALS panels,
block b from (seed, b).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import dynamics
from .harness import trial_rng
from .patterns import STANDARD, SYMPLECTIC, rates_of, row_offsets

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
    """Component c rings at rate q_{c+1}: one trial of the ring clocks,
    drawn by ``dynamics._ring_trial``, a ring's index its component."""
    rings, times = dynamics._ring_trial(rates_of(q, n), t_end, rng)
    comps = [[] for _ in range(n)]
    for c, t in zip(rings, times):
        comps[c].append(t)
    return PoissonPanel(tuple(map(tuple, comps)), t_end)


def geometric_panel(n: int, q, t_max: int, rng) -> GeometricPanel:
    """Row k-1 holds the t_max jumps of the diagonal particle of row k, the
    failures before a success of probability 1 - q_k, drawn row by row (one
    draw at a column of probabilities gives the same, but its broadcasting
    costs more than n scalar draws)."""
    ps, _, _ = _jump_layout(n, q)
    dynamics._check_draw_size(n * t_max, f"t_max = {t_max}", "geometric jumps")
    return GeometricPanel(tuple(tuple((rng.geometric(p, size=t_max) - 1).tolist()) for p in ps))


@lru_cache(maxsize=None)
def _jump_probs_of(ratios: tuple) -> tuple[tuple[float, ...], np.ndarray, tuple[int, ...]]:
    """The success probabilities 1 - q of the geometric jumps of len(ratios)
    rows at the rates a / b of ratios = ((a, b), ...): one per row, one per
    slot of the flat pattern (read-only), and the rows' offsets in it.  Keyed
    on the pairs, as _edge_rings is."""
    ps = dynamics._jump_probs(tuple(Fraction(a, b) for a, b in ratios))
    flat = np.repeat(ps, range(1, len(ps) + 1))
    flat.flags.writeable = False
    return ps, flat, row_offsets(len(ps))


def _jump_layout(n: int, q):
    """_jump_probs_of at the n rates q, which must lie in (0, 1)."""
    return _jump_probs_of(tuple(map(Fraction.as_integer_ratio, rates_of(q, n, open_unit=True))))


def wall_panel(k: int, q, t_end: float, rng) -> WallPanel:
    """Interleaved components (Z_1, Z~_1, ..., Z_k, Z~_k): Z_i steps +1 at rate
    1/q_i and -1 at rate q_i; Z~_i is distributed as -Z_i.  One trial of the
    clocks of :func:`_wall_clocks`, drawn by ``dynamics._ring_trial``."""
    rates, codes = _wall_clocks(tuple(map(Fraction.as_integer_ratio,
                                          rates_of(q, k, open_unit=True))))
    rings, times = dynamics._ring_trial(rates, t_end, rng)
    return _row_panel(times, [codes[ring] for ring in rings], 2 * k, t_end)


@lru_cache(maxsize=None)
def _wall_clocks(ratios: tuple) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The 4k ring clocks of k wall components at the rates a / b of ratios =
    ((a, b), ...), clock by clock Z_i then Z~_i, the +1 clock then the -1
    clock: their float rates, and their signed component codes +-(c+1) with
    a 0 after them for the idle ring.  Keyed on the pairs, as _edge_rings is."""
    rates, codes = [], []
    for i, v in enumerate(Fraction(a, b) for a, b in ratios):
        for c, up, down in ((2 * i + 1, 1 / v, v), (2 * i + 2, v, 1 / v)):
            rates += [float(up), float(down)]
            codes += [c, -c]
    return tuple(rates), tuple(codes + [0])


def _wall_block(qs, t_end: float, trials: int, rng):
    """Panels of a block of trials as padded arrays: jump times (trials,
    jumps), sorted and inf past each trial's count, and the signed component
    code +-(c+1) of every jump, 0 at the padding.  One draw of the 4k ring
    clocks of _wall_clocks by ``dynamics._ring_draws``."""
    rates, codes = _wall_clocks(tuple(map(Fraction.as_integer_ratio, qs)))
    rings, times = dynamics._ring_draws(rates, t_end, trials, rng)
    return times, np.array(codes, dtype=np.int8)[rings]


def _row_panel(times, codes, m: int, t_end: float) -> WallPanel:
    """One row of a draw as lists of times and codes, padding (inf) dropped,
    as a WallPanel of m components."""
    comps = [[] for _ in range(m)]
    for tt, code in zip(times, codes):
        if tt != np.inf:
            comps[abs(code) - 1].append((tt, 1 if code > 0 else -1))
    return WallPanel(tuple(map(tuple, comps)), t_end)


def _merged(comps, sign: int) -> list[tuple[float, int]]:
    """Every jump (time, d) of component c as (time, sign * d * (c+1)), in
    time order: one row of the reflection map's input."""
    return sorted((t, sign * d * c) for c, jumps in enumerate(comps, 1) for t, d in jumps)


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


def _reflect_row(jumps, m: int, wall: bool) -> tuple[list[float], list[list[int]]]:
    """_reflect for one row: its jumps (time, +-(c+1)) in time order, no
    padding.  Returns the times [0, t_1, t_2, ...] of the origin and of each
    later distinct jump time, and [E_0, ..., E_{m-1}] at each, read after
    every jump at that time (at time 0 too).

    The origin is a split point with every value 0, so each running maximum
    starts at 0; then the end of each run of tied jumps is a split point."""
    path = [0] * m  # V_c
    best = [0] * m  # max of E_{c-1}(s) - V_c(s) over the split points s so far
    times, stages = [0.0], [[0] * m]
    for i, (t, code) in enumerate(jumps):
        path[abs(code) - 1] += 1 if code > 0 else -1
        if i + 1 < len(jumps) and jumps[i + 1][0] == t:
            continue  # tied with the next jump: no split point
        stage, above = [], 0  # the wall
        for c, v in enumerate(path):
            if c or wall:
                best[c] = max(best[c], above - v)
                v += best[c]
            stage.append(v)
            above = v
        if t == times[-1]:
            stages[-1] = stage  # a jump at time 0
        else:
            times.append(t)
            stages.append(stage)
    return times, stages


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
    times, stages = _reflect_row(_merged(comps, -1), len(comps), wall=False)
    at = [stages[bisect_right(times, t) - 1] for t in grid]
    return [[-stage[c] for stage in at] for c in range(len(comps))]


@lru_cache(maxsize=None)
def _edge_rings(table: dynamics.RingTable, ratios: tuple) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Row r's edge particle edge[r] (first of a standard row, last of a
    symplectic one), and the float rates of the table's rings at the rates a
    / b of ratios = ((a, b), ...) with the edge rings' set to 0, as a panel
    rings those.  Keyed on the table itself, so that a changed table gets its
    own; a table takes its hash once (``RingTable._hash``)."""
    qs = tuple(Fraction(a, b) for a, b in ratios)
    offs = table.offsets
    edge = (0,) + tuple(offs[r] - offs[r - 1] if table.kind == SYMPLECTIC else 1
                        for r in range(1, len(offs)))
    return edge, tuple(0.0 if j == edge[r] else float(rate)
                       for (r, j, _), rate in zip(table.keys, dynamics._ring_rates(table, qs)))


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
    edge, rates = _edge_rings(table, tuple(map(Fraction.as_integer_ratio, qs)))
    rings, times = dynamics._ring_trial(rates, t_end, rng)
    timed = [(t, table.ring_of[r, edge[r], d])
             for r, jumps in enumerate(comps, 1) for t, d in jumps]
    timed += zip(times, rings)
    _, moves = dynamics.trace_rings(table, [0] * table.offsets[-1], sorted(timed))
    wall = kind == SYMPLECTIC
    sign = 1 if wall else -1
    cuts, want = _reflect_row(_merged(comps, sign), n, wall)
    want.append(want[bisect_right(cuts, t_end) - 1])
    cuts.append(t_end)
    got, k = [0] * n, 0
    edge_moves = [(t, r - 1, sign * d) for t, r, j, d, _ in moves if j == edge[r]]
    for cut, stage in zip(cuts, want):  # an edge move counts at every cut from its time on
        while k < len(edge_moves) and edge_moves[k][0] <= cut:
            _, c, step = edge_moves[k]
            got[c] += step
            k += 1
        if got != stage:
            return False
    return True


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
    """Last passage times G[k-1][t-1] into (t, k) by the corner recursion,
    on a panel of n rows of t_max draws or more (by default its first row's)."""
    eta = panel.eta
    if t_max is None:
        t_max = len(eta[0]) if eta else 0
    if len(eta) != n or any(len(row) < t_max for row in eta):
        raise ValueError(f"{n} rows up to step {t_max} need a panel of {n} rows of at least "
                         f"{t_max} draws, got rows of {[len(row) for row in eta]} draws")
    g, above = [], [0] * t_max
    for row_eta in eta:
        row, last = [], 0
        for up, e in zip(above, row_eta):
            last = (up if up > last else last) + e  # max(G(t, k-1), G(t-1, k)) + eta
            row.append(last)
        g.append(row)
        above = row
    return g


def right_edge_equals_lpp(panel: GeometricPanel, n: int, q, t_max: int, rng) -> bool:
    """True iff the simulated right edge equals the last passage times at
    every step up to t_max, when the diagonal particles consume the panel
    draws.  A panel of another height, or shorter than t_max, is refused
    before anything is drawn."""
    want = lpp_G(panel, n, t_max)  # refuses a misshapen panel
    _, flat, offs = _jump_layout(n, q)
    dynamics._check_draw_size(offs[-1] * t_max, f"t_max = {t_max}", "geometric jumps")
    # every step's jumps in one draw, laid out as the flat pattern, split into
    # each row's jumps at every step; the last of them, the diagonal
    # particle's, is read from the panel in its place
    steps = rng.geometric(flat, size=(t_max, offs[-1])) - 1
    by_row = [steps[:, lo:hi].tolist() for lo, hi in zip(offs, offs[1:])]
    for jumps, eta in zip(by_row, panel.eta):
        for draws, e in zip(jumps, eta):
            draws[-1] = e
    rows = [[0] * j for j in range(1, n + 1)]
    for t, xi in enumerate(zip(*by_row)):
        rows = dynamics.geometric_rows(rows, xi)
        for row, g in zip(rows, want):
            if row[-1] != g[t]:
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
    jumps = [jump for jump in _merged(panel.jumps, 1) if jump[0] <= t]
    return _reflect_row(jumps, len(panel.jumps), wall=True)[1][-1][-1]


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
