"""Brute-force oracles, independent of the library's recursions.

These enumerate or sum directly from definitions so the tested code paths
cannot leak into their own expected values.
"""
import dataclasses
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from types import MappingProxyType

import numpy as np

from gtpush.dynamics import NEVER, RingTable
from gtpush.intertwine import VerificationReport, semigroup
from gtpush.kernels import SparseGenerator, StepKernel
from gtpush.patterns import (
    Pattern,
    branching_cdf,
    check_bottom_row,
    coords_of,
    enumerate_patterns,
    interlace_nest,
    interlace_shift,
    is_valid,
    rates_of,
    row_offsets,
    scaled_rates,
    weight,
)


def count_patterns_brute(z, kind="standard", nrows=None):
    """Count interlacing stacks over z by filtering raw integer boxes."""
    nrows = nrows if nrows is not None else len(z)
    lo, hi = (min(z), max(z)) if z else (0, 0)
    if kind == "symplectic":
        lo = 0

    def extend(row, j):
        if j == 1:
            return 1
        if kind == "standard" or j % 2 == 1:
            width = len(row) - 1
            rel = interlace_nest
        else:
            width = len(row)
            rel = interlace_shift
        total = 0
        for cand in product(range(lo, hi + 1), repeat=width):
            if any(cand[i] > cand[i + 1] for i in range(width - 1)):
                continue
            ok = rel(cand, row) if rel is interlace_nest else rel(cand, row)
            if kind == "symplectic" and cand and cand[0] < 0:
                ok = False
            if ok:
                total += extend(cand, j - 1)
        return total

    return extend(tuple(z), nrows)


def pattern_sum(z, kind, nrows, qs) -> Fraction:
    """Schur value at z as the raw sum of pattern weights (one rate per entry)."""
    return sum(weight(p, qs[:len(z)]) for p in enumerate_patterns(z, kind, nrows=nrows))


def row_above_law(z, kind, nrows, qs) -> dict:
    """Law of the row above the bottom row z, from the pattern weights alone."""
    masses: dict = {}
    for p in enumerate_patterns(z, kind, nrows=nrows):
        masses[p.rows[-2]] = masses.get(p.rows[-2], Fraction(0)) + weight(p, qs[:len(z)])
    total = sum(masses.values())
    return {za: w / total for za, w in masses.items()}


def lpp_brute(eta, k, t):
    """Max path sum over up-right paths (1,1) -> (t,k), by full enumeration."""
    best = None
    for ups in combinations(range(1, t + k - 1), k - 1):
        r, c = 1, 1
        total = eta[0][0]
        for step in range(1, t + k - 1):
            if step in ups:
                r += 1
            else:
                c += 1
            total += eta[r - 1][c - 1]
        if best is None or total > best:
            best = total
    return best


def geometric_row_total_2d(x, q1: Fraction, q2: Fraction) -> Fraction:
    """Exact untruncated row sum of the two-walker geometric kernel at x.

    Uses the closed form of the bivariate Schur value and geometric series
    for the unbounded coordinate; requires q1 != q2.
    """
    x1, x2 = x
    a = (1 - q1) * (1 - q2)
    # S_{(u,v)} = (q1^u q2^{v+1} - q2^u q1^{v+1}) / (q2 - q1)
    sx = (q1 ** x1 * q2 ** (x2 + 1) - q2 ** x1 * q1 ** (x2 + 1)) / (q2 - q1)
    sum_q1_u = (q1 ** x1 - q1 ** (x2 + 1)) / (1 - q1)
    sum_q2_u = (q2 ** x1 - q2 ** (x2 + 1)) / (1 - q2)
    total = (
        sum_q1_u * q2 ** (x2 + 1) / (1 - q2) - sum_q2_u * q1 ** (x2 + 1) / (1 - q1)
    ) / (q2 - q1)
    return a * total / sx


class StepPath:
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


def left_edge_recursion(panel, t_grid):
    """Rows of the left-edge reflection recursion along a sorted t_grid, one
    step function per row: row 1 is the first counting process, row k+1 adds
    the running infimum, over the distinct event times, of (row k minus the
    (k+1)-th process) to that process."""
    n = len(panel.times)
    z_paths = [StepPath((t, 1) for t in ts) for ts in panel.times]
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
        inf_path = StepPath(inf_jumps)
        combined = StepPath([])
        combined.times = event_times[:] if event_times else [0.0]
        if not combined.times or combined.times[0] != 0.0:
            combined.times = [0.0] + combined.times
        combined.values = [z.value(t) + inf_path.value(t) for t in combined.times]
        rows.append(combined)
    return [[path.value(t) for t in t_grid] for path in rows]


def wall_sup_dp(panel, t):
    """Max interleaved increment sum by a per-trial dynamic program over the
    panel's distinct event times up to t, one step function per component."""
    comps = [StepPath(jumps) for jumps in panel.jumps]
    m = len(comps)
    candidates = sorted({0.0} | {tt for jumps in panel.jumps for tt, _ in jumps if tt <= t})
    best = None
    for i, comp in enumerate(comps):
        running = -(10 ** 18)
        stage = []
        for u in candidates:
            inner = -comp.value(u) if i == 0 else best[len(stage)] + comps[i - 1].value(u) - comp.value(u)
            running = max(running, inner)
            stage.append(running)
        best = stage
    return comps[m - 1].value(t) + best[-1]


def wall_sup_brute(panel, t):
    """Max interleaved increment sum by enumerating all ordered split-time
    sequences over the panel's event times (the sup is attained there)."""
    comps = [StepPath(j) for j in panel.jumps]
    m = len(comps)
    cands = sorted({0.0} | {tt for jumps in panel.jumps for tt, _ in jumps if tt <= t})
    best = None
    for seq in combinations_with_replacement(cands, m):
        times = list(seq) + [t]
        val = sum(
            comps[i].value(times[i + 1]) - comps[i].value(times[i]) for i in range(m)
        )
        best = val if best is None else max(best, val)
    return best


def geometric_pair_prob_1d(x, y, xt, yt, qy: Fraction) -> Fraction:
    """P(Y(1)=yt | X: x->xt, Y(0)=y) for one X particle between two Y
    particles, straight from the update rule."""
    y1, y2 = y
    yt1, yt2 = yt
    # first Y particle: min(y1 + jump, x)
    if yt1 < y1 or yt1 > x:
        p1 = Fraction(0)
    elif yt1 < x:
        p1 = (1 - qy) * qy ** (yt1 - y1)
    else:
        p1 = qy ** (x - y1)
    # last Y particle: max(y2, xt) + jump
    start = max(y2, xt)
    p2 = (1 - qy) * qy ** (yt2 - start) if yt2 >= start else Fraction(0)
    return p1 * p2


def _coordinate_events(time, old, new, log):
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            log.append((time, 0, i + 1, b - a, "self"))


def simulate_reference(op, init, horizon, rng):
    """Simulate the chain of a SparseGenerator (continuous time, exponential
    holding) or StepKernel (horizon = number of steps) from init.  Returns the
    final state and the log of moves in the form of ``dynamics.simulate``,
    (t, 0, index, displacement, "self"): row 0 stands for the walk's
    coordinates."""
    s, rows = coords_of(init), op.rows
    if s not in rows:
        raise ValueError(f"initial state {s} not in the operator's space")
    log: list[tuple] = []
    if isinstance(op, SparseGenerator):
        t = 0.0
        while True:
            row = rows[s]
            total = -float(row.get(s, Fraction(0)))
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= horizon:
                break
            u = rng.random() * total
            acc = 0.0
            chosen = None
            for tgt, rate in sorted((k, v) for k, v in row.items() if k != s):
                acc += float(rate)
                if u <= acc:
                    chosen = tgt
                    break
            if chosen is None:
                raise RuntimeError("trajectory escaped the truncation; enlarge bound")
            _coordinate_events(t, s, chosen, log)
            s = chosen
    elif isinstance(op, StepKernel):
        for step in range(1, int(horizon) + 1):
            u = rng.random()
            acc = 0.0
            chosen = None
            for tgt, pr in sorted(rows[s].items()):
                acc += float(pr)
                if u <= acc:
                    chosen = tgt
                    break
            if chosen is None:
                raise RuntimeError("trajectory escaped the truncation; enlarge bound")
            _coordinate_events(step, s, chosen, log)
            s = chosen
    else:
        raise TypeError(f"cannot simulate a {type(op).__name__}")
    return s, log


def replay_log(init: Pattern, log) -> Pattern:
    """Apply a log of moves (t, row, index, displacement, cause) to init and
    return the final pattern, asserting that the pattern is valid before
    every new timestamp and at the end (a cascade shares its timestamp)."""
    rows = [list(r) for r in init.rows]
    last = None
    for t, r, j, d, _ in log:
        if last is not None and t != last:
            assert is_valid(Pattern(tuple(map(tuple, rows)), init.kind)), f"invalid before t={t}"
        rows[r - 1][j - 1] += d
        last = t
    final = Pattern(tuple(map(tuple, rows)), init.kind)
    assert is_valid(final), "invalid final state"
    return final


def dense_semigroup(gen: SparseGenerator, t, tol: float) -> np.ndarray:
    """Time-t kernel of a truncated generator as one dense matrix, by the
    uniformization series sum_k w_k J^k over whole matrix powers of
    J = I + Q/theta (rows and columns in the order of gen.states)."""
    states = gen.states
    idx = {s: i for i, s in enumerate(states)}
    m = len(states)
    mat = np.zeros((m, m))
    theta = 0.0
    for s in states:
        row = gen.row(s)
        theta = max(theta, -float(row.get(s, Fraction(0))))
        for t2, v in row.items():
            mat[idx[s], idx[t2]] = float(v)
    if theta == 0.0 or float(t) == 0.0:
        return np.eye(m)
    jump = np.eye(m) + mat / theta
    lam = theta * float(t)
    w = math.exp(-lam)
    out = w * np.eye(m)
    power = np.eye(m)
    covered, k = w, 0
    while 1.0 - covered > tol:
        k += 1
        power = power @ jump
        w *= lam / k
        covered += w
        out += w * power
    return out


def fraction_row_sums(op_y, lam, coupling, y) -> tuple[dict, dict]:
    """(op_y Lambda)(y, .) and (Lambda coupling)(y, .), each a dict of its
    keys, summed term by term in ``Fraction``s."""
    lhs: dict = {}
    for y2, value in op_y.row(y).items():
        for (x2, _), mass in lam.support(y2):
            if mass:
                key = (x2, y2)
                lhs[key] = lhs.get(key, Fraction(0)) + value * mass
    rhs: dict = {}
    for (x, _), mass in lam.support(y):
        if not mass:
            continue
        for target, value in coupling.row((x, y)).items():
            rhs[target] = rhs.get(target, Fraction(0)) + mass * value
    return lhs, rhs


def is_interior(op, state) -> bool:
    """Every coordinate of a state of op, a flat tuple or a pair (x, y) of
    them, below op's bound: ``interior`` of the operator, one state at a
    time."""
    parts = state if state and isinstance(state[0], tuple) else (state,)
    return all(c < op.bound for part in parts for c in part)


def verify_intertwining_fractions(op_y, lam, coupling, case: str,
                                  interior_only: bool) -> VerificationReport:
    """The comparisons of ``intertwine._check_intertwining`` summed term by
    term in ``Fraction``s (``fraction_row_sums``), one source row y at a
    time."""
    report = VerificationReport(case or f"{op_y.label} ~ {coupling.label}")
    for y in op_y.states:
        if interior_only and not is_interior(op_y, y):
            continue
        lhs, rhs = fraction_row_sums(op_y, lam, coupling, y)
        for key in sorted(set(lhs) | set(rhs)):
            report.check(y, key, lhs.get(key, Fraction(0)), rhs.get(key, Fraction(0)))
    return report


def semigroup_gap_by_support(q_y, gen, lam, t, tol: float) -> float:
    """``intertwine.semigroup_intertwining_gap`` state by state: Lambda's
    rows from ``LambdaKernel.support``, each mass a ``Fraction`` read into a
    float and placed by a dict lookup over the pairs."""
    p_t = semigroup(q_y, t, tol)
    q_t = semigroup(gen, t, tol)
    cut = q_y.bound // 4
    pair_idx = q_t.index
    gap = 0.0
    for y in (y for y in q_y.states if all(c <= cut for c in y)):
        lhs = np.zeros(len(gen.states))
        for y2, p in zip(p_t.states, p_t.row(y)):
            if p == 0.0:
                continue
            for (x2, _), mass in lam.support(y2):
                lhs[pair_idx[(x2, y2)]] += p * float(mass)
        start = np.zeros(len(gen.states))
        for pair, mass in lam.support(y):
            start[pair_idx[pair]] = float(mass)
        gap = max(gap, float(np.max(np.abs(lhs - q_t.propagate(start)))))
    return gap


def is_valid_by_interlacing(p: Pattern) -> bool:
    """Every row ordered (and, symplectic, nonnegative), and every pair of
    adjacent rows interlaced by the predicates, the pair's case written out:
    standard rows nest, symplectic rows of equal length shift, others nest."""
    rows = p.rows
    for row in rows:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
        if p.kind == "symplectic" and row and row[0] < 0:
            return False
    for j in range(1, len(rows)):
        upper, lower = rows[j - 1], rows[j]
        if p.kind == "symplectic" and len(upper) == len(lower):
            if not interlace_shift(upper, lower):
                return False
        elif not interlace_nest(upper, lower):
            return False
    return True


def ring_table_by_parity(n: int, kind: str) -> RingTable:
    """The neighbour table of ``dynamics.ring_table`` with the nest/shift test
    written out by row parity: rows r-1 and r nest when the pattern is
    standard or r is odd, and shift otherwise."""
    offs = row_offsets(n, kind)
    zero, never = offs[-1], offs[-1] + 1

    def nests(r):  # the empty row 0 nests above row 1
        return kind == "standard" or r % 2 == 1

    def slot(r, j, default):
        return offs[r - 1] + j - 1 if r >= 1 and 1 <= j <= offs[r] - offs[r - 1] else default

    keys = tuple((r, j, d) for r in range(1, n + 1)
                 for j in range(1, offs[r] - offs[r - 1] + 1)
                 for d in ((1,) if kind == "standard" else (1, -1)))
    ring_of = {key: i for i, key in enumerate(keys)}
    particle, blocker, push = [], [], []
    for r, j, d in keys:
        particle.append(offs[r - 1] + j - 1)
        above = j + (d - 1) // 2 if nests(r) else j + (d + 1) // 2
        wall = zero if kind == "symplectic" and above < 1 else never
        blocker.append(slot(r - 1, above, wall))
        below = j + (d + 1) // 2 if nests(r + 1) else j + (d - 1) // 2
        push.append(ring_of.get((r + 1, below, d), len(keys)))
    return RingTable(kind, offs, keys, tuple(particle) + (never,),
                     tuple(d for _, _, d in keys) + (0,), tuple(blocker) + (never,),
                     tuple(push) + (len(keys),), MappingProxyType(ring_of))


def ring_rates_by_parity(kind: str, keys, qs) -> list:
    """Rate of every ring (r, j, d) written out by row parity: row r rings at
    q_r in the standard dynamics; odd rows of the wall dynamics ring right at
    q_k and left at 1/q_k, even rows the other way round."""
    if kind == "standard":
        return [qs[r - 1] for r, _, _ in keys]
    return [qs[(r + 1) // 2 - 1] ** (d if r % 2 else -d) for r, _, d in keys]


def sample_patterns_by_dict(z, q, kind, rng, nrows, trials):
    """``patterns.sample_patterns`` with its trials grouped by a dict keyed on
    each trial's row j, filled in a per-trial loop: one uniform per trial and
    row, drawn before grouping, so the grouping cannot change a sample."""
    z, nrows = check_bottom_row(z, kind, nrows)
    _, up, down = scaled_rates(rates_of(q, len(z)))
    offs = row_offsets(nrows, kind)
    out = np.empty((trials, offs[-1]), dtype=np.int64)
    out[:, offs[-2]:] = z
    for j in range(nrows, 1, -1):
        u = rng.random(trials)
        groups: dict = {}
        for i, row in enumerate(map(tuple, out[:, offs[j - 1]:offs[j]].tolist())):
            groups.setdefault(row, []).append(i)
        for row, members in groups.items():
            cands, cdf = branching_cdf(kind, j, row, up, down)
            out[members, offs[j - 2]:offs[j - 1]] = cands[np.searchsorted(cdf, u[members])]
    return out


def one_entry_changes(table: RingTable):
    """Each edge ring's blocker and push, each changed in one entry: a
    blocker to none, or to the wall where there was none; a push to none, or
    where there was none to the same direction's edge ring of a row beside.
    The edge is a standard row's first particle, a symplectic row's last.
    Yields (ring key, changed column, changed table)."""
    zero, never = table.offsets[-1], table.offsets[-1] + 1

    def edge(r):
        return 1 if table.kind == "standard" else (r + 1) // 2
    for i, (r, j, d) in enumerate(table.keys):
        if j != edge(r):
            continue  # not an edge particle
        blocker, push = list(table.blocker), list(table.push)
        blocker[i] = never if blocker[i] != never else zero
        yield (r, j, d), "blocker", dataclasses.replace(table, blocker=tuple(blocker))
        beside = r - 1 if r > 1 else r + 1
        push[i] = table.idle if push[i] != table.idle \
            else table.keys.index((beside, edge(beside), d))
        yield (r, j, d), "push", dataclasses.replace(table, push=tuple(push))


def geometric_step_by_table(table: RingTable, rows, xi):
    """``dynamics.geometric_step`` read off the neighbours of a standard ring
    table instead of row indices.  Rings go in table order, top row first.
    Each particle is lifted to the new place of the particle whose ring's
    ``push`` lands on its ring, jumps by its draw, and stops at the old place
    of its ring's ``blocker``; the never slot caps nothing.  Returns the new
    rows and the moves (row, index, displacement, cause)."""
    old = [c for row in rows for c in row] + [0, NEVER]  # the zero and never slots
    draws = [int(e) for row in xi for e in row]
    new, lifted_to, moves = list(old), {}, []
    for ring, (r, j, _) in enumerate(table.keys):
        p = table.particle[ring]
        pos, cap = old[p], old[table.blocker[ring]]
        lift = lifted_to.get(ring, pos)
        nxt = max(lift, pos) + draws[p]
        if cap != NEVER:
            nxt = min(nxt, cap)
        new[p] = nxt
        lifted_to[table.push[ring]] = nxt
        if nxt != pos:
            moves.append((r, j, nxt - pos, "push" if lift > pos else "self"))
    offs = table.offsets
    return [new[a:b] for a, b in zip(offs, offs[1:])], moves
