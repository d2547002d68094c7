import hashlib
import json
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from gtpush import couplings, dynamics
from gtpush.cli import cli_dispatch
from gtpush.couplings import (
    GeometricPanel,
    PoissonPanel,
    WallPanel,
    left_edge_failures,
    left_edge_from_walk,
    lpp_G,
    lpp_failures,
    right_edge_equals_lpp,
    wall_edge_failures,
    wall_edge_matches_dynamics,
    wall_panel,
    wall_sup_functional,
    wall_sup_samples,
)
from gtpush.harness import chi_square_gof, trial_rng, wall_sup_reference
from gtpush.patterns import row_offsets
from gtpush.schur import sp_schur

from _oracles import (
    left_edge_recursion,
    lpp_brute,
    one_entry_changes,
    wall_sup_brute,
    wall_sup_dp,
)

Q3 = (F(1, 2), F(1, 3), F(1, 5))


def test_left_edge_all_zero_panel():
    panel = PoissonPanel(((), (), ()), 1.0)
    rows = left_edge_from_walk(panel, [0.0, 0.5, 1.0])
    assert rows == [[0, 0, 0]] * 3


def test_left_edge_hand_trace():
    panel = PoissonPanel(((0.5,), (0.3,)), 1.0)
    rows = left_edge_from_walk(panel, [0.0, 0.4, 0.6, 1.0])
    assert rows[0] == [0, 0, 1, 1]
    # the lower particle is stuck behind the upper one throughout
    assert rows[1] == [0, 0, 0, 0]


def test_left_edge_requires_sorted_grid():
    panel = PoissonPanel(((0.5,),), 1.0)
    with pytest.raises(ValueError):
        left_edge_from_walk(panel, [0.5, 0.1])


def test_left_edge_refuses_a_time_before_the_origin():
    panel = PoissonPanel(((0.5,), ()), 1.0)
    with pytest.raises(ValueError, match="got time -1.0"):
        left_edge_from_walk(panel, [-1.0, 0.2, 1.0])
    assert left_edge_from_walk(panel, [0.0, 0.2, 1.0])[0] == [0, 0, 1]


def test_left_edge_matches_full_dynamics():
    assert left_edge_failures(3, Q3, 2.0, 150, 100) == []


def test_left_edge_from_walk_matches_the_step_function_recursion():
    # 2,400 panels, read at every jump time and at points between them
    rng = np.random.default_rng(41)
    qs = (F(1, 7),) + Q3
    for _ in range(2400):
        n = int(rng.integers(1, 5))
        t = float(rng.uniform(0.5, 3.0))
        panel = couplings.poisson_panel(n, qs[:n], t, rng)
        grid = sorted({0.0, t, *rng.uniform(0, t, 4).tolist(),
                       *(tt for ts in panel.times for tt in ts)})
        assert left_edge_from_walk(panel, grid) == left_edge_recursion(panel, grid)


def test_lpp_zero_panel():
    panel = GeometricPanel(((0, 0), (0, 0)))
    assert lpp_G(panel, 2) == [[0, 0], [0, 0]]


def test_lpp_hand_example():
    panel = GeometricPanel(((1, 2), (3, 4)))
    g = lpp_G(panel, 2)
    assert g[0] == [1, 3]
    assert g[1][1] == 8


def test_lpp_matches_path_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 5))
        eta = tuple(tuple(int(v) for v in rng.integers(0, 6, size=t)) for _ in range(n))
        g = lpp_G(GeometricPanel(eta), n, t)
        for k in range(1, n + 1):
            for tt in range(1, t + 1):
                assert g[k - 1][tt - 1] == lpp_brute(eta, k, tt)


def test_right_edge_single_entry_panel():
    panel = GeometricPanel(((0,), (5,)))
    # wait: eta rows must have t_max entries each; single step, eta_2(1)=5
    g = lpp_G(panel, 2, 1)
    assert g[1][0] == 5
    assert right_edge_equals_lpp(panel, 2, (F(1, 2), F(1, 3)), 1, np.random.default_rng(0))


def test_right_edge_matches_lpp_many_panels():
    assert lpp_failures(3, Q3, 10, 150, 200) == []


def test_panel_clocks_ring_at_their_rates():
    # component c of a Poisson panel rings at q_{c+1}; Z_i of a wall panel
    # steps +1 at 1/q_i and -1 at q_i, and Z~_i the other way round
    rng = np.random.default_rng(61)
    trials, t = 2000, 1.5
    counts, want = np.zeros(3), np.array([float(v) for v in Q3]) * t
    for _ in range(trials):
        for c, times in enumerate(couplings.poisson_panel(3, Q3, t, rng).times):
            assert list(times) == sorted(times) and all(0 <= tt <= t for tt in times)
            counts[c] += len(times)
    assert np.all(np.abs(counts / trials - want) < 4 * np.sqrt(want / trials))
    counts = np.zeros((4, 2))  # component, sign +1 / -1
    want = np.array([[float(1 / v), float(v)][::s] for v in Q3[:2] for s in (1, -1)]) * t
    for _ in range(trials):
        for c, jumps in enumerate(wall_panel(2, Q3[:2], t, rng).jumps):
            times = [tt for tt, _ in jumps]
            assert times == sorted(times) and all(0 <= tt <= t for tt in times)
            for _, d in jumps:
                counts[c, (1 - d) // 2] += 1
    assert np.all(np.abs(counts / trials - want) < 4 * np.sqrt(want / trials))
    # a block draw rings on the same clocks: each row's jumps before t/2 are
    # Poisson(rate * t/2) per component and sign, whatever the block's width
    times, codes = couplings._wall_block(Q3[:2], t, trials, rng)
    early = np.where(times < t / 2, codes, 0)
    counts = np.array([[(early == s * c).sum() for s in (1, -1)] for c in range(1, 5)])
    assert np.all(np.abs(counts / trials - want / 2) < 4 * np.sqrt(want / 2 / trials))


def test_panels_refuse_a_negative_end_time():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="t_end = -1.0"):
        couplings.poisson_panel(2, Q3[:2], -1.0, rng)
    with pytest.raises(ValueError, match="t_end = -1.0"):
        wall_panel(1, Q3[:1], -1.0, rng)


def test_wall_sup_zero_panel():
    panel = WallPanel(((), ()), 1.0)
    assert wall_sup_functional(panel, 1.0) == 0


def test_wall_sup_hand_trace():
    panel = WallPanel((((0.3, 1),), ()), 1.0)
    assert wall_sup_functional(panel, 1.0) == 1
    # a negative excursion of the second component can only be avoided
    panel = WallPanel((((0.3, 1),), ((0.5, -1),)), 1.0)
    assert wall_sup_functional(panel, 1.0) == 1


def test_wall_sup_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(60):
        k = int(rng.integers(1, 3))
        panel = wall_panel(k, tuple(F(1, 2) for _ in range(k)), 1.5, rng)
        for t in (0.4, 0.9, 1.5):
            assert wall_sup_functional(panel, t) == wall_sup_brute(panel, t)


def test_wall_sup_constant_between_events_and_monotone_in_jumps():
    rng = np.random.default_rng(13)
    for _ in range(30):
        panel = wall_panel(2, (F(1, 2), F(1, 3)), 2.0, rng)
        times = sorted(tt for comp in panel.jumps for tt, _ in comp)
        # constant on the open interval between consecutive events
        for a, b in zip(times, times[1:]):
            if b - a > 1e-9:
                mid1, mid2 = a + (b - a) / 3, a + 2 * (b - a) / 3
                assert wall_sup_functional(panel, mid1) == wall_sup_functional(panel, mid2)
        # inserting a positive jump into any component cannot decrease it
        base = wall_sup_functional(panel, 2.0)
        for comp_idx in range(4):
            jumps = [list(c) for c in panel.jumps]
            jumps[comp_idx] = sorted(jumps[comp_idx] + [(1.9, 1)])
            bumped = WallPanel(tuple(tuple(c) for c in jumps), panel.t_end)
            assert wall_sup_functional(bumped, 2.0) >= base


def test_block_wall_sup_matches_per_trial_oracle():
    # 8,400 block panels, each at its end time and cut below it
    panels = 0
    for k in (1, 2, 3):
        qs = ((F(1, 7),) + Q3)[:k]
        for t_end in (0.7, 2.0):
            rng = np.random.default_rng((17, k, int(10 * t_end)))
            times, codes = couplings._wall_block(qs, t_end, 1400, rng)
            for t in (t_end, 0.6 * t_end):
                cut = np.where(times <= t, times, np.inf)
                got = couplings._reflect(cut, codes, 2 * k, wall=True)[1][-1, :, -1].tolist()
                want = [wall_sup_dp(couplings._row_panel(row, code_row, 2 * k, t_end), t)
                        for row, code_row in zip(times.tolist(), codes.tolist())]
                assert got == want
            panels += len(times)
    assert panels == 8400


def test_reflect_stage_c_is_the_wall_functional_of_the_first_c_components():
    # in both forms: the array rows of a block and the list loop of one panel
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        times, codes = couplings._wall_block(Q3[:k], 1.5, 1, rng)
        panel = couplings._row_panel(times[0].tolist(), codes[0].tolist(), 2 * k, 1.5)
        _, edges = couplings._reflect(times, codes, 2 * k, wall=True)
        _, stages = couplings._reflect_row(couplings._merged(panel.jumps, 1), 2 * k, wall=True)
        for c in range(2 * k):
            first = WallPanel(panel.jumps[:c + 1], panel.t_end)
            assert edges[c, 0, -1] == stages[-1][c] == wall_sup_dp(first, 1.5)


def _random_jumps(rng, m: int, wall: bool) -> list[tuple[float, int]]:
    """Merged (time, code) jumps of one row: a drawn panel (wall or poisson),
    or jumps on a grid of quarter times, so that many tie within and across
    components, with a jump at time 0 added to some; small counts leave
    components empty."""
    kind = int(rng.integers(3))
    if kind == 0 and wall:
        return couplings._merged(wall_panel(m // 2, Q3[:m // 2], 1.5, rng).jumps, 1)
    if kind == 0:
        panel = couplings.poisson_panel(m, Q3[:m], 2.0, rng)
        return couplings._merged([[(t, 1) for t in ts] for ts in panel.times], -1)
    count = int(rng.integers(0, 10))
    times = rng.integers(0, 5, count) / 4 if kind == 1 else rng.uniform(0, 2, count)
    codes = rng.choice([-1, 1], count) * rng.integers(1, m + 1, count)
    jumps = list(zip(times.tolist(), codes.tolist()))
    if rng.random() < 0.3:
        jumps.append((0.0, int(rng.choice([-1, 1]) * rng.integers(1, m + 1))))
    return sorted(jumps)


def test_the_list_reflection_agrees_with_reflect():
    # _reflect_row serves the one-panel callers, _reflect the blocks: at the
    # origin and at every distinct jump time, read after every jump at it,
    # the list loop's stages are the array form's
    rng = np.random.default_rng(37)
    ties = at_zero = empty = 0
    for _ in range(3000):
        wall = bool(rng.integers(2))
        k = int(rng.integers(1, 4))
        m = 2 * k if wall else k
        jumps = _random_jumps(rng, m, wall)
        times = np.array([[t for t, _ in jumps]], dtype=float)
        codes = np.array([[c for _, c in jumps]], dtype=np.int8)
        grid, edges = couplings._reflect(times, codes, m, wall)
        at, stages = couplings._reflect_row(jumps, m, wall)
        assert at == sorted({0.0, *(t for t, _ in jumps)})
        read = np.searchsorted(grid[0], at, side="right") - 1
        assert edges[:, 0, read].T.tolist() == stages
        ties += len(at) < len(jumps) + 1 - any(t == 0 for t, _ in jumps)
        at_zero += any(t == 0 for t, _ in jumps)
        empty += len({abs(c) for _, c in jumps}) < m
    assert min(ties, at_zero, empty) > 300


def test_wall_edge_matches_full_dynamics():
    for k in (1, 2, 3):
        assert wall_edge_failures(k, Q3[:k], 1.5, 100, 140 + k) == []


def test_wall_edge_hand_trace():
    # row 1 rings right at 0.2 and left at 0.4 and 0.6; the wall holds the
    # second left step, and row 2's last particle is pushed by row 1 at 0.2
    panel = WallPanel((((0.2, 1), (0.4, -1), (0.6, -1)), ((0.5, -1),)), 1.0)
    assert wall_sup_functional(panel, 1.0) == 0
    assert wall_edge_matches_dynamics(panel, 1, (F(1, 2),), np.random.default_rng(0))


def test_lpp_sweep_catches_a_step_lifted_by_the_old_row_above(monkeypatch):
    # a step that lifts each particle to the old entry of the row above, not
    # the new one, parts the right edge from the last passage times; the
    # check runs the rule with no move log, dynamics.geometric_rows
    assert lpp_failures(3, Q3, 10, 50, 200) == []

    def lifted_by_the_old_row(rows, xi):
        new_rows, old = [], None
        for r0, row in enumerate(rows):
            new_row = []
            for j0, pos in enumerate(row):
                nxt = max(pos, old[j0 - 1] if r0 and j0 else pos) + int(xi[r0][j0])
                new_row.append(min(nxt, old[j0]) if r0 and j0 < len(old) else nxt)
            new_rows.append(new_row)
            old = row
        return new_rows
    monkeypatch.setattr(dynamics, "geometric_rows", lifted_by_the_old_row)
    assert lpp_failures(3, Q3, 10, 50, 200)


def _one_panel_record() -> str:
    """Seeded panels of the three one-panel samplers, the verdicts of the
    three checks on them, the generator state after each call, one-trial runs
    of the three dynamics with their logs, and three small sweeps, as JSON."""
    out = []
    for trial in range(6):
        for n, t_max in ((1, 4), (3, 10)):
            rng, other = trial_rng(61, trial), trial_rng(62, trial)
            panel = couplings.geometric_panel(n, Q3[:n], t_max, rng)
            out.append((panel.eta, rng.bit_generator.state))
            out.append((right_edge_equals_lpp(panel, n, Q3[:n], t_max, other),
                        other.bit_generator.state))
        for n, t in ((1, 0.5), (3, 2.0)):
            rng, other = trial_rng(63, trial), trial_rng(64, trial)
            panel = couplings.poisson_panel(n, Q3[:n], t, rng)
            out.append((panel.times, rng.bit_generator.state))
            out.append((couplings.left_edge_matches_dynamics(panel, n, Q3[:n], other),
                        other.bit_generator.state))
        for k, t in ((1, 1.0), (2, 1.5)):
            rng, other = trial_rng(65, trial), trial_rng(66, trial)
            panel = wall_panel(k, Q3[:k], t, rng)
            out.append((panel.jumps, rng.bit_generator.state))
            out.append((wall_edge_matches_dynamics(panel, k, Q3[:k], other),
                        other.bit_generator.state))
        for model, n, q, horizon in (("poisson", 3, Q3, 1.5), ("wall", 3, Q3[:2], 1.0),
                                     ("geometric", 3, Q3, 4)):
            rng = trial_rng(67, trial)
            init = dynamics.zero_pattern(n, "symplectic" if model == "wall" else "standard")
            final, log = dynamics.simulate(model, n, q, init, horizon, rng)
            out.append((final.rows, log, rng.bit_generator.state))
    out.append((left_edge_failures(3, Q3, 2.0, 40, 68), lpp_failures(3, Q3, 10, 40, 68),
                wall_edge_failures(2, Q3[:2], 1.5, 40, 68)))
    return json.dumps(out)


def test_the_one_panel_path_keeps_its_streams():
    # panels, verdicts, logs and generator states as first recorded: a faster
    # draw or step must draw and decide the same, bit for bit
    assert couplings.geometric_panel(2, Q3[:2], 5, trial_rng(61, 3)).eta == (
        (1, 1, 1, 2, 3), (1, 1, 3, 0, 0))
    rng = trial_rng(63, 2)
    assert couplings.poisson_panel(2, Q3[:2], 1.5, rng).times == ((0.07149360884873857,), ())
    assert rng.bit_generator.state["state"] == {
        "state": 42970148557034804544872838756288262359,
        "inc": 6606202733232035105582753537462975131}
    assert wall_panel(1, Q3[:1], 0.5, trial_rng(65, 1)).jumps == ((), (
        (0.17552723789778157, 1), (0.2194814134047996, -1), (0.36496248387085956, -1)))
    record = _one_panel_record()
    assert (len(record), hashlib.sha256(record.encode()).hexdigest()) == (
        23958, "0da5fa5fc5a0e15d67eb50d3fdb658a775c51fbbcd53ae21c37935de1c6d6082")


def test_lpp_checks_refuse_a_misshapen_panel():
    # a panel of another height, or shorter than t_max, before anything is drawn
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for panel, n, t_max, shape in [(GeometricPanel(((1, 2),)), 2, 2, "[2]"),
                                   (GeometricPanel(((1, 2), (3, 4), (5, 6))), 2, 2, "[2, 2, 2]"),
                                   (GeometricPanel(((1, 2), (3,))), 2, 2, "[2, 1]")]:
        message = rf"{n} rows up to step {t_max} need a panel of {n} rows of at least " \
                  rf"{t_max} draws, got rows of \{shape}"
        with pytest.raises(ValueError, match=message):
            right_edge_equals_lpp(panel, n, Q3[:n], t_max, rng)
        with pytest.raises(ValueError, match=message):
            lpp_G(panel, n, t_max)
    assert rng.bit_generator.state == state
    # rows longer than t_max are read up to it
    assert right_edge_equals_lpp(GeometricPanel(((1, 2, 9), (3, 4, 9))), 2, Q3[:2], 2, rng)


def test_lpp_draws_refuse_a_horizon_past_the_event_cap(monkeypatch, capsys):
    # the panel draw and the step draw are refused before anything is drawn
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="t_max = 100000000 asks for 3e[+]08 geometric jumps"):
        couplings.geometric_panel(3, Q3, 10 ** 8, rng)
    assert rng.bit_generator.state == state
    monkeypatch.setattr(dynamics, "MAX_RING_EVENTS", 50)  # a panel of 30 jumps, steps of 60
    panel = couplings.geometric_panel(3, Q3, 10, np.random.default_rng(4))
    with pytest.raises(RuntimeError, match="t_max = 10 asks for 60 geometric jumps, past the 50"):
        right_edge_equals_lpp(panel, 3, Q3, 10, rng)
    assert rng.bit_generator.state == state
    monkeypatch.undo()
    assert cli_dispatch(["coupling", "check", "--identity", "lpp", "--n", "3", "--q",
                         "1/2,1/3,1/5", "--horizon", "100000000", "--trials", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "t_max = 100000000" in err


def test_edge_checks_refuse_a_panel_of_another_height():
    with pytest.raises(ValueError, match="4 rows need 4 panel components, got 2"):
        wall_edge_matches_dynamics(WallPanel(((), ()), 1.0), 2, Q3[:2], np.random.default_rng(0))
    with pytest.raises(ValueError, match="3 rows need 3 panel components, got 2"):
        couplings.left_edge_matches_dynamics(PoissonPanel(((), ()), 1.0), 3, Q3,
                                             np.random.default_rng(0))
    with pytest.raises(ValueError, match="3 rows need 3 panel components, got 4"):
        couplings.left_edge_matches_dynamics(PoissonPanel(((),) * 4, 1.0), 3, Q3,
                                             np.random.default_rng(0))


def test_a_jump_at_time_zero_leaves_the_origin_a_split_point():
    # the dynamics starts from zero before any jump, also one at time 0
    rng = np.random.default_rng(0)
    for times, rows in ((((0.0,), ()), [[1, 1], [0, 0]]), (((), (0.0,)), [[0, 0], [0, 0]])):
        panel = PoissonPanel(times, 1.0)
        assert left_edge_from_walk(panel, [0.0, 1.0]) == rows
        assert couplings.left_edge_matches_dynamics(panel, 2, Q3[:2], rng)
    # one jump at time 0 added to random panels, in each component and sign
    checked = 0
    for k in (1, 2):
        for _ in range(60):
            panel = wall_panel(k, Q3[:k], 1.5, rng)
            for c, d in product(range(2 * k), (1, -1)):
                jumps = list(panel.jumps)
                jumps[c] = ((0.0, d),) + jumps[c]
                assert wall_edge_matches_dynamics(WallPanel(tuple(jumps), 1.5), k, Q3[:k], rng)
                checked += 1
    for n in (2, 3):
        for _ in range(60):
            panel = couplings.poisson_panel(n, Q3[:n], 2.0, rng)
            for c in range(n):
                times = list(panel.times)
                times[c] = (0.0,) + times[c]
                assert couplings.left_edge_matches_dynamics(PoissonPanel(tuple(times), 2.0),
                                                            n, Q3[:n], rng)
                checked += 1
    assert checked == 60 * (4 + 8) + 60 * (2 + 3)


def test_wall_edge_sweep_catches_a_changed_edge_ring(monkeypatch):
    # The left pushes of rows 2 and 3 land on particles that are no edge and
    # never block one, so the edge cannot see them.  Row 4's left ring moves
    # its particle only when it sits right of every other particle, so no
    # push of it can ever fire.
    unseen = {((2, 1, -1), "push"), ((3, 2, -1), "push"), ((4, 2, -1), "push")}
    table = dynamics.ring_table(4, "symplectic")
    caught = []
    for key, column, changed in one_entry_changes(table):
        monkeypatch.setattr(dynamics, "ring_table", lambda n, kind, t=changed: t)
        failures = wall_edge_failures(2, Q3[:2], 1.5, 200, 1402)
        if (key, column) not in unseen:
            assert failures, (key, column)
            caught.append((key, column))
        else:
            assert failures == []
    assert len(caught) == 13


def test_left_edge_sweep_catches_a_changed_edge_ring(monkeypatch):
    # A first particle pushes the second of the row below, which is no edge
    # and never blocks one, so no push change can show on the left edge.
    table = dynamics.ring_table(3, "standard")
    caught = []
    for key, column, changed in one_entry_changes(table):
        monkeypatch.setattr(dynamics, "ring_table", lambda n, kind, t=changed: t)
        failures = left_edge_failures(3, Q3, 2.0, 200, 1402)
        if column == "blocker":
            assert failures, key
            caught.append(key)
        else:
            assert failures == [], key
    assert caught == [(1, 1, 1), (2, 1, 1), (3, 1, 1)]


def _every_word(letters: int, length: int) -> np.ndarray:
    """Every word of the given length over range(letters), one per row."""
    return np.indices((letters,) * length, dtype=np.int8).reshape(length, -1).T


def _edge_word_failures(table, length: int) -> int:
    """How many of all the words of ring indices of the given length take an
    edge of the pattern, run by ``dynamics.run_rings`` from zero, off the
    reflection map of the edge rings' subsequence after some ring.  Row r's
    edge ring (r, edge, d) is a step d of component r-1; the left edge
    (standard, first particles) is the map of the negated components with no
    wall, the wall edge (symplectic, last particles) the map with the wall."""
    wall = table.kind == "symplectic"
    offs = table.offsets
    edge = [offs[r] - 1 if wall else offs[r - 1] for r in range(1, len(offs))]
    sign = 1 if wall else -1
    codes = np.array([sign * d * r if table.particle[i] == edge[r - 1] else 0
                      for i, (r, _, d) in enumerate(table.keys)], dtype=np.int8)
    words = _every_word(table.idle, length)
    x = np.zeros((len(words), offs[-1]), dtype=np.int64)
    got = []
    for col in words.T:
        x = dynamics.run_rings(table, x, col[:, None])
        got.append(x[:, edge])
    times = np.broadcast_to(np.arange(1.0, length + 1), words.shape)
    _, want = couplings._reflect(times, codes[words], len(edge), wall)
    return int((np.stack(got, axis=2) != sign * want[:, :, 1:].transpose(1, 0, 2))
               .any(axis=(1, 2)).sum())


@pytest.mark.parametrize("n,kind,length", [
    (3, "standard", 7), (2, "symplectic", 9), (4, "symplectic", 5),
], ids=["left-edge-3", "wall-edge-1", "wall-edge-2"])
def test_every_ring_word_keeps_the_edge_on_the_reflection_map(n, kind, length):
    # C8 and C14 without streams: the edge identities depend on the order of
    # the rings, not on their times, so every word up to a length covers them
    assert _edge_word_failures(dynamics.ring_table(n, kind), length) == 0


def test_the_ring_word_check_sees_a_changed_edge_blocker():
    # row 2's first particle rings right unblocked by row 1's: the left edge
    # sweep catches this one too
    changed = {(key, column): t for key, column, t in
               one_entry_changes(dynamics.ring_table(3, "standard"))}
    assert _edge_word_failures(changed[(2, 1, 1), "blocker"], 7) > 0


@pytest.mark.parametrize("n,steps,values", [(2, 3, 4), (3, 2, 3)])
def test_every_jump_field_keeps_the_right_edge_on_last_passage(n, steps, values):
    # C7 without streams: every field of jumps below `values` for `steps`
    # steps of ``dynamics.geometric_update``, against the corner recursion
    # G(t, k) = max(G(t-1, k), G(t, k-1)) + eta on the diagonal particles' draws
    offs = row_offsets(n)
    last = [hi - 1 for hi in offs[1:]]
    fields = _every_word(values, steps * offs[-1]).reshape(-1, steps, offs[-1])
    x = np.zeros((len(fields), offs[-1]), dtype=np.int64)
    g = np.zeros((len(fields), n), dtype=np.int64)
    failed = np.zeros(len(fields), dtype=bool)
    for t in range(steps):
        x = dynamics.geometric_update(x, fields[:, t], n)
        above = 0
        for k in range(n):
            g[:, k] = np.maximum(g[:, k], above) + fields[:, t, last[k]]
            above = g[:, k]
        failed |= (x[:, last] != g).any(axis=1)
    assert not failed.any()


def test_sp_schur_even_heights_are_symmetric_under_inverted_rates():
    # why a panel stepping up at 1/q_i may drive rows that ring right at q_i
    states = 0
    for k in (1, 2, 3):
        q, inverted = Q3[:k], tuple(1 / v for v in Q3[:k])
        for z in combinations_with_replacement(range(5), k):
            assert sp_schur(2 * k, z, q) == sp_schur(2 * k, z, inverted)
            if any(z):
                assert sp_schur(2 * k - 1, z, q) != sp_schur(2 * k - 1, z, inverted)
            states += 1
    assert states == 5 + 15 + 35


@pytest.mark.parametrize("jumps,t,value", [
    # simultaneous jumps in two components: no split point between them
    ((((0.5, 1),), ((0.5, 1),)), 1.0, 1),
    ((((0.5, 1),), ((0.5, -1),)), 1.0, 1),
    # two jumps at one time in one component
    (((), ((0.5, -1), (0.5, 1)),), 1.0, 0),
    ((((0.3, 1), (0.3, 1)), ((0.3, -1), (0.3, -1), (0.8, 1))), 0.5, 2),
    # a jump at time 0 ties with the origin of the grid
    ((((0.0, -1), (0.0, 1)), ((0.0, -1),)), 1.0, 0),
    # a tie at the cut counts in full
    ((((0.2, 1),), ((0.6, 1), (0.6, -1), (0.6, 1))), 0.6, 2),
])
def test_wall_sup_ties(jumps, t, value):
    panel = WallPanel(jumps, 1.0)
    assert wall_sup_functional(panel, t) == wall_sup_dp(panel, t) == wall_sup_brute(panel, t) == value


def test_wall_sup_refuses_jumps_other_than_unit_steps():
    with pytest.raises(ValueError, match="steps of"):
        wall_sup_functional(WallPanel((((0.5, 2),), ()), 1.0), 1.0)


def test_wall_sup_samples_blocks_are_stable():
    q = (F(1, 2),)
    first = wall_sup_samples(1, q, 1.0, 1024, 5)
    assert wall_sup_samples(1, q, 1.0, 1500, 5)[:1024] == first
    assert wall_sup_samples(1, q, 1.0, 1024, 5) == first
    assert wall_sup_samples(1, q, 1.0, 1024, 6) != first


def test_wall_sup_distribution_matches_conditioned_walk():
    samples = wall_sup_samples(1, (F(1, 2),), 1.0, 30_000, 31)
    assert chi_square_gof(samples, wall_sup_reference(1, (F(1, 2),), 1.0, 30)) > 0.01
    # with two rates the functional matches the last of the row's two coordinates
    samples = wall_sup_samples(2, Q3[:2], 1.0, 2000, 3)
    assert chi_square_gof(samples, wall_sup_reference(2, Q3[:2], 1.0, 30)) > 0.01


@pytest.mark.parametrize("identity,horizon", [("left-edge", "1"), ("lpp", "3"),
                                              ("wall-edge", "1"), ("wall-sup", "1")])
def test_cli_coupling_takes_the_first_n_rates(capsys, identity, horizon):
    runs = []
    for q in ("1/2,1/3", "1/2,1/3,1/5"):
        code = cli_dispatch(["coupling", "check", "--identity", identity, "--n", "2", "--q", q,
                             "--trials", "200", "--horizon", horizon])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("identity,check,sweep,horizon", [
    ("left-edge", "left_edge_matches_dynamics", couplings.left_edge_failures, 1.0),
    ("lpp", "right_edge_equals_lpp", couplings.lpp_failures, 5),
    ("wall-edge", "wall_edge_matches_dynamics", couplings.wall_edge_failures, 1.0),
])
def test_coupling_sweeps_name_a_failing_trial(monkeypatch, capsys, identity, check, sweep,
                                              horizon):
    original = getattr(couplings, check)

    def failing_on_trial_2():
        calls = []

        def forced(*args):
            calls.append(args)
            return len(calls) != 3 and original(*args)
        return forced

    monkeypatch.setattr(couplings, check, failing_on_trial_2())
    assert sweep(2, Q3[:2], horizon, 5, 3) == [2]
    monkeypatch.setattr(couplings, check, failing_on_trial_2())
    code = cli_dispatch(["coupling", "check", "--identity", identity, "--n", "2", "--q",
                         "1/2,1/3", "--trials", "5", "--horizon", str(horizon), "--seed", "3"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"identity": identity, "trial": 2,
                                                   "status": "fail"}
