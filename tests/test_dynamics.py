import json
import math
from fractions import Fraction as F
from itertools import combinations_with_replacement

import numpy as np
import pytest

from gtpush import intertwine, kernels
from gtpush.cli import cli_dispatch
from gtpush.dynamics import (
    _ring_draws,
    _ring_picks,
    _ring_rates,
    geometric_step,
    geometric_update,
    ring_table,
    run_block,
    run_rings,
    simulate,
    trace_rings,
    zero_pattern,
)
from gtpush.harness import Pmf, trial_rng, tv_distance
from gtpush.patterns import (
    Pattern,
    enumerate_patterns,
    is_valid,
    row_length,
    row_offsets,
    sample_pattern,
    sample_patterns,
)

from _oracles import (
    geometric_step_by_table,
    one_entry_changes,
    replay_log,
    ring_rates_by_parity,
    ring_table_by_parity,
    simulate_reference,
)

Q2 = (F(1, 2), F(1, 3))


def test_zero_horizon_gives_empty_trajectory():
    rng = np.random.default_rng(0)
    assert simulate("poisson", 2, Q2, zero_pattern(2), 0.0, rng)[1] == []
    assert simulate("geometric", 2, Q2, zero_pattern(2), 0, rng)[1] == []
    assert simulate("wall", 2, (F(1, 2),), zero_pattern(2, "symplectic"), 0.0, rng)[1] == []


def test_poisson_single_particle_counts():
    # one particle is a plain counting process
    rng = np.random.default_rng(1)
    n_runs, q, t = 40_000, 0.5, 1.0
    total = 0
    for _ in range(n_runs):
        total += len(simulate("poisson", 1, (F(1, 2),), zero_pattern(1), t, rng)[1])
    mean = total / n_runs
    sigma = math.sqrt(q * t / n_runs)
    assert abs(mean - q * t) < 3 * sigma


def test_poisson_states_stay_valid_and_pushes_note_cause():
    rng = np.random.default_rng(2)
    for _ in range(50):
        final, log = simulate("poisson", 3, (F(1, 2), F(1, 2), F(1, 2)), zero_pattern(3), 2.0, rng)
        assert replay_log(zero_pattern(3), log) == final
        for _, _, _, d, cause in log:
            assert cause in ("self", "push")
            assert d == 1


def test_poisson_rejects_invalid_init():
    rng = np.random.default_rng(0)
    bad = Pattern.__new__(Pattern)
    object.__setattr__(bad, "rows", ((5,), (0, 2)))
    object.__setattr__(bad, "kind", "standard")
    with pytest.raises(ValueError):
        simulate("poisson", 2, Q2, bad, 1.0, rng)


def test_geometric_zero_steps_identity():
    rng = np.random.default_rng(0)
    final, _ = simulate("geometric", 2, Q2, zero_pattern(2), 0, rng)
    assert final.rows == zero_pattern(2).rows


def test_geometric_single_particle_mean():
    # one particle: i.i.d. geometric jumps with mean q/(1-q)
    rng = np.random.default_rng(3)
    n_runs, steps = 40_000, 5
    q = 0.5
    total = 0
    for _ in range(n_runs):
        total += simulate("geometric", 1, (F(1, 2),), zero_pattern(1), steps, rng)[0].rows[0][0]
    mean_per_step = total / n_runs / steps
    var_one = q / (1 - q) ** 2
    sigma = math.sqrt(var_one / (n_runs * steps))
    assert abs(mean_per_step - q / (1 - q)) < 3 * sigma


def test_geometric_interlacing_preserved_each_step():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows = [list(r) for r in zero_pattern(3).rows]
        for _step in range(6):
            xi = [rng.geometric(0.5, size=j + 1) - 1 for j in range(3)]
            rows, _ = geometric_step(rows, xi)
            assert is_valid(Pattern(tuple(tuple(r) for r in rows)))


def test_geometric_push_precedes_jump():
    # row-2 particle sitting at the row-1 particle's spot is carried to its
    # new position before jumping; the old position blocks the left particle
    rows = [[3], [0, 3]]
    xi = [[2], [5, 1]]
    new_rows, moves = geometric_step(rows, xi)
    assert new_rows[0] == [5]
    assert new_rows[1][0] == 3  # capped by the old upper position
    assert new_rows[1][1] == 6  # pushed to 5, then jumped 1
    assert (2, 2, 3, "push") in moves


def test_wall_single_particle_birth_death():
    # one particle: semigroup of the height-1 generator is the reference law
    rng = np.random.default_rng(5)
    trials, t = 30_000, 1.0
    counts: dict = {}
    for _ in range(trials):
        s = simulate("wall", 1, (F(1, 2),), zero_pattern(1, "symplectic"), t, rng)[0].rows[0]
        counts[s] = counts.get(s, 0) + 1
    gen = kernels.q_symplectic(1, (F(1, 2),), 30)
    ref = Pmf.from_dense_row(intertwine.semigroup(gen, t, 1e-14), (0,))
    tv = tv_distance(Pmf.from_counts(counts, trials), ref)
    assert tv < 0.02


def test_wall_states_stay_valid():
    rng = np.random.default_rng(6)
    for _ in range(60):
        final, log = simulate("wall", 3, Q2, zero_pattern(3, "symplectic"), 1.5, rng)
        assert replay_log(zero_pattern(3, "symplectic"), log) == final
        assert all(abs(d) == 1 for _, _, _, d, _ in log)


def test_wall_never_crosses_origin():
    rng = np.random.default_rng(7)
    for _ in range(40):
        _, log = simulate("wall", 2, (F(1, 3),), zero_pattern(2, "symplectic"), 3.0, rng)
        rows = [list(r) for r in zero_pattern(2, "symplectic").rows]
        for _, r, j, d, _ in log:
            rows[r - 1][j - 1] += d
            assert min(min(r) for r in rows) >= 0


def test_reference_absorbing_generator():
    gen = kernels.SparseGenerator([(0,)], {(0,): {}}, 5)
    assert simulate_reference(gen, (0,), 10.0, np.random.default_rng(0)) == ((0,), [])


def test_reference_single_walker_poisson_counts():
    gen = kernels.q_charlier(1, (F(1, 2),), 40)
    rng = np.random.default_rng(8)
    runs = 20_000
    total = sum(len(simulate_reference(gen, (0,), 1.0, rng)[1]) for _ in range(runs))
    sigma = math.sqrt(0.5 / runs)
    assert abs(total / runs - 0.5) < 3 * sigma


def test_reference_matches_semigroup_two_walkers():
    gen = kernels.q_charlier(2, Q2, 16)
    rng = np.random.default_rng(9)
    trials, t = 100_000, 1.0
    counts: dict = {}
    for _ in range(trials):
        s = simulate_reference(gen, (0, 0), t, rng)[0]
        counts[s] = counts.get(s, 0) + 1
    ref = Pmf.from_dense_row(intertwine.semigroup(gen, t, 1e-14), (0, 0))
    assert tv_distance(Pmf.from_counts(counts, trials), ref) < 0.02


def test_poisson_three_row_marginal_matches_semigroup():
    # bottom row of the three-row pattern follows the conditioned-walk law
    rng = np.random.default_rng(12)
    trials, t = 20_000, 1.0
    q3 = (F(1, 2), F(1, 3), F(1, 5))
    counts: dict = {}
    for _ in range(trials):
        s = simulate("poisson", 3, q3, zero_pattern(3), t, rng)[0].bottom_row
        counts[s] = counts.get(s, 0) + 1
    gen = kernels.q_charlier(3, q3, 14)
    ref = Pmf.from_dense_row(intertwine.semigroup(gen, t, 1e-14), (0, 0, 0))
    assert tv_distance(Pmf.from_counts(counts, trials), ref) < 0.03


def test_reference_kernel_stepping():
    kern = kernels.kernel_geometric(1, (F(1, 2),), 60)
    rng = np.random.default_rng(10)
    runs, steps = 20_000, 3
    total = sum(simulate_reference(kern, (0,), steps, rng)[0][0] for _ in range(runs))
    mean = total / runs
    sigma = math.sqrt(steps * 2.0 / runs)  # var of a geometric(1/2) jump is 2
    assert abs(mean - steps * 1.0) < 3 * sigma


def test_reference_rejects_foreign_state():
    gen = kernels.q_charlier(1, (F(1, 2),), 5)
    with pytest.raises(ValueError):
        simulate_reference(gen, (9,), 1.0, np.random.default_rng(0))


def test_fixed_seed_reproduces_trajectory_bytes():
    q3 = (F(1, 2), F(1, 3), F(1, 5))
    a = simulate("poisson", 3, q3, zero_pattern(3), 2.0, np.random.default_rng(123))
    b = simulate("poisson", 3, q3, zero_pattern(3), 2.0, np.random.default_rng(123))
    assert a == b and a[1]
    c = simulate("wall", 3, Q2, zero_pattern(3, "symplectic"), 1.0, np.random.default_rng(5))
    d = simulate("wall", 3, Q2, zero_pattern(3, "symplectic"), 1.0, np.random.default_rng(5))
    assert c == d


def test_trajectory_json_lines_format(tmp_path):
    # the log of `simulate --trials 1` is the library's log: it replays to the
    # library's final pattern and stays in the cone at every timestamp
    for model, n, q, z, horizon in (("poisson", 3, "1/2,1/3,1/5", "0,1,3", "2"),
                                    ("geometric", 2, "1/2,1/3", "1,2", "6"),
                                    ("wall", 4, "1/2,1/3", "1,2", "3/2")):
        out = tmp_path / f"{model}.jsonl"
        assert cli_dispatch(["simulate", "--model", model, "--n", str(n), "--q", q, "--z", z,
                             "--horizon", horizon, "--seed", "11", "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert json.loads(header)["model"] == model and docs
        assert all(set(doc) == {"t", "row", "i", "d", "cause"} for doc in docs)
        kind = "symplectic" if model == "wall" else "standard"
        qs = tuple(F(v) for v in q.split(","))
        rng = trial_rng(11, 0)
        init = sample_pattern(tuple(map(int, z.split(","))), qs, kind, rng, nrows=n)
        final, log = simulate(model, n, qs, init, int(horizon) if model == "geometric"
                              else float(F(horizon)), rng)
        assert [tuple(doc.values()) for doc in docs] == log
        assert replay_log(init, log) == final


def _sampled_starts(n, kind, rng, trials):
    """Flat patterns drawn above random nonzero bottom rows, one per trial."""
    k = n if kind == "standard" else (n + 1) // 2
    q = (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13))[:k]
    rows = [tuple(sorted(int(v) for v in rng.integers(0, 4, size=k))) for _ in range(trials)]
    return np.concatenate([sample_patterns(z, q, kind, rng, n, 1) for z in rows])


def _unflatten(flat, n, kind):
    offs = row_offsets(n, kind)
    return tuple(tuple(int(c) for c in flat[a:b]) for a, b in zip(offs, offs[1:]))


def _oracle_ring(rows, kind, r, j, d):
    """Independent statement of blocking and pushing, from the cone alone: the
    move of particle (r, j) by d is discarded when rows 1..r stop being a
    valid pattern; otherwise each lower row in turn moves by d the one
    particle that restores its interlacing with the row above."""
    rows = [list(row) for row in rows]

    def valid(upto):
        return is_valid(Pattern(tuple(tuple(row) for row in rows[:upto]), kind))

    rows[r - 1][j - 1] += d
    if not valid(r):
        rows[r - 1][j - 1] -= d
        return tuple(map(tuple, rows))
    for s in range(r, len(rows)):
        if valid(s + 1):
            break
        for i in range(len(rows[s])):
            rows[s][i] += d
            if valid(s + 1):
                break
            rows[s][i] -= d
        else:
            raise AssertionError("no push restores the interlacing")
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("kind, n", [("standard", 3), ("standard", 4),
                                     ("symplectic", 3), ("symplectic", 4),
                                     ("symplectic", 5), ("standard", 6),
                                     ("symplectic", 6)])
def test_batched_rings_match_event_driven_simulators(kind, n):
    table = ring_table(n, kind)
    assert [table.ring_of[key] for key in table.keys] == list(range(table.idle))
    # every ring from every pattern with entries in 0..3 (0..1 at n = 6, where
    # the 0..3 cone holds 27,456 standard patterns), against the oracle
    k = n if kind == "standard" else (n + 1) // 2
    top = 3 if n < 6 else 1
    cone = [p.rows for z in combinations_with_replacement(range(top + 1), k)
            for p in enumerate_patterns(z, kind, nrows=n)]
    start = np.repeat([[c for row in rows for c in row] for rows in cone], table.idle, axis=0)
    rings = np.tile(np.arange(table.idle), len(cone))[:, None]
    moved = [_unflatten(flat, n, kind) for flat in run_rings(table, start, rings)]
    assert moved == [_oracle_ring(rows, kind, *key) for rows in cone for key in table.keys]
    # the same ring sequences, of unequal lengths, from the same sampled
    # nonzero starts through the block loop and the one-trial loop
    rng = np.random.default_rng(300 + n)
    trials, width = 300, 40
    start = _sampled_starts(n, kind, rng, trials)
    rings = rng.integers(0, table.idle, size=(trials, width))
    lengths = rng.integers(0, width + 1, size=trials)
    rings[np.arange(width) >= lengths[:, None]] = table.idle
    batched = run_rings(table, start, rings)
    depths = []  # pushes of each cascade
    for trial in range(trials):
        init = Pattern(_unflatten(start[trial], n, kind), kind)
        flat, moves = trace_rings(table, start[trial].tolist(), enumerate(rings[trial].tolist()))
        assert flat == batched[trial].tolist()
        assert replay_log(init, moves).rows == _unflatten(batched[trial], n, kind)
        assert all(t < lengths[trial] for t, *_ in moves)
        for *_, cause in moves:
            if cause == "self":
                depths.append(0)
            else:
                depths[-1] += 1
    # some cascade runs from row 1 to row n: a block loop that stops one
    # level early parts from the one-trial loop there
    assert max(depths) == n - 1


@pytest.mark.parametrize("n", [3, 4])
def test_batched_geometric_update_matches_step(n):
    rng = np.random.default_rng(310 + n)
    x = _sampled_starts(n, "standard", rng, 200)
    offs = row_offsets(n)
    for _step in range(4):
        xi = rng.geometric(0.4, size=x.shape) - 1
        new = geometric_update(x, xi, n)
        for trial in range(len(x)):
            rows = [list(row) for row in _unflatten(x[trial], n, "standard")]
            draws = [xi[trial, a:b] for a, b in zip(offs, offs[1:])]
            assert geometric_step(rows, draws)[0] == [list(r) for r in _unflatten(new[trial], n, "standard")]
        x = new


def _geometric_steps(n, steps, restart, seed):
    """(rows, xi) of reachable geometric steps: one run of geometric_step from
    the zero pattern, restarted every `restart` steps, at rates 1/2, 1/3, ..."""
    rng = np.random.default_rng(seed)
    ps = [1 - float(v) for v in (F(1, 2), F(1, 3), F(1, 5), F(1, 7))[:n]]
    for step in range(steps):
        if step % restart == 0:
            rows = [[0] * j for j in range(1, n + 1)]
        xi = [(rng.geometric(p, size=r0 + 1) - 1).tolist() for r0, p in enumerate(ps)]
        yield rows, xi
        rows = geometric_step(rows, xi)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geometric_step_reads_the_ring_table_neighbours(n):
    # the step's floor (the new row above) and cap (the old row above) are the
    # slots of the standard ring table's push and blocker, which the oracle
    # reads in place of row indices
    table = ring_table(n, "standard")
    causes = set()
    for rows, xi in _geometric_steps(n, 600, 150, 320 + n):
        new_rows, moves = geometric_step(rows, xi)
        assert geometric_step_by_table(table, rows, xi) == (new_rows, moves)
        flat, draws = ([[c for row in v for c in row]] for v in (rows, xi))
        assert (geometric_update(np.array(flat), np.array(draws), n)[0].tolist()
                == [c for row in new_rows for c in row])
        causes.update(cause for *_, cause in moves)
    assert causes == ({"self"} if n == 1 else {"self", "push"})


def test_a_changed_ring_table_parts_the_geometric_oracle_from_the_step():
    # every one-entry change of an edge ring's blocker or push shows on some
    # step, the push changes too, which no left edge can see.  The exception
    # points the push of ring (3, 1, +1) at row 2: a top-down step has moved
    # row 2 before row 3, so it never reads that push.
    table = ring_table(3, "standard")
    steps = [(rows, xi, geometric_step(rows, xi)) for rows, xi in _geometric_steps(3, 3000, 300, 330)]
    parted = {(key, column): sum(geometric_step_by_table(changed, rows, xi) != want
                                 for rows, xi, want in steps)
              for key, column, changed in one_entry_changes(table)}
    assert parted.pop(((3, 1, 1), "push")) == 0
    assert len(parted) == 5 and all(parted.values()), parted


@pytest.mark.parametrize("model,n,q,kind", [
    ("poisson", 2, (F(1, 2), F(1, 3)), "standard"),
    ("geometric", 2, (F(1, 2), F(1, 3)), "standard"),
    ("wall", 2, (F(1, 2),), "symplectic"),
], ids=["poisson", "geometric", "wall"])
def test_simulators_refuse_a_negative_horizon_and_keep_zero(model, n, q, kind):
    init = zero_pattern(n, kind)
    start = np.array([[c for row in init.rows for c in row]] * 3)
    with pytest.raises(ValueError, match="horizon = -1"):
        simulate(model, n, q, init, -1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="horizon = -1"):
        run_block(model, n, q, start, -1, np.random.default_rng(0))
    assert simulate(model, n, q, init, 0, np.random.default_rng(0)) == (init, [])
    assert run_block(model, n, q, start, 0, np.random.default_rng(0)).tolist() == start.tolist()


def test_runs_refuse_an_unknown_model_and_a_fractional_step_count():
    start, rng = np.zeros((2, 3), dtype=np.int64), np.random.default_rng(0)
    for model, horizon, named in (("brownian", 1.0, "unknown model 'brownian'"),
                                  ("geometric", 1.5, "steps >= 0, got horizon = 1.5")):
        with pytest.raises(ValueError, match=named):
            run_block(model, 2, Q2, start, horizon, rng)
        with pytest.raises(ValueError, match=named):
            simulate(model, 2, Q2, zero_pattern(2), horizon, rng)


@pytest.mark.parametrize("kind", ["standard", "symplectic"])
def test_ring_table_and_rates_read_the_row_rule(kind):
    # against the nest test and the rate powers written out by row parity
    qs = (F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(3, 11), F(5, 13))
    for n in range(1, 7):
        table, by_parity = ring_table(n, kind), ring_table_by_parity(n, kind)
        assert table == by_parity and dict(table.ring_of) == dict(by_parity.ring_of)
        assert (list(_ring_rates(table, qs[:row_length(n, kind)]))
                == ring_rates_by_parity(kind, table.keys, qs))


def test_ring_draws_refuse_a_horizon_past_the_event_cap():
    # refused before anything is drawn, with or without the times: the stream
    # is left as it was
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for draw in (_ring_draws, _ring_picks):
        with pytest.raises(RuntimeError, match="t_end = 1e[+]15 asks for 8.33e[+]14 ring events"):
            draw([F(1, 2), F(1, 3)], 1e15, 1, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("trials, t_end", [(500, 1.0), (1, 3.0), (7, 0.0), (0, 1.0)])
def test_ring_picks_are_the_rings_of_ring_draws(trials, t_end):
    # on one stream the picks are the rings of a full draw, whose times follow
    # them: inf exactly where the idle ring pads, sorted uniforms on [0, t_end]
    rates = _ring_rates(ring_table(4, "symplectic"), (F(1, 2), F(1, 3)))
    picks = _ring_picks(rates, t_end, trials, np.random.default_rng(17))
    rings, times = _ring_draws(rates, t_end, trials, np.random.default_rng(17))
    assert picks.shape == rings.shape == times.shape and picks.shape[0] == trials
    assert picks.tobytes() == rings.tobytes()
    idle = rings == len(rates)
    assert (idle == (np.arange(rings.shape[1]) >= (~idle).sum(axis=1)[:, None])).all()
    assert np.isinf(times[idle]).all()
    assert ((times[~idle] >= 0) & (times[~idle] <= t_end)).all()
    assert (times[:, 1:] >= times[:, :-1]).all()
