import dataclasses
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from gtpush import dynamics, intertwine, kernels, schur
from gtpush.cli import cli_dispatch
from gtpush.intertwine import (
    TOL_FLOOR,
    build_intertwining_case,
    run_intertwine_case,
    semigroup,
    semigroup_intertwining_gap,
    verify_conservative,
    verify_generator_intertwining,
    verify_harmonicity,
    verify_integrating_out,
    verify_kernel_intertwining,
    verify_schur_sums,
)
from gtpush.patterns import STANDARD, SYMPLECTIC

from _oracles import (dense_semigroup, fraction_row_sums, semigroup_gap_by_support,
                      verify_intertwining_fractions)

Q2 = (F(1, 2), F(1, 3))
Q3 = (F(1, 2), F(1, 3), F(1, 5))
Q4 = Q3 + (F(1, 7),)


def test_poisson_intertwining_passes():
    rep = run_intertwine_case("poisson", 1, Q2, 6)
    assert rep.passed and not rep.violations
    assert rep.states_checked > 0


def test_poisson_intertwining_detects_perturbation():
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 6)
    src = ((1,), (0, 2))
    tgt = ((2,), (0, 2))
    rep = verify_generator_intertwining(q_y, lam, _moved(gen, [(src, tgt, 1)], "moved"))
    assert not rep.passed
    assert any(right == tgt for _, right, _, _ in rep.violations)
    assert rep.max_discrepancy > 0
    doc = json.loads(rep.to_json())
    assert doc["status"] == "fail" and len(doc["violations"]) == len(rep.violations)
    assert [[2], [0, 2]] in [v["right"] for v in doc["violations"]]


def _same_report(case, q_y, lam, coupling, interior_only):
    """Run the check and the Fraction oracle; both reports must agree."""
    new = intertwine._check_intertwining(q_y, lam, coupling, case, interior_only)
    ref = verify_intertwining_fractions(q_y, lam, coupling, case, interior_only)
    assert (new.states_checked, new.violations, new.max_discrepancy, new.status) == \
        (ref.states_checked, ref.violations, ref.max_discrepancy, ref.status)
    assert new.to_json() == ref.to_json()
    return new


def _moved(op, moves, label):
    """Copy of a sparse operator with entry (s, t) moved by d for each (s, t, d)."""
    rows = dict(op.rows)
    for s, t, d in moves:
        rows[s] = {**rows[s], t: rows[s][t] + d}
    return type(op)(op.states, rows, op.bound, f"{op.label} {label}")


@pytest.mark.parametrize("case,bound", [
    ("poisson", 5), ("wall-odd-even", 6), ("wall-even-odd", 5), ("geometric", 5)])
def test_integer_row_sums_match_the_fraction_oracle(case, bound):
    """The check and its Fraction oracle give equal reports on the case and on
    perturbed operators; in 20 seeded interior rows the coupling's entry at a
    charged pair moves off the diagonal by 1/97, and separately the marginal's
    diagonal moves by -1/97.  Each move must show exactly where it lands."""
    q_y, gen, lam, checker = build_intertwining_case(case, 2, Q3 + (F(1, 7),), bound)
    interior_only = checker is verify_generator_intertwining
    assert _same_report(case, q_y, lam, gen, interior_only).passed
    rng = np.random.default_rng(1200 + bound)
    inner = q_y.interior_states()
    rows = [inner[i] for i in rng.choice(len(inner), size=20, replace=False)]
    off, expected_off, diag, expected_diag = [], set(), [], set()
    for y in rows:
        charged = [pair for pair, mass in lam.support(y) if mass]
        pair = charged[rng.integers(len(charged))]
        targets = sorted(t for t in gen.row(pair) if t != pair)
        target = targets[rng.integers(len(targets))]
        off.append((pair, target, F(1, 97)))
        expected_off.add((y, target))
        diag.append((y, y, F(-1, 97)))
        expected_diag |= {(y, pair) for pair in charged}
    for broken_y, broken_gen, expected in ((q_y, _moved(gen, off, "off-diagonal"), expected_off),
                                           (_moved(q_y, diag, "diagonal"), gen, expected_diag)):
        rep = _same_report(case, broken_y, lam, broken_gen, interior_only)
        assert {(y, key) for y, key, _, _ in rep.violations} == expected


def test_a_rows_violations_are_listed_by_key():
    """Two moved steps of one marginal row fail every key over both targets;
    the report lists them by key (x', y'), as the oracle does, not in the
    order of the pairs, which runs by y' first."""
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 6)
    y = (1, 3)
    moved = _moved(q_y, [(y, t, F(1, 97)) for t in ((2, 3), (1, 4))], "two steps")
    keys = [key for _, key, _, _ in _same_report("poisson", moved, lam, gen, True).violations]
    assert keys == sorted(keys) != sorted(keys, key=gen.states.index)


def _exact_terms(case, n, bound):
    """A case's operators and the terms of its exact sums, every checked
    source row in the mask."""
    q_y, gen, lam, checker = build_intertwining_case(case, n, Q4, bound)
    interior_only = checker is verify_generator_intertwining
    sources = np.array([not interior_only or q_y.is_interior(y) for y in q_y.states])
    terms = intertwine._intertwining_terms(q_y, lam, gen, sources)
    return q_y, gen, lam, checker, sources, terms


def _moved_entry(op, entry, delta, label):
    """Copy of an operator kept as arrays with one entry, whose ratio of Schur
    integers is 1, moved by delta through a constant of its own."""
    r = op.ratios
    ci = r.ci.copy()
    ci[entry] = len(r.const)
    ratios = kernels._Ratios(r.src, r.dst, ci, r.const + (r.const[r.ci[entry]] + delta,), r.h, r.hs)
    return type(op)._of(op.states, ratios, op.bound, f"{op.label} {label}")


def _clearing_lcm(*ops):
    """D, the lcm of the denominators of the operators' constants."""
    return math.lcm(*(c.denominator for op in ops for c in op.ratios.const))


def _origin_entry(q_y, gen):
    """(place of the pair of zeros over Y's first state, the coupling's
    diagonal entry there)."""
    origin = gen.states.index(((0,) * len(gen.states[0][0]), tuple(q_y.states[0])))
    return origin, int(np.flatnonzero((gen.ratios.src == origin) & (gen.ratios.dst == origin))[0])


@pytest.mark.parametrize("case,n,bound", [
    (case, n, bound) for case in ("poisson", "wall-odd-even", "wall-even-odd", "geometric")
    for n, bound in ((1, 5), (2, 4))])
def test_each_key_sum_is_the_fraction_oracles_difference(case, n, bound):
    """For every compared key (y, (x, y')), the exact sum of its terms times
    N_X(x) is N_Y(y) D (lhs - rhs), lhs and rhs summed by the Fraction
    oracle: on the case, where every sum is 0 with the oracle's comparison
    count per row, and on a copy with the coupling's diagonal at the pair of
    zeros moved by 1/97, where only row 0 fails."""
    q_y, gen, lam, _, sources, terms = _exact_terms(case, n, bound)
    _, n_x, n_y = lam.on_box(bound)
    origin, entry = _origin_entry(q_y, gen)
    moved = _moved_entry(gen, entry, F(1, 97), "moved")
    moved_terms = intertwine._intertwining_terms(q_y, lam, moved, sources)
    for coupling, t in ((gen, terms), (moved, moved_terms)):
        d = _clearing_lcm(q_y, coupling)
        assert sorted({k // len(coupling.states) for k in t.failing}) == [0] * (coupling is moved)
        sums = dict(zip(t.keys.tolist(), t.sums))
        assert (sums[origin] != 0) == (coupling is moved)  # row 0, key (0, pair of zeros)
        for i in np.flatnonzero(sources).tolist():
            lhs, rhs = fraction_row_sums(q_y, lam, coupling, q_y.states[i])
            assert np.count_nonzero(t.keys // len(coupling.states) == i) == \
                len(lhs.keys() | rhs.keys())
            for pair in lhs.keys() | rhs.keys():
                at = coupling.states.index(pair)
                diff = lhs.get(pair, 0) - rhs.get(pair, 0)
                assert sums[i * len(coupling.states) + at] * n_x[coupling.ratios.hs[at]] == \
                    n_y[i] * d * diff, (q_y.states[i], pair)


# the nine largest primes below 2**31, largest first
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
          2147483543, 2147483497, 2147483489)


@pytest.mark.parametrize("case", ["poisson", "wall-odd-even", "wall-even-odd", "geometric"])
@pytest.mark.parametrize("hidden", ["first prime", "all primes but the last"])
def test_a_hidden_multiple_of_the_primes_is_caught(case, hidden):
    """The coupling's diagonal entry at the pair of zeros moves by m / D, m
    the first of ``PRIMES`` or the product of all of them but the last (248
    bits, far past 2**62): a difference that a check in residues modulo
    those primes would not see.  The key's exact sum is -m, it is the one
    failing key, and the report equals the Fraction oracle's."""
    q_y, gen, lam, checker, sources, _ = _exact_terms(case, 2, 4)
    origin, entry = _origin_entry(q_y, gen)
    m = PRIMES[0] if hidden == "first prime" else math.prod(PRIMES[:-1])
    d = _clearing_lcm(q_y, gen)
    moved = _moved_entry(gen, entry, F(m, d), hidden)
    assert _clearing_lcm(q_y, moved) == d
    moved_terms = intertwine._intertwining_terms(q_y, lam, moved, sources)
    assert moved_terms.keys[0] == origin  # row 0, key (0, pair of zeros)
    assert moved_terms.sums[0] == -m and not moved_terms.sums[1:].any()
    assert list(moved_terms.failing) == [origin]
    interior_only = checker is verify_generator_intertwining
    rep = checker(q_y, lam, moved, case=case)
    ref = verify_intertwining_fractions(q_y, lam, moved, case, interior_only)
    assert [(y, key) for y, key, _, _ in rep.violations] == [(q_y.states[0], gen.states[origin])]
    assert (rep.states_checked, rep.violations, rep.max_discrepancy, rep.status) == \
        (ref.states_checked, ref.violations, ref.max_discrepancy, ref.status)
    assert rep.to_json() == ref.to_json()


def test_a_case_builds_its_pairs_once():
    """The coupling builder and the check of one case read one build of the
    case's two-row pairs."""
    for case in ("poisson", "wall-odd-even", "wall-even-odd", "geometric"):
        schur.clear_caches()
        assert run_intertwine_case(case, 2, Q4, 4).passed
        assert kernels._pairs.cache_info().misses == 1, case


def test_reading_rows_leaves_the_check_on_the_arrays(monkeypatch):
    """Reading .rows, as perfbench's operator count does, leaves the check as
    it was: it reads the arrays alone and never forms a row, on the case
    and on a copy with one coupling entry moved, whose report is the
    oracle's."""
    q_y, gen, lam, _ = build_intertwining_case("poisson", 2, Q4, 4)
    src = ((1, 1), (0, 1, 2))
    tgt = ((1, 2), (0, 1, 2))
    broken = _moved(gen, [(src, tgt, F(1, 97))], "moved")
    before = [verify_generator_intertwining(q_y, lam, op).to_json() for op in (gen, broken)]
    assert before[1] == verify_intertwining_fractions(q_y, lam, broken, "", True).to_json()
    for op in (q_y, gen, broken):
        assert sum(len(row) for row in op.rows.values()) == len(op.ratios.src)

    def no_row(op, s):
        raise AssertionError(f"a check formed row {s} of {op.label}")

    monkeypatch.setattr(kernels._SparseOperator, "row", no_row)
    after = [verify_generator_intertwining(q_y, lam, op).to_json() for op in (gen, broken)]
    assert after == before
    assert json.loads(before[0])["status"] == "pass" and json.loads(before[1])["status"] == "fail"


def test_an_operator_off_the_case_is_refused():
    """A marginal that is not on the states of Y's box, or a coupling that is
    not on the case's pairs, is refused rather than compared."""
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 5)
    refused = "a poisson check at bound 5 needs the marginal on the states of row Y"
    with pytest.raises(ValueError, match=refused + ".*'charlier n=1' and 'coupling-poisson n=1'"):
        verify_generator_intertwining(kernels.q_charlier(1, Q2[:1], 5), lam, gen)
    other = build_intertwining_case("poisson", 1, Q2, 4)[1]
    with pytest.raises(ValueError, match=refused + ".*'charlier n=2' and 'coupling-poisson n=1'"):
        verify_generator_intertwining(q_y, lam, other)


def test_wall_odd_even_intertwining_passes():
    rep = run_intertwine_case("wall-odd-even", 1, (F(1, 2),), 6)
    assert rep.passed


def test_wall_even_odd_intertwining_passes():
    rep = run_intertwine_case("wall-even-odd", 1, Q2, 6)
    assert rep.passed


def test_kernel_intertwining_passes_small():
    rep = run_intertwine_case("geometric", 1, Q2, 6)
    assert rep.passed and not rep.violations


def test_kernel_intertwining_detects_broken_factor():
    p_y, step, lam, _ = build_intertwining_case("geometric", 1, Q2, 6)
    src = ((0,), (0, 0))
    tgt = ((1,), (0, 2))
    rep = verify_kernel_intertwining(p_y, lam, _moved(step, [(src, tgt, step.prob(src, tgt))],
                                                      "doubled"))
    assert not rep.passed


def test_intertwinings_one_level_deeper():
    # climb the row-by-row induction a step beyond the smallest cases
    q4 = Q3 + (F(1, 7),)
    assert run_intertwine_case("poisson", 3, q4, 5).passed
    assert run_intertwine_case("wall-even-odd", 2, q4, 5).passed
    assert run_intertwine_case("wall-odd-even", 3, q4, 4).passed


def test_verify_conservative_symplectic_family():
    for n in (1, 2, 3, 4):
        k = (n + 1) // 2
        rep = verify_conservative(kernels.q_symplectic(n, Q2[:k], 6))
        assert rep.passed, f"n={n}"


def test_verify_conservative_flags_missing_entry():
    gen = kernels.q_symplectic(2, (F(1, 2),), 6)
    rows = dict(gen.rows)
    rows[(2,)] = {t: v for t, v in rows[(2,)].items() if t != (3,)}
    broken = kernels.SparseGenerator(gen.states, rows, gen.bound)
    rep = verify_conservative(broken)
    assert not rep.passed and rep.states_checked == verify_conservative(gen).states_checked
    assert rep.violations == [((2,), (2,), -gen.rate((2,), (3,)), 0)]


@pytest.mark.parametrize("case,n,rates,comparisons", [
    ("poisson", 1, 3, 217), ("poisson", 2, 3, 1470),
    ("wall-odd-even", 1, 2, 76), ("wall-odd-even", 2, 2, 882), ("wall-even-odd", 1, 2, 350),
])
def test_generator_intertwinings_hold_at_boundary_sources(case, n, rates, comparisons):
    # criteria 1 and 3 at every in-box source: the interior filter only saves time
    q_y, gen, lam, _ = build_intertwining_case(case, n, (Q3 + (F(1, 7),))[:rates], 6)
    rep = _same_report(case, q_y, lam, gen, interior_only=False)
    assert rep.passed and rep.states_checked == comparisons


def _without_cascade(table):
    return dataclasses.replace(table, push=(table.idle,) * len(table.push))


def _without_blocker(table):
    never = table.particle[table.idle]  # the slot that always holds NEVER
    return dataclasses.replace(table, blocker=(never,) * len(table.blocker))


@pytest.mark.parametrize("mutant,violations", [
    (_without_cascade, (105, 75, 175)), (_without_blocker, (105, 65, 126)),
], ids=["no-push-cascade", "blocker-ignored"])
def test_the_exact_checks_run_the_simulators_engine(monkeypatch, mutant, violations):
    # the continuous coupling generators are read off dynamics.run_rings, so an
    # engine that never pushes, or never blocks, fails every generator case
    run_rings = dynamics.run_rings
    monkeypatch.setattr(kernels, "run_rings",
                        lambda table, start, rings: run_rings(mutant(table), start, rings))
    reports = [run_intertwine_case(case, 2, Q3 + (F(1, 7),), 5)
               for case in ("poisson", "wall-odd-even", "wall-even-odd")]
    assert [(len(rep.violations), rep.states_checked) for rep in reports] == \
        list(zip(violations, (469, 320, 707)))


def test_report_json_round_trip():
    rep = run_intertwine_case("poisson", 1, Q2, 5)
    doc = json.loads(rep.to_json())
    assert doc["status"] == "pass"
    assert doc["violations"] == []
    assert doc["states_checked"] == rep.states_checked


@pytest.mark.parametrize("owner,name,mutate,expected", [
    # pushing factor doubled at u = v = 3: the lemma fails at u' = v2 = 3, v1' = 0..3
    (kernels, "pushing_factor",
     lambda f: lambda u, v, q: 2 * f(u, v, q) if u == v == 3 else f(u, v, q), (0, 0, 4)),
    # the determinant oracle shifted at one row
    (schur, "schur_oracle", lambda f: lambda z, q: f(z, q) + (tuple(z) == (0, 1)), (1, 0, 0)),
    # one Schur value perturbed: harmonicity fails at x = (1, 2) and at the two x
    # one step below it, and the recursion no longer matches its oracles there
    (schur, "schur", lambda f: lambda z, q: f(z, q) + (tuple(z) == (1, 2)), (1, 3, 0)),
    # the box pass's integer at the zero row of every box, 3 standard and 6
    # symplectic: only the Schur sweep reads it
    (schur, "exact_values",
     lambda f: lambda *args: (lambda scale, n: (scale, [n[0] + 1, *n[1:]]))(*f(*args)), (9, 0, 0)),
], ids=["pushing", "oracle", "harmonic", "box"])
def test_algebra_sweeps_report_mutants(monkeypatch, capsys, owner, name, mutate, expected):
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    reports = [verify_schur_sums(Q3, 3, 3), verify_harmonicity(Q3, 3, 3),
               verify_integrating_out(Q3[0], 4)]
    assert tuple(len(r.violations) for r in reports) == expected
    code = cli_dispatch(["verify", "algebra", "--q", "1/2,1/3,1/5", "--max-entry", "3",
                         "--max-rows", "3", "--lemma-max", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "fail" and doc["mismatches"] == sum(expected)


def test_semigroup_identity_at_time_zero():
    gen = kernels.q_charlier(2, Q2, 5)
    p0 = semigroup(gen, 0, 1e-12)
    for i, s in enumerate(gen.states):
        assert np.allclose(p0.row(s), np.eye(len(gen.states))[i])


def test_semigroup_single_walker_poisson_law():
    gen = kernels.q_charlier(1, (F(1, 2),), 40)
    p = semigroup(gen, 2, 1e-14)
    for k in range(12):
        assert p.prob((0,), (k,)) == pytest.approx(
            math.exp(-1.0) * 1.0 ** k / math.factorial(k), abs=1e-12
        )


@pytest.mark.parametrize("family,height", [("charlier", 1), ("charlier", 2), ("charlier", 3),
                                           ("symplectic", 2), ("symplectic", 3),
                                           ("symplectic", 4)])
@pytest.mark.parametrize("rates", [(F(1, 2), F(1, 3)), (F(3, 2), F(5, 4))])
def test_semigroup_rows_match_dense_series(family, height, rates):
    # the propagated rows against whole matrix powers of the same series, with
    # rates below and above 1
    if family == "charlier":
        gen = kernels.q_charlier(height, (rates * 2)[:height], 6)
    else:
        gen = kernels.q_symplectic(height, rates[: (height + 1) // 2], 6)
    for t in (F(1, 3), 2):
        p = semigroup(gen, t, 1e-14)
        dense = dense_semigroup(gen, t, 1e-14)
        assert p.states == gen.states
        for i, s in enumerate(gen.states):
            assert np.max(np.abs(p.row(s) - dense[i])) <= 1e-15


@pytest.mark.parametrize("kind,height,qs", [(STANDARD, 3, Q3), (SYMPLECTIC, 4, Q2)],
                         ids=["poisson n=3", "wall n=4"])
def test_semigroup_reads_an_exact_generator_as_its_float_form(kind, height, qs):
    # one path: an exact generator and its entries in floats, row by row,
    # give bit-identical semigroup rows
    gen = kernels.row_generator(kind, height, qs, 8)
    index = {s: i for i, s in enumerate(gen.states)}
    entries = [(index[s], index[s2], float(v)) for s in gen.states for s2, v in gen.row(s).items()]
    p_exact = semigroup(gen, F(1, 2), 1e-14)
    p_float = semigroup(kernels.FloatKernel(gen.states, *zip(*entries)), F(1, 2), 1e-14)
    for s in gen.states:
        assert np.array_equal(p_exact.row(s), p_float.row(s))


def test_semigroup_rejects_bad_tolerance():
    gen = kernels.q_charlier(1, (F(1, 2),), 5)
    with pytest.raises(ValueError):
        semigroup(gen, 1, 0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        semigroup(gen, 1, float("nan"))  # NaN would stop uniformization after one term
    with pytest.raises(ValueError):
        semigroup(gen, -1, 1e-8)
    with pytest.raises(ValueError, match="t must be nonnegative, got t = nan"):
        semigroup(gen, float("nan"), 1e-8)  # no time, as a negative one is none
    # positive, but below the double epsilon, to which no float sum of the
    # weights can be held (at t = 5 their sum stays 1.1e-16 short of 1)
    with pytest.raises(ValueError, match=r"tol = 1e-300 is below 2\.22e-16"):
        semigroup(gen, 5, 1e-300)
    with pytest.raises(ValueError, match="is below"):
        semigroup(gen, 5, TOL_FLOOR / 2)
    semigroup(gen, 5, TOL_FLOOR)
    # at the floor, a sum that rounds 3 ulps short of 1 is cut off by the term guard
    with pytest.raises(RuntimeError, match="uniformization failed to converge"):
        semigroup(gen, 5.5, TOL_FLOOR)


def test_semigroup_refuses_a_subnormal_first_weight():
    # exp(-theta*t) is subnormal past theta*t = 708.4: its few bits made the
    # weights sum to 1.000078 at t = 1480 and stall short of 1 at t = 1440
    gen = kernels.q_charlier(1, (F(1, 2),), 5)  # theta = 1/2
    for t in (1440, 1480):
        with pytest.raises(RuntimeError, match="underflow limit.*about 708"):
            semigroup(gen, t, 1e-14)
    assert abs(sum(semigroup(gen, 1416.7, 1e-14).weights) - 1.0) < 1e-14  # theta*t = 708.35


def test_unknown_intertwining_case_refused():
    with pytest.raises(ValueError, match="unknown case 'brownian'"):
        build_intertwining_case("brownian", 1, Q2, 4)


def test_semigroup_chapman_kolmogorov():
    tol = 1e-12
    gen = kernels.q_charlier(2, Q2, 10)
    ps = semigroup(gen, F(1, 4), tol)
    pt = semigroup(gen, F(3, 4), tol)
    pst = semigroup(gen, 1, tol)
    for x in gen.states:
        assert np.max(np.abs(pt.propagate(ps.row(x)) - pst.row(x))) < 10 * tol


def test_semigroup_interior_rows_nearly_stochastic():
    gen = kernels.q_charlier(2, Q2, 12)
    p = semigroup(gen, F(1, 2), 1e-12)
    assert abs(p.row((0, 0)).sum() - 1.0) < 1e-10


def test_semigroup_intertwining_gap_small_case():
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 8)
    gap = semigroup_intertwining_gap(q_y, gen, lam, F(1, 4), 1e-10)
    assert gap < 1e-8


@pytest.mark.parametrize("case,n,q,bound,t,tol", [
    *(("poisson", 1, Q2, bound, t, 1e-10) for bound in (8, 12) for t in (F(1, 4), F(1, 2), 2)),
    ("poisson", 2, Q3, 8, F(1, 2), 1e-10),
    ("wall-odd-even", 1, (F(1, 2),), 16, F(1, 2), 1e-12),
    ("wall-even-odd", 1, Q2, 16, F(1, 2), 1e-12),
])
def test_semigroup_gap_is_the_gap_of_lambdas_support(case, n, q, bound, t, tol):
    """Lambda read off the case's Schur integers gives the gap of Lambda read
    state by state from ``LambdaKernel.support``, to the last bit."""
    q_y, gen, lam, _ = build_intertwining_case(case, n, q, bound)
    gap = semigroup_intertwining_gap(q_y, gen, lam, t, tol)
    assert gap == semigroup_gap_by_support(q_y, gen, lam, t, tol) and gap < 1e-8


def test_semigroup_gap_sees_a_moved_coupling_entry():
    # one coupling entry moved by 1/97, as the benchmark's non-vacuity check
    # moves one, opens the gap past the 1e-8 gate
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 8)
    moved = _moved(gen, [(((1,), (0, 2)), ((2,), (0, 2)), F(1, 97))], "moved")
    gap = semigroup_intertwining_gap(q_y, moved, lam, F(1, 2), 1e-10)
    assert gap == semigroup_gap_by_support(q_y, moved, lam, F(1, 2), 1e-10)
    assert gap >= 1e-8


def test_semigroup_gap_refuses_operators_off_the_case():
    """A coupling or a marginal built at another bound is refused by the gap
    with the exact check's own ValueError, where reading Lambda state by
    state raises a KeyError for the one and measures the other."""
    q_y, gen, lam, _ = build_intertwining_case("poisson", 1, Q2, 8)
    q_y6, gen6, _, _ = build_intertwining_case("poisson", 1, Q2, 6)
    for marginal, coupling in [(q_y, gen6), (q_y6, gen)]:
        with pytest.raises(ValueError, match="needs the marginal on the states of row Y") as exact:
            verify_generator_intertwining(marginal, lam, coupling)
        with pytest.raises(ValueError) as gap:
            semigroup_intertwining_gap(marginal, coupling, lam, F(1, 2), 1e-10)
        assert str(gap.value) == str(exact.value)
    with pytest.raises(KeyError):
        semigroup_gap_by_support(q_y, gen6, lam, F(1, 2), 1e-10)
    assert 0 < semigroup_gap_by_support(q_y6, gen, lam, F(1, 2), 1e-10) < 1e-6


def test_semigroup_intertwining_extends_to_wall_cases():
    # every exactly-intertwined generator pair stays intertwined after
    # uniformization; the conditioned wall chains drift away from the origin,
    # so the box must outrun the drift over the horizon
    for case, q in [("wall-odd-even", (F(1, 2),)), ("wall-even-odd", Q2)]:
        q_y, gen, lam, _ = build_intertwining_case(case, 1, q, 16)
        gap = semigroup_intertwining_gap(q_y, gen, lam, F(1, 2), 1e-12)
        assert gap < 1e-8, case
