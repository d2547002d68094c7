"""Exact verification of kernel intertwinings, conservativeness, the
uniformized semigroup consequence, and the Schur identities behind them.

Generator checks compare Q_Y(y, y') m(x', y') against sum_x m(x, y) A((x,y),(x',y'))
entry by entry in exact rational arithmetic, and the kernel (discrete-step)
check the same sums for one step.  Truncation drops the same targets on both
sides, so both hold at every in-box source; the generator checks skip
sources with a coordinate at the bound only to save time (at n = 3, bound 8
they would add about 70%).  Each check sweep here returns a
``VerificationReport`` and is the one the command line and the tests run.

Every check sums exact integers over the operators' arrays
(``kernels._Ratios``), each operator first taken onto Lambda's Schur
integers.  Every term of a comparison in source row y is an integer
D c t^e times N_X(x) / (D N_Y(y)), D the lcm of the denominators of the
operators' constants, and that positive factor is the same for every term
of one compared key (``_intertwining_terms`` proves it), so a comparison
holds exactly when the integers of its two sides have equal sums
(``_Terms``), and a failing one reports both sums times that factor, exact
rationals.  The semigroup gap reads Lambda as these checks do, in floats,
and both refuse an operator off the case's states (``_case``).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels, schur
from .kernels import FloatKernel, LambdaKernel, SparseGenerator, StepKernel, _fmt_state
from .patterns import (STANDARD, SYMPLECTIC, chamber_states, enumerate_patterns, rates_of,
                       row_length, weight)


@dataclass
class VerificationReport:
    case: str
    states_checked: int = 0
    violations: list = field(default_factory=list)
    max_discrepancy: Fraction = Fraction(0)
    status: str = "pass"

    def record(self, left_state, right_state, lhs: Fraction, rhs: Fraction):
        self.violations.append((left_state, right_state, lhs, rhs))
        gap = abs(lhs - rhs)
        if gap > self.max_discrepancy:
            self.max_discrepancy = gap
        self.status = "fail"

    def check(self, left_state, right_state, lhs: Fraction, rhs: Fraction):
        """Count one comparison; record it as a violation unless lhs == rhs."""
        self.states_checked += 1
        if lhs != rhs:
            self.record(left_state, right_state, lhs, rhs)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        violations = [{"left": _fmt_state(a), "right": _fmt_state(b), "lhs": str(l), "rhs": str(r)}
                      for a, b, l, r in self.violations]
        return json.dumps({"case": self.case, "states_checked": self.states_checked,
                           "violations": violations,
                           "max_discrepancy": str(self.max_discrepancy),
                           "status": self.status}, indent=2)


# ---------------------------------------------------------------------------
# the comparisons as exact integer sums over the operators' arrays

class _Terms:
    """The comparisons of a sweep as exact integer sums, one per key.

    Term i belongs to comparison key[i], and is the integer
    prod_f table_f[index_f[i]] over the factors (table_f, index_f), a list
    of Python integers and an index array each.  Each distinct combination
    of factor indices is multiplied once, and the key sums gather those
    products, one pointer per term.  The first ``left`` terms make a key's
    left sum, and the rest, negated by their factors, its right sum.
    ``keys`` lists the keys in ascending order and ``sums`` each one's left
    sum minus its right sum; a comparison holds when that is 0.  ``failing``
    maps each key of nonzero sum, in ascending order, to its left and right
    sums times scale(key), the positive rational that makes them the
    compared values."""

    def __init__(self, key, factors, left: int, scale):
        order = np.argsort(key, kind="stable")
        keys = key[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else keys
        self.keys = keys[first]
        dims = [len(table) for table, _ in factors]
        combo = np.ravel_multi_index([index for _, index in factors], dims)[order]
        products = np.empty(math.prod(dims), dtype=object)
        used = np.flatnonzero(np.bincount(combo, minlength=len(products)))
        parts = ([table[i] for i in index.tolist()]
                 for (table, _), index in zip(factors, np.unravel_index(used, dims)))
        products[used] = np.array([math.prod(p) for p in zip(*parts)], dtype=object)
        terms = products[combo]
        self.sums = np.add.reduceat(terms, first) if len(keys) else products[:0]
        on_left = order < left
        ends = np.append(first[1:], len(keys))
        self.failing = {}
        for k in np.flatnonzero(self.sums != 0).tolist():
            lo, hi = first[k], ends[k]
            lhs = sum(terms[lo:hi][on_left[lo:hi]].tolist())
            at = int(self.keys[k])
            self.failing[at] = (lhs * scale(at), (lhs - self.sums[k]) * scale(at))


def _clearing(*ratios: kernels._Ratios) -> tuple[int, list[list[int]]]:
    """D, the lcm of the denominators of all the arrays' constants, and D
    times each constant as integers, per arrays."""
    d = math.lcm(*(c.denominator for r in ratios for c in r.const))
    return d, [[c.numerator * (d // c.denominator) for c in r.const] for r in ratios]


def _on(r: kernels._Ratios, h: list, hs: np.ndarray) -> kernels._Ratios:
    """The arrays r on the Schur integers h, state i at h[hs[i]]: r itself
    when it is on them already, as a builder's arrays are, and otherwise
    the same entries with entry e's constant c turned into c r.h(dst)
    h(src) / (r.h(src) h(dst)), one constant per distinct value."""
    if r.h == h and np.array_equal(r.hs, hs):
        return r
    const = {}
    ci = [const.setdefault(Fraction(num * h[a], den * h[b]), len(const))
          for (num, den), a, b in zip(r.integers(0, len(r.src)), hs[r.src].tolist(),
                                      hs[r.dst].tolist())]
    return kernels._Ratios(r.src, r.dst, np.array(ci, dtype=np.intp), const, h, hs)


def _case(op_y, lam: LambdaKernel, coupling) -> tuple:
    """The one reading of a two-row case at op_y's bound, Lambda(y, (x, y)) =
    t^(|y|-|x|) N_X(x) / N_Y(y): t, N_X, N_Y (``LambdaKernel.on_box``), the
    pairs, each pair's place among X's and Y's states, and its |y| - |x|.
    ValueError unless op_y is on Y's box and the coupling on the pairs."""
    bound = op_y.bound
    pairs, flat, xs, ys = kernels._pairs(lam.kind, lam.y_row, lam.qs, bound)
    if op_y.states != chamber_states(len(lam.qs), bound) or coupling.states != pairs:
        raise ValueError(f"a {lam.variant} check at bound {bound} needs the marginal on the "
                         f"states of row Y and the coupling on the pairs: got "
                         f"{op_y.label!r} and {coupling.label!r}")
    n = flat.shape[1] - len(lam.qs)
    return (*lam.on_box(bound), pairs, xs, ys, flat[:, n:].sum(axis=1) - flat[:, :n].sum(axis=1))


def _intertwining_terms(op_y, lam: LambdaKernel, coupling, sources: np.ndarray) -> _Terms:
    """The comparisons of (op_y Lambda)(y, .) = (Lambda coupling)(y, .) at the
    rows y of sources (a mask over op_y's states), as ``_Terms`` keyed by
    row * (number of pairs) + pair, on the case as ``_case`` reads it, each
    operator taken onto Lambda's Schur integers (``_on``) for the terms below.

    Lambda(y, x) = t^(|y|-|x|) N_X(x) / N_Y(y) (``LambdaKernel.on_box``), and
    each entry of either operator is c N(target) / N(source), c one of its
    constants; D is the lcm of the denominators of both operators' constants.
      - A left term op_y(y, y2) Lambda(y2, x2) is c N_Y(y2) / N_Y(y) times
        t^e N_X(x2) / N_Y(y2), that is D c t^e N_X(x2) / (D N_Y(y)).
      - A right term Lambda(y, x) coupling((x, y), (x', y')) is t^e N_X(x) /
        N_Y(y) times c N_X(x') / N_X(x), that is D c t^e N_X(x') / (D N_Y(y)).
    Either way N_X is taken at the x of the term's own key, so a key's
    lhs and rhs are N_X(x_key) / (D N_Y(y)) times the sums of the integers
    D c t^e of its left and of its right terms.  Schur integers at positive
    rates are positive, so the key holds exactly when the two sums are
    equal, and N_X is no factor of a term."""
    t, n_x, n_y, pairs, xs, ys, rise = _case(op_y, lam, coupling)
    a = _on(op_y.ratios, n_y, np.arange(len(n_y)))
    g = _on(coupling.ratios, n_x, xs)
    over_y = np.searchsorted(ys, np.arange(len(n_y) + 1))  # pairs over y: over_y[y]...
    left = np.flatnonzero(sources[a.src])  # op_y(y, y2), then each pair over y2
    counts = np.diff(over_y)[a.dst[left]]
    left = np.repeat(left, counts)
    left_pair = over_y[a.dst[left]] + kernels._ramp(counts)
    right = np.flatnonzero(sources[ys[g.src]])  # Lambda(y, x), then coupling((x, y), .)
    row = np.r_[a.src[left], ys[g.src[right]]]
    d, (c_y, c_g) = _clearing(a, g)
    factors = [(c_y + [-c for c in c_g], np.r_[a.ci[left], len(c_y) + g.ci[right]]),
               ([t ** e for e in range(int(rise.max()) + 1)],
                np.r_[rise[left_pair], rise[g.src[right]]])]
    key = row * len(pairs) + np.r_[left_pair, g.dst[right]]
    scale = lambda k: Fraction(n_x[xs[k % len(pairs)]], d * n_y[k // len(pairs)])
    return _Terms(key, factors, len(left), scale)


def _check_intertwining(op_y, lam: LambdaKernel, coupling, case: str,
                        interior_only: bool) -> VerificationReport:
    """Compare (op_y Lambda)(y, .) with (Lambda coupling)(y, .) entrywise at
    every source row y, or every interior one, by the exact sums of
    ``_intertwining_terms``; op_y and coupling are both generators or both
    step kernels.  The report counts every compared key and records each
    failing one, in exact rationals, by source row and then by key."""
    report = VerificationReport(case or f"{op_y.label} ~ {coupling.label}")
    sources = np.array([not interior_only or op_y.is_interior(y) for y in op_y.states], bool)
    terms = _intertwining_terms(op_y, lam, coupling, sources)
    report.states_checked = len(terms.keys)
    failing = [(*divmod(k, len(coupling.states)), sides) for k, sides in terms.failing.items()]
    for i, p, (lhs, rhs) in sorted(failing, key=lambda v: (v[0], coupling.states[v[1]])):
        report.record(op_y.states[i], coupling.states[p], lhs, rhs)
    return report


def verify_generator_intertwining(
    q_y: SparseGenerator, lam: LambdaKernel, gen: SparseGenerator, case: str = ""
) -> VerificationReport:
    """Check Q_Y Lambda = Lambda A entrywise over interior source states."""
    return _check_intertwining(q_y, lam, gen, case, interior_only=True)


def verify_kernel_intertwining(
    p_y: StepKernel, lam: LambdaKernel, q_step: StepKernel, case: str = ""
) -> VerificationReport:
    """Check m(x',y') p_Y(y,y') = sum_x m(x,y) q((x,y),(x',y')) for all in-box
    sources and targets; each instance is a finite exact computation."""
    return _check_intertwining(p_y, lam, q_step, case, interior_only=False)


def build_intertwining_case(case: str, n: int, q, bound: int):
    """Assemble (marginal operator, coupling kernel/generator, Lambda, checker)
    for one intertwining case; q supplies at least the rates the case needs.
    The case's rows come from the variant table of ``kernels``: the lower row
    Y takes one rate per entry, and the upper row X above it has n entries."""
    if n < 1:
        raise ValueError(f"the upper row needs n >= 1 entries, got n = {n}")
    if case not in kernels._Y_ROW:
        raise ValueError(f"unknown case {case!r}")
    kind, y_row = kernels._Y_ROW[case]
    k = next(k for k in (n, n + 1) if row_length(y_row(k) - 1, kind) == n)
    ext = rates_of(rates_of(q)[:k], k, open_unit=case == kernels.GEOMETRIC)
    lam = LambdaKernel(case, ext)
    if case == kernels.GEOMETRIC:
        return (kernels.kernel_geometric(k, ext, bound),
                kernels.coupling_kernel_geometric(n, ext, bound), lam,
                verify_kernel_intertwining)
    return (kernels.row_generator(kind, y_row(k), ext, bound),
            kernels.coupling_generator(case, n, ext, bound), lam,
            verify_generator_intertwining)


def run_intertwine_case(case: str, n: int, q, bound: int) -> VerificationReport:
    q_y, gen, lam, checker = build_intertwining_case(case, n, q, bound)
    return checker(q_y, lam, gen, case=f"{case} n={n} bound={bound}")


def verify_conservative(gen: SparseGenerator, case: str = "") -> VerificationReport:
    """Interior rows must sum to exactly zero.  Each row sum is taken in
    integers (``_Terms``): with D the lcm of the constants' denominators,
    N(x) D times an entry c N(x') / N(x) is the integer D c N(x'), and a
    failing row reports that sum over D N(x)."""
    report = VerificationReport(case or f"conservative {gen.label}")
    r = gen.ratios
    inner = np.array([gen.is_interior(s) for s in gen.states], dtype=bool)
    at = np.flatnonzero(inner[r.src])
    d, (c,) = _clearing(r)
    terms = _Terms(r.src[at], [(c, r.ci[at]), (r.h, r.hs[r.dst[at]])], len(at),
                   lambda i: Fraction(1, d * r.h[r.hs[i]]))
    report.states_checked = int(inner.sum())
    for i, (lhs, rhs) in terms.failing.items():
        report.record(gen.states[i], gen.states[i], lhs, rhs)
    return report


def _sweep_rates(q, max_entry: int, max_rows: int, needed: int) -> tuple:
    """The rates of a sweep over rows of up to max_rows entries <= max_entry,
    which reads the first needed rates; ValueError before any sweep runs
    otherwise."""
    if max_entry < 0 or max_rows < 1:
        raise ValueError(f"max_entry must be >= 0 and max_rows >= 1, got {max_entry}, {max_rows}")
    qs = rates_of(q)
    if len(qs) < needed:
        raise ValueError(f"max_rows {max_rows} needs {needed} rates, got {len(qs)}")
    return qs


def verify_schur_sums(q, max_entry: int, max_rows: int) -> VerificationReport:
    """Four evaluations of each Schur value must agree exactly: the recursion,
    the determinant oracle, the raw pattern sum and the box pass
    (``schur.exact_values``, N / L^|z|) at every z with up to max_rows
    entries <= max_entry; then each symplectic value of heights 2k-1 and 2k
    against its pattern sum and the box pass, for k <= min(max_rows, 3) and
    entries <= min(max_entry, 3).  One comparison per value; its right side
    is an evaluation that disagrees with the first, if one does."""
    qs = _sweep_rates(q, max_entry, max_rows, max_rows)
    report = VerificationReport("schur = oracle = pattern sum")

    def box(kind, n, top):  # N / L^|z| over chamber_states(row_length(n, kind), top)
        scale, values = schur.exact_values(kind, n, qs, top)
        return [Fraction(v, scale ** sum(z))
                for z, v in zip(chamber_states(row_length(n, kind), top), values)]

    for n in range(1, max_rows + 1):
        for z, via_box in zip(chamber_states(n, max_entry), box(STANDARD, n, max_entry)):
            via_rec = schur.schur(z, qs[:n])
            others = (schur.schur_oracle(z, qs[:n]),
                      sum(weight(p, qs[:n]) for p in enumerate_patterns(z)), via_box)
            report.check(z, z, via_rec, next((v for v in others if v != via_rec), via_rec))
    top = min(max_entry, 3)
    for k in range(1, min(max_rows, 3) + 1):
        for n in (2 * k - 1, 2 * k):
            for z, via_box in zip(chamber_states(k, top), box(SYMPLECTIC, n, top)):
                via_rec = schur.sp_schur(n, z, qs[:k])
                raw = sum(weight(p, qs[:k]) for p in enumerate_patterns(z, SYMPLECTIC, nrows=n))
                right = next((v for v in (raw, via_box) if v != via_rec), via_rec)
                report.check(z, z, via_rec, right)
    return report


def verify_harmonicity(q, max_entry: int, max_rows: int) -> VerificationReport:
    """The conditioned walk's h is harmonic: sum_i h(x + e_i) over the moves
    that stay ordered equals (q_1 + ... + q_n) h(x), for n <= min(max_rows, 3)
    and every x with entries <= max_entry."""
    qs = _sweep_rates(q, max_entry, max_rows, min(max_rows, 3))
    report = VerificationReport("harmonicity of the conditioned-walk h")
    for n in range(1, min(max_rows, 3) + 1):
        sub_q = qs[:n]
        for x in chamber_states(n, max_entry):
            lhs = sum((schur.schur(x[:i] + (x[i] + 1,) + x[i + 1:], sub_q) for i in range(n)
                       if i == n - 1 or x[i] < x[i + 1]), Fraction(0))
            report.check(x, x, lhs, sum(sub_q) * schur.schur(x, sub_q))
    return report


def verify_integrating_out(q, lemma_max: int) -> VerificationReport:
    """The blocking/pushing integrating-out lemma at rate q: summing the
    driven particle's position u out of q^-u blocking(u, v1') pushing(u', v2)
    leaves q^-(u' + v2), for all 0 <= v1' <= min(v2, u') and v2, u' <= lemma_max."""
    if lemma_max < 0:
        raise ValueError(f"lemma_max must be >= 0, got {lemma_max}")
    q = Fraction(q)
    report = VerificationReport("blocking/pushing integrating-out lemma")
    for v1p in range(lemma_max + 1):
        for v2 in range(v1p, lemma_max + 1):
            for up in range(v1p, lemma_max + 1):
                total = sum(
                    q ** (-u) * kernels.blocking_factor(u, v1p, q)
                    for u in range(v1p, min(v2, up) + 1)
                ) * kernels.pushing_factor(up, v2, q)
                report.check((v1p, v2, up), (v1p, v2, up), total, q ** (-up - v2))
    return report


class Semigroup:
    """Time-t kernel sum_k w_k J^k over a box, one row at a time: a generator's
    uniformized series (J = I + Q/theta, Poisson weights w_k, ``semigroup``) or
    a step kernel's t-th power (J = K, w_t = 1 and every other w_k = 0).  A row
    is the start vector moved through the series, so no m x m matrix is formed.
    """

    def __init__(self, states, jump: FloatKernel | None, weights: list[float]):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self.jump = jump
        self.weights = weights

    def propagate(self, vec: np.ndarray) -> np.ndarray:
        """The row vector vec times the time-t kernel."""
        out = self.weights[0] * vec
        for w in self.weights[1:]:
            vec = self.jump.apply(vec)
            out += w * vec
        return out

    def row(self, s) -> np.ndarray:
        start = np.zeros(len(self.states))
        start[self.index[s]] = 1.0
        return self.propagate(start)

    def prob(self, s, s2) -> float:
        return float(self.row(s)[self.index[s2]])


TOL_FLOOR = float(np.finfo(float).eps)  # smallest tol of semigroup; see there


def semigroup(gen: SparseGenerator | FloatKernel, t, tol: float) -> Semigroup:
    """Time-t kernel of the truncated generator via uniformization.

    The generator is a float Q-matrix (``kernels.row_generator_float``), or
    an exact ``SparseGenerator`` first read into one row by row.  The
    Poissonized power series of the jump kernel is truncated once the
    remaining Poisson tail drops below tol.  Rows of the result are
    sub-stochastic near the box edge (mass killed at escape), and row sums at
    interior states are within the escape probability of 1.  Rows are
    computed on demand (``Semigroup.row``).

    The series stops once 1 - covered <= tol, covered being the float sum of
    the weights so far.  Doubles lie eps/2 apart just below 1 (eps = 2**-52,
    the double epsilon), so 1 - covered is a multiple of eps/2, and each
    addition rounds covered by up to eps/4: where the sum ends, within a few
    ulps of 1, depends on those roundings, not on tol.  A tol below TOL_FLOOR
    = eps asks the sum to end at most one ulp short of 1, closer than its own
    rounding can promise, and is refused.  A tol at or above it may still
    stall on a sum that rounds short (t = 5.5 on ``q_charlier(1, (1/2,),
    5)`` ends 3 ulps short), and the term guard raises a RuntimeError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol < TOL_FLOOR:
        raise ValueError(f"tol = {tol:g} is below {TOL_FLOOR:.4g} (the double epsilon), "
                         f"closer to 1 than a float sum of the weights can be held: "
                         f"tol must go up")
    tf = float(t)
    if not tf >= 0:  # a NaN time is no time either
        raise ValueError(f"t must be nonnegative, got t = {t}")
    if isinstance(gen, SparseGenerator):
        gen = gen.float_kernel()
    states = gen.states
    theta = float(np.max(-gen.val[gen.src == gen.dst], initial=0.0))
    if theta == 0.0 or tf == 0.0:
        return Semigroup(states, None, [1.0])
    diag = np.arange(len(states))  # the identity of J, as entries of its own
    jump = FloatKernel(states, np.append(gen.src, diag), np.append(gen.dst, diag),
                       np.append(gen.val / theta, np.ones(len(states))))
    lam = theta * tf
    w = math.exp(-lam)
    if w < sys.float_info.min:  # a subnormal first weight carries too few bits
        raise RuntimeError(f"theta*t = {lam:.4g} is past the underflow limit of uniformization "
                           f"(exp(-theta*t) is subnormal beyond about 708): "
                           f"the time t must come down")
    weights = [w]
    covered = w
    max_terms = int(lam + 20 * math.sqrt(lam + 1) + 60)
    while 1.0 - covered > tol:
        if len(weights) > max_terms:
            raise RuntimeError("uniformization failed to converge; raise tol or lower the bound")
        w *= lam / len(weights)
        covered += w
        weights.append(w)
    return Semigroup(states, jump, weights)


def semigroup_intertwining_gap(
    q_y: SparseGenerator,
    gen: SparseGenerator,
    lam: LambdaKernel,
    t,
    tol: float,
) -> float:
    """Max |(delta_y P_t) Lambda - (delta_y Lambda) Q_t| over the sources y of
    the deep interior (coordinates <= bound/4), where the probability of
    reaching the truncation edge by time t is negligible: two propagations
    per source, the second from Lambda's row at y.  Lambda is read as the
    exact check reads it (``_case``), one correctly rounded float per pair."""
    rate, n_x, n_y, _, xs, ys, rise = _case(q_y, lam, gen)
    mass = np.array([rate ** e * n_x[x] / n_y[y]
                     for e, x, y in zip(rise.tolist(), xs.tolist(), ys.tolist())])
    p_t = semigroup(q_y, t, tol)
    q_t = semigroup(gen, t, tol)
    cut = q_y.bound // 4
    gap = 0.0
    for i, y in enumerate(q_y.states):
        if all(c <= cut for c in y):
            rhs = q_t.propagate(np.where(ys == i, mass, 0.0))
            gap = max(gap, float(np.max(np.abs(p_t.row(y)[ys] * mass - rhs))))
    return gap
