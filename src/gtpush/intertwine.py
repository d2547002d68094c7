"""Exact verification of kernel intertwinings, conservativeness, the
uniformized semigroup consequence, and the Schur-function identities behind
them.

Generator checks compare Q_Y(y, y') m(x', y') against sum_x m(x, y) A((x,y),(x',y'))
entry by entry in exact rational arithmetic, and the kernel (discrete-step)
check the same sums for one step.  Truncation drops the same targets on both
sides, so both hold at every in-box source; the generator checks skip
sources with a coordinate at the bound only to save time (at n = 3, bound 8
they would add about 70%).  Each check sweep here returns a
``VerificationReport`` and is the one the command line and the tests run.

While both operators are the builders' arrays (``kernels._Ratios``), a check
runs in residues.  Each source row y has a denominator known in advance,
M(y) = N_Y(y) D: N_Y(y) its Schur integer and D the lcm of the denominators
of the operators' constants, a divisor of L^E for the case's scale L (E = 1
for the generator cases and bound + 1 for the geometric one).  M(y) times
every term of row y is an integer product (``_intertwining_terms`` proves
it), so M(y) (lhs - rhs) is 0 once it is 0 modulo primes below 2**31 whose
product exceeds twice a bound on it; ``_Terms`` derives the prime count,
at most 9 at the benchmark's sizes.  A row with a nonzero residue is
compared again by the integer row sums of ``_verify_intertwining``: each
source row summed over one common denominator, which give every report, so
reports stay exact rationals.  An operator built from given rows, or whose
``rows`` were read, is checked by the row sums alone.
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
from .patterns import SYMPLECTIC, chamber_states, enumerate_patterns, rates_of, row_length, weight


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


def _verify_intertwining(op_y, lam: LambdaKernel, coupling, case: str,
                         interior_only: bool, only=None) -> VerificationReport:
    """Compare (op_y Lambda)(y, .) with (Lambda coupling)(y, .) entrywise, one
    source row y at a time (every state, or every interior one, or the
    states of only); op_y and coupling are both generators or both step
    kernels.  Each product is kept as an unreduced integer pair and a row is
    summed in integers over one common denominator L, the lcm of its product
    denominators: exact, with no gcd per addition.  A violation is recorded
    as a/L against b/L, the rationals a Fraction sum gives."""
    report = VerificationReport(case or f"{op_y.label} ~ {coupling.label}")
    for y in op_y.states if only is None else only:
        if interior_only and not op_y.is_interior(y):
            continue
        lhs_terms = []
        for y2, value in op_y.row(y).items():
            vn, vd = value.numerator, value.denominator
            lhs_terms += [((x2, y2), vn * mass.numerator, vd * mass.denominator)
                          for (x2, _), mass in lam.support(y2) if mass]
        rhs_terms = []
        for (x, _), mass in lam.support(y):
            if mass:
                mn, md = mass.numerator, mass.denominator
                rhs_terms += [(target, mn * value.numerator, md * value.denominator)
                              for target, value in coupling.row((x, y)).items()]
        dens = {d for _, _, d in lhs_terms} | {d for _, _, d in rhs_terms}
        common = math.lcm(*dens)
        scale = {d: common // d for d in dens}
        lhs, rhs = _row_sum(lhs_terms, scale), _row_sum(rhs_terms, scale)
        keys = lhs.keys() | rhs.keys()
        report.states_checked += len(keys)
        for key in sorted(k for k in keys if lhs.get(k, 0) != rhs.get(k, 0)):
            report.record(y, key, Fraction(lhs.get(key, 0), common),
                          Fraction(rhs.get(key, 0), common))
    return report


def _row_sum(terms, scale: dict) -> dict:
    """Sum the terms (key, num, den) per key as numerators over the row's
    common denominator L, where scale[den] = L // den."""
    sums: dict = {}
    for key, num, den in terms:
        sums[key] = sums.get(key, 0) + num * scale[den]
    return sums


# ---------------------------------------------------------------------------
# the same comparisons in residues modulo word-size primes

PRIME_BITS = 30  # every modulus exceeds 2**30, and products of two stay below 2**62


def _is_prime(m: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which no odd composite
    7 < m < 3,215,031,751 passes."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list[int]:
    """The count largest primes below 2**31, largest first."""
    out, m = [], 2 ** 31 - 1
    while len(out) < count:
        if _is_prime(m):
            out.append(m)
        m -= 2
    return out


def _mod(values, p: int) -> np.ndarray:
    return np.array([v % p for v in values], dtype=np.int64)


class _Terms:
    """The comparisons of a sweep as integer sums, certified in residues.

    Comparison key[i] holds when M(r) times the sum of its terms is 0, where
    r = row[i] is the source row the comparison belongs to and M(r) =
    denominator * schur[r] is a denominator known before any term is summed.
    M(r) times term i is the integer prod_f table_f[index_f[i]] over the
    factors (table_f, index_f), a list of Python integers and an index
    array each.

    The certificate.  D = M(r) (sum of a key's terms) is a sum of integer
    products, and |D| < B = 2**b (``bits``).  Its residue mod p is the sum
    of the products of the factors' residues, and it is 0 exactly when p
    divides D.  If it is 0 for k distinct primes, their product P divides D.
    With k = floor((b + 2) / PRIME_BITS) + 1, P > 2**(PRIME_BITS k) >
    2**(b + 2) = 4 B: twice the bound, and a spare factor 2 for the float
    rounding of b (below 1e-9 bits).  So |D| < P / 2 and D = 0.  That k is
    the prime count (``primes``): 9 or fewer at the benchmark's sizes, where
    b stays under 250.  No residue is divided, so a Schur integer that is 0
    mod p needs no other path.  A product of two residues stays below 2**62,
    and a key's sum of fewer than 2**32 of them below 2**63."""

    def __init__(self, rows: int, row, key, factors, denominator: int, schur: list):
        self.rows, self.row, self.key, self.factors = rows, row, key, factors
        self.denominator, self.schur = denominator, schur
        self.order = np.argsort(key, kind="stable")
        keys = key[self.order]
        self.first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else keys
        self.key_row = row[self.order[self.first]]

    def bits(self) -> float:
        """A b with |M(r) (sum of a key's terms)| < 2**b for every key: the
        largest term times the most terms of one key."""
        log2 = sum(np.array([math.log2(abs(v)) if v else -math.inf for v in table])[index]
                   for table, index in self.factors)
        most = int(np.diff(np.r_[self.first, len(self.key)]).max(initial=1))
        return max(float(np.max(log2, initial=-math.inf)) + math.log2(most), 0.0)

    def primes(self) -> list[int]:
        return _primes(int(self.bits() + 2) // PRIME_BITS + 1) if len(self.key) else []

    def sums(self, p: int) -> np.ndarray:
        """M(r) times the sum of each key, mod p, keys in ascending order."""
        res = None
        for table, index in self.factors:
            res = _mod(table, p)[index] if res is None else res * _mod(table, p)[index] % p
        return np.add.reduceat(res[self.order], self.first) % p

    def certify(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys per row, flagged rows): a row is certified when each of its
        keys sums to 0 modulo every prime, and flagged otherwise."""
        flagged = np.zeros(self.rows, dtype=bool)
        for p in self.primes():
            flagged[self.key_row[self.sums(p) != 0]] = True
        return np.bincount(self.key_row, minlength=self.rows), flagged


def _clearing(*ratios: kernels._Ratios) -> tuple[int, list[list[int]]]:
    """D, the lcm of the denominators of the arrays' constants, and D times
    each constant, as integers, per arrays."""
    d = math.lcm(*(c.denominator for r in ratios for c in r.const))
    return d, [[c.numerator * (d // c.denominator) for c in r.const] for r in ratios]


def _intertwining_terms(op_y, lam: LambdaKernel, coupling, sources: np.ndarray):
    """The comparisons of (op_y Lambda)(y, .) = (Lambda coupling)(y, .) at the
    rows y of sources (a mask over op_y's states), as ``_Terms``; None unless
    both operators are arrays, op_y's on the states of Y's box and the
    coupling's on its pairs, each with Lambda's Schur integers, which the
    denominator below rests on.

    Lambda(y, x) = t^(|y|-|x|) N_X(x) / N_Y(y) (``LambdaKernel.on_box``), and
    each entry of either operator is c N(target) / N(source), c one of its
    constants.  Let M(y) = N_Y(y) D, with D the lcm of the denominators of
    the constants of both operators.  Then
      - a left term op_y(y, y2) Lambda(y2, x2) is c N_Y(y2) / N_Y(y) times
        t^e N_X(x2) / N_Y(y2), and M(y) times it is D c t^e N_X(x2);
      - a right term Lambda(y, x) coupling((x, y), (x', y')) is t^e N_X(x) /
        N_Y(y) times c N_X(x') / N_X(x), and M(y) times it is
        D c t^e N_X(x');
    both are integers, products of three factors.  Every denominator of a
    constant is made of the rates' numerators and denominators, so D
    divides a power L^E of the case's scale L: E = 1 for the three
    generator cases, whose constants are L, 1/L and sums of rates and their
    inverses, all in (1/L) Z; E = bound + 1 for the geometric one, whose
    constants carry 1/L^d for a step of d <= bound and the powers of q and
    1 - q of Y's step (measured at n = 1 to 3)."""
    a, g = op_y.ratios, coupling.ratios
    if a is None or g is None:
        return None
    bound = op_y.bound
    t, n_x, n_y = lam.on_box(bound)
    pairs, flat = kernels._pairs(lam.kind, lam.y_row, lam.qs, bound)
    n = flat.shape[1] - len(lam.qs)
    xs, ys = (kernels._chamber_index(part, bound) for part in (flat[:, :n], flat[:, n:]))
    if not (a.h == n_y and np.array_equal(a.hs, np.arange(len(n_y)))
            and op_y.states == chamber_states(len(lam.qs), bound)
            and g.h == n_x and coupling.states == pairs and np.array_equal(g.hs, xs)):
        return None
    over_y = np.searchsorted(ys, np.arange(len(n_y) + 1))  # pairs over y: over_y[y]...
    left = np.flatnonzero(sources[a.src])  # op_y(y, y2), then each pair over y2
    counts = np.diff(over_y)[a.dst[left]]
    left = np.repeat(left, counts)
    left_pair = over_y[a.dst[left]] + kernels._ramp(counts)
    right = np.flatnonzero(sources[ys[g.src]])  # Lambda(y, x), then coupling((x, y), .)
    row = np.r_[a.src[left], ys[g.src[right]]]
    rise = flat[:, n:].sum(axis=1) - flat[:, :n].sum(axis=1)
    d, (c_y, c_g) = _clearing(a, g)
    factors = [(c_y + [-c for c in c_g], np.r_[a.ci[left], len(c_y) + g.ci[right]]),
               ([t ** e for e in range(int(rise.max()) + 1)],
                np.r_[rise[left_pair], rise[g.src[right]]]),
               (n_x, np.r_[xs[left_pair], xs[g.dst[right]]])]
    key = row * len(pairs) + np.r_[left_pair, g.dst[right]]
    return _Terms(len(n_y), row, key, factors, d, n_y)


def _check_intertwining(op_y, lam: LambdaKernel, coupling, case: str,
                        interior_only: bool) -> VerificationReport:
    """``_verify_intertwining``'s report, from residues where both operators
    are arrays: rows certified by ``_Terms`` add their comparison counts,
    and the flagged rows are compared by ``_verify_intertwining``, so a
    report is exact in rationals and equal to the row sums' own."""
    sources = np.array([not interior_only or op_y.is_interior(y) for y in op_y.states], bool)
    terms = _intertwining_terms(op_y, lam, coupling, sources)
    if terms is None:
        return _verify_intertwining(op_y, lam, coupling, case, interior_only)
    counts, flagged = terms.certify()
    report = _verify_intertwining(op_y, lam, coupling, case, interior_only,
                                  [y for y, bad in zip(op_y.states, flagged) if bad])
    report.states_checked += int(counts[sources & ~flagged].sum())
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
    """Interior rows must sum to exactly zero.  While gen is arrays, each row
    sum is certified in residues (``_Terms``): with M(x) = N(x) D, D the
    lcm of the constants' denominators, M(x) times an entry c N(x') / N(x)
    is the integer D c N(x').  Only the flagged rows are summed in
    Fractions."""
    report = VerificationReport(case or f"conservative {gen.label}")
    inner = np.array([gen.is_interior(s) for s in gen.states], dtype=bool)
    flagged = inner
    if (r := gen.ratios) is not None and inner.any():
        at = np.flatnonzero(inner[r.src])
        d, (c,) = _clearing(r)
        terms = _Terms(len(gen.states), r.src[at], r.src[at],
                       [(c, r.ci[at]), (r.h, r.hs[r.dst[at]])], d, [r.h[i] for i in r.hs.tolist()])
        flagged = inner & terms.certify()[1]
        report.states_checked = int((inner & ~flagged).sum())
    for s, bad in zip(gen.states, flagged):
        if bad:
            report.check(s, s, sum(gen.row(s).values()), Fraction(0))
    return report


def verify_schur_sums(q, max_entry: int, max_rows: int) -> VerificationReport:
    """Three evaluations of each Schur value must agree exactly: the recursion,
    the determinant oracle and the raw pattern sum at every z with up to
    max_rows entries <= max_entry; then each symplectic value of heights 2k-1
    and 2k against its pattern sum, for k <= min(max_rows, 3) and entries
    <= min(max_entry, 3)."""
    if max_entry < 0 or max_rows < 1:
        raise ValueError(f"max_entry must be >= 0 and max_rows >= 1, got {max_entry}, {max_rows}")
    qs = rates_of(q)
    report = VerificationReport("schur = oracle = pattern sum")
    for n in range(1, max_rows + 1):
        for z in chamber_states(n, max_entry):
            via_rec = schur.schur(z, qs[:n])
            via_det = schur.schur_oracle(z, qs[:n])
            via_sum = sum(weight(p, qs[:n]) for p in enumerate_patterns(z))
            # the right side is the other evaluation that disagrees, if one does
            report.check(z, z, via_rec, via_det if via_det != via_rec else via_sum)
    for k in range(1, min(max_rows, 3) + 1):
        for z in chamber_states(k, min(max_entry, 3)):
            for n in (2 * k - 1, 2 * k):
                raw = sum(weight(p, qs[:k]) for p in enumerate_patterns(z, SYMPLECTIC, nrows=n))
                report.check(z, z, schur.sp_schur(n, z, qs[:k]), raw)
    return report


def verify_harmonicity(q, max_entry: int, max_rows: int) -> VerificationReport:
    """The conditioned walk's h is harmonic: sum_i h(x + e_i) over the moves
    that stay ordered equals (q_1 + ... + q_n) h(x), for n <= min(max_rows, 3)
    and every x with entries <= max_entry."""
    if max_entry < 0 or max_rows < 1:
        raise ValueError(f"max_entry must be >= 0 and max_rows >= 1, got {max_entry}, {max_rows}")
    qs = rates_of(q)
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
    if tf < 0:
        raise ValueError("t must be nonnegative")
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
    per source, the second from Lambda's mixed start."""
    p_t = semigroup(q_y, t, tol)
    q_t = semigroup(gen, t, tol)
    cut = q_y.bound // 4
    sources = [y for y in q_y.states if all(c <= cut for c in y)]
    pair_idx = q_t.index
    gap = 0.0
    for y in sources:
        lhs = np.zeros(len(gen.states))
        for y2, p in zip(p_t.states, p_t.row(y)):
            if p == 0.0:
                continue
            for (x2, _), mass in lam.support(y2):
                lhs[pair_idx[(x2, y2)]] += p * float(mass)
        start = np.zeros(len(gen.states))
        for pair, mass in lam.support(y):
            start[pair_idx[pair]] = float(mass)
        rhs = q_t.propagate(start)
        gap = max(gap, float(np.max(np.abs(lhs - rhs))))
    return gap
