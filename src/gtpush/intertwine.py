"""Exact verification of kernel intertwinings, conservativeness, and the
uniformized semigroup consequence.

Generator checks compare Q_Y(y, y') m(x', y') against sum_x m(x, y) A((x,y),(x',y'))
entry by entry in exact rational arithmetic; sources are restricted to interior
states so truncation can never manufacture a spurious violation (all jumps have
range one).  The kernel (discrete-step) check is exact for every in-box pair
because both sides are finite rational sums.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .kernels import FloatKernel, LambdaKernel, SparseGenerator, StepKernel, _fmt_state


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

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "states_checked": self.states_checked,
            "violations": [
                {
                    "left": _fmt_state(a),
                    "right": _fmt_state(b),
                    "lhs": str(l),
                    "rhs": str(r),
                }
                for a, b, l, r in self.violations
            ],
            "max_discrepancy": str(self.max_discrepancy),
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _compare_rows(report, y, lhs: dict, rhs: dict):
    for key in sorted(set(lhs) | set(rhs)):
        lv = lhs.get(key, Fraction(0))
        rv = rhs.get(key, Fraction(0))
        report.states_checked += 1
        if lv != rv:
            report.record(y, key, lv, rv)


def verify_generator_intertwining(
    q_y: SparseGenerator, lam: LambdaKernel, gen: SparseGenerator, case: str = ""
) -> VerificationReport:
    """Check Q_Y Lambda = Lambda A entrywise over interior source states."""
    report = VerificationReport(case or f"{q_y.label} ~ {gen.label}")
    for y in q_y.states:
        if not q_y.is_interior(y):
            continue
        support = lam.support(y)
        lhs: dict = {}
        for y2, rate in q_y.row(y).items():
            for (x2, _), mass in lam.support(y2):
                if mass:
                    key = (x2, y2)
                    lhs[key] = lhs.get(key, Fraction(0)) + rate * mass
        rhs: dict = {}
        for (x, _), mass in support:
            if not mass:
                continue
            for target, rate in gen.row((x, y)).items():
                rhs[target] = rhs.get(target, Fraction(0)) + mass * rate
        _compare_rows(report, y, lhs, rhs)
    return report


def verify_kernel_intertwining(
    p_y: StepKernel, lam: LambdaKernel, q_step: StepKernel, case: str = ""
) -> VerificationReport:
    """Check m(x',y') p_Y(y,y') = sum_x m(x,y) q((x,y),(x',y')) for all in-box
    sources and targets; each instance is a finite exact computation."""
    report = VerificationReport(case or f"{p_y.label} ~ {q_step.label}")
    for y in p_y.states:
        lhs: dict = {}
        for y2, prob in p_y.row(y).items():
            for (x2, _), mass in lam.support(y2):
                if mass:
                    key = (x2, y2)
                    lhs[key] = lhs.get(key, Fraction(0)) + prob * mass
        rhs: dict = {}
        for (x, _), mass in lam.support(y):
            if not mass:
                continue
            for target, prob in q_step.row((x, y)).items():
                rhs[target] = rhs.get(target, Fraction(0)) + mass * prob
        _compare_rows(report, y, lhs, rhs)
    return report


def verify_conservative(gen: SparseGenerator, case: str = "") -> VerificationReport:
    """Interior rows must sum to exactly zero."""
    report = VerificationReport(case or f"conservative {gen.label}")
    for s in gen.states:
        if not gen.is_interior(s):
            continue
        report.states_checked += 1
        total = sum(gen.row(s).values())
        if total != 0:
            report.record(s, s, total, Fraction(0))
    return report


class Semigroup:
    """Time-t kernel of a truncated generator, one row at a time.

    Holds the uniformized jump matrix J = I + Q/theta in sparse float form and
    the Poisson weights w_k of the series sum_k w_k J^k; a row is the start
    vector moved through the series, so no m x m matrix is formed.
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


def semigroup(gen: SparseGenerator, t, tol: float) -> Semigroup:
    """Time-t kernel of the truncated generator via uniformization.

    The Poissonized power series of the jump kernel is truncated once the
    remaining Poisson tail drops below tol.  Rows of the result are
    sub-stochastic near the box edge (mass killed at escape), and row sums at
    interior states are within the escape probability of 1.  Rows are
    computed on demand (``Semigroup.row``).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    tf = float(t)
    if tf < 0:
        raise ValueError("t must be nonnegative")
    states = gen.states
    index = {s: i for i, s in enumerate(states)}
    src, dst, val = [], [], []
    theta = 0.0
    for i, s in enumerate(states):
        row = gen.row(s)
        theta = max(theta, -float(row.get(s, 0)))
        for s2, v in row.items():
            src.append(i)
            dst.append(index[s2])
            val.append(float(v))
    if theta == 0.0 or tf == 0.0:
        return Semigroup(states, None, [1.0])
    diag = list(range(len(states)))  # the identity of J = I + Q/theta, as entries of its own
    jump = FloatKernel(states, src + diag, dst + diag,
                       np.append(np.array(val) / theta, np.ones(len(states))))
    lam = theta * tf
    w = math.exp(-lam)
    if w == 0.0:
        raise RuntimeError(f"theta*t = {lam:.4g} is past the underflow limit of uniformization "
                           f"(exp(-theta*t) is 0 beyond about 745): the time t must come down")
    weights = [w]
    covered = w
    max_terms = int(lam + 20 * math.sqrt(lam + 1) + 60)
    while 1.0 - covered > tol:
        if len(weights) > max_terms:
            raise RuntimeError("uniformization failed to converge; lower tol or bound")
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
    sources=None,
) -> float:
    """Max |(delta_y P_t) Lambda - (delta_y Lambda) Q_t| over the given source
    states: two propagations per source, the second from Lambda's mixed start.

    Sources default to the deep interior (coordinates <= bound/4) where the
    probability of reaching the truncation edge by time t is negligible.
    """
    p_t = semigroup(q_y, t, tol)
    q_t = semigroup(gen, t, tol)
    if sources is None:
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
