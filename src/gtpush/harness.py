"""Statistics, experiment configuration and reproducible Monte Carlo runs.

Marginal-law runs move their trials in blocks of BLOCK_TRIALS through
``dynamics.run_block``.  Each block draws from its own RNG stream,
derived from (master seed, block index), so results are byte-identical no
matter how blocks are scheduled; GTPUSH_THREADS > 1 fans blocks out over a
process pool and merges them in block order.
"""
from __future__ import annotations

import csv
import io
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dynamics, kernels
from .patterns import check_bottom_row, sample_patterns

BLOCK_TRIALS = 4096


@dataclass
class Pmf:
    """Finite distribution over hashable states (floats, sums to 1).  A law
    read off a truncated box records the mass that escaped it."""

    support: tuple
    probs: np.ndarray
    escaped_mass: float = 0.0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.support) != len(self.probs):
            raise ValueError("support/probs length mismatch")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    def as_dict(self) -> dict:
        return dict(zip(self.support, (float(p) for p in self.probs)))

    @classmethod
    def from_counts(cls, counts: dict, total: int | None = None) -> "Pmf":
        total = total if total is not None else sum(counts.values())
        states = sorted(counts)
        return cls(tuple(states), np.array([counts[s] / total for s in states]))

    @classmethod
    def from_dense_row(cls, kernel, source) -> "Pmf":
        """Row of a time-t kernel from ``intertwine.semigroup`` at source."""
        return cls.from_box_row(kernel.states, kernel.row(source))

    @classmethod
    def from_box_row(cls, states, row) -> "Pmf":
        """Law given by a row over the states of a box; 1 - (row sum) is
        recorded as the escaped mass.  Mass that escaped the box beyond the
        closure tolerance is an internal limit, not bad input: RuntimeError
        names it and the bound."""
        lost = 1.0 - float(row.sum())
        if lost > 1e-12:
            bound = max(max(s) for s in states)
            raise RuntimeError(f"the reference law lost {100 * lost:.3g}% of its mass past the "
                               f"truncation bound {bound}: the bound must go up")
        keep = row > 0.0
        return cls(tuple(s for s, k in zip(states, keep) if k), row[keep], lost)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["state", "prob"])
        for s, p in zip(self.support, self.probs):
            label = ",".join(str(c) for c in s) if isinstance(s, tuple) else str(s)
            writer.writerow([label, repr(float(p))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Pmf":
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0][:2] == ["state", "prob"]:
            rows = rows[1:]
        support, probs = [], []
        for label, p in rows:
            support.append(tuple(int(c) for c in label.split(",")))
            probs.append(float(p))
        return cls(tuple(support), np.array(probs))


def tv_distance(p: Pmf, r: Pmf) -> float:
    """Half the L1 distance over the united supports."""
    pd, rd = p.as_dict(), r.as_dict()
    return 0.5 * sum(abs(pd.get(s, 0.0) - rd.get(s, 0.0)) for s in set(pd) | set(rd))


def chi_square_gof(samples, ref: Pmf) -> float:
    """Chi-square goodness of fit p-value; bins under 5 expected counts are
    merged into a tail bin (which also absorbs unlisted states and any mass
    the reference lost to truncation)."""
    from scipy.stats import chi2  # deferred: scipy.stats dominates import time

    n = len(samples)
    counts = Counter(samples)
    order = sorted(range(len(ref.support)), key=lambda i: -ref.probs[i])
    bins = []  # (observed, expected)
    tail_obs = 0
    tail_exp = (1.0 - float(ref.probs.sum())) * n
    seen = set()
    for i in order:
        state, expected = ref.support[i], float(ref.probs[i]) * n
        seen.add(state)
        if expected >= 5.0:
            bins.append((counts.get(state, 0), expected))
        else:
            tail_obs += counts.get(state, 0)
            tail_exp += expected
    for state, c in counts.items():
        if state not in seen:
            tail_obs += c
    if tail_exp > 0.0:
        if tail_exp >= 5.0 or not bins:
            bins.append((tail_obs, tail_exp))
        else:
            obs, exp = bins.pop()
            bins.append((obs + tail_obs, exp + tail_exp))
    if len(bins) < 2:
        if np.count_nonzero(ref.probs) < 2:
            raise ValueError("a chi-square test needs a reference law on at least two states")
        raise ValueError(f"{n} samples fill fewer than the two bins of at least 5 expected "
                         f"counts a chi-square test needs: more samples are needed")
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    return float(chi2.sf(stat, len(bins) - 1))


@dataclass
class ExperimentConfig:
    """A reproducible Monte Carlo run of one of the three dynamics."""

    model: str
    n: int
    q: tuple[str, ...]
    z: tuple[int, ...]
    horizon: float | int
    trials: int
    seed: int
    bound: int

    def __post_init__(self):
        self.q = tuple(str(v) for v in self.q)
        kind, _ = dynamics._model_rates(self.model, self.n, self.q, self.horizon)
        self.z, _ = check_bottom_row(self.z, kind, self.n)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if min(self.z) < 0 or self.bound < max(self.z) + 2:  # the reference law's box
            raise ValueError(f"the bottom row z = {self.z} must lie in [0, bound - 2], "
                             f"got bound = {self.bound}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-split stream for one trial; independent of scheduling."""
    return np.random.default_rng((seed, trial))


def _endpoint_block(payload):
    """Bottom rows of one block of trials, drawn from the stream (seed, block)."""
    model, n, q, z, horizon, seed, block, trials = payload
    kind, qs = dynamics._model_rates(model, n, q, horizon)
    rng = np.random.default_rng((seed, block))
    start = sample_patterns(z, qs, kind, rng, n, trials)
    final = dynamics.run_block(model, n, qs, start, horizon, rng)
    return list(map(tuple, final[:, -len(z):].tolist()))


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("GTPUSH_THREADS", "1")))
    except ValueError:
        return 1


def endpoint_samples(config: ExperimentConfig) -> list[tuple]:
    """Bottom-row states at the horizon for config.trials independent runs."""
    args = (config.model, config.n, config.q, config.z, config.horizon, config.seed)
    payloads = [args + (block, min(BLOCK_TRIALS, config.trials - lo))
                for block, lo in enumerate(range(0, config.trials, BLOCK_TRIALS))]
    workers = min(worker_count(), len(payloads))
    out: list[tuple] = []
    if workers == 1:
        for payload in payloads:
            out.extend(_endpoint_block(payload))
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_endpoint_block, payloads):
            out.extend(part)
    return out


def empirical_pmf(samples) -> Pmf:
    return Pmf.from_counts(Counter(samples), len(samples))


def reference_endpoint_pmf(config: ExperimentConfig, tol: float = 1e-14) -> Pmf:
    """Reference law of the bottom row at the horizon, in floats.

    The bottom row is itself Markov with the matching conditioned-walk
    operator, so the reference is a semigroup row for the continuous dynamics
    and a kernel power for the discrete one; either is computed by moving the
    start vector through a float operator whose Schur values come from one
    float array pass over the box (``schur.float_values``), never a matrix
    and no Fraction per state."""
    from . import intertwine

    kind, qs = dynamics._model_rates(config.model, config.n, config.q, config.horizon)
    if config.model != "geometric":
        gen = kernels.row_generator_float(kind, config.n, qs, config.bound)
        return Pmf.from_dense_row(intertwine.semigroup(gen, config.horizon, tol), config.z)
    kern = kernels.kernel_geometric_float(config.n, qs, config.bound)
    vec = np.zeros(len(kern.states))
    vec[kern.states.index(config.z)] = 1.0
    for _ in range(int(config.horizon)):
        vec = kern.apply(vec)
    return Pmf.from_box_row(kern.states, vec)


def wall_sup_reference(k: int, q, t: float, bound: int) -> Pmf:
    """Law of the last coordinate of the height-2k wall row at time t from
    zero, which the wall sup functional of k rates matches in distribution."""
    config = ExperimentConfig("wall", 2 * k, tuple(str(v) for v in q), (0,) * k, t, 1, 0, bound)
    ref = reference_endpoint_pmf(config)
    probs: dict = {}
    for state, p in zip(ref.support, ref.probs):
        probs[state[-1]] = probs.get(state[-1], 0.0) + float(p)
    support = tuple(sorted(probs))
    return Pmf(support, np.array([probs[s] for s in support]), ref.escaped_mass)
