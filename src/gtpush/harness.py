"""Statistics, experiment configuration and reproducible Monte Carlo runs.

Marginal-law runs move their trials in blocks of BLOCK_TRIALS through
``dynamics.run_block``, one block after another.  Each block draws from its
own RNG stream, derived from (master seed, block index) by ``trial_rng``, so
a block's samples do not depend on how many trials follow it.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, kernels
from .patterns import check_bottom_row, sample_patterns

BLOCK_TRIALS = 4096
REFERENCE_TOL = 1e-14  # Poisson tail left out of the uniformized reference laws


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
    def from_counts(cls, counts: dict, total: int) -> "Pmf":
        states = sorted(counts)
        return cls(tuple(states), np.array([counts[s] / total for s in states]))

    @classmethod
    def from_dense_row(cls, kernel, source) -> "Pmf":
        """Row at source of a time-t kernel over the states of a box (an
        ``intertwine.Semigroup``); 1 - (row sum) is recorded as the escaped
        mass.  Mass that escaped the box beyond the closure tolerance is an
        internal limit, not bad input: RuntimeError names it and the bound."""
        states, row = kernel.states, kernel.row(source)
        lost = 1.0 - float(row.sum())
        if lost > 1e-12:
            bound = max(max(s) for s in states)
            raise RuntimeError(f"the reference law lost {100 * lost:.3g}% of its mass past the "
                               f"truncation bound {bound}: the bound must go up")
        keep = row > 0.0
        return cls(tuple(s for s, k in zip(states, keep) if k), row[keep], lost)

    def to_csv(self) -> str:
        """A header, then one row per state: its coordinates joined by commas,
        and its probability.  Only tuple states have this form."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["state", "prob"])
        for s, p in zip(self.support, self.probs):
            if not isinstance(s, tuple):
                raise ValueError(f"the CSV form holds tuple states only, got the state {s!r}")
            writer.writerow([",".join(map(str, s)), repr(float(p))])
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
    """Chi-square goodness of fit p-value (0 if a sample falls where the
    reference has no mass); bins under 5 expected counts are merged into a
    tail bin, which also absorbs unlisted states and mass lost to truncation."""
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
    if tail_obs and tail_exp <= 0.0:
        return 0.0
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    return float(chi2.sf(stat, len(bins) - 1))


@dataclass
class ExperimentConfig:
    """A reproducible Monte Carlo run of one of the three dynamics.  Its model
    and rates (exact, or "p/q" strings) resolve once, to kind and exact q."""

    model: str
    n: int
    q: tuple
    z: tuple[int, ...]
    horizon: float | int
    trials: int
    seed: int
    bound: int
    kind: str = field(init=False)

    def __post_init__(self):
        self.kind, self.q = dynamics._model_rates(self.model, self.n, self.q, self.horizon)
        self.z, _ = check_bottom_row(self.z, self.kind, self.n)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if min(self.z) < 0 or self.bound < max(self.z) + 2:  # the reference law's box
            raise ValueError(f"the bottom row z = {self.z} must lie in [0, bound - 2], "
                             f"got bound = {self.bound}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The counter-split stream (seed, trial) of one trial or block; seed >= 0."""
    if seed < 0:
        raise ValueError(f"the seed must be >= 0, got {seed}")
    return np.random.default_rng((seed, trial))


def _endpoint_block(config: ExperimentConfig, block: int, trials: int) -> list[tuple]:
    """Bottom rows of one block of trials, drawn from the stream (seed, block)."""
    rng = trial_rng(config.seed, block)
    start = sample_patterns(config.z, config.q, config.kind, rng, config.n, trials)
    final = dynamics.run_block(config.model, config.n, config.q, start, config.horizon, rng)
    return list(map(tuple, final[:, -len(config.z):].tolist()))


def endpoint_samples(config: ExperimentConfig) -> list[tuple]:
    """Bottom-row states at the horizon for config.trials independent runs."""
    out: list[tuple] = []
    for block, lo in enumerate(range(0, config.trials, BLOCK_TRIALS)):
        out.extend(_endpoint_block(config, block, min(BLOCK_TRIALS, config.trials - lo)))
    return out


def empirical_pmf(samples) -> Pmf:
    return Pmf.from_counts(Counter(samples), len(samples))


def reference_endpoint_pmf(config: ExperimentConfig) -> Pmf:
    """Reference law of the bottom row at the horizon, in floats.

    The bottom row is itself Markov with the matching conditioned-walk
    operator, so the reference is a row of one time-t operator
    (``intertwine.Semigroup``): the uniformized series of the generator for
    the continuous dynamics, the t-th power of the step kernel for the
    discrete one.  Its Schur values come from one float array pass over the
    box (``schur.float_values``), never a matrix and no Fraction per state."""
    from . import intertwine

    if config.model != "geometric":
        gen = kernels.row_generator_float(config.kind, config.n, config.q, config.bound)
        law = intertwine.semigroup(gen, config.horizon, REFERENCE_TOL)
    else:
        kern = kernels.kernel_geometric_float(config.n, config.q, config.bound)
        law = intertwine.Semigroup(kern.states, kern, [0.0] * int(config.horizon) + [1.0])
    return Pmf.from_dense_row(law, config.z)


def wall_sup_reference(k: int, q, t: float, bound: int) -> Pmf:
    """Law of the last coordinate of the height-2k wall row at time t from
    zero, which the wall sup functional of k rates matches in distribution."""
    config = ExperimentConfig("wall", 2 * k, q, (0,) * k, t, 1, 0, bound)
    ref = reference_endpoint_pmf(config)
    probs: dict = {}
    for state, p in zip(ref.support, ref.probs):
        probs[state[-1]] = probs.get(state[-1], 0.0) + float(p)
    support = tuple(sorted(probs))
    return Pmf(support, np.array([probs[s] for s in support]), ref.escaped_mass)
