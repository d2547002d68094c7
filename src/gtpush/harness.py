"""Statistics, experiment configuration and reproducible Monte Carlo runs.

Marginal-law runs move their trials in blocks of BLOCK_TRIALS through
``dynamics.run_block``, one block after another.  Each block draws from its
own RNG stream, derived from (master seed, block index) by ``trial_rng``, so
a block's samples do not depend on how many trials follow it.

``trial_rng(seed, t)`` is numpy's ``default_rng((seed, t))``, state for
state.  Most of that call is ``SeedSequence`` hashing (seed, t) into the four
words that seed a PCG64.  That hash is O'Neill's seed_seq design: uint32
arithmetic whose constants do not depend on the entropy, so for seeds and
trials below 2**64 _stream_words hashes the STREAM_BLOCK trials of a block in
one numpy pass, and every stream of a block but row 0 is built from its row.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

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
        if len(set(self.support)) != len(self.support):
            twice = next(s for s, c in Counter(self.support).items() if c > 1)
            raise ValueError(f"the state {twice!r} is listed more than once")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        if not abs(float(self.probs.sum()) - 1.0) <= 1e-12:  # a NaN fails too
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
        ``intertwine.Semigroup``), read by ``from_row``."""
        return cls.from_row(kernel.states, kernel.row(source))

    @classmethod
    def from_row(cls, states, row, escaped: float | None = None) -> "Pmf":
        """A law over the states of a box, given as a dense row: its positive
        entries kept; the escaped mass is recorded as given, or as 1 - (their
        sum) if it is not.  Mass that escaped the box beyond the closure
        tolerance is an internal limit, not bad input: RuntimeError names it
        and the bound."""
        keep = row > 0.0
        probs = row[keep]
        lost = 1.0 - float(probs.sum()) if escaped is None else escaped
        if lost > 1e-12:
            bound = max(max(s) for s in states)
            raise RuntimeError(f"the reference law lost {100 * lost:.3g}% of its mass past the "
                               f"truncation bound {bound}: the bound must go up")
        return cls(tuple(s for s, k in zip(states, keep) if k), probs, lost)

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
        """The law of ``to_csv``'s form; a malformed row names its line."""
        reader = csv.reader(io.StringIO(text))
        support, probs = [], []
        for i, row in enumerate(reader):
            if i == 0 and row[:2] == ["state", "prob"]:
                continue
            try:
                label, p = row
                support.append(tuple(int(c) for c in label.split(",")))
                probs.append(float(p))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: expected a state and its "
                                 f"probability, got {row!r} ({exc})") from None
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


# numpy's SeedSequence with its default pool of four uint32 words: the start
# and multiplier of the hash constant of its pool mixing (A) and of
# generate_state (B), and the multipliers of its mix of two pool words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
STREAM_BLOCK = 1024  # trials whose seed words are hashed in one pass; divides 2**32


def _uint32_words(value: int) -> list[int]:
    """The one or two 32-bit words of an int in [0, 2**64), least significant
    first, as a SeedSequence reads its entropy (0 is one word)."""
    return [value & 0xFFFFFFFF, value >> 32] if value >> 32 else [value]


def _hash_constants(init: int, mult: int, uses: int) -> np.ndarray:
    """A hash constant's values over its first uses: init, then multiplied by
    mult at each use, as a uint32 column of uses + 1 rows."""
    values = [init]
    for _ in range(uses):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of words, row i using the hash
    constant's values consts[i] and consts[i + 1] (one row broadcasts)."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = x * _MIX_L - y * _MIX_R
    return words ^ words >> 16


@lru_cache(maxsize=64)
def _stream_words(seed: int, block: int) -> np.ndarray:
    """Row r is ``SeedSequence((seed, t)).generate_state(4, np.uint64)`` for
    trial t = block * STREAM_BLOCK + r, with seed and t below 2**64: their
    32-bit words (the seed's, then the trial's), at most four, fill the pool,
    the pool is mixed, and generate_state reads it out, every step one numpy
    operation over the block.  The trials of a block differ in their lowest
    word only.  The array is read-only, as the cache hands it to every caller."""
    seed_words = _uint32_words(seed)
    entropy = seed_words + _uint32_words(block * STREAM_BLOCK)
    pool = np.zeros((_POOL, STREAM_BLOCK), dtype=np.uint32)  # a pool past the entropy holds 0s
    pool[:len(entropy)] = np.array(entropy, dtype=np.uint32)[:, None]
    pool[len(seed_words)] += np.arange(STREAM_BLOCK, dtype=np.uint32)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = _hashmix(pool, consts[:_POOL + 1])
    at = _POOL
    for src in range(_POOL):  # every pool word into every other one
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at:at + _POOL]))
        at += _POOL - 1
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    # uint32 pairs (low, high) read as uint64, as generate_state reads them
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """The ISeedSequence that hands a PCG64 the seed words it holds, in place
    of the SeedSequence that would generate them.  Made on first use, as
    importing numpy.random adds about 6 MB to a process that draws nothing."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for its 4 uint64 words

    return SeedWords


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The counter-split stream (seed, trial) of one trial or block; seed >= 0.

    Its state and draws are those of ``np.random.default_rng((seed,
    trial))``, and so are its refusals.  Row 0 of each block of STREAM_BLOCK
    trials, a lone stream such as trial 0, is built that way, as hashing a
    block costs about a dozen such calls; so is a stream whose seed or trial
    is 2**64 or more.  Every other stream is built from its row of the
    block's words (_stream_words, hashed at once), in about a fifth of the
    time.  Such a generator carries no SeedSequence: its ``spawn()`` fails,
    and ``bit_generator.seed_seq`` holds only the words.  gtpush uses neither."""
    if seed < 0:
        raise ValueError(f"the seed must be >= 0, got {seed}")
    if type(seed) is not int or type(trial) is not int or trial < 0:
        return np.random.default_rng((seed, trial))  # numpy's own types and refusals
    block, row = divmod(trial, STREAM_BLOCK)
    if row == 0 or seed >> 64 or trial >> 64:
        return np.random.default_rng((seed, trial))
    return np.random.Generator(np.random.PCG64(_seed_words_type()(_stream_words(seed, block)[row])))


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
    operator.  For the geometric dynamics its t-step law is in closed form
    (``kernels.geometric_law``, a Gessel-Viennot determinant times a Schur
    ratio); for the continuous ones it is a row of the generator's
    uniformized series (``intertwine.semigroup``), on the Schur values of
    ``schur.float_values``, the box pass's level step on float rates; the
    geometric law divides the exact integers of ``schur.exact_values`` once
    per state.  Neither forms a Fraction per state."""
    if config.model == "geometric":
        return Pmf.from_row(*kernels.geometric_law(config.n, config.q, config.z,
                                                   int(config.horizon), config.bound))
    from . import intertwine

    gen = kernels.row_generator_float(config.kind, config.n, config.q, config.bound)
    return Pmf.from_dense_row(intertwine.semigroup(gen, config.horizon, REFERENCE_TOL), config.z)


def wall_sup_reference(k: int, q, t: float, bound: int) -> Pmf:
    """Law of the last coordinate of the height-2k wall row at time t from
    zero, which the wall sup functional of k rates matches in distribution."""
    if bound < 2:
        raise ValueError(f"the wall-sup reference needs bound >= 2, got bound = {bound}")
    config = ExperimentConfig("wall", 2 * k, q, (0,) * k, t, 1, 0, bound)
    ref = reference_endpoint_pmf(config)
    probs: dict = {}
    for state, p in zip(ref.support, ref.probs):
        probs[state[-1]] = probs.get(state[-1], 0.0) + float(p)
    support = tuple(sorted(probs))
    return Pmf(support, np.array([probs[s] for s in support]), ref.escaped_mass)
