"""Computations the benchmark checks the library against.

Everything here is written from the definitions, apart from the library:
Schur values from the bialternant formula, symplectic Schur values from the
Weyl character formula, last passage times by brute force over up-right
paths, and the statistical gates from the trial count and the reference law.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

# A correct engine fails a statistical gate with probability at most ALPHA.
ALPHA = 1e-6
# Chi-square bins need this many expected counts; the rest share a tail bin.
MIN_EXPECTED = 20.0


def _sign(perm) -> int:
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def det(matrix) -> Fraction:
    """Leibniz expansion; the matrices here are at most 4 x 4."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_sign(perm))
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def bialternant(z, q) -> Fraction:
    """s_lambda(q_1..q_n) = det(q_i^(lambda_j+n-j)) / det(q_i^(n-j)), where
    lambda is the nondecreasing bottom row z read from the right."""
    n = len(z)
    lam = tuple(reversed(z))
    num = [[Fraction(q[i]) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[Fraction(q[i]) ** (n - 1 - j) for j in range(n)] for i in range(n)]
    return det(num) / det(den)


def weyl_symplectic(z, q) -> Fraction:
    """Character of Sp(2k) at (q_1..q_k): det(q_i^l_j - q_i^-l_j) over the same
    determinant at lambda = 0, with l_j = lambda_j + k - j + 1."""
    k = len(z)
    if k == 0:
        return Fraction(1)
    lam = tuple(reversed(z))

    def alt(shape):
        return [[Fraction(q[i]) ** (shape[j] + k - j) - Fraction(q[i]) ** -(shape[j] + k - j)
                 for j in range(k)] for i in range(k)]

    return det(alt(lam)) / det(alt((0,) * k))


def sp_schur_formula(height: int, z, q) -> Fraction:
    """Symplectic Schur value of a pattern of the given height with bottom row z.

    Even height 2k is the Sp(2k) character.  Odd height 2k-1 strips the
    bottom row once by hand, over rows r nested in z with weight
    q_k^(|z|-|r|), and evaluates each Sp(2k-2) character by the Weyl formula.
    """
    k = len(z)
    if height == 2 * k:
        return weyl_symplectic(z, q[:k])
    if height != 2 * k - 1:
        raise ValueError(f"height {height} does not fit a bottom row of {k} entries")
    total = Fraction(0)
    for r in product(*(range(z[i], z[i + 1] + 1) for i in range(k - 1))):
        total += Fraction(q[k - 1]) ** (sum(z) - sum(r)) * weyl_symplectic(r, q[: k - 1])
    return total


def lpp_brute(eta, k: int, t: int) -> int:
    """Largest sum of eta[row][time] over up-right paths from (1, 1) to (t, k)."""
    steps = t + k - 2
    best = None
    for ups in combinations(range(steps), k - 1):
        row = col = 0
        total = eta[0][0]
        for s in range(steps):
            if s in ups:
                row += 1
            else:
                col += 1
            total += eta[row][col]
        best = total if best is None else max(best, total)
    return best


def tv(samples, support, probs) -> float:
    """Total variation between the empirical law of samples and a reference."""
    n = len(samples)
    counts: dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    ref = dict(zip(support, (float(p) for p in probs)))
    return 0.5 * sum(abs(counts.get(s, 0) / n - ref.get(s, 0.0)) for s in set(counts) | set(ref))


def tv_gate(trials: int, probs) -> float:
    """Bound that the TV of a correct engine's empirical law exceeds with
    probability at most ALPHA.

    E[TV] <= 1/2 sum_s sqrt(p_s (1 - p_s) / N), and changing one trial moves
    TV by at most 1/N, so by McDiarmid TV exceeds its mean by
    sqrt(ln(1/ALPHA) / (2N)) with probability at most ALPHA.
    """
    mean = 0.5 * sum(math.sqrt(p * (1.0 - p) / trials) for p in (float(v) for v in probs))
    return mean + math.sqrt(math.log(1.0 / ALPHA) / (2.0 * trials))


def chi_square(samples, support, probs) -> tuple[float, float]:
    """(statistic, critical value at ALPHA) for the samples against the
    reference.  States with at least MIN_EXPECTED expected counts get a bin
    each; everything else, unlisted states and lost mass included, shares
    one tail bin."""
    n = len(samples)
    counts: dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    bins = []
    tail_obs, tail_exp = n, float(n)
    for s, p in zip(support, probs):
        expected = float(p) * n
        if expected >= MIN_EXPECTED:
            observed = counts.get(s, 0)
            bins.append((observed, expected))
            tail_obs -= observed
            tail_exp -= expected
    if tail_exp >= MIN_EXPECTED or (tail_exp > 0 and not bins):
        bins.append((tail_obs, tail_exp))
    elif bins:
        obs, exp = bins.pop()
        bins.append((obs + tail_obs, exp + max(tail_exp, 0.0)))
    if len(bins) < 2:
        raise ValueError("a chi-square test needs at least two bins")
    # imported here so that the set-up time measures only what gtpush imports
    from scipy.stats import chi2

    stat = sum((o - e) ** 2 / e for o, e in bins)
    return stat, float(chi2.isf(ALPHA, len(bins) - 1))
