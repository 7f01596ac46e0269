"""Central moments of sums of independent {0,1} variables: exact closed
forms, brute-force enumeration oracles, and tail-probability reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .hashing import _integer, _real, derived_rng

__all__ = ["BernoulliProfile", "TailReport", "brute_force_moment", "exact_fourth_moment",
    "fourth_moment_bound", "fourth_moment_bound_sharp", "kth_moment_bound_check",
    "kth_moment_bound_terms", "sum_distribution", "tail_check"]

ENUM_LIMIT = 20  # bounds time: enumeration memory does not grow with n
_BLOCK_BITS = 14  # outcomes are enumerated 2^14 at a time
_CHUNK_VARIABLES = 1 << 16  # Monte Carlo draws at most this many variables at a time


@dataclass(frozen=True)
class BernoulliProfile:
    """Success probabilities of n independent indicator variables."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= p <= 1.0 for p in self.probabilities):
            raise ValueError("probabilities must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.probabilities)

    @cached_property
    def mu(self) -> float:
        return math.fsum(self.probabilities)

    @cached_property
    def variance(self) -> float:
        return math.fsum(p - p * p for p in self.probabilities)

    @classmethod
    def uniform(cls, n: int, p: float) -> "BernoulliProfile":
        return cls((p,) * _integer("n", n, 0))


def exact_fourth_moment(profile: BernoulliProfile) -> float:
    """E[(X - mu)^4] in closed form, O(n).

    Diagonal terms sum p(1-p)((1-p)^3 + p^3); the 6 * sum_{a<b} s_a^2 s_b^2
    cross term is 3 * ((sum s_i^2)^2 - sum s_i^4).
    """
    ps = profile.probabilities
    diag = math.fsum(p * (1 - p) * ((1 - p) ** 3 + p**3) for p in ps)
    s2 = [p - p * p for p in ps]
    cross = 3.0 * (math.fsum(s2) ** 2 - math.fsum(v * v for v in s2))
    return diag + cross


def _outcome_blocks(profile: BernoulliProfile):
    """Probability and success count of each of the 2^n outcomes (variable i
    is bit i of the outcome), in outcome order and in blocks of at most
    2^_BLOCK_BITS, so memory does not grow with n.  Each probability is the
    product of its factors in variable order.  Limited to n <= ENUM_LIMIT."""
    if profile.n > ENUM_LIMIT:
        raise ValueError(f"n = {profile.n} exceeds enumeration limit {ENUM_LIMIT}")
    low, high = profile.probabilities[:_BLOCK_BITS], profile.probabilities[_BLOCK_BITS:]
    base = np.array([1.0])
    succ = np.zeros(1, dtype=np.uint8)
    for p in low:
        base = np.concatenate([base * (1 - p), base * p])
        succ = np.concatenate([succ, succ + 1])
    for h in range(1 << len(high)):
        probs = base
        for j, p in enumerate(high):
            probs = probs * (p if h >> j & 1 else 1 - p)
        yield probs, succ + h.bit_count()


def sum_distribution(profile: BernoulliProfile) -> np.ndarray:
    """Exact distribution of X = sum X_i as an array of length n+1, built by
    enumerating all 2^n outcomes.  Limited to n <= ENUM_LIMIT."""
    dist = np.zeros(profile.n + 1)
    for probs, succ in _outcome_blocks(profile):
        np.add.at(dist, succ, probs)  # one add per outcome, in outcome order
    return dist


def brute_force_moment(profile: BernoulliProfile, k: int) -> float:
    """E[(X - mu)^k] by full 2^n outcome enumeration (n <= ENUM_LIMIT);
    the independent oracle for the closed forms and bounds.  Each of the
    n + 1 deviation powers is taken once and spread over its outcomes."""
    k = _integer("k", k, 0)
    devs = [-profile.mu]
    for _ in range(profile.n):
        devs.append(devs[-1] + 1)  # -mu + j in one add can round differently
    powers = np.array(devs) ** k
    return _fsum_blocks(probs * powers[succ] for probs, succ in _outcome_blocks(profile))


def _fsum_blocks(blocks) -> float:
    """math.fsum of the terms of an iterable of float64 arrays, each of at
    most 2^26 terms, without a Python float per term: the same double
    wherever math.fsum returns one.

    Each finite term v is mant * 2^exp with 0.5 <= |mant| < 1, so
    v * 2^1126 is an integer.  Per block, the high 27 and low 26 bits of
    mant * 2^53 are summed by exponent with np.bincount; every bin's sum
    stays below 2^53, so it is exact.  The nonzero bins fold into one
    Python int, and int true division rounds correctly, as fsum does.
    Once an inf or nan term appears, fsum returns the sum of those terms
    alone (or raises ValueError on inf + -inf), so they go to fsum.
    """
    total, special = 0, []
    for v in blocks:
        finite = np.isfinite(v)
        if not finite.all():
            special += v[~finite].tolist()
            continue
        mant, exp = np.frexp(v)
        x = np.ldexp(mant, 27)
        high = np.trunc(x)  # |high| < 2^27
        low = np.subtract(x, high, out=x)  # |low| < 1, a multiple of 2^-26
        base = int(exp.min(initial=0))
        index = np.subtract(exp, base, dtype=np.intp)
        high_sums = np.bincount(index, high)
        bins = np.bincount(index, low, minlength=high_sums.size + 26) * 2.0**26
        bins[26:high_sums.size + 26] += high_sums  # bin j weighs 2^(j + base - 53)
        nonzero = np.flatnonzero(bins)
        sums = bins[nonzero].astype(np.int64).tolist()
        block = sum(b << j for j, b in zip(nonzero.tolist(), sums))
        total += block << (base + 1073)
    if special:
        return math.fsum(special)
    return total / (1 << 1126)


def fourth_moment_bound(mu: float) -> float:
    """The bound 4 * mu^2 on E[(X - mu)^4]; valid for mu >= 1."""
    _real("mu", mu, lambda v: v >= 1, "a number of at least 1")
    return 4.0 * mu * mu


def fourth_moment_bound_sharp(mu: float) -> float:
    """The sharper intermediate bound mu + 3 * mu^2."""
    _real("mu", mu, lambda v: v >= 1, "a number of at least 1")
    return mu + 3.0 * mu * mu


def kth_moment_bound_terms(variance: float, k: int) -> float:
    """sum_{c=1}^{floor(k/2)} c^k / c! * variance^c: the fully constructive
    bound on E[(X - mu)^k] under k-wise independence."""
    k = _integer("k", k, 2)
    return math.fsum(
        c**k / math.factorial(c) * variance**c for c in range(1, k // 2 + 1)
    )


def kth_moment_bound_check(profile: BernoulliProfile, k: int):
    """Compare the enumerated k-th central moment against the constructive
    bound.  Returns (exact, bound, ok)."""
    bound = kth_moment_bound_terms(profile.variance, k)  # refuses a bad k before enumerating
    exact = brute_force_moment(profile, k)
    return exact, bound, exact <= bound + 1e-12 * max(1.0, bound)


@dataclass(frozen=True)
class TailReport:
    d: float
    k: int
    empirical_prob: float
    std_error: float
    bound_chebyshev: float  # 1 / d^2
    bound_fourth: float  # 4 / d^4
    bound_k: float
    exact: bool

    @property
    def vacuous(self) -> bool:
        return self.bound_fourth >= 1.0


def tail_check(
    profile: BernoulliProfile,
    d: float,
    k: int = 4,
    trials: int = 10**5,
    seed: Optional[int] = None,
) -> TailReport:
    """Estimate Pr[|X - mu| >= d * sqrt(mu)] and report it against the
    second-, fourth- and k-th-moment bounds.

    Exact by enumeration when n <= ENUM_LIMIT, otherwise Monte Carlo with
    `trials` samples from the given seed.
    """
    _real("d", d, lambda v: 0 < v < math.inf, "a finite positive number")
    k, trials = _integer("k", k, 2), _integer("trials", trials, 1)
    mu = profile.mu
    if mu < 1:
        raise ValueError("tail bounds require mu >= 1")
    # shave a relative epsilon so boundary outcomes (|X - mu| exactly
    # d*sqrt(mu)) are counted despite rounding in the product
    cut = d * math.sqrt(mu) * (1 - 1e-12)
    exact = profile.n <= ENUM_LIMIT
    if exact:
        dist = sum_distribution(profile)
        vals = np.arange(profile.n + 1)
        prob = float(dist[np.abs(vals - mu) >= cut].sum())
        se = 0.0
    else:
        if seed is None:
            raise ValueError("sampling a large profile requires a seed")
        rng = derived_rng(seed, 0)
        ps = np.array(profile.probabilities)
        hits = 0
        chunk = max(1, _CHUNK_VARIABLES // profile.n)
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            x = (rng.random((m, profile.n)) < ps).sum(axis=1)
            hits += int((np.abs(x - mu) >= cut).sum())
            done += m
        prob = hits / trials
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / trials)
    bound_k = kth_moment_bound_terms(profile.variance, k) / (cut**k)
    return TailReport(
        d=d,
        k=k,
        empirical_prob=prob,
        std_error=se,
        bound_chebyshev=1.0 / d**2,
        bound_fourth=4.0 / d**4,
        bound_k=bound_k,
        exact=exact,
    )
