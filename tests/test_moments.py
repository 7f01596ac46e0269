import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from linprobe import moments
from linprobe.hashing import derived_rng, new_polynomial
from linprobe.moments import (
    BernoulliProfile,
    brute_force_moment,
    exact_fourth_moment,
    fourth_moment_bound,
    fourth_moment_bound_sharp,
    kth_moment_bound_check,
    kth_moment_bound_terms,
    sum_distribution,
    tail_check,
)

profiles = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=16
).map(lambda ps: BernoulliProfile(tuple(ps)))

# probabilities 0 and 1 and repeated values mixed with arbitrary floats
edge_profiles = st.lists(
    st.sampled_from([0.0, 1.0, 0.5, 0.1, 0.9, 1 / 3]) | st.floats(0.0, 1.0, allow_nan=False),
    min_size=0, max_size=16,
).map(lambda ps: BernoulliProfile(tuple(ps)))


def reference_outcomes(profile, x0):
    """Per-outcome enumerator: the probability and value x0 + X of each of
    the 2^n outcomes, both built by concatenation."""
    probs = np.array([1.0])
    values = np.array([x0])
    for p in profile.probabilities:
        probs = np.concatenate([probs * (1 - p), probs * p])
        values = np.concatenate([values, values + 1])
    return probs, values


def assert_moments_exact(profile):
    for k in range(9):
        assert brute_force_moment(profile, k) == reference_moment(profile, k)


def assert_distribution_exact(profile):
    dist = sum_distribution(profile)
    assert dist.dtype == np.float64 and dist.shape == (profile.n + 1,)
    assert (dist == reference_distribution(profile)).all()


def traced_peak_mb(fn, *args, **kwargs):
    """The tracemalloc peak, in MB, of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# here -mu + 5 is one ulp away from -mu + 1 + 1 + 1 + 1 + 1
ONE_ULP_PROFILE = BernoulliProfile((0.11162309008346805, 0.20935861224149577,
                                    0.058402840139695655, 0.09998391007885199,
                                    0.4730885225333248))


def reference_moment(profile, k):
    probs, devs = reference_outcomes(profile, -profile.mu)
    return math.fsum(probs * devs**k)


def reference_distribution(profile):
    probs, sums = reference_outcomes(profile, 0)
    dist = np.zeros(profile.n + 1)
    np.add.at(dist, sums, probs)
    return dist


class TestProfile:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BernoulliProfile((0.5, 1.5))

    @given(profiles)
    @settings(max_examples=100, deadline=None)
    def test_variance_at_most_mean(self, profile):
        assert profile.variance <= profile.mu + 1e-12


class TestExactFourthMoment:
    def test_deterministic_variable(self):
        assert exact_fourth_moment(BernoulliProfile((1.0,))) == 0.0

    def test_two_fair_coins(self):
        # enumerate 4 outcomes: mu=1, deviations (1,0,0,1) -> 2/4
        assert exact_fourth_moment(BernoulliProfile((0.5, 0.5))) == pytest.approx(0.5)

    def test_three_fair_coins(self):
        assert exact_fourth_moment(BernoulliProfile((0.5,) * 3)) == pytest.approx(1.3125)

    @given(profiles)
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, profile):
        exact = exact_fourth_moment(profile)
        brute = brute_force_moment(profile, 4)
        assert exact == pytest.approx(brute, rel=1e-9, abs=1e-12)


class TestBruteForce:
    def test_first_moment_is_zero(self):
        p = BernoulliProfile((0.3, 0.7, 0.9))
        assert brute_force_moment(p, 1) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment_is_variance(self):
        p = BernoulliProfile((0.5, 0.5))
        assert brute_force_moment(p, 2) == pytest.approx(0.5)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_moment(BernoulliProfile((0.5,) * 21), 4)

    @pytest.mark.parametrize("k", [-1, 2.5, "4", None])
    def test_rejects_non_integer_or_negative_k(self, k):
        with pytest.raises(ValueError if k == -1 else TypeError, match="^k "):
            brute_force_moment(BernoulliProfile((0.3, 0.7, 0.9)), k)

    def test_zeroth_moment_is_one(self):
        assert brute_force_moment(BernoulliProfile((0.5, 0.5)), 0) == 1.0
        assert brute_force_moment(BernoulliProfile((0.3, 0.7, 0.9)), 0) == pytest.approx(1.0)

    def test_numpy_integer_k(self):
        p = BernoulliProfile((0.3, 0.7, 0.9))
        assert brute_force_moment(p, np.int64(4)) == brute_force_moment(p, 4)

    @given(edge_profiles)
    @example(ONE_ULP_PROFILE)
    @settings(max_examples=200, deadline=None)
    def test_moments_equal_per_outcome_enumeration(self, profile):
        assert_moments_exact(profile)

    @given(edge_profiles)
    @settings(max_examples=200, deadline=None)
    def test_distribution_equals_per_outcome_enumeration(self, profile):
        assert_distribution_exact(profile)

    @given(edge_profiles)
    @example(ONE_ULP_PROFILE)
    @settings(max_examples=40, deadline=None)  # 2^14 blocks of 4 at n = 16, 9 moments each
    def test_moments_exact_across_blocks_of_four(self, profile):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "_BLOCK_BITS", 2)
            assert_moments_exact(profile)

    @given(edge_profiles)
    @settings(max_examples=100, deadline=None)  # 2^14 blocks of 4 at n = 16
    def test_distribution_exact_across_blocks_of_four(self, profile):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "_BLOCK_BITS", 2)
            assert_distribution_exact(profile)

    def test_distribution_equals_per_outcome_enumeration_at_n_20(self):
        profile = BernoulliProfile(tuple(derived_rng(12, 0).random(20)))
        assert (sum_distribution(profile) == reference_distribution(profile)).all()

    @pytest.mark.parametrize("n", [13, 14, 15, 17, 20])
    def test_exact_at_block_boundaries(self, n):
        # one block below, at and above 2^14 outcomes, and 8 and 64 blocks
        assert moments._BLOCK_BITS == 14
        profile = BernoulliProfile(tuple(derived_rng(14, n).random(n)))
        assert_distribution_exact(profile)
        assert_moments_exact(profile)

    def test_enumeration_memory_does_not_grow_with_n(self):
        # all 2^20 outcomes held at once take over 20 MB
        profile = BernoulliProfile(tuple(derived_rng(12, 0).random(20)))
        assert traced_peak_mb(sum_distribution, profile) < 2
        assert traced_peak_mb(brute_force_moment, profile, 4) < 2

    def test_non_finite_terms_keep_the_fsum_result(self):
        # 1.5^2000 overflows to inf, and 0 * inf is nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert brute_force_moment(BernoulliProfile((0.5,) * 5), 2000) == math.inf
            with pytest.raises(ValueError, match="-inf \\+ inf"):
                brute_force_moment(BernoulliProfile((0.5,) * 5), 2001)
            assert math.isnan(brute_force_moment(BernoulliProfile((0.0, 1.0, 0.5)), 2000))

    def test_distribution_sums_to_one(self):
        dist = sum_distribution(BernoulliProfile((0.2, 0.9, 0.4)))
        assert dist.sum() == pytest.approx(1.0)
        # Pr[X=0] = 0.8*0.1*0.6
        assert dist[0] == pytest.approx(0.8 * 0.1 * 0.6)


class TestFsumBlocks:
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324])

    @given(st.lists(st.lists(finite, max_size=40), max_size=4))
    @example([[1.0, 2**-53]])  # a half-way tie, rounded to even
    @example([[1.0, 2**-53], [2**-105]])  # just above the tie
    @example([[1.0], [-1.0, 0.0]])  # cancels to 0
    @example([[-0.0, -0.0]])
    @example([[2**-1074, 2**-1022, -(2**-1023)]])  # subnormals
    @example([[1e308, -1e308, 1e308, 1e-300]])
    @settings(max_examples=500, deadline=None)
    def test_equals_fsum(self, blocks):
        arrays = [np.array(block, dtype=np.float64) for block in blocks]
        terms = [v for block in blocks for v in block]
        try:
            expected = math.fsum(terms)
        except OverflowError:  # a running sum beyond the float range
            assume(False)
        got = moments._fsum_blocks(arrays)
        assert got == expected and math.copysign(1, got) == math.copysign(1, expected)

    def test_exact_in_a_full_block(self):
        # 2^14 near-full mantissas: half just below 2, half just above -2^-1022
        rng = derived_rng(25, 0)
        terms = np.concatenate([2 - rng.random(1 << 13) * 2**-30,
                                -(2.0**-1022 - rng.random(1 << 13) * 2**-1060)])
        assert moments._fsum_blocks([terms]) == math.fsum(terms.tolist())

    def test_non_finite_terms_across_blocks(self):
        def fsum(*blocks):
            return moments._fsum_blocks([np.array(block) for block in blocks])

        assert fsum([1.0, math.inf], [2.0, math.inf]) == math.inf
        assert fsum([-math.inf, 1.0], [2.0]) == -math.inf
        assert math.isnan(fsum([math.nan, 1.0], [math.inf]))
        with pytest.raises(ValueError):
            fsum([math.inf, 1.0], [-math.inf])


class TestFourthMomentBound:
    def test_reference_values(self):
        assert fourth_moment_bound(1.0) == 4.0
        assert fourth_moment_bound(2.0) == 16.0
        assert fourth_moment_bound_sharp(1.0) == 4.0

    def test_rejects_small_mean(self):
        with pytest.raises(ValueError):
            fourth_moment_bound(0.5)

    def test_bound_holds_for_random_profiles(self):
        rng = derived_rng(55, 0)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 17))
            ps = rng.random(n)
            profile = BernoulliProfile(tuple(ps))
            if profile.mu < 1:
                continue
            val = exact_fourth_moment(profile)
            assert val <= fourth_moment_bound_sharp(profile.mu) + 1e-9
            assert fourth_moment_bound_sharp(profile.mu) <= fourth_moment_bound(profile.mu)
            checked += 1


class TestKthMomentBound:
    def test_second_moment_equality(self):
        p = BernoulliProfile((0.3, 0.6, 0.8))
        exact, bound, ok = kth_moment_bound_check(p, 2)
        assert ok
        assert exact == pytest.approx(bound)  # c=1 term is exactly sigma^2

    def test_fourth_moment_example(self):
        p = BernoulliProfile((0.5,) * 3)
        exact, bound, ok = kth_moment_bound_check(p, 4)
        assert ok
        assert exact == pytest.approx(1.3125)
        assert bound == pytest.approx(0.75 + 8 * 0.5625)

    def test_sixth_moment(self):
        p = BernoulliProfile((1 / 3,) * 10)
        exact, bound, ok = kth_moment_bound_check(p, 6)
        assert ok and exact <= bound

    def test_bound_terms_formula(self):
        # k=4, variance v: v + 8 v^2
        assert kth_moment_bound_terms(2.0, 4) == pytest.approx(2.0 + 8 * 4.0)


class TestTailCheck:
    def test_small_binomial_exact(self):
        rep = tail_check(BernoulliProfile.uniform(4, 0.5), d=math.sqrt(2))
        assert rep.exact
        assert rep.empirical_prob == pytest.approx(2 / 16)
        assert rep.bound_fourth == pytest.approx(1.0)

    def test_large_binomial_sampled(self):
        rep = tail_check(BernoulliProfile.uniform(64, 0.5), d=2.0, trials=10**5, seed=77)
        assert not rep.exact
        assert rep.empirical_prob <= 0.25 + 3 * rep.std_error

    def test_vacuous_flag(self):
        rep = tail_check(BernoulliProfile.uniform(8, 0.5), d=1.0)
        assert rep.vacuous and rep.empirical_prob <= 1.0

    def test_rejects_small_mean(self):
        with pytest.raises(ValueError):
            tail_check(BernoulliProfile((0.25,)), d=2.0)

    def test_sampling_needs_a_seed(self):
        # one variable past ENUM_LIMIT, so the tail is sampled
        with pytest.raises(ValueError, match="^sampling a large profile requires a seed$"):
            tail_check(BernoulliProfile.uniform(moments.ENUM_LIMIT + 1, 0.5), d=2.0)

    @pytest.mark.parametrize("d", [0.0, -2.0, float("nan"), True, math.inf])
    def test_rejects_non_positive_d(self, d):
        with pytest.raises(ValueError):
            tail_check(BernoulliProfile.uniform(8, 0.5), d=d)
        with pytest.raises(ValueError):
            tail_check(BernoulliProfile.uniform(64, 0.5), d=d, trials=100, seed=1)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError):
            tail_check(BernoulliProfile.uniform(64, 0.5), d=2.0, trials=trials, seed=1)
        with pytest.raises(ValueError):
            tail_check(BernoulliProfile.uniform(8, 0.5), d=2.0, trials=trials)

    @pytest.mark.parametrize("k, error", [(1, ValueError), (0, ValueError), (True, TypeError),
                                          (4.5, TypeError), (4.0, TypeError), ("4", TypeError)])
    def test_rejects_bad_k_before_enumerating(self, monkeypatch, k, error):
        monkeypatch.setattr(moments, "sum_distribution", None)  # any call would fail
        with pytest.raises(error, match="^k "):
            tail_check(BernoulliProfile.uniform(20, 0.5), d=2.0, k=k)
        with pytest.raises(error, match="^k "):
            tail_check(BernoulliProfile.uniform(64, 0.5), d=2.0, k=k, trials=100, seed=1)

    @pytest.mark.parametrize("trials", [2.5, 100.0, True, None])
    def test_rejects_non_integer_trials(self, monkeypatch, trials):
        monkeypatch.setattr(moments, "derived_rng", None)  # any draw would fail
        with pytest.raises(TypeError, match="^trials "):
            tail_check(BernoulliProfile.uniform(64, 0.5), d=2.0, trials=trials, seed=1)
        with pytest.raises(TypeError, match="^trials "):
            tail_check(BernoulliProfile.uniform(8, 0.5), d=2.0, trials=trials)

    def test_numpy_integer_k_and_trials(self):
        profile = BernoulliProfile.uniform(64, 0.5)
        assert (tail_check(profile, d=2.0, k=np.int64(6), trials=np.int32(500), seed=3)
                == tail_check(profile, d=2.0, k=6, trials=500, seed=3))

    def test_sampling_in_chunks_keeps_the_random_stream(self):
        # past ENUM_LIMIT, with a trial count that crosses three chunk
        # boundaries and leaves a partial chunk
        ps = tuple(derived_rng(31, 0).random(24))
        chunk = moments._CHUNK_VARIABLES // len(ps)
        assert 17 < chunk < 10**4
        profile, d, seed, trials = BernoulliProfile(ps), 1.0, 9, 3 * chunk + 17
        rep = tail_check(profile, d=d, trials=trials, seed=seed)
        assert not rep.exact
        mu = profile.mu
        cut = d * math.sqrt(mu) * (1 - 1e-12)
        x = (derived_rng(seed, 0).random((trials, profile.n)) < np.array(ps)).sum(axis=1)
        prob = int((np.abs(x - mu) >= cut).sum()) / trials
        assert rep.empirical_prob == prob
        assert rep.std_error == math.sqrt(max(prob * (1 - prob), 1e-12) / trials)

    def test_sampling_memory_does_not_grow_with_trials(self):
        # 2^11 rows of 256 variables at a time take 4.8 MB
        profile = BernoulliProfile.uniform(256, 0.5)
        assert traced_peak_mb(tail_check, profile, d=2.0, trials=10**5, seed=3) < 2

    def test_chebyshev_dominated_iff_d_at_least_two(self):
        for d in (1.0, 1.5, 1.99, 2.0, 2.5, 4.0):
            rep = tail_check(BernoulliProfile.uniform(8, 0.5), d=d)
            assert (rep.bound_fourth <= rep.bound_chebyshev) == (d >= 2.0)


def test_sampled_fourth_moment_under_4wise_independence():
    # indicators of a degree-3 polynomial hash landing in a fixed interval
    # are 4-wise independent; the sampled fourth moment obeys the 4 mu^2
    # bound up to 3 standard errors
    t, width, n = 64, 4, 48
    keys = list(range(1, n + 1))
    mu = n * width / t
    trials = 1200
    devs4 = np.empty(trials)
    for i in range(trials):
        h = new_polynomial(4, t, seed=300, stream=i)
        x = sum(1 for key in keys if h(key) < width)
        devs4[i] = (x - mu) ** 4
    sample_mean = devs4.mean()
    se = devs4.std(ddof=1) / math.sqrt(trials)
    assert sample_mean <= fourth_moment_bound(mu) + 3 * se
