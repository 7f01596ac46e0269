import itertools

import numpy as np
import pytest

from linprobe.hashing import (
    MERSENNE61,
    LinearHash,
    PolynomialHash,
    TabulationHash,
    TrulyRandomHash,
    derived_rng,
    new_linear,
    new_polynomial,
    new_tabulation,
    verify_independence_exact,
)
from linprobe.filters import sample_distinct_keys
from linprobe.probing import ProbeTable


P = MERSENNE61


def test_modulus_is_the_mersenne_prime():
    assert MERSENNE61 == 2**61 - 1


class TestNewPolynomial:
    def test_deterministic_per_seed(self):
        a = new_polynomial(5, 2**10, seed=77)
        b = new_polynomial(5, 2**10, seed=77)
        assert a.coefficients == b.coefficients

    def test_coefficients_in_range(self):
        h = new_polynomial(5, 2**56, seed=3)  # the widest range the 24t guard allows
        assert all(0 <= a < P for a in h.coefficients)

    @pytest.mark.parametrize("coeffs", [(P,), (0, P), (-1, 2), (P + 5, 0, 1)])
    def test_rejects_non_residue_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="residues"):
            PolynomialHash(coeffs, 4)

    def test_degree_zero_is_constant(self):
        h = new_polynomial(1, 8, seed=1)
        values = {h(x) for x in range(100)}
        assert len(values) == 1
        assert values == {h.coefficients[0] % P % 8}

    @pytest.mark.parametrize("t", [0, 3, 12, 1000])
    def test_rejects_non_power_of_two(self, t):
        with pytest.raises(ValueError):
            new_polynomial(2, t, seed=0)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError, match="24"):
            new_polynomial(2, 2**57, seed=0)  # 24 * 2^57 > p

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            new_polynomial(0, 8, seed=0)


class TestEvalPoly:
    def test_small_coefficient_arithmetic(self):
        h = PolynomialHash(coefficients=(2, 3), range_t=4)
        # 3*(p + 5) + 2 = 17 (mod p); 17 mod 4 = 1
        assert h(P + 5) == 1
        assert h.eval_mod_p(P + 5) == 17
        # 3*5 + 2 = 17 below p, so the key p + 5 aliases 5
        assert h(5) == h(P + 5)

    def test_coefficient_near_p_wraps(self):
        h = PolynomialHash(coefficients=(P - 1, 1), range_t=8)
        # x + p - 1 = x - 1 (mod p): wraps for every x >= 1
        assert h.eval_mod_p(0) == P - 1
        assert h.eval_mod_p(1) == 0
        assert h.eval_mod_p(13) == 12
        assert h(13) == 12 % 8
        sq = PolynomialHash(coefficients=(0, 0, P - 1), range_t=8)
        # -x^2 (mod p)
        assert sq.eval_mod_p(3) == P - 9
        assert sq(3) == (P - 9) % 8

    def test_zero_polynomial(self):
        h = PolynomialHash(coefficients=(0, 0, 0), range_t=4)
        assert all(h(x) == 0 for x in [*range(7), P - 1, P, P + 1, 2**64 - 1])

    def test_matches_big_integer_oracle(self):
        h = new_polynomial(5, 2**12, seed=9)
        rng = derived_rng(10, 0)
        for x in rng.integers(0, P, size=10**4, dtype=np.uint64):
            x = int(x)
            naive = sum(a * x**i for i, a in enumerate(h.coefficients)) % P % 2**12
            assert h(x) == naive


class TestLinear:
    def test_degenerate_slope_is_constant(self):
        h = LinearHash(a=0, b=5, range_t=4)
        assert {h(x) for x in [*range(7), P, 2**64 - 1]} == {5 % 4}

    def test_small_coefficient_arithmetic(self):
        h = LinearHash(a=3, b=2, range_t=4)
        assert h(P + 5) == 1
        # a = p - 1: (p - 1) * 5 + 2 = -3 (mod p)
        assert LinearHash(a=P - 1, b=2, range_t=8)(5) == (P - 3) % 8

    @pytest.mark.parametrize("a,b", [(P, 0), (0, P), (-1, 0)])
    def test_rejects_non_residues(self, a, b):
        with pytest.raises(ValueError, match="residues"):
            LinearHash(a=a, b=b, range_t=4)

    def test_matches_degree_one_polynomial(self):
        lin = new_linear(2**10, seed=21)
        poly = PolynomialHash(coefficients=(lin.b, lin.a), range_t=lin.range_t)
        rng = derived_rng(22, 0)
        for x in rng.integers(0, P, size=10**4, dtype=np.uint64):
            assert lin(int(x)) == poly(int(x))


class TestTabulation:
    def test_shape(self):
        h = new_tabulation(4, 8, 32, seed=5)
        assert len(h.tables) == 4
        assert all(len(t) == 256 for t in h.tables)
        assert all(e < 2**32 for t in h.tables for e in t)

    def test_deterministic_per_seed(self):
        assert np.array_equal(new_tabulation(4, 8, 32, seed=5).tables,
                              new_tabulation(4, 8, 32, seed=5).tables)

    def test_single_character_is_table_lookup(self):
        h = new_tabulation(1, 8, 16, seed=2)
        for x in range(256):
            assert h(x) == h.tables[0][x]

    def test_zero_tables_hash_to_zero(self):
        h = TabulationHash(
            char_count=2, char_bits=4, output_bits=8, tables=((0,) * 16, (0,) * 16)
        )
        assert all(h(x) == 0 for x in range(256))

    def test_two_character_recomputation(self):
        h = new_tabulation(2, 4, 12, seed=8)
        for x in range(256):
            assert h(x) == h.tables[0][x & 15] ^ h.tables[1][x >> 4]

    def test_xor_cancellation_iff_lookups_cancel(self):
        h = new_tabulation(2, 2, 8, seed=13)
        for x, y in itertools.product(range(16), repeat=2):
            lookups = (
                h.tables[0][x & 3] ^ h.tables[1][x >> 2]
                ^ h.tables[0][y & 3] ^ h.tables[1][y >> 2]
            )
            assert (h(x) ^ h(y) == 0) == (lookups == 0)

    def test_rejects_overflowing_widths(self):
        with pytest.raises(ValueError):
            new_tabulation(5, 16, 32, seed=0)
        with pytest.raises(ValueError):
            new_tabulation(2, 8, 65, seed=0)

    def test_uniformity_of_fixed_key_over_draws(self):
        # c=2, char_bits=2, output_bits=2: each output value of a fixed key
        # should appear with frequency 1/4 +- 0.01 over 10^5 draws
        draws = 10**5
        counts = np.zeros(4, dtype=np.int64)
        for i in range(draws):
            counts[new_tabulation(2, 2, 2, seed=400, stream=i)(9)] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_three_independence_chi_square(self):
        # joint distribution of 3 fixed keys over 10^5 draws is uniform on
        # the 4^3 outcomes at significance 1e-3
        from scipy.stats import chi2

        draws = 10**5
        keys = (3, 7, 12)
        counts = np.zeros(64, dtype=np.int64)
        for i in range(draws):
            h = new_tabulation(2, 2, 2, seed=401, stream=i)
            idx = (h(keys[0]) << 4) | (h(keys[1]) << 2) | h(keys[2])
            counts[idx] += 1
        expected = draws / 64
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - 1e-3, df=63)


class TestTrulyRandom:
    def test_memoized_and_in_range(self):
        h = TrulyRandomHash(64, seed=3)
        vals = [h(x) for x in range(1000)]
        assert all(0 <= v < 64 for v in vals)
        assert [h(x) for x in range(1000)] == vals

    def test_concurrent_evaluation_consistent(self):
        import threading

        h = TrulyRandomHash(1024, seed=4)
        results = [None] * 4

        def work(slot):
            results[slot] = [h(x) for x in range(2000)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert all(r == results[0] for r in results)


class TestIndependenceExact:
    def test_two_independent_pairs(self):
        ok, cex = verify_independence_exact(5, 2, 2)
        assert ok and cex is None

    def test_constant_family_fails(self):
        ok, cex = verify_independence_exact(5, 1, 2)
        assert not ok
        assert cex is not None

    def test_three_independent_triples(self):
        ok, _ = verify_independence_exact(3, 3, 3)
        assert ok

    @pytest.mark.parametrize(
        "p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
    )
    def test_family_is_k_independent_for_all_j(self, p, k):
        for j in range(1, k + 1):
            ok, cex = verify_independence_exact(p, k, j)
            assert ok, cex

    def test_rejects_excessive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            verify_independence_exact(101, 3, 2)
        with pytest.raises(ValueError, match="budget"):  # refused before any primality work
            verify_independence_exact(2**61 - 1, 3, 2)

    @pytest.mark.parametrize("p", [1, 4, 9, 1001])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not prime"):
            verify_independence_exact(p, 1, 1)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k must be"):
            verify_independence_exact(5, 0, 1)


def test_mod_t_near_uniformity_small_prime():
    # k=1 family over all p values of a_0: each masked value's frequency lies
    # strictly within (1/t - 1/p, 1/t + 1/p)
    for p, t in [(251, 8), (31, 4), (13, 4), (257, 16)]:
        counts = np.zeros(t, dtype=np.int64)
        for a0 in range(p):
            counts[a0 % p % t] += 1
        freqs = counts / p
        assert np.all(freqs > 1 / t - 1 / p)
        assert np.all(freqs < 1 / t + 1 / p)


def test_derived_streams_differ():
    a = derived_rng(9, 0).integers(0, 2**32, size=4)
    b = derived_rng(9, 1).integers(0, 2**32, size=4)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# batch kernels: hash_array must equal the scalar __call__ on every uint64 key

EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**60, P - 2, P - 1, P, P + 1, 2**63, 2**64 - 1]


def batch_keys(seed):
    rng = derived_rng(seed, 0)
    drawn = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
    return np.concatenate([drawn, np.array(EDGE_KEYS, dtype=np.uint64)])


def all_families(t, seed):
    return [
        new_polynomial(1, t, seed, stream=0),
        new_polynomial(2, t, seed, stream=1),
        new_polynomial(3, t, seed, stream=2),
        new_polynomial(5, t, seed, stream=3),
        new_linear(t, seed, stream=4),
        PolynomialHash((P - 1,) * 5, t),  # largest residues
        PolynomialHash((0, 1), t),  # x mod p: key p must give 0
        new_tabulation(4, 16, t.bit_length() - 1, seed, stream=5),
        new_tabulation(4, 16, 64, seed, stream=6),  # full-width output
        TrulyRandomHash(t, seed, stream=7),
    ]


class TestHashArray:
    @pytest.mark.parametrize("t", [2, 2**11, 2**17])
    def test_matches_scalar_call(self, t):
        keys = batch_keys(t)
        for h in all_families(t, seed=t):
            got = h.hash_array(keys)
            assert got.dtype == np.uint64
            assert got.tolist() == [h(int(k)) for k in keys], type(h).__name__

    def test_empty_batch(self):
        for h in all_families(2**11, seed=1):
            assert h.hash_array(np.empty(0, dtype=np.uint64)).tolist() == []

    @pytest.mark.parametrize("t", [2, 2**11, 2**17])
    def test_truly_random_scalar_batch_scalar(self, t):
        keys = batch_keys(t + 1)
        first, batch, last = keys[:300], keys[200:1200], keys[1000:]
        batch = np.concatenate([batch, batch[::3], first[:50]])  # repeats within a batch
        a = TrulyRandomHash(t, seed=5, stream=2)
        b = TrulyRandomHash(t, seed=5, stream=2)
        got = [a(int(k)) for k in first] + a.hash_array(batch).tolist()
        got += [a(int(k)) for k in last]
        want = [b(int(k)) for k in np.concatenate([first, batch, last])]
        assert got == want

    @pytest.mark.parametrize("entry", [-1, 256, 2**64])
    def test_tabulation_entry_out_of_range(self, entry):
        with pytest.raises(ValueError):
            TabulationHash(char_count=1, char_bits=2, output_bits=8,
                           tables=((0, 1, 2, entry),))


@pytest.mark.filterwarnings("error")  # an overflow warning fails the test
@pytest.mark.parametrize("family", ["poly1", "poly2", "poly3", "poly5", "linear"])
def test_scalar_hash_takes_numpy_integers(family):
    # a numpy key is evaluated as the Python int it stands for, not in
    # wrapping 64-bit arithmetic, and lands in the same table slot
    t = 2**13
    h = new_linear(t, 8) if family == "linear" else new_polynomial(int(family[-1]), t, 8)
    keys = batch_keys(9).tolist()
    batch = h.hash_array(np.array(keys, dtype=np.uint64)).tolist()
    for k, want in zip(keys, batch):
        assert h(np.uint64(k)) == h(k) == want
        if k < 2**63:
            assert h(np.int64(k)) == want
        assert ProbeTable(t, h).insert(np.uint64(k)) == (want, 1)
    with pytest.raises(TypeError):
        h(1.0)


def sample_distinct_keys_loop(rng, count, bound):
    """The scalar first-occurrence loop that sample_distinct_keys replaced."""
    seen = {}
    while len(seen) < count:
        draw = rng.integers(0, bound, size=count, dtype=np.uint64)
        for k in draw:
            seen.setdefault(int(k), None)
            if len(seen) == count:
                break
    return list(seen)


@pytest.mark.parametrize("count,bound", [(0, 10), (1, 10), (1, 2), (5, 8), (20, 23),
                                         (200, 203), (1000, P), (116_384, P)])
def test_sample_distinct_keys_matches_loop(count, bound):
    for stream in range(5):
        a, b = derived_rng(11, stream), derived_rng(11, stream)
        got = sample_distinct_keys(a, count, bound)
        assert got == sample_distinct_keys_loop(b, count, bound)
        assert all(type(k) is int for k in got)
        assert a.integers(0, 2**63) == b.integers(0, 2**63)  # same draws consumed


@pytest.mark.parametrize("count,bound", [(3, 2), (-1, 10)])
def test_sample_distinct_keys_rejects_impossible_count(count, bound):
    rng, untouched = derived_rng(0, 0), derived_rng(0, 0)
    with pytest.raises(ValueError):
        sample_distinct_keys(rng, count, bound)
    assert rng.integers(0, 2**63) == untouched.integers(0, 2**63)  # nothing drawn
