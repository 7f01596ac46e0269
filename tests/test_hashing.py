import itertools
import threading

import numpy as np
import pytest

from linprobe.hashing import (
    MERSENNE61,
    PolynomialHash,
    TabulationHash,
    TrulyRandomHash,
    derived_rng,
    new_polynomial,
    new_tabulation,
    verify_independence_exact,
    _key_array,
)
from linprobe.filters import MODES, SignatureFilter, _placement, sample_distinct_keys
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

    def test_coefficients_are_python_ints(self):
        # numpy coefficients are stored as the Python ints they stand for, so
        # the scalar Horner loop cannot wrap modulo 2^64
        c, t, x = (123456789012345, 987654321098765, 555555555555555), 2**16, 2**50 + 12345
        twin = PolynomialHash(c, t)
        for given in (tuple(np.uint64(a) for a in c), np.array(c, dtype=np.int64), list(c)):
            h = PolynomialHash(given, t)
            assert all(type(a) is int for a in h.coefficients)
            assert h == twin and hash(h) == hash(twin)
            assert h(x) == twin(x) == int(h.hash_array([x])[0]) == 42667
        for bad in ((2, 1.5), (2.0,), (np.float64(3),), ("1",), (None, 1)):
            with pytest.raises(TypeError):
                PolynomialHash(bad, 8)

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
        # 3*5 + 2 = 17; 17 mod 4 = 1
        assert h(5) == 1
        assert h.eval_mod_p(5) == 17
        # 3*(p - 1) + 2 = -1 (mod p): the largest key wraps
        assert h.eval_mod_p(P - 1) == P - 1
        assert h(P - 1) == (P - 1) % 4

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
        assert all(h(x) == 0 for x in [*range(7), P - 2, P - 1])

    def test_matches_big_integer_oracle(self):
        h = new_polynomial(5, 2**12, seed=9)
        rng = derived_rng(10, 0)
        for x in rng.integers(0, P, size=10**4, dtype=np.uint64):
            x = int(x)
            naive = sum(a * x**i for i, a in enumerate(h.coefficients)) % P % 2**12
            assert h(x) == naive


def linear(a, b, range_t):
    # the linear family x -> (a*x + b) mod p mod t is the degree-1 polynomial
    return PolynomialHash(coefficients=(b, a), range_t=range_t)


class TestLinear:
    def test_degenerate_slope_is_constant(self):
        h = linear(a=0, b=5, range_t=4)
        assert {h(x) for x in [*range(7), P - 2, P - 1]} == {5 % 4}

    def test_small_coefficient_arithmetic(self):
        h = linear(a=3, b=2, range_t=4)
        assert h(5) == 1  # 3*5 + 2 = 17; 17 mod 4 = 1
        # a = p - 1: (p - 1) * 5 + 2 = -3 (mod p)
        assert linear(a=P - 1, b=2, range_t=8)(5) == (P - 3) % 8

    @pytest.mark.parametrize("a,b", [(P, 0), (0, P), (-1, 0)])
    def test_rejects_non_residues(self, a, b):
        with pytest.raises(ValueError, match="residues"):
            linear(a=a, b=b, range_t=4)


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

    @pytest.mark.parametrize("c,char_bits", [(1, 8), (2, 4), (2, 16), (3, 8)])
    def test_narrow_key_width_refuses_wider_keys(self, c, char_bits):
        # a key at or above 2^(c * char_bits) would alias onto its low bits:
        # with c = 1, char_bits = 8, h(256) would equal h(0)
        h = new_tabulation(c, char_bits, 16, seed=0)
        top = (1 << c * char_bits) - 1
        assert h.hash_array(np.array([0, top])).tolist() == [h(0), h(top)]
        for bad in (top + 1, top + 2, P - 1):
            with pytest.raises(ValueError):
                h(bad)
            with pytest.raises(ValueError):
                h.hash_array(np.array([0, bad], dtype=np.uint64))

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
# batch kernels: hash_array must equal the scalar __call__ on every key in [0, p)

EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**60, P - 2, P - 1]


def batch_keys(seed):
    rng = derived_rng(seed, 0)
    drawn = rng.integers(0, P, size=4096, dtype=np.uint64)
    return np.concatenate([drawn, np.array(EDGE_KEYS, dtype=np.uint64)])


def all_families(t, seed):
    return [
        new_polynomial(1, t, seed, stream=0),
        new_polynomial(2, t, seed, stream=1),
        new_polynomial(3, t, seed, stream=2),
        new_polynomial(5, t, seed, stream=3),
        new_polynomial(2, t, seed, stream=4),
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
            for empty in (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), [], ()):
                assert h.hash_array(empty).tolist() == []

    def test_two_dimensional_batch(self):
        keys = batch_keys(3)[-4096:].reshape(64, 64)  # the edge keys included
        for h in all_families(2**11, seed=3):
            got = h.hash_array(keys)
            assert got.shape == keys.shape and got.dtype == np.uint64, type(h).__name__
            assert got.tolist() == [[h(int(k)) for k in row] for row in keys]
            assert h.hash_array(keys.T).tolist() == got.T.tolist()  # memoized for random

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


def keys_with_repeats(seed, size, distinct):
    """`size` keys drawn with replacement from `distinct` keys (the edge
    keys among them), in an unsorted order of first occurrence."""
    pool = batch_keys(seed)[-distinct:]
    return pool[derived_rng(seed, 1).integers(0, distinct, size=size)]


def fresh_batch(kind, seed, size, distinct):
    """`distinct` distinct keys (the edge keys among them) in an
    unsorted order, or `size` keys drawn from them with replacement."""
    if kind == "repeats":
        return keys_with_repeats(seed, size, distinct)
    keys = batch_keys(seed)[-distinct:]
    assert len(set(keys.tolist())) == distinct
    return keys


def same_stream(a, b):
    return a._rng.bit_generator.state == b._rng.bit_generator.state


KINDS = ["distinct", "repeats"]
RANGES = [2, 2**11, 2**17, 2**40]


class TestTrulyRandomFreshBatch:
    """A batch of distinct keys on a function with nothing memoized is drawn
    in one call and kept pending; any other batch goes through `__call__`.
    Either way it must behave exactly like scalar evaluation in key order."""

    @pytest.mark.parametrize("t", RANGES)
    def test_fresh_batch_equals_scalar_in_key_order(self, t):
        for kind in KINDS:
            keys = fresh_batch(kind, t, 3000, 400)
            a, b = TrulyRandomHash(t, seed=6, stream=1), TrulyRandomHash(t, seed=6, stream=1)
            assert a.hash_array(keys).tolist() == [b(int(k)) for k in keys]
            assert same_stream(a, b)
            assert (a._pending is not None) == (kind == "distinct")  # one draw, kept pending

    @pytest.mark.parametrize("t", RANGES)
    def test_scalar_then_batch_after_fresh_batch(self, t):
        for kind in KINDS:
            keys = fresh_batch(kind, t + 1, 3000, 400)
            more = fresh_batch(kind, t + 2, 2000, 600)  # some memoized, some new
            a, b = TrulyRandomHash(t, seed=7, stream=2), TrulyRandomHash(t, seed=7, stream=2)
            first = a.hash_array(keys).tolist()
            assert first == [b(int(k)) for k in keys]
            assert [a(int(k)) for k in keys[::-1]] == first[::-1]  # memoized: no draw
            assert same_stream(a, b)
            assert [a(int(k)) for k in more[:500]] == [b(int(k)) for k in more[:500]]
            assert same_stream(a, b)
            assert a.hash_array(more).tolist() == [b(int(k)) for k in more]
            assert same_stream(a, b)
            assert a.hash_array(keys).tolist() == first

    def test_second_batch_folds_the_first(self):
        for kind in KINDS:
            keys, more = fresh_batch(kind, 4, 3000, 400), fresh_batch(kind, 5, 3000, 700)
            a, b = TrulyRandomHash(2**11, seed=8), TrulyRandomHash(2**11, seed=8)
            assert a.hash_array(keys).tolist() == [b(int(k)) for k in keys]
            assert a.hash_array(more).tolist() == [b(int(k)) for k in more]
            assert same_stream(a, b)
            assert a.hash_array(keys).tolist() == [b(int(k)) for k in keys]
            assert same_stream(a, b)

    def test_batch_keeps_no_view_of_the_keys(self):
        keys = batch_keys(10)[-1000:]
        a, b = TrulyRandomHash(2**11, seed=10), TrulyRandomHash(2**11, seed=10)
        caller = keys.copy()
        first = a.hash_array(caller).tolist()
        caller[:] = batch_keys(11)[-1000:]  # the caller reuses its array
        assert a.hash_array(keys[::-1]).tolist() == first[::-1]
        assert [a(int(k)) for k in keys] == first == [b(int(k)) for k in keys]
        assert same_stream(a, b)

    def test_threads_mixing_batch_and_scalar_agree(self):
        for kind, round_ in itertools.product(KINDS, range(10)):
            keys = fresh_batch(kind, 9, 4000, 500)
            h = TrulyRandomHash(2**11, seed=9, stream=round_)
            barrier, got = threading.Barrier(4), [None] * 4

            def work(i):
                part = keys[i::4]
                barrier.wait()
                got[i] = (h.hash_array(part).tolist() if i % 2 == round_ % 2
                          else [h(k) for k in part.tolist()])

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            want = h.hash_array(keys).tolist()
            assert all(got[i] == want[i::4] for i in range(4))
            assert [h(int(k)) for k in keys] == want


ALIASING_BATCHES = [
    (np.array([-1]), ValueError),  # a uint64 cast would make it 2^64 - 1
    (np.array([5, 2**62, -3], dtype=np.int64), ValueError),
    (np.array([-1], dtype=np.int8), ValueError),
    (np.array([1.5]), TypeError),  # a uint64 cast would make it 1
    (np.array([1.0]), TypeError),
    (np.array([True]), TypeError),
    (np.array([1 + 0j]), TypeError),
]


@pytest.mark.parametrize("keys,error", ALIASING_BATCHES)
def test_hash_array_refuses_keys_a_cast_would_alias(keys, error):
    for h, fresh in zip(all_families(2**10, seed=12), all_families(2**10, seed=12)):
        with pytest.raises(error):
            h.hash_array(keys)
        if isinstance(h, TrulyRandomHash):  # nothing drawn, nothing kept
            assert same_stream(h, fresh) and h._pending is None and not h._memo


# the one key universe [0, p): in-range keys and keys every form refuses
IN_RANGE_KEYS = [0, 1, P - 2, P - 1]
OUT_OF_RANGE_KEYS = [-1, P, P + 1, 2**63, 2**64 - 1, 2**64, 1.5, None]


def key_forms(t, seed):
    """(name, scalar, batch, store) for every family of `all_families` and
    every filter placement: batch maps a key array to the scalar values in
    key order, and store is a `ProbeTable` or `SignatureFilter` on the form."""
    for h in all_families(t, seed):
        yield (type(h).__name__, h, lambda keys, h=h: h.hash_array(keys).tolist(),
               ProbeTable(t, lambda x, h=h: h(x) & (t - 1)))  # full-width outputs too
    for mode in MODES:
        place, place_array = _placement(t, 8, mode, seed, stream=1)
        yield (mode, place, lambda keys, f=place_array: list(zip(*(a.tolist() for a in f(keys)))),
               SignatureFilter(t, place))


@pytest.mark.parametrize("t", [2, 2**10])
def test_scalar_and_batch_share_one_key_universe(t):
    keys = np.concatenate([np.array(IN_RANGE_KEYS, dtype=np.uint64),
                           derived_rng(t, 1).integers(0, P, size=500, dtype=np.uint64)])
    for name, scalar, batch, store in key_forms(t, seed=14):
        assert batch(keys) == [scalar(k) for k in keys.tolist()], name
        for x in keys.tolist()[: t // 2]:
            store.insert(x)
        table = getattr(store, "table", store)
        before = (list(table.slots), table.n)
        rng = getattr(scalar, "_rng", None)
        state = rng.bit_generator.state if rng else None
        for bad in OUT_OF_RANGE_KEYS:
            error = ValueError if isinstance(bad, int) else TypeError
            with pytest.raises(error):
                scalar(bad)
            with pytest.raises(error):
                store.insert(bad)
            array = np.array([bad])  # numpy holds 2^64 and None as objects, 1.5 as a float
            with pytest.raises(ValueError if array.dtype.kind in "iu" else TypeError):
                batch(array)
        assert (table.slots, table.n) == before, name  # a refused insert writes nothing
        if rng:  # a truly random function draws nothing for a refused key
            assert rng.bit_generator.state == state, name


def test_hash_array_takes_signed_batches():
    unsigned = batch_keys(13)
    signed = unsigned.astype(np.int64)  # every key is below p < 2^63, P - 1 among them
    for h in all_families(2**10, seed=13):
        got = h.hash_array(signed)
        assert got.dtype == np.uint64, type(h).__name__
        assert got.tolist() == h.hash_array(signed.astype(np.uint64)).tolist()
        assert got.tolist() == [h(k) for k in signed.tolist()]
    assert _key_array(unsigned) is unsigned  # a uint64 batch: no copy


@pytest.mark.filterwarnings("error")  # an overflow warning fails the test
@pytest.mark.parametrize("family", ["poly1", "poly2", "poly3", "poly5", "linear", "tabulation",
                                    "random"])
def test_scalar_hash_takes_numpy_integers(family):
    # a numpy key is evaluated as the Python int it stands for, not in
    # wrapping 64-bit arithmetic, and lands in the same table slot
    t = 2**13
    if family == "linear":  # the largest slope and offset
        h = linear(a=P - 1, b=P - 2, range_t=t)
    elif family == "tabulation":
        h = new_tabulation(4, 16, 13, 8)
    elif family == "random":
        h = TrulyRandomHash(t, 8)
    else:
        h = new_polynomial(int(family[-1]), t, 8)
    keys = batch_keys(9).tolist()
    batch = h.hash_array(np.array(keys, dtype=np.uint64)).tolist()
    for k, want in zip(keys, batch):
        assert h(np.uint64(k)) == h(np.int64(k)) == h(k) == want
        assert ProbeTable(t, h).insert(np.uint64(k)) == (want, 1)
    for bad in (1.0, np.float64(1.0), "a", None):
        with pytest.raises(TypeError):
            h(bad)


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
        assert got.dtype == np.uint64
        assert got.tolist() == sample_distinct_keys_loop(b, count, bound)
        assert a.integers(0, 2**63) == b.integers(0, 2**63)  # same draws consumed


@pytest.mark.parametrize("count,bound", [(3, 2), (-1, 10)])
def test_sample_distinct_keys_rejects_impossible_count(count, bound):
    rng, untouched = derived_rng(0, 0), derived_rng(0, 0)
    with pytest.raises(ValueError):
        sample_distinct_keys(rng, count, bound)
    assert rng.integers(0, 2**63) == untouched.integers(0, 2**63)  # nothing drawn
