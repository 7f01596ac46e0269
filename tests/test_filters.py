import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linprobe import filters, hashing
from linprobe.experiments import ExperimentConfig
from linprobe.filters import (
    MODES,
    SignatureFilter,
    make_filter,
    measure_fpr,
    sample_distinct_keys,
    scan_keys,
    subsequence_scan_check,
    _placement,
)
from linprobe.hashing import (
    PolynomialHash,
    TabulationHash,
    TrulyRandomHash,
    derived_rng,
    new_polynomial,
)
from linprobe.probing import ProbeTable, TableFullError, table_size_for, _scan_found
from probe_model import carry_model


class FixedHash:
    def __init__(self, t, mapping=None, default=0):
        self.range_t = t
        self.mapping = mapping or {}
        self.default = default

    def __call__(self, x):
        return self.mapping.get(x, self.default)


def fixed_filter(t=16, hmap=None, smap=None):
    h = FixedHash(t, hmap)
    return SignatureFilter(t, lambda x: (h(x), (smap or {}).get(x, x % 7)))


class TestInsertQuery:
    def test_insert_into_empty(self):
        f = fixed_filter(hmap={42: 5})
        assert f.insert(42)
        assert [i for i, s in enumerate(f.table.slots) if s is not None] == [5]
        assert f.table.slots[5] == 42 % 7

    def test_colliding_signature_is_already_positive(self):
        f = fixed_filter(hmap={1: 5, 2: 5}, smap={1: 9, 2: 9})
        assert f.insert(1)
        before = list(f.table.slots)  # empty slots are None
        assert not f.insert(2)
        assert f.table.slots == before

    def test_no_false_negatives(self):
        f = make_filter(1 << 8, 4, "independent", seed=3)
        rng = derived_rng(4, 0)
        keys = sample_distinct_keys(rng, 128, 2**61 - 1)
        for x in keys:
            f.insert(x)
        assert all(f.query(x) for x in keys)

    def test_query_empty_filter(self):
        assert not fixed_filter().query(3)

    def test_non_member_with_unique_signature(self):
        f = fixed_filter(hmap={1: 5, 9: 5}, smap={1: 2, 9: 3})
        f.insert(1)
        assert not f.query(9)

    def test_full_filter_rejected(self):
        h = FixedHash(4)
        f = SignatureFilter(4, lambda x: (h(x), x % 8))
        for x in (1, 2, 3):
            f.insert(x)
        before = (list(f.table.slots), f.table.n)
        assert not f.insert(10)  # signature 2 is on the path: positive, nothing written
        assert (f.table.slots, f.table.n) == before
        with pytest.raises(TableFullError):
            f.insert(4)  # a new signature needs the last empty slot
        assert (f.table.slots, f.table.n) == before

    def test_no_delete_operation(self):
        f = fixed_filter()
        assert not hasattr(f, "delete")

    def test_reinsert_never_changes_answers(self):
        f = make_filter(1 << 6, 6, "independent", seed=9)
        keys = sample_distinct_keys(derived_rng(10, 0), 30, 2**61 - 1)
        probes = sample_distinct_keys(derived_rng(11, 0), 200, 2**61 - 1)
        for x in keys:
            f.insert(x)
        answers = [f.query(q) for q in probes]
        for x in keys:
            f.insert(x)
        assert [f.query(q) for q in probes] == answers

    def test_adding_keys_is_monotone(self):
        f = make_filter(1 << 7, 6, "independent", seed=12)
        keys = sample_distinct_keys(derived_rng(13, 0), 80, 2**61 - 1)
        probes = sample_distinct_keys(derived_rng(14, 0), 300, 2**61 - 1)
        positive = set()
        for x in keys:
            f.insert(x)
            now = {q for q in probes if f.query(q)}
            assert positive <= now
            positive = now


class TestModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_modes_build_and_answer(self, mode):
        f = make_filter(1 << 8, 8, mode, seed=21)
        keys = sample_distinct_keys(derived_rng(22, 0), 100, 2**61 - 1)
        for x in keys:
            f.insert(x)
        assert all(f.query(x) for x in keys)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_filter(64, 8, "bloom", seed=0)

    def test_paired_width_guard(self):
        with pytest.raises(ValueError):
            make_filter(1 << 50, 12, "paired", seed=0)

    def test_tabulation_paired_width_guard(self):
        make_filter(1 << 6, 58, "tabulation_paired", seed=0)  # 6 + 58 = 64 bits fits
        with pytest.raises(ValueError, match="too wide for the tabulation_paired"):
            make_filter(1 << 6, 59, "tabulation_paired", seed=0)

    @pytest.mark.parametrize("mode,widest", [("independent", 56), ("hash_of_signature", 56),
                                             ("paired", 50), ("tabulation_paired", 58)])
    def test_widest_signature(self, mode, widest):
        # at t = 64 a polynomial range is at most 2^56 and a tabulation output 64 bits:
        # a b-bit signature for the unpaired modes, a (6 + b)-bit hash for the paired
        make_filter(1 << 6, widest, mode, seed=0)
        ExperimentConfig("filter_fpr", modes=(mode,), n_values=(40,), b_values=(widest,))
        with pytest.raises(ValueError, match=f"too wide for the {mode}"):
            make_filter(1 << 6, widest + 1, mode, seed=0)
        with pytest.raises(ValueError, match=f"too wide for the {mode}"):
            ExperimentConfig("filter_fpr", modes=(mode,), n_values=(40,),
                             b_values=(widest + 1,))

    def test_paired_splits_one_output(self):
        f = make_filter(1 << 6, 4, "paired", seed=23)
        # h and s come from one drawn value: both deterministic per key
        for x in (5, 99, 12345):
            start, sig = f.place(x)
            assert f.place(x) == (start, sig)
            assert 0 <= start < 1 << 6
            assert 0 <= sig < 1 << 4

    def test_paired_split_matches_wide_hash(self):
        f = make_filter(1 << 6, 4, "paired", seed=23)
        wide = new_polynomial(5, 1 << 10, 23)
        for x in (5, 99, 5, 12345, 99, 99, 5):
            assert f.place(x) == (wide(x) >> 4, wide(x) & 15)


def test_place_evaluated_once_per_operation():
    calls = []

    def place(x):
        calls.append(x)
        return x % 8, x % 5

    f = SignatureFilter(8, place)
    assert f.insert(3) and calls == [3]
    assert f.query(11) is False and calls == [3, 11]
    assert f.query(3) and calls == [3, 11, 3]


@pytest.mark.parametrize("op", ["insert", "query"])
@pytest.mark.parametrize("start", [-1, 8])
def test_filter_refuses_start_outside_table(op, start):
    # without the check, start -1 would alias slot 7: an insert would store
    # its signature there, and a query for key 2 would find key 1's signature
    f = SignatureFilter(8, lambda x: (7, 3) if x == 1 else (start, 3))
    if op == "query":
        f.insert(1)
    before = (list(f.table.slots), f.table.n)
    with pytest.raises(ValueError, match="outside"):
        getattr(f, op)(2)
    assert (f.table.slots, f.table.n) == before


P = 2**61 - 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("t,b", [(4, 1), (64, 8), (1 << 10, 12), (1 << 6, 50),
                                 (4, "widest"), (1 << 10, "widest")])
def test_batch_placement_matches_scalar(mode, t, b):
    if b == "widest":  # the widest the mode accepts (see `_check_width`)
        log_t = t.bit_length() - 1
        b = {"paired": 56 - log_t, "tabulation_paired": 64 - log_t}.get(mode, 56)
    place, place_array = _placement(t, b, mode, seed=61, stream=3)
    keys = np.concatenate([derived_rng(62, 0).integers(0, P, size=2000, dtype=np.uint64),
                           np.array([0, 1, 2**32, P - 1], dtype=np.uint64)])
    starts, sigs = place_array(keys)
    assert starts.dtype == sigs.dtype == np.uint64
    placed = [place(k) for k in keys.tolist()]
    assert all(type(start) is int and type(sig) is int for start, sig in placed)
    assert list(zip(starts.tolist(), sigs.tolist())) == placed
    assert max(starts.tolist()) < t and max(sigs.tolist()) < 1 << b


@pytest.mark.parametrize("mode", MODES)
def test_batch_placement_of_empty_and_zero_dimensional_batches(mode):
    place, place_array = _placement(64, 8, mode, seed=64, stream=2)
    for empty in (np.empty(0, dtype=np.uint64), np.empty((0, 3), dtype=np.int64)):
        starts, sigs = place_array(empty)
        assert type(starts) is type(sigs) is np.ndarray
        assert starts.shape == sigs.shape == empty.shape
        assert starts.dtype == sigs.dtype == np.uint64
    for key in (0, 1, 2**32, P - 1):
        start, sig = place_array(np.array(key, dtype=np.uint64))
        assert type(start) is type(sig) is np.uint64  # numpy scalars, as each mode's last op makes
        assert (int(start), int(sig)) == place(key)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("keys,error", [(np.array([3, -1]), ValueError),
                                        (np.array([-2**40], dtype=np.int64), ValueError),
                                        (np.array([1.5]), TypeError),
                                        (np.array([2.0, 3.0]), TypeError)])
def test_batch_placement_refuses_keys_a_cast_would_alias(mode, keys, error):
    place, place_array = _placement(64, 8, mode, seed=63, stream=1)
    with pytest.raises(error):
        place_array(keys)
    ok = np.array([3, 2**40], dtype=np.int64)
    starts, sigs = place_array(ok)
    assert list(zip(starts.tolist(), sigs.tolist())) == [place(k) for k in ok.tolist()]


def scalar_fpr(t, b, mode, n, trials, seed, stream):
    """measure_fpr's keys through the scalar reference: make_filter,
    SignatureFilter.insert/query, and an exact table on the filter's start hash."""
    flt = make_filter(t, b, mode, seed, stream=stream)
    shadow = ProbeTable(t, lambda x: flt.place(x)[0])
    keys = sample_distinct_keys(derived_rng(seed, stream + 1_000_003), n + trials, P)
    for x in keys[:n]:
        flt.insert(x)
        shadow.insert(x)
    queries = keys[n:]
    return (sum(flt.query(q) for q in queries),
            sum(shadow.search(q).probes - 1 for q in queries) / trials)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("t,b", [(t, b) for t in (4, 8, 64) for b in (1, 4, 8)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_measure_fpr_matches_scalar_rebuild(mode, t, b, data):
    # small filters, often full but one slot, so that scans wrap past t - 1
    n = data.draw(st.just(t - 1) | st.integers(0, t - 1), label="n")
    trials = data.draw(st.integers(1, 300), label="trials")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    stream = data.draw(st.integers(0, 50), label="stream")
    rep = measure_fpr(t, b, mode, n, trials, seed, stream=stream)
    assert (rep.false_positives, rep.mean_scan_keys) == scalar_fpr(t, b, mode, n, trials, seed,
                                                                   stream)


@pytest.mark.parametrize("mode", MODES)
def test_measure_fpr_arrays_from_positions_equal_slots(monkeypatch, mode):
    # at b = 1 many inserts are skipped duplicates (under hash_of_signature,
    # whose keys start at one of two slots, nearly all), each returning the
    # slot of its equal signature; the query kernel's arrays, written from
    # the returned positions, equal the arrays read from the filter's slots
    tables, arrays = [], []

    class Recorded(ProbeTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    def recording(values, occupied, starts, items):
        arrays.append((values.tolist(), occupied.tolist()))
        return _scan_found(values, occupied, starts, items)

    monkeypatch.setattr(filters, "ProbeTable", Recorded)
    monkeypatch.setattr(filters, "_scan_found", recording)
    t = 1 << 10
    n = t - 1  # a filter full but one, were no insert skipped
    measure_fpr(t, 1, mode, n, 200, seed=5)
    slots = tables[0].slots  # the filter; tables[1] is the shadow table
    assert tables[0].n < 3 * n // 4  # a quarter of the inserts or more were skipped
    assert arrays == [([0 if s is None else s for s in slots], [s is not None for s in slots])]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("t,n", [(8, 4), (8, 7), (64, 42), (64, 63), (1 << 12, 2730),
                                 (1 << 12, (1 << 12) - 1)])
@pytest.mark.parametrize("b", [4, 8])
def test_measure_fpr_scan_keys_match_carry_model(mode, t, n, b):
    # order-free: a query scans the keys from its start slot to the next
    # empty slot of the table whose hash histogram is that of the stored starts
    seed, stream, trials = 40 + t + n + b, 9, 500
    place = make_filter(t, b, mode, seed, stream=stream).place
    keys = sample_distinct_keys(derived_rng(seed, stream + 1_000_003), n + trials, P)
    starts = [place(x)[0] for x in keys]
    _, to_empty = carry_model(np.bincount(starts[:n], minlength=t))
    rep = measure_fpr(t, b, mode, n, trials, seed, stream=stream)
    assert rep.mean_scan_keys == sum(to_empty[s] for s in starts[n:]) / trials


class TestMeasureFpr:
    def test_wide_signature_no_false_positives(self):
        rep = measure_fpr(1 << 11, 56, "independent", n=1 << 10, trials=10**4, seed=31)
        assert rep.fpr == 0.0

    def test_independent_bound_with_slack(self):
        n = 1 << 11
        t = table_size_for(n)
        rep = measure_fpr(t, 8, "independent", n=n, trials=10**5, seed=32)
        bound = 8 * rep.mean_scan_keys / 2**8
        se = math.sqrt(max(rep.fpr * (1 - rep.fpr), 1e-12) / rep.trials)
        assert rep.fpr <= bound + 3 * se

    def test_paired_bound(self):
        n = 1 << 11
        t = table_size_for(n)
        rep = measure_fpr(t, 12, "paired", n=n, trials=10**5, seed=33)
        assert rep.fpr <= 8 / 2 ** (2 * 12 / 3)

    def test_tabulation_paired_bound(self):
        n = 1 << 11
        t = table_size_for(n)
        rep = measure_fpr(t, 8, "tabulation_paired", n=n, trials=10**5, seed=34)
        bound = 8 * rep.mean_scan_keys / 2**8
        se = math.sqrt(max(rep.fpr * (1 - rep.fpr), 1e-12) / rep.trials)
        assert rep.fpr <= bound + 3 * se

    @pytest.mark.parametrize("mode,owner,attr", [("paired", PolynomialHash, "eval_mod_p"),
                                                 ("tabulation_paired", TabulationHash, "__call__"),
                                                 ("independent", PolynomialHash, "eval_mod_p"),
                                                 ("hash_of_signature", PolynomialHash, "eval_mod_p")])
    def test_paired_modes_hash_once_per_key(self, monkeypatch, mode, owner, attr):
        # signature, filter placement and shadow-table placement share one
        # batch placement per key: one wide hash, or one start hash and one
        # signature; the mode's scalar hash (owner.attr) is never called
        per_key = 1 if mode in ("paired", "tabulation_paired") else 2
        batched, scalar = [], []
        horner, tab_array, original = (hashing._mersenne_horner, TabulationHash.hash_array,
                                       getattr(owner, attr))

        def counted_horner(coefficients, keys):
            batched.extend(keys)
            return horner(coefficients, keys)

        def counted_tab_array(self, keys):
            batched.extend(keys)
            return tab_array(self, keys)

        def counted_scalar(self, x):
            scalar.append(x)
            return original(self, x)

        monkeypatch.setattr(hashing, "_mersenne_horner", counted_horner)
        monkeypatch.setattr(TabulationHash, "hash_array", counted_tab_array)
        monkeypatch.setattr(owner, attr, counted_scalar)
        rep = measure_fpr(1 << 9, 8, mode, n=256, trials=1000, seed=36)
        assert len(batched) == per_key * (rep.n + rep.trials)
        assert scalar == []

    def test_hash_of_signature_emits_without_guarantee(self):
        rep = measure_fpr(1 << 9, 8, "hash_of_signature", n=256, trials=10**4, seed=35)
        assert 0.0 <= rep.fpr <= 1.0
        assert rep.mean_scan_keys >= 0.0

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            measure_fpr(64, 8, "independent", n=64, trials=10, seed=0)


class TestSubsequenceScan:
    def test_identity_mask(self):
        h = TrulyRandomHash(1 << 6, seed=41)
        keys = sample_distinct_keys(derived_rng(42, 0), 30, 2**61 - 1)
        assert subsequence_scan_check(keys, [True] * 30, h, 1 << 6, probe_start=7) is None

    def test_empty_mask(self):
        h = TrulyRandomHash(1 << 6, seed=43)
        keys = sample_distinct_keys(derived_rng(44, 0), 30, 2**61 - 1)
        assert subsequence_scan_check(keys, [False] * 30, h, 1 << 6, probe_start=7) is None

    def test_monte_carlo(self):
        t = 1 << 8
        for trial in range(300):
            rng = derived_rng(45, trial)
            h = TrulyRandomHash(t, seed=46, stream=trial)
            keys = sample_distinct_keys(rng, int(rng.integers(1, 170)), 2**61 - 1)
            mask = [bool(b) for b in rng.integers(0, 2, size=len(keys))]
            start = int(rng.integers(0, t))
            assert subsequence_scan_check(keys, mask, h, t, start) is None

    def test_encounter_order_can_invert(self):
        # dropping keys can let a later key land earlier: here c is displaced
        # past d in the full table but lands before d's slot when the two
        # intermediate keys are skipped.  Membership still holds.
        hmap = {"a": 2, "b": 2, "c": 2, "x": 4, "y": 4, "d": 5}
        h = FixedHash(16, hmap)
        keys = ["a", "b", "x", "y", "d", "c"]
        full = ProbeTable(16, h)
        sub = ProbeTable(16, h)
        for k in keys:
            full.insert(k)
        for k in ["a", "b", "d", "c"]:
            sub.insert(k)
        assert scan_keys(full, 2) == ["a", "b", "x", "y", "d", "c"]
        assert scan_keys(sub, 2) == ["a", "b", "c", "d"]
        mask = [k in ("a", "b", "d", "c") for k in keys]
        assert subsequence_scan_check(keys, mask, h, 16, 2) is None

    def test_witness_returned(self):
        # a hash whose value changes between the builds: key 1 lands in slot
        # 0 of the full table and slot 1 of the subsequence table, so the
        # scan from slot 1 meets it in the subsequence table only
        slots = iter([0, 1])
        witness = subsequence_scan_check([1], [True], lambda x: next(slots), 8, 1)
        assert witness == {"full_scan": [], "sub_scan": [1], "missing": 1}

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            subsequence_scan_check([1, 2], [True], FixedHash(8), 8, 0)


def test_scan_keys_order():
    table = ProbeTable(8, FixedHash(8, {1: 5, 2: 5, 3: 5}))
    for x in (1, 2, 3):
        table.insert(x)
    assert scan_keys(table, 5) == [1, 2, 3]
    assert scan_keys(table, 6) == [2, 3]
    assert scan_keys(table, 0) == []


@pytest.mark.parametrize("start", [-1, 8])
def test_scan_keys_refuses_slot_outside_table(start):
    # slot 7 is occupied, so an aliased -1 would scan from it
    table = ProbeTable(8, FixedHash(8, {1: 7}))
    table.insert(1)
    with pytest.raises(ValueError):
        scan_keys(table, start)


def test_shadow_scan_contains_filter_scan():
    # every key whose signature is scanned in the filter is on the exact
    # table's scan path for the same query
    t = 1 << 8
    f = make_filter(t, 4, "independent", seed=51)
    shadow = ProbeTable(t, lambda x: f.place(x)[0])
    keys = sample_distinct_keys(derived_rng(52, 0), 150, 2**61 - 1)
    for x in keys:
        shadow.insert(x)
        f.insert(x)
    queries = sample_distinct_keys(derived_rng(53, 0), 500, 2**61 - 1)
    for q in set(queries) - set(keys):
        start, sig = f.place(q)
        exact_scan = set(scan_keys(shadow, start))
        if f.query(q):
            assert sig in {f.place(x)[1] for x in exact_scan}
