import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linprobe.filters import SignatureFilter
from linprobe.hashing import TrulyRandomHash, derived_rng, new_polynomial
from linprobe.probing import (
    ProbeTable,
    Run,
    SearchResult,
    TableFullError,
    check_query_run_lemma,
    check_run_lemma,
    hash_counts,
    interval_counts,
    max_run_from_counts,
    near_full_threshold,
    occupancy,
    run_containing,
    runs,
    table_size_for,
    verify_fill_invariant,
    _next_empty,
    _scan_found,
)
from probe_model import carry_model


class FixedHash:
    """Test double: explicit key -> slot map."""

    def __init__(self, t, mapping=None, default=0):
        self.range_t = t
        self.mapping = mapping or {}
        self.default = default

    def __call__(self, x):
        return self.mapping.get(x, self.default)


def plain_scan(slots, start, item):
    """Reference linear probing scan as a plain loop: (found, slot, probes),
    counting probes one by one from `start` to the slot that holds `item`
    or is empty.  The slot list must have an empty slot."""
    t = len(slots)
    for probes in range(1, t + 1):
        i = (start + probes - 1) % t
        if slots[i] is None or slots[i] == item:
            return slots[i] is not None, i, probes
    raise AssertionError("the scan found no empty slot")


def build(t, mapping, keys):
    table = ProbeTable(t, FixedHash(t, mapping))
    for x in keys:
        table.insert(x)
    return table


def rebuild(table, keys):
    """A fresh table with `table`'s size and hash, holding `keys` inserted in
    the given order: the slots any sequence of inserts and deletes must
    leave, for the live keys in their insertion order."""
    fresh = ProbeTable(table.t, table.hash_fn)
    for x in keys:
        fresh.insert(x)
    return fresh


def checked_mask(table):
    """The table's occupied-slot mask, after asserting that it equals the
    order-free model `occupancy(hash_counts(table))`."""
    mask = [s is not None for s in table.slots]
    assert occupancy(hash_counts(table)).tolist() == mask
    return mask


def random_table(t, load, seed, family="random"):
    """A table at the given load, and its keys in insertion order."""
    n = int(t * load)
    if family == "random":
        h = TrulyRandomHash(t, seed)
    else:
        h = new_polynomial(int(family[-1]), t, seed)
    table = ProbeTable(t, h)
    rng = derived_rng(seed, 999)
    keys = set()
    while len(keys) < n:
        keys.update(int(k) for k in rng.integers(0, 2**61 - 1, size=n - len(keys), dtype=np.uint64))
    order = list(keys)
    for x in order:
        table.insert(x)
    return table, order


class TestInsertSearch:
    def test_insert_into_empty(self):
        table = ProbeTable(8, FixedHash(8, {10: 5}))
        assert table.insert(10) == (5, 1)

    def test_hash_range_must_match_table_size(self):
        with pytest.raises(ValueError, match="hash range 1024 does not match table size 256"):
            ProbeTable(256, new_polynomial(5, 1024, 0))
        with pytest.raises(ValueError, match="hash range"):
            ProbeTable(8, FixedHash(16))
        # a hash without a declared range is taken as is
        assert ProbeTable(8, lambda x: x % 8).insert(13) == (5, 1)

    def test_insert_past_occupied(self):
        table = build(8, {20: 5, 10: 5}, [20])
        assert table.insert(10) == (6, 2)

    def test_insert_wraps_cyclically(self):
        table = build(8, {1: 6, 2: 7, 3: 6}, [1, 2])
        assert table.insert(3) == (0, 3)

    def test_insert_is_idempotent(self):
        table = build(8, {1: 3, 2: 3}, [1, 2])
        before = list(table.slots)
        pos, _ = table.insert(1)
        assert pos == 3
        assert table.slots == before and table.n == 2

    def test_search_after_insert(self):
        table = ProbeTable(8, FixedHash(8, {42: 2}))
        pos, _ = table.insert(42)
        res = table.search(42)
        assert res.found and res.position == pos

    def test_search_empty_table(self):
        table = ProbeTable(8, FixedHash(8))
        res = table.search(1)
        assert not res.found and res.probes == 1

    def test_absent_results_are_shared_values(self):
        table = build(8, {1: 3, 2: 3, 5: 3, 6: 6, 7: 3}, [1, 2])
        first = table.search(5)
        assert first == SearchResult(False, None, 3) and first.probes == 3
        assert table.search(7) is first  # same probe count, one shared value
        table.insert(5)
        assert first == SearchResult(False, None, 3)  # a later insert leaves it as it was
        assert table.search(5) == SearchResult(True, 5, 3)
        assert table.search(7) == SearchResult(False, None, 4)
        assert table.search(6) == SearchResult(False, None, 1)

    def test_found_results_keep_position_and_probes(self):
        table = build(8, {1: 7, 2: 7, 3: 7}, [1, 2, 3])
        assert [table.search(x) for x in (1, 2, 3)] == [
            SearchResult(True, 7, 1), SearchResult(True, 0, 2), SearchResult(True, 1, 3)]

    def test_absent_search_probes_equal_insert_probes(self):
        table, _ = random_table(64, 0.6, seed=11)
        for q in range(50):
            if table.search(q).found:
                continue
            probes_search = table.search(q).probes
            clone = ProbeTable(table.t, table.hash_fn)
            clone.slots = list(table.slots)
            clone.n = table.n
            _, probes_insert = clone.insert(q)
            assert probes_search == probes_insert

    def test_full_table_rejected(self):
        table = build(4, {}, [100, 101, 102])
        with pytest.raises(TableFullError):
            table.insert(103)

    @pytest.mark.parametrize("op", ["insert", "search"])
    @pytest.mark.parametrize("start", [-1, 8])
    def test_precomputed_start_outside_table_refused(self, op, start):
        # without the check, start -1 would alias slot 7 (insert(5, -1) storing
        # 5 there, search(5, -1) finding it at position -1), and start 8 would
        # index past the slots
        table = ProbeTable(8, lambda x: 0)
        if op == "search":
            table.insert(5, 7)
        before = (list(table.slots), table.n)
        with pytest.raises(ValueError, match="outside"):
            getattr(table, op)(5, start)
        assert (table.slots, table.n) == before


def hashless_table():
    """`ProbeTable(8, None)` holding key 5 at slot 6."""
    table = ProbeTable(8, None)
    table.insert(5, 6)
    return table


class TestNoHashFunction:
    """A table built with no hash function (as `SignatureFilter.table` and
    `from_counts` are) needs `start`; without it each call says so."""

    @pytest.mark.parametrize("table", [ProbeTable(8, None),
                                       ProbeTable.from_counts(np.array([0, 2, 0, 0]))])
    def test_insert_and_search_need_start(self, table):
        before = (list(table.slots), table.n)
        for call in (table.insert, table.search):
            with pytest.raises(TypeError, match="no hash function: pass start"):
                call(5)
        assert (list(table.slots), table.n) == before
        assert table.hash_fn is None

    @pytest.mark.parametrize("table", [hashless_table(),
                                       ProbeTable.from_counts(np.array([0, 2, 0, 0]))])
    def test_analytics_need_a_hash_function(self, table):
        with pytest.raises(TypeError, match="no hash function: pass start"):
            hash_counts(table)
        with pytest.raises(TypeError, match="no hash function: pass start"):
            check_query_run_lemma(table, 5, np.zeros(table.t, dtype=np.int64))

    def test_start_given_needs_no_hash_function(self):
        table = ProbeTable(8, None)
        assert table.insert(5, 6) == (6, 1) and table.insert(9, 6) == (7, 2)
        assert table.search(9, 6) == SearchResult(True, 7, 2)

    def test_delete_needs_a_hash_function(self):
        table = ProbeTable(8, None)
        table.insert(5, 6)
        with pytest.raises(TypeError, match="no hash function: pass start"):
            table.delete(5)
        assert table.slots[6] == 5 and table.n == 1


class TestDelete:
    def test_single_key(self):
        table = build(8, {5: 2}, [5])
        table.delete(5)
        assert table.n == 0 and all(s is None for s in table.slots)

    def test_chain_shifts_back(self):
        # a, b, c all hash to 5, land at 5, 6, 7
        table = build(8, {1: 5, 2: 5, 3: 5}, [1, 2, 3])
        table.delete(1)
        assert table.slots[5] == 2 and table.slots[6] == 3 and table.slots[7] is None

    def test_delete_absent_raises(self):
        table = build(8, {1: 0}, [1])
        with pytest.raises(KeyError):
            table.delete(2)

    def test_random_deletion_matches_rebuild(self):
        table, keys = random_table(256, 0.4, seed=13)
        doomed = list(keys)
        derived_rng(14, 0).shuffle(doomed)
        live = dict.fromkeys(keys)  # insertion order
        for x in doomed:
            table.delete(x)
            del live[x]
            assert verify_fill_invariant(table) is None
            assert table.slots == rebuild(table, live).slots

    def test_delete_undoes_insert(self):
        table, keys = random_table(128, 0.5, seed=15)
        before = list(table.slots)
        x = 2**60 + 123
        assert x not in keys
        table.insert(x)
        table.delete(x)
        assert table.slots == before


class TestFillInvariant:
    def test_constructed_breach_detected(self):
        table = ProbeTable(8, FixedHash(8, {7: 1}))
        table.slots[3] = 7  # h(7)=1 but slot 2 empty
        table.n = 1
        assert verify_fill_invariant(table) == (7, 3)

    def test_empty_table_ok(self):
        assert verify_fill_invariant(ProbeTable(8, FixedHash(8))) is None

    def test_holds_after_mixed_operations(self):
        table, keys = random_table(128, 0.6, seed=17)
        rng = derived_rng(18, 0)
        live = list(keys)
        for _ in range(200):
            if live and rng.random() < 0.4:
                x = live.pop(int(rng.integers(len(live))))
                table.delete(x)
            else:
                x = int(rng.integers(0, 2**61 - 1))
                if not table.search(x).found:
                    table.insert(x)
                    live.append(x)
            assert verify_fill_invariant(table) is None


class TestRuns:
    def test_contiguous_block(self):
        table = build(16, {i: i for i in [5, 6, 7]}, [5, 6, 7])
        assert runs(table) == [Run(5, 3)]

    def test_empty_table(self):
        assert runs(ProbeTable(16, FixedHash(16))) == []

    def test_wrapping_run(self):
        table = build(16, {15: 15, 16: 0, 17: 1}, [15, 16, 17])
        assert runs(table) == [Run(15, 3)]

    def test_full_table_rejected(self):
        table = build(4, {}, [1, 2, 3])
        table.slots[3] = 99
        table.n = 4
        with pytest.raises(TableFullError):
            runs(table)
        with pytest.raises(TableFullError):
            run_containing(table, 0)

    def test_lengths_sum_to_n_and_gaps_nonempty(self):
        table, _ = random_table(256, 0.6, seed=19)
        rs = runs(table)
        assert sum(r.length for r in rs) == table.n
        for start, length in rs:
            assert table.slots[(start - 1) % table.t] is None
            assert table.slots[(start + length) % table.t] is None

    def test_run_containing(self):
        table = build(16, {i: i for i in [5, 6, 7]}, [5, 6, 7])
        assert run_containing(table, 6) == 3
        assert run_containing(table, 9) == 0
        wrap = build(16, {15: 15, 16: 0, 17: 1}, [15, 16, 17])
        assert run_containing(wrap, 0) == 3

    @pytest.mark.parametrize("slot", [-1, 8])
    def test_run_containing_refuses_slot_outside_table(self, slot):
        # slot 7 is occupied, so an aliased -1 would report its run
        table = build(8, {6: 6, 7: 7}, [6, 7])
        with pytest.raises(ValueError):
            run_containing(table, slot)


class TestIntervalCounts:
    def test_empty(self):
        table = ProbeTable(16, FixedHash(16))
        assert interval_counts(hash_counts(table), 2).tolist() == [0, 0, 0, 0]

    def test_counts_hashes_in_interval(self):
        table = build(16, {1: 4, 2: 5, 3: 9}, [1, 2, 3])
        assert interval_counts(hash_counts(table), 2).tolist() == [0, 2, 1, 0]

    def test_near_full_threshold(self):
        assert near_full_threshold(0) == 1
        assert near_full_threshold(1) == 2
        assert [near_full_threshold(l) for l in (2, 3, 4)] == [3, 6, 12]


class TestRunLemma:
    def test_minimal_run(self):
        table = build(16, {i: 2 for i in [1, 2, 3, 4]}, [1, 2, 3, 4])
        assert check_run_lemma(runs(table)[0], 0, hash_counts(table)) is None

    def test_precondition(self):
        table = build(16, {i: 2 for i in [1, 2, 3]}, [1, 2, 3])
        with pytest.raises(ValueError):
            check_run_lemma(runs(table)[0], 1, hash_counts(table))

    def test_counterexample(self):
        # a valid histogram that contradicts a run of 8 from slot 12 at
        # level 1: its four intervals, wrapping past slot 15, hold 1, 1, 1
        # and 0 hashes, below the threshold of 2
        counts = np.zeros(16, dtype=np.int64)
        counts[[12, 15, 1]] = 1
        assert check_run_lemma(Run(12, 8), 1, counts) == {
            "run": Run(12, 8),
            "level": 1,
            "intervals": [6, 7, 0, 1],
            "counts": [1, 1, 1, 0],
            "threshold": 2,
        }

    def test_monte_carlo_no_counterexamples(self):
        for seed in range(30):
            table, _ = random_table(1 << 10, 2 / 3, seed=seed)
            counts = hash_counts(table)
            for run in runs(table):
                level = 0
                while run.length >= 1 << (level + 2):
                    assert check_run_lemma(run, level, counts=counts) is None
                    level += 1

    def test_query_run_lemma_monte_carlo(self):
        for seed in range(20):
            table, keys = random_table(1 << 10, 2 / 3, seed=100 + seed)
            counts = hash_counts(table)
            rng = derived_rng(200 + seed, 0)
            for q in rng.integers(0, 2**61 - 1, size=30, dtype=np.uint64):
                assert check_query_run_lemma(table, int(q), counts=counts) is None

    def test_run_wrapping_past_last_slot(self):
        # six keys hashed to slot 14 fill slots 14, 15, 0, 1, 2, 3
        table = ProbeTable(16, FixedHash(16, {100: 0}, default=14))
        for x in range(6):
            table.insert(x)
        (run,) = runs(table)
        assert run == Run(14, 6)
        counts = hash_counts(table)
        assert check_run_lemma(run, 0, counts) is None
        assert check_query_run_lemma(table, 100, counts) is None

    def test_query_run_lemma_wrapped_window(self):
        # h(5) = 63 in a run over slots 62, 63, 0, 1: the 12 intervals run
        # from 55 past slot 63 to 2, and only 5's own hash lies among them
        table = ProbeTable(64, FixedHash(64, {5: 63}, default=40))
        table.slots[62:] = [1, 5]
        table.slots[:2] = [2, 3]
        table.n = 4
        assert check_query_run_lemma(table, 5, hash_counts(table)) == {
            "query": 5,
            "run_length": 4,
            "level": 0,
            "counts": [(i, 0) for i in [*range(55, 64), 0, 1, 2]],
            "threshold": 1,
        }

    def test_query_run_lemma_fewer_than_12_intervals(self):
        # a run of 9 over slots 0-8 is level 1 at t = 16: 8 intervals, each
        # listed once, so q's own hash is subtracted from its only copy
        mapping = {k: 2 * k for k in range(8)}
        mapping[8] = 1
        table = ProbeTable(16, FixedHash(16, mapping))
        table.slots[:9] = range(9)
        table.n = 9
        cex = check_query_run_lemma(table, 8, hash_counts(table))
        assert cex["level"] == 1 and cex["threshold"] == 2
        assert cex["counts"] == [(i, 1) for i in range(8)]

    @pytest.mark.parametrize("q,stored", [(100, False), (3, True)])
    def test_query_run_lemma_searches_once(self, monkeypatch, q, stored):
        # a run of 10 keys over slots 16-25, with the near-full interval
        # (slots 16-17) the 7th or 8th of those scanned
        table = build(64, {**{x: 16 for x in range(10)}, 3: 18, 100: 20}, range(10))
        assert table.search(q).found == stored
        original = ProbeTable.search
        calls = []

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(ProbeTable, "search", counted)
        assert check_query_run_lemma(table, q, counts=hash_counts(table)) is None
        assert calls == [q]

    def test_query_run_lemma_skips_own_hash(self):
        # slots 10-13 form a run of 4 (level 0); the only hash in the 12
        # intervals around h(5) = 11 is 5's own, so no interval is near-full
        table = ProbeTable(64, FixedHash(64, {5: 11}, default=40))
        table.slots[10:14] = [1, 5, 2, 3]
        table.n = 4
        assert check_query_run_lemma(table, 5, hash_counts(table)) == {
            "query": 5,
            "run_length": 4,
            "level": 0,
            "counts": [(idx, 0) for idx in range(3, 15)],
            "threshold": 1,
        }

    def test_absent_probe_bound(self):
        # absent-search probes <= run length at h(q) + 1
        table, _ = random_table(512, 2 / 3, seed=23)
        for q in range(200):
            if table.search(q).found:
                continue
            hq = table.hash_fn(q)
            assert table.search(q).probes <= run_containing(table, hq) + 1


class TestOrderIndependence:
    def test_exhaustive_eight_keys(self):
        h = TrulyRandomHash(16, seed=31)
        keys = list(range(8))
        reference = None
        for perm in itertools.permutations(keys):
            table = ProbeTable(16, h)
            for x in perm:
                table.insert(x)
            mask = checked_mask(table)
            if reference is None:
                reference = mask
            assert mask == reference

    def test_random_permutations_hundred_keys(self):
        h = TrulyRandomHash(256, seed=37)
        keys = list(range(100))
        base = ProbeTable(256, h)
        for x in keys:
            base.insert(x)
        reference = checked_mask(base)
        rng = derived_rng(38, 0)
        for _ in range(100):
            order = list(keys)
            rng.shuffle(order)
            table = ProbeTable(256, h)
            for x in order:
                table.insert(x)
            assert checked_mask(table) == reference


@st.composite
def op_sequences(draw):
    """A table size t, the hash slot of each key 0..40 (None: truly random
    hashing) and an operation sequence.  The small tables use a fixed-slot
    hash, so runs wrap past slot t - 1 and the table fills to n = t - 1."""
    t = draw(st.sampled_from([4, 8, 16, 64]))
    slots = None if t == 64 else draw(st.lists(st.integers(0, t - 1), min_size=41,
                                                max_size=41))
    ops = draw(st.lists(st.tuples(st.sampled_from(["ins", "del", "search"]),
                                  st.integers(0, 40)), max_size=60))
    return t, slots, ops


@given(op_sequences())
# all keys start at slot t - 1: the run wraps, the table fills, and an
# absent key is refused while a present one still re-inserts
@example((4, [3] * 41, [("ins", 0), ("ins", 1), ("ins", 2), ("ins", 3), ("ins", 1),
                        ("search", 2), ("search", 3), ("del", 0), ("ins", 3)]))
@settings(max_examples=150, deadline=None)
def test_hypothesis_fill_invariant_and_model(case):
    t, slots, ops = case
    h = TrulyRandomHash(t, seed=91) if slots is None else FixedHash(t, dict(enumerate(slots)))
    table = ProbeTable(t, h)
    # the live keys in insertion order; after every operation the slots
    # equal their fresh build in that order
    model = {}
    # the filter with injective signatures (s = identity) answers exactly;
    # it has no delete, so its model (keys in first-insert order) only grows
    flt = SignatureFilter(t, lambda x: (h(x), x))
    flt_model = {}
    for op, x in ops:
        if op == "ins":
            if x in model or len(model) < t - 1:
                pos, _ = table.insert(x)
                assert table.slots[pos] == x
                model.setdefault(x)  # a present key keeps its place in the order
            else:
                with pytest.raises(TableFullError):
                    table.insert(x)
            if x in flt_model or len(flt_model) < t - 1:
                assert flt.insert(x) == (x not in flt_model)
                flt_model.setdefault(x)
            else:
                with pytest.raises(TableFullError):
                    flt.insert(x)
        elif op == "del":
            if x in model:
                table.delete(x)
                del model[x]
            else:
                with pytest.raises(KeyError):
                    table.delete(x)
        else:
            assert table.search(x).found == (x in model)
            assert flt.query(x) == (x in flt_model)
        assert verify_fill_invariant(table) is None
        assert table.slots == rebuild(table, model).slots
        assert table.n == len(model) and flt.table.n == len(flt_model)
    assert set(table.keys()) == set(model)
    checked_mask(table)
    # the filter is the table of its signatures: here the keys at h, in order
    assert flt.table.slots == rebuild(table, flt_model).slots


@st.composite
def slot_lists(draw):
    """A table size t <= 2^8 and the hash slot of each of n <= t - 1 keys."""
    t = 1 << draw(st.integers(1, 8))
    n = draw(st.sampled_from([0, t - 1]) | st.integers(0, t - 1))
    if draw(st.booleans()):
        return t, [draw(st.integers(0, t - 1))] * n
    return t, draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n))


@given(slot_lists())
@example((8, [6] * 7))  # full but one, all in one slot, wrapping
@example((16, [15, 15, 15, 0, 4]))  # a run wrapping past slot t - 1
@settings(max_examples=200, deadline=None)
def test_occupancy_matches_built_table(case):
    t, slots = case
    table = build(t, dict(enumerate(slots)), range(len(slots)))
    counts = np.bincount(np.array(slots, dtype=np.int64), minlength=t)
    occupied = {s for s, x in enumerate(table.slots) if x is not None}
    assert set(np.flatnonzero(occupancy(counts))) == occupied
    rs = runs(table)
    covered = [(r.start + i) % t for r in rs for i in range(r.length)]
    assert sorted(covered) == sorted(occupied)
    for r in rs:
        assert (r.start - 1) % t not in occupied
        assert (r.start + r.length) % t not in occupied
    covering = {(r.start + i) % t: r.length for r in rs for i in range(r.length)}
    for s in range(t):
        assert run_containing(table, s) == covering.get(s, 0)
    assert max_run_from_counts(counts) == max((r.length for r in rs), default=0)
    for level in range(t.bit_length()):
        width = 1 << level
        oracle = [int(counts[i : i + width].sum()) for i in range(0, t, width)]
        assert interval_counts(counts, level).tolist() == oracle


def one_empty_slot(t, empty):
    """(t, slots) with one key on every slot but `empty`, which stays empty."""
    return t, [s for s in range(t) if s != empty]


@given(slot_lists())
@example(one_empty_slot(16, 0))  # every other slot wraps to slot 0
@example(one_empty_slot(16, 15))  # at t - 1: no slot wraps
@example(one_empty_slot(16, 7))
@example((16, []))  # an empty table
@example((1, []))
@settings(max_examples=200, deadline=None)
def test_next_empty_matches_carry_model(case):
    t, slots = case
    counts = np.bincount(np.array(slots, dtype=np.int64), minlength=t)
    assert _next_empty(occupancy(counts)).tolist() == carry_model(counts)[1]


@st.composite
def start_cases(draw):
    """A table size t, n <= t - 1 distinct keys, their start slots (any
    slots, all one slot, or slots near t - 1 so that runs wrap) and a
    shuffled insertion order of the keys with their starts."""
    t = draw(st.sampled_from([2, 4, 8, 16, 64]))
    n = draw(st.sampled_from([0, t - 1]) | st.integers(0, t - 1))
    keys = draw(st.lists(st.integers(0, 2**61 - 2), min_size=n, max_size=n, unique=True))
    slot = draw(st.sampled_from(["any", "one", "wrap"]))
    if slot == "one":
        starts = [draw(st.integers(0, t - 1))] * n
    else:
        low = max(t - 3, 0) if slot == "wrap" else 0
        starts = draw(st.lists(st.integers(low, t - 1), min_size=n, max_size=n))
    return t, keys, starts, draw(st.permutations(keys))


@given(start_cases())
@example((8, list(range(10, 17)), [7] * 7, list(range(16, 9, -1))))  # full but one, wrapping
@example((16, [5, 3, 9, 1, 7], [15, 15, 15, 0, 4], [7, 1, 9, 3, 5]))  # wrapping past t - 1
@settings(max_examples=200, deadline=None)
def test_from_counts_scans_as_fcfs_builds(case):
    t, keys, starts, order = case
    counts = np.bincount(np.array(starts, dtype=np.int64), minlength=t)
    table = ProbeTable.from_counts(counts)
    fcfs = build(t, dict(zip(keys, starts)), keys)
    shuffled = build(t, dict(zip(keys, starts)), order)
    mask = [s is not None for s in table.slots]
    assert mask == [s is not None for s in fcfs.slots] == [s is not None for s in shuffled.slots]
    assert mask == occupancy(counts).tolist()
    assert table.n == len(keys) and table.hash_fn is None
    for s in range(t):
        assert table.search(None, s).probes == fcfs.search(None, s).probes
    for x, start in zip(keys, starts):
        assert not table.search(x, start).found


@given(slot_lists(), st.lists(st.integers(0, 2**61 - 2), min_size=1, max_size=4))
@example((8, [6] * 7), [0])  # full but one, all in one slot, wrapping
@example((16, [15, 15, 15, 0, 4]), [2**61 - 2])  # a run wrapping past slot t - 1
@example((4, []), [7])  # n = 0
@settings(max_examples=200, deadline=None)
def test_indexed_search_matches_scan(case, keys):
    """From every slot, a `from_counts` table's indexed search answers as
    the scan of a plain table holding the same slots with no index does:
    absent for None and for keys, and a search for -1 finds the -1 it
    reaches, at the same position and probes.  An absent result is the very
    object the scan shares, so probe sums and memory match too."""
    t, slots = case
    table = ProbeTable.from_counts(np.bincount(np.array(slots, dtype=np.int64), minlength=t))
    plain = ProbeTable(t, None)
    plain.slots = list(table.slots)
    assert table._results is not None and plain._results is None
    for s in range(t):
        absent = (False, None, plain_scan(plain.slots, s, None)[2])
        assert table.search(None, s) is plain.search(None, s)
        for x in (None, *keys):
            assert table.search(x, s) == plain.search(x, s) == absent
        found, i, probes = plain_scan(plain.slots, s, -1)
        assert found == (plain.slots[s] is not None)
        assert table.search(-1, s) == plain.search(-1, s) == (found, i if found else None, probes)


@pytest.mark.parametrize("write", [
    lambda table: table.insert(5, 1),  # scans the -1s at slots 1, 2 to the empty slot 3
    lambda table: table.insert(5, 0),
    lambda table: table.delete(-1),  # no hash function
    lambda table: setattr(table, "hash_fn", lambda x: 1) or table.delete(-1),  # shifts slot 2 back
], ids=["insert past a run", "insert at an empty start", "delete", "delete with a hash"])
def test_from_counts_table_is_read_only(write):
    table = ProbeTable.from_counts(np.array([0, 2, 0, 0]))
    before = (table.slots, table.n, table.search(None, 1))
    with pytest.raises(TypeError):
        write(table)
    assert (table.slots, table.n, table.search(None, 1)) == before == ((None, -1, -1, None), 2,
                                                                       (False, None, 3))
    assert table.insert(-1, 2) == (2, 1)  # finds the -1 there: nothing to write


@pytest.mark.parametrize("counts,message", [
    ([8, 0, 0, 0, 0, 0, 0, 0], "table is full"),  # n = t leaves no empty slot
    ([1] * 8, "table is full"),
    ([0, 1, 0, 0, 0, 0], "^t must be a power of two"),
    ([], "^t must be at least 1"),
], ids=["full in one slot", "full", "6 slots", "0 slots"])
def test_from_counts_refuses(counts, message):
    with pytest.raises(ValueError, match=message):
        ProbeTable.from_counts(np.array(counts, dtype=np.int64))


@st.composite
def scan_cases(draw):
    """A slot list with at least one empty slot, and (start, item) pairs;
    starts at t - 1 and t - 2 scan past the end of the table."""
    t = 1 << draw(st.integers(0, 6))
    values = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 7)
    slots = draw(st.lists(st.none() | values, min_size=t, max_size=t))
    slots[draw(st.integers(0, t - 1))] = None
    starts = st.sampled_from([t - 1, max(t - 2, 0)]) | st.integers(0, t - 1)
    return slots, draw(st.lists(st.tuples(starts, values), max_size=20))


@given(scan_cases())
# found after wrapping, found at the start, absent, and a start on the empty slot
@example(([5, 6, None, 7], [(3, 6), (3, 7), (3, 9), (2, 5)]))
@settings(max_examples=300, deadline=None)
def test_scan_found_matches_scan(case):
    slots, pairs = case
    values = np.array([0 if s is None else s for s in slots], dtype=np.uint64)
    occupied = np.array([s is not None for s in slots], dtype=bool)
    starts = np.array([s for s, _ in pairs], dtype=np.intp)
    items = np.array([x for _, x in pairs], dtype=np.uint64)
    expected = [plain_scan(slots, s, x)[0] for s, x in pairs]
    assert _scan_found(values, occupied, starts, items).tolist() == expected


@st.composite
def probe_cases(draw):
    """A table size t, the hash slot of each key 0..20 (slot t - 1 drawn
    often, so runs wrap), and operations: insert or search a key, from its
    hash slot or the same slot passed as `start`, or search for None from
    a drawn start."""
    t = 1 << draw(st.integers(0, 4))
    slot = st.just(t - 1) | st.integers(0, t - 1)
    mapping = dict(enumerate(draw(st.lists(slot, min_size=21, max_size=21))))
    op = st.tuples(st.sampled_from(["ins", "search"]), st.integers(0, 20), st.booleans())
    ops = draw(st.lists(op | st.tuples(st.just("none"), slot, st.just(True)), max_size=40))
    return t, mapping, ops


@given(probe_cases())
# every key starts at t - 1: the run wraps, the table fills to n = t - 1,
# a present key re-inserts, an absent one is refused, and a search for
# None scans the whole run
@example((4, {x: 3 for x in range(21)}, [("ins", 0, False), ("ins", 1, True), ("ins", 2, False),
                                          ("ins", 1, False), ("ins", 3, True), ("search", 3, False),
                                          ("search", 2, True), ("none", 3, True), ("none", 2, True)]))
@settings(max_examples=300, deadline=None)
def test_insert_and_search_match_plain_scan(case):
    t, mapping, ops = case
    table = ProbeTable(t, FixedHash(t, mapping))
    reference = [None] * t
    for op, x, explicit in ops:
        start = x if op == "none" else mapping[x]
        arg = (start,) if explicit else ()
        found, i, probes = plain_scan(reference, start, None if op == "none" else x)
        if op == "search":
            assert table.search(x, *arg) == (found, i if found else None, probes)
        elif op == "none":
            assert table.search(None, start) == (False, None, probes)
        elif found or reference.count(None) > 1:
            assert table.insert(x, *arg) == (i, probes)
            reference[i] = x
        else:
            with pytest.raises(TableFullError):
                table.insert(x, *arg)
        assert table.slots == reference and table.n == t - reference.count(None)


def test_table_size_for():
    assert table_size_for(1024) == 2048
    assert table_size_for(682) == 1024
    assert 682 / 1024 <= 2 / 3 < 683 / 1024
    assert table_size_for(1) == 2
    # the rule itself: the least power of two t >= 2 with n/t <= max_load
    for max_load in (0.1, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 0.9, 0.99):
        for n in range(4097):
            t = table_size_for(n, max_load)
            assert t >= 2 and t & (t - 1) == 0 and n / t <= max_load
            assert t == 2 or n / (t // 2) > max_load
