"""Linear probing over a cyclic power-of-two table, with true deletion
(backward shift, no tombstones) and run / dyadic-interval analytics.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple, Optional

import numpy as np

from .hashing import _integer, _power_of_two

__all__ = ["ProbeTable", "Run", "TableFullError", "check_query_run_lemma", "check_run_lemma",
    "hash_counts", "interval_counts", "max_run_from_counts", "near_full_threshold", "occupancy",
    "run_containing", "runs", "table_size_for", "verify_fill_invariant"]


class SearchResult(NamedTuple):
    found: bool
    position: Optional[int]
    probes: int


@functools.cache
def _absent(probes: int) -> SearchResult:
    """The one shared (immutable) result of an absent search with `probes`
    probes; the cache holds one per probe count seen, so at most the
    largest table size."""
    return SearchResult(False, None, probes)


class Run(NamedTuple):
    start: int
    length: int


def near_full_threshold(level: int) -> int:
    """Keys needed for an interval of length 2^level to count as near-full:
    ceil(3 * 2^level / 4)."""
    return -(-3 * (1 << level) // 4)


class TableFullError(RuntimeError):
    pass


def _scan_found(values: np.ndarray, occupied: np.ndarray, starts: np.ndarray,
                items: np.ndarray) -> np.ndarray:
    """Whether the scan from each start finds its uint64 item in the table
    whose occupied slots hold `values`, as one numpy loop over scan offsets k:
    a pair still scans while k is below its start's distance to an empty slot."""
    t = len(values)
    empty = np.flatnonzero(~occupied)
    slot = np.arange(t)
    to_empty = np.append(empty, empty[0] + t)[np.searchsorted(empty, slot)] - slot
    starts = np.asarray(starts, dtype=np.intp)
    length = to_empty[starts]
    found = np.zeros(len(starts), dtype=bool)
    live, k = np.flatnonzero(length), 0
    while len(live):
        hit = values[(starts[live] + k) & (t - 1)] == items[live]
        found[live[hit]] = True
        k += 1
        live = live[~hit & (length[live] > k)]
    return found


class ProbeTable:
    """Open-addressing hash table with cyclic linear probing.

    A scan from `start` to slot i (a match or empty) takes ((i - start) mod
    t) + 1 >= 1 probes; insert scans in its own loop, so a span traced on
    `search` counts searches only.  Duplicate inserts are no-ops.  A given
    `start` outside [0, t) is refused; `hash_fn` may be None if all give one.
    """

    def __init__(self, t: int, hash_fn):
        self.t = t = _power_of_two("t", t)
        if getattr(hash_fn, "range_t", t) != t:
            raise ValueError(f"hash range {hash_fn.range_t} does not match table size {t}")
        self.hash_fn = hash_fn
        self.slots: list[Optional[int]] = [None] * t
        self.n = 0

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "ProbeTable":
        """A table (with no hash function) whose occupied slots are those of
        the per-slot hash histogram `counts`, each holding -1: no key in
        [0, p) or signature equals it, so a search finds nothing and scans
        to the empty slot that any insertion order would leave."""
        table = cls(len(counts), None)
        table.slots = np.where(occupancy(counts), -1, None).tolist()
        table.n = int(counts.sum())
        return table

    def keys(self):
        return (x for x in self.slots if x is not None)

    def insert(self, x: int, start: Optional[int] = None) -> tuple[int, int]:
        """Place x at the first empty slot scanning from h(x); `start` is
        h(x) precomputed, else hash_fn(x) is evaluated.

        Returns (position, probes).  Re-inserting a present key leaves
        the table unchanged and reports the key's position.  An insert
        never fills the last empty slot, so every scan ends.
        """
        if start is None:
            start = self.hash_fn(x)
        elif not 0 <= start < self.t:
            raise ValueError(f"start slot {start} outside [0, {self.t})")
        slots, mask, i = self.slots, self.t - 1, start
        while (s := slots[i]) is not None and s != x:
            i = (i + 1) & mask
        if s is None:
            if self.n >= mask:
                raise TableFullError("cannot insert into a full table")
            slots[i] = x
            self.n += 1
        return i, ((i - start) & mask) + 1

    def search(self, x: int, start: Optional[int] = None) -> SearchResult:
        """Scan from h(x) until x or an empty slot; `start` is h(x)
        precomputed, as for insert.  For an absent key the scan is identical
        to the one insert would perform, and the result is shared with every
        absent search of as many probes."""
        if start is None:
            start = self.hash_fn(x)
        elif not 0 <= start < self.t:
            raise ValueError(f"start slot {start} outside [0, {self.t})")
        slots, mask, i = self.slots, self.t - 1, start
        while (s := slots[i]) is not None and s != x:
            i = (i + 1) & mask
        probes = ((i - start) & mask) + 1
        return _absent(probes) if s is None else SearchResult(True, i, probes)

    def delete(self, x: int) -> None:
        """Remove x and refill the hole by backward shifting.

        Scanning from the hole, a later key y is moved back iff its own
        scan from h(y) would have reached the hole, i.e. h(y) lies
        cyclically outside (hole, current].  Stops at the first empty
        slot; the fill invariant is restored.
        """
        found, hole, _ = self.search(x)
        if not found:
            raise KeyError(f"key {x} not in table")
        slots, mask = self.slots, self.t - 1
        j = (hole + 1) & mask
        while slots[j] is not None:
            hy = self.hash_fn(slots[j])
            # distance from h(y) to j, vs distance from hole to j
            if (j - hy) & mask >= (j - hole) & mask:
                slots[hole] = slots[j]
                slots[j] = None
                hole = j
            j = (j + 1) & mask
        slots[hole] = None
        self.n -= 1


def verify_fill_invariant(table: ProbeTable):
    """Check that every stored key's cyclic path from its hash slot to its
    storage slot is fully occupied.  Returns None, or (key, position) for
    the first violation."""
    for pos, x in enumerate(table.slots):
        if x is not None and table.search(x)[:2] != (True, pos):
            return x, pos
    return None


def occupancy(counts: np.ndarray) -> np.ndarray:
    """Occupied-slot mask of the linear probing table whose per-slot hash
    histogram is `counts`; occupancy does not depend on insertion order.

    The carry out of slot i follows the Lindley recursion
    carry_i = max(0, carry_{i-1} + c_i - 1), so it is the prefix sum P of
    counts - 1, offset by the carry wrapping into slot 0 (P_{t-1} - min P),
    minus its running minimum floored at 0.  A slot is empty exactly where
    that minimum drops.
    """
    t = len(counts)
    if counts.sum() >= t:
        raise ValueError("table is full")
    s = np.subtract(counts, 1, dtype=np.int64)
    np.cumsum(s, out=s)
    s += s[-1] - s.min()
    np.minimum.accumulate(s, out=s)
    np.minimum(s, 0, out=s)
    occupied = np.empty(t, dtype=bool)
    occupied[0] = s[0] == 0
    np.equal(s[1:], s[:-1], out=occupied[1:])
    return occupied


def _run_bounds(occupied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts (ascending) and lengths of the maximal cyclic runs of an
    occupied-slot mask with at least one empty slot."""
    marks = occupied.view(np.int8)
    edges = np.diff(marks, prepend=marks[-1])
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if occupied[-1]:  # the last run reaches slot t - 1, so its end edge comes first
        ends = np.roll(ends, -1)
    return starts, (ends - starts) % len(occupied)


def runs(table: ProbeTable) -> list[Run]:
    """Maximal cyclic intervals of occupied slots, in slot order of their
    (cyclic) start.  Requires at least one empty slot."""
    if table.n >= table.t:
        raise TableFullError("a full table has no maximal runs")
    occupied = np.fromiter((s is not None for s in table.slots), dtype=bool, count=table.t)
    return [Run(int(start), int(length)) for start, length in zip(*_run_bounds(occupied))]


def run_containing(table: ProbeTable, slot: int) -> int:
    """Length of the run covering `slot` (in [0, t)); 0 if the slot is
    empty.  Requires at least one empty slot."""
    if not 0 <= slot < table.t:
        raise ValueError(f"slot {slot} outside [0, {table.t})")
    if table.n >= table.t:
        raise TableFullError("a full table has no maximal runs")
    slots, mask = table.slots, table.t - 1
    if slots[slot] is None:
        return 0
    start = end = slot
    while slots[(start - 1) & mask] is not None:
        start = (start - 1) & mask
    while slots[(end + 1) & mask] is not None:
        end = (end + 1) & mask
    return ((end - start) & mask) + 1


def max_run_from_counts(counts: np.ndarray) -> int:
    """Longest maximal occupied interval of the linear probing table whose
    per-slot hash histogram is `counts`."""
    return int(_run_bounds(occupancy(counts))[1].max(initial=0))


def hash_counts(table: ProbeTable) -> np.ndarray:
    """Per-slot histogram of the stored keys' hash values; the analytics
    below take it precomputed to stay linear over many checks."""
    hashes = np.fromiter(map(table.hash_fn, table.keys()), dtype=np.int64)
    return np.bincount(hashes, minlength=table.t)


def interval_counts(counts: np.ndarray, level: int) -> np.ndarray:
    """Entry i is the number of hashes in the aligned interval of slots
    [i * 2^level, (i + 1) * 2^level), from the per-slot histogram `counts`,
    for a level in [0, log2 len(counts)]."""
    if _integer("level", level, 0) > len(counts).bit_length() - 1:
        raise ValueError(f"level must be at most log2 {len(counts)}, got {level}")
    return counts.reshape(-1, 1 << level).sum(axis=1)


def _intervals(counts: np.ndarray, level: int, first: int, count: int):
    """Indices and hash counts of `count` consecutive aligned 2^level-slot
    intervals from interval `first` on, read cyclically modulo
    m = t >> level; each interval appears at most once, so at most m."""
    rows = counts.reshape(-1, 1 << level)
    idx = np.arange(first, first + min(count, len(rows))) % len(rows)
    return idx, rows[idx].sum(axis=1)


def check_run_lemma(run: Run, level: int, counts: np.ndarray):
    """For a run of length >= 2^(level+2) in the table whose per-slot hash
    histogram is `counts`, verify that one of the first four level-intervals
    intersecting it (cyclically) is near-full.

    Returns None on success, or a counterexample dict.
    """
    if run.length < 1 << (level + 2):
        raise ValueError(f"run length {run.length} < 2^{level + 2}")
    idx, observed = _intervals(counts, level, run.start >> level, 4)
    threshold = near_full_threshold(level)
    if observed.max() >= threshold:
        return None
    return {
        "run": run,
        "level": level,
        "intervals": idx.tolist(),
        "counts": observed.tolist(),
        "threshold": threshold,
    }


def check_query_run_lemma(table: ProbeTable, q: int, counts: np.ndarray):
    """For a query key q whose run has length r >= 4, with level l chosen
    so r is in [2^(l+2), 2^(l+3)), verify that one of the 12 l-intervals
    around the one containing h(q) (8 left, own, 3 right, cyclically) is
    near-full, not counting q itself.

    Returns None on success or when no level applies, else a
    counterexample dict.
    """
    hq = table.hash_fn(q)
    r = run_containing(table, hq)
    if r < 4:
        return None
    level = r.bit_length() - 3  # largest l with 2^(l+2) <= r
    assert 1 << (level + 2) <= r < 1 << (level + 3)
    idx, window = _intervals(counts, level, (hq >> level) - 8, 12)
    window[8 % len(idx)] -= table.search(q).found  # q's own hash is not counted
    threshold = near_full_threshold(level)
    if window.max() >= threshold:
        return None
    return {
        "query": q,
        "run_length": r,
        "level": level,
        "counts": list(zip(idx.tolist(), window.tolist())),
        "threshold": threshold,
    }


def table_size_for(n: int, max_load: float = 2 / 3) -> int:
    """Smallest power of two t with n/t <= max_load, for a max_load in (0, 1)."""
    n = _integer("n", n, 0)
    if isinstance(max_load, bool) or not isinstance(max_load, numbers.Real) or not 0 < max_load < 1:
        raise ValueError(f"max_load must be a number in (0, 1), got {max_load!r}")
    if n < 1:
        return 2
    t = 1 << math.ceil(math.log2(n / max_load))
    while n / t > max_load:
        t *= 2
    return t
