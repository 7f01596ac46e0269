"""Approximate-membership filter: b-bit signatures stored in a linear
probing layout.  Never answers "no" for a stored key; a non-member is a
false positive only when its signature collides with one on its scan path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hashing import (
    MERSENNE61,
    derived_rng,
    make_family,
    _all_distinct,
    _integer,
    _power_of_two,
)
from .probing import ProbeTable, _scan_found

__all__ = ["MODES", "FprReport", "SignatureFilter", "make_filter", "measure_fpr",
    "sample_distinct_keys", "scan_keys", "subsequence_scan_check"]

MODES = ("independent", "paired", "hash_of_signature", "tabulation_paired")


class SignatureFilter:
    """A `ProbeTable` of signatures: x is stored as s(x), scanned from the
    start slot h(x); `place(x)` gives (h(x), s(x)).

    Empty slots are None, so every signature value is legal; a reserved
    nil-signature would skew the false-positive rate by 2^-b.  There is
    deliberately no delete operation: removing one signature may remove
    the shared evidence for other keys.
    """

    def __init__(self, t: int, place: Callable[[int], tuple[int, int]]):
        self.table = ProbeTable(t, None)
        self.place = place

    def insert(self, x: int) -> bool:
        """Insert x; returns False if x was already positive (its signature
        occurs on the scan path), in which case nothing is written.  A new
        signature in a full filter raises `TableFullError`."""
        table, n = self.table, self.table.n
        start, sig = self.place(x)
        table.insert(sig, start)
        return table.n > n

    def query(self, q: int) -> bool:
        """True iff s(q) appears among the signatures scanned from the start
        slot to the first empty slot."""
        start, sig = self.place(q)
        return self.table.search(sig, start).found


def make_filter(t: int, b: int, mode: str, seed: int, *, stream: int = 0) -> SignatureFilter:
    """Build a filter whose placement x -> (start slot, signature) is drawn
    per the requested mode:

    independent:        (h(x), s(x)): 5-independent h, universal b-bit s,
                        separate seed streams.
    paired:             one 5-independent value of log2(t)+b bits; the start
                        is the high bits, the signature the low b bits.
    hash_of_signature:  (h(s(x)), s(x)) -- the anti-pattern, measured for
                        comparison.
    tabulation_paired:  one simple-tabulation output split the same way.
    """
    return SignatureFilter(t, _placement(t, b, mode, seed, stream)[0])


def _placement(t: int, b: int, mode: str, seed: int, stream: int) -> tuple[Callable, Callable]:
    """The mode's placement x -> (start slot, signature), and its batch form:
    a uint64 key array -> (starts, signatures) uint64 arrays, equal key by key."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    t = _power_of_two("t", t)
    b = _check_width(t, b, mode)
    if mode in ("independent", "hash_of_signature"):
        h = make_family("poly5", t, seed, 2 * stream)
        s = make_family("poly2", 1 << b, seed, 2 * stream + 1)
        of_sig = mode == "hash_of_signature"

        def place(x: int) -> tuple[int, int]:
            sig = s(x)
            return h(sig if of_sig else x), sig

        def place_array(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            sigs = s.hash_array(keys)
            return h.hash_array(sigs if of_sig else keys), sigs
    else:
        wide = make_family("poly5" if mode == "paired" else "tabulation", t << b, seed, stream)

        def place(x: int) -> tuple[int, int]:
            return divmod(wide(x), 1 << b)

        def place_array(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            value = wide.hash_array(keys)
            return value >> b, value & ((1 << b) - 1)

    return place, place_array


def _check_width(t: int, b: int, mode: str) -> int:
    """`b` as an int, if b >= 1 and the mode's hashes fit their families: a
    polynomial's range is at most 2^56 (24 * 2^56 <= p = 2^61 - 1) and a
    tabulation output at most 64 bits, where the paired modes draw one
    log2(t) + b bit hash and the others a b-bit signature.  Raises otherwise."""
    b = _integer("b", b, 1)
    width = b + (t.bit_length() - 1 if mode in ("paired", "tabulation_paired") else 0)
    if width > (64 if mode == "tabulation_paired" else 56):
        raise ValueError(f"a {width}-bit hash is too wide for the {mode} mode (t={t}, b={b})")
    return b


@dataclass(frozen=True)
class FprReport:
    mode: str
    b: int
    n: int
    t: int
    trials: int
    false_positives: int
    fpr: float
    mean_scan_keys: float  # E[|X(q)|]: keys a query scans to the first empty slot


def sample_distinct_keys(rng: np.random.Generator, count: int, bound: int) -> np.ndarray:
    """`count` distinct uniform keys below `bound` (0 <= count <= bound, and
    fast for bound >> count), as a uint64 array in order of first draw;
    rounds of `count` draws repeat until enough are distinct."""
    count, bound = _integer("count", count, 0), _integer("bound", bound, 0)
    if count > bound:
        raise ValueError(f"count must be at most bound = {bound}, got {count}")
    drawn = rng.integers(0, bound, size=count, dtype=np.uint64)
    if _all_distinct(drawn):  # the usual case
        return drawn
    first = np.unique(drawn, return_index=True)[1]  # first occurrence of each distinct key
    while len(first) < count:
        drawn = np.concatenate([drawn, rng.integers(0, bound, size=count, dtype=np.uint64)])
        first = np.unique(drawn, return_index=True)[1]
    return drawn[np.sort(first)[:count]]


def measure_fpr(
    t: int,
    b: int,
    mode: str,
    n: int,
    trials: int,
    seed: int,
    *,
    stream: int = 0,
) -> FprReport:
    """Build a filter over n random keys, as a `ProbeTable` of signatures
    inserted in order at their batch-placed starts, and measure the
    false-positive rate on `trials` non-member queries in one numpy kernel.
    It reads the filter as arrays written at the positions the inserts
    return; a skipped duplicate returns the slot of its equal signature.

    A shadow table counts, per query, the keys scanned to the first empty
    slot; their mean scales the FPR bound.  Only its occupied slots are
    read, and they do not depend on insertion order, so it is built from the
    histogram of the keys' starts (`ProbeTable.from_counts`).  Every query
    is a non-member, so its scan is that of a search for None from its start.
    """
    n, trials = _integer("n", n, 0), _integer("trials", trials, 1)
    place_array = _placement(t, b, mode, seed, stream)[1]
    if n >= t:
        raise ValueError(f"n must be below t = {t}: one slot stays empty, got {n}")
    flt = ProbeTable(t, None)
    rng = derived_rng(seed, stream + 1_000_003)
    drawn = sample_distinct_keys(rng, n + trials, MERSENNE61)
    starts, sigs = place_array(drawn)  # every key in one batch
    positions = [flt.insert(sig, start)[0]
                 for sig, start in zip(sigs[:n].tolist(), starts[:n].tolist())]
    occupied, values = np.zeros(t, dtype=bool), np.zeros(t, dtype=np.uint64)
    occupied[positions], values[positions] = True, sigs[:n]
    del positions  # no per-key list lives into the queries
    false_pos = int(_scan_found(values, occupied, starts[n:], sigs[n:]).sum())
    shadow = ProbeTable.from_counts(np.bincount(starts[:n].astype(np.intp), minlength=t))
    probes = 0
    for lo in range(n, n + trials, 1 << 14):  # so the starts' ints never all live at once
        probes += sum(shadow.search(None, start).probes
                      for start in starts[lo:lo + (1 << 14)].tolist())
    scan_total = probes - trials  # a scan's last probe reads the empty slot
    return FprReport(
        mode=mode,
        b=b,
        n=n,
        t=t,
        trials=trials,
        false_positives=false_pos,
        fpr=false_pos / trials,
        mean_scan_keys=scan_total / trials,
    )


def scan_keys(table: ProbeTable, start: int) -> list[int]:
    """Keys encountered scanning cyclically from slot `start` (in [0, t))
    to the first empty slot, in scan order."""
    probes = table.search(None, start).probes  # a search for None ends at an empty slot
    return [table.slots[(start + k) & (table.t - 1)] for k in range(probes - 1)]


def subsequence_scan_check(
    keys: list[int],
    subsequence_mask: list[bool],
    hash_fn,
    t: int,
    probe_start: int,
) -> Optional[dict]:
    """Insert the full key sequence and the masked subsequence into two
    exact tables with the same hash; every key scanned from `probe_start`
    in the subsequence table must also be scanned in the full table.

    Only membership is checked: dropping keys can shrink a later key's
    displacement, so the two scans may encounter shared keys in different
    relative orders.  Membership is the property that makes a filter's
    false positive traceable to a signature collision on the exact scan
    path.

    Returns None on success, else a violation witness.
    """
    if len(subsequence_mask) != len(keys):
        raise ValueError("mask length must match key count")
    full = ProbeTable(t, hash_fn)
    sub = ProbeTable(t, hash_fn)
    for x in keys:
        full.insert(x)
    for x, keep in zip(keys, subsequence_mask):
        if keep:
            sub.insert(x)
    full_scan = scan_keys(full, probe_start)
    sub_scan = scan_keys(sub, probe_start)
    encountered = set(full_scan)
    for x in sub_scan:
        if x not in encountered:
            return {"full_scan": full_scan, "sub_scan": sub_scan, "missing": x}
    return None
