"""Linear probing structure: insert/search/delete, the fill invariant,
runs, and the near-full interval lemmas.

Run: python3 demos/demo_probing_runs.py
"""

import numpy as np

from linprobe import (
    ProbeTable,
    TrulyRandomHash,
    check_query_run_lemma,
    check_run_lemma,
    derived_rng,
    hash_counts,
    near_full_threshold,
    runs,
    verify_fill_invariant,
)


def main():
    t = 1 << 10
    n = (2 * t) // 3
    h = TrulyRandomHash(t, seed=11)
    rng = derived_rng(12, 0)

    table = ProbeTable(t, h)
    keys = [int(x) for x in rng.integers(0, 2**61 - 1, size=n, dtype=np.uint64)]
    for x in keys:
        table.insert(x)
    print(f"built a table: t={t}, n={table.n}, load={table.n / t:.3f}")

    found = table.search(keys[0])
    print(f"search(present key): found={found.found} after {found.probes} probes")
    absent = table.search(123)
    print(f"search(absent key):  found={absent.found} after {absent.probes} probes")

    print(f"fill invariant: {verify_fill_invariant(table)} (None means no violation)")
    table.delete(keys[0])
    print(f"after a backward-shift delete it still holds: {verify_fill_invariant(table)}")
    table.insert(keys[0])

    rs = runs(table)
    longest = max(rs, key=lambda r: r.length)
    print(f"\n{len(rs)} runs; longest has length {longest.length} "
          f"(16 * log2(n) = {16 * np.log2(table.n):.0f})")

    print("\nrun lemma: every run of length >= 2^(l+2) forces one of its")
    print("first four level-l intervals to be near-full "
          f"(threshold ceil(3*2^l/4), e.g. l=3 -> {near_full_threshold(3)})")
    counts = hash_counts(table)
    checked = 0
    for run in rs:
        level = 0
        while run.length >= 1 << (level + 2):
            assert check_run_lemma(run, level, counts=counts) is None
            checked += 1
            level += 1
    print(f"verified on this table: {checked} (run, level) pairs, no counterexample")

    print("\nquery-run lemma: if an absent query scans far, one of 12 dyadic")
    print("intervals around it (8 left, its own, 3 right) is near-full")
    for q in rng.integers(0, 2**61 - 1, size=200, dtype=np.uint64):
        assert check_query_run_lemma(table, int(q), counts=counts) is None
    print("verified on 200 random queries, no counterexample")


if __name__ == "__main__":
    main()
