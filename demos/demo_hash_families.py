"""Tour of the hash families: polynomials over a prime field, simple
tabulation, and the truly-random baseline.

Run: python3 demos/demo_hash_families.py
"""

from collections import Counter

from linprobe import (
    MERSENNE61,
    TrulyRandomHash,
    new_polynomial,
    new_tabulation,
    verify_independence_exact,
)


def main():
    t = 1 << 10

    print("== k-independent polynomial hashing ==")
    print(f"one prime field: p = 2^61 - 1 = {MERSENNE61}")
    for k in (2, 3, 5):
        h = new_polynomial(k, t, seed=7)
        sample = [h(x) for x in range(8)]
        print(f"  k={k}: degree-{k - 1} polynomial, h(0..7) = {sample}")

    print()
    print("== exhaustive independence check on a toy field ==")
    print("every j-tuple of distinct keys must hit every value tuple the")
    print("same number of times over all p^k coefficient vectors:")
    for p, k, j in [(5, 2, 2), (3, 3, 3), (5, 1, 2)]:
        ok, witness = verify_independence_exact(p, k, j)
        verdict = "independent" if ok else f"NOT independent ({witness})"
        print(f"  p={p}, k={k}, tuple size {j}: {verdict}")

    print()
    print("== simple tabulation ==")
    tab = new_tabulation(4, 16, 10, seed=7)
    print("4 chars x 16 bits, XOR of per-character table entries:")
    print(f"  h(0x0001000200030004) = {tab(0x0001000200030004)}")
    print(f"  h(0) = {tab(0)} (XOR of the four zero-entries)")

    print()
    print("== uniformity sanity check, 10^5 keys into 16 buckets ==")
    for name, h in [
        ("poly5", new_polynomial(5, 16, seed=9)),
        ("tabulation", new_tabulation(4, 16, 4, seed=9)),
        ("random", TrulyRandomHash(16, seed=9)),
    ]:
        counts = Counter(h(x) for x in range(100_000))
        lo, hi = min(counts.values()), max(counts.values())
        print(f"  {name:10s}: bucket counts in [{lo}, {hi}] (ideal 6250)")


if __name__ == "__main__":
    main()
