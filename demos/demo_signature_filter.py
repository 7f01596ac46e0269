"""Signature filter: b-bit signatures in a linear probing layout.  Shows
no-false-negatives, the measured false-positive rate per mode, and the
1/2^b scaling.

Run: python3 demos/demo_signature_filter.py
"""

from linprobe import (
    MODES,
    derived_rng,
    make_filter,
    measure_fpr,
    sample_distinct_keys,
    table_size_for,
)


def main():
    n = 1 << 12
    t = table_size_for(n)
    print(f"filters sized t={t} for n={n} keys (load {n / t:.3f})\n")

    flt = make_filter(t, 8, "independent", seed=3)
    keys = sample_distinct_keys(derived_rng(4, 0), n, 2**61 - 1).tolist()
    for x in keys:
        flt.insert(x)
    misses = sum(not flt.query(x) for x in keys)
    print(f"false negatives among all {n} stored keys: {misses} (always 0)")

    print("\nfalse-positive rate by signature width (mode=independent):")
    print("  b   fpr        ~E|scan|/2^b")
    for b in (4, 6, 8, 10, 12):
        rep = measure_fpr(t, b, "independent", n=n, trials=50_000, seed=5)
        print(f"  {b:2d}  {rep.fpr:.6f}   {rep.mean_scan_keys / 2**b:.6f}")
    print("each +1 bit roughly halves the rate")

    print("\nmode comparison at b=8:")
    for mode in MODES:
        rep = measure_fpr(t, 8, mode, n=n, trials=50_000, seed=6)
        note = "  <- anti-pattern: placed at h(s(x))" if mode == "hash_of_signature" else ""
        print(f"  {mode:18s} fpr = {rep.fpr:.6f}{note}")


if __name__ == "__main__":
    main()
