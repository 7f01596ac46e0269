"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np

from linprobe.experiments import ExperimentConfig, run_experiment
from linprobe.filters import (
    make_filter,
    measure_fpr,
    sample_distinct_keys,
    subsequence_scan_check,
)
from linprobe.hashing import (
    TrulyRandomHash,
    derived_rng,
    verify_independence_exact,
)
from linprobe.moments import (
    BernoulliProfile,
    brute_force_moment,
    exact_fourth_moment,
    kth_moment_bound_terms,
    tail_check,
)
from linprobe.probing import (
    ProbeTable,
    check_query_run_lemma,
    check_run_lemma,
    hash_counts,
    occupancy,
    runs,
    table_size_for,
    verify_fill_invariant,
)
from linprobe.cli import main as cli_main
from linprobe.experiments import make_family

KEY_BOUND = 2**61 - 1


def _report(num, desc, ok):
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_exact_independence():
    start = time.time()
    ok2, _ = verify_independence_exact(5, 2, 2)
    ok2b, _ = verify_independence_exact(5, 2, 1)
    ok3, _ = verify_independence_exact(3, 3, 3)
    ok3b, _ = verify_independence_exact(3, 3, 2)
    bad, cex = verify_independence_exact(5, 1, 2)
    elapsed = time.time() - start
    ok = ok2 and ok2b and ok3 and ok3b and not bad and cex is not None and elapsed < 1.0
    _report(1, f"exact polynomial independence (runtime {elapsed:.3f}s < 1s)", ok)


def test_criterion_02_fourth_moment_oracle():
    start = time.time()
    rng = derived_rng(2001, 0)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 17))
        profile = BernoulliProfile(tuple(rng.random(n)))
        exact = exact_fourth_moment(profile)
        brute = brute_force_moment(profile, 4)
        scale = max(abs(brute), 1e-300)
        if abs(exact - brute) / scale > 1e-9 and abs(exact - brute) > 1e-12:
            ok = False
        if profile.mu >= 1 and exact > 4 * profile.mu**2 + 1e-9:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    _report(2, f"brute-force vs closed-form fourth moment, 200 profiles "
               f"(runtime {elapsed:.2f}s < 30s)", ok)


def test_criterion_03_kth_moment_bound():
    start = time.time()
    rng = derived_rng(2003, 0)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 15))
        profile = BernoulliProfile(tuple(rng.random(n)))
        for k in (2, 4, 6, 8):
            exact = brute_force_moment(profile, k)
            bound = kth_moment_bound_terms(profile.variance, k)
            if exact > bound + 1e-12 * max(1.0, bound):
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(3, f"k-th central moment within the constructive bound, "
               f"k in {{2,4,6,8}} (runtime {elapsed:.2f}s < 60s)", ok)


def test_criterion_04_tail_bounds():
    ok = True
    small = BernoulliProfile.uniform(16, 0.5)
    for d in (2.0, 2.5, 3.0):
        rep = tail_check(small, d=d)
        if not (rep.exact and rep.empirical_prob <= 4 / d**4):
            ok = False
    big = BernoulliProfile.uniform(256, 0.5)
    rep = tail_check(big, d=2.0, trials=10**5, seed=2004)
    if rep.empirical_prob > 4 / 2.0**4 + 3 * rep.std_error:
        ok = False
    _report(4, "fourth-moment tail bound, exact Bin(16,1/2) and sampled "
               "Bin(256,1/2)", ok)


FAMILY_CYCLE = ("poly2", "poly3", "poly5", "poly2", "tabulation", "random")


def test_criterion_05_structural_determinism():
    t = 1 << 8
    max_keys = (2 * t) // 3
    ok = True
    for seq in range(1000):
        family = FAMILY_CYCLE[seq % len(FAMILY_CYCLE)]
        h = make_family(family, t, seed=2005, stream=seq)
        rng = derived_rng(2105, seq)
        table = ProbeTable(t, h)
        live = []  # insertion order
        in_table = set()
        prefill = int(rng.integers(0, max_keys))
        for k in rng.integers(0, KEY_BOUND, size=prefill, dtype=np.uint64):
            k = int(k)
            if k not in in_table:
                table.insert(k)
                in_table.add(k)
                live.append(k)
        for _ in range(40):
            r = rng.random()
            if r < 0.4 and live:
                x = live.pop(int(rng.integers(len(live))))
                table.delete(x)
                in_table.discard(x)
                fresh = ProbeTable(t, h)
                for y in live:
                    fresh.insert(y)
                if table.slots != fresh.slots:
                    ok = False
            elif r < 0.7 and len(in_table) < max_keys:
                x = int(rng.integers(0, KEY_BOUND))
                if x not in in_table:
                    table.insert(x)
                    in_table.add(x)
                    live.append(x)
            else:
                x = int(rng.integers(0, KEY_BOUND))
                if table.search(x).found != (x in in_table):
                    ok = False
            if verify_fill_invariant(table) is not None:
                ok = False
        order = list(in_table)
        rng.shuffle(order)
        rebuilt = ProbeTable(t, h)
        for y in order:
            rebuilt.insert(y)
        mask = [s is not None for s in table.slots]
        if ([s is not None for s in rebuilt.slots] != mask
                or occupancy(hash_counts(table)).tolist() != mask):
            ok = False
        if not ok:
            break
    _report(5, "fill invariant, insertion-order rebuild after every delete and "
               "order-free occupancy over 1000 random operation sequences, all "
               "families", ok)


def test_criterion_06_run_lemmas():
    t = 1 << 10
    n = (2 * t) // 3
    ok = True
    for trial in range(1000):
        family = "random" if trial % 2 == 0 else "poly5"
        h = make_family(family, t, seed=2006, stream=trial)
        rng = derived_rng(2106, trial)
        keys = sample_distinct_keys(rng, n, KEY_BOUND).tolist()
        table = ProbeTable(t, h)
        for x in keys:
            table.insert(x)
        counts = hash_counts(table)
        for run in runs(table):
            level = 0
            while run.length >= 1 << (level + 2):
                if check_run_lemma(run, level, counts=counts) is not None:
                    ok = False
                level += 1
        for q in rng.integers(0, KEY_BOUND, size=20, dtype=np.uint64):
            if check_query_run_lemma(table, int(q), counts=counts) is not None:
                ok = False
        if not ok:
            break
    _report(6, "run lemma and 12-interval query-run lemma, 1000 tables, "
               "zero counterexamples", ok)


def test_criterion_07_probe_cost_constancy():
    start = time.time()
    cfg = ExperimentConfig(
        experiment="probe_cost",
        families=("poly5", "tabulation"),
        n_values=(1 << 10, 1 << 13, 1 << 16),
        table_trials=20,
        query_trials=20_000,
        seed=2007,
    )
    rows = run_experiment(cfg)
    ok = True
    for family in cfg.families:
        means = [r.value for r in rows
                 if r.family == family and r.metric == "search_absent_probes_mean"]
        assert len(means) == 3
        if max(means) / min(means) > 1.5:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report(7, f"absent-search probe cost flat in n for poly5 and tabulation "
               f"(runtime {elapsed:.1f}s < 300s)", ok)


def test_criterion_08_interval_concentration():
    # Stated ceiling: empirical near-full probability times 4^l at most 64
    # for l in 2..8 at load exactly 2/3.  See the decisions ledger: the
    # exact binomial model already exceeds the ceiling for l >= 4, so this
    # criterion is expected to fail; it is asserted as stated.
    cfg = ExperimentConfig(
        experiment="interval_concentration",
        families=("poly5",),
        n_values=(682,),  # t = 1024, n = 682: load 2/3
        levels=tuple(range(2, 9)),
        table_trials=400,
        seed=2008,
    )
    rows = run_experiment(cfg)
    ok = True
    worst = 0.0
    for level in range(2, 9):
        val = next(r.value for r in rows
                   if r.metric == f"near_full_prob_x4l_l={level}")
        worst = max(worst, val)
        if val > 64:
            ok = False
    _report(8, f"interval concentration constant <= 64 at load 2/3 "
               f"(observed max {worst:.1f}; theory ceiling 40000)", ok)


def test_criterion_09_filter_fpr():
    ok = True
    # zero false negatives over 10^6 mixed insert/query operations
    t = table_size_for(1 << 14)
    flt = make_filter(t, 8, "independent", seed=2009)
    rng = derived_rng(2109, 0)
    pool = sample_distinct_keys(rng, (2 * t) // 3, KEY_BOUND).tolist()
    inserted = []
    ops = 0
    i = 0
    while ops < 1_000_000:
        r = rng.random()
        if r < 0.3 and i < len(pool):
            flt.insert(pool[i])
            inserted.append(pool[i])
            i += 1
        elif inserted:
            q = inserted[int(rng.integers(len(inserted)))]
            if not flt.query(q):
                ok = False
                break
        ops += 1

    # FPR bound per signature width
    n = 1 << 14
    t = table_size_for(n)
    fprs = {}
    for b in (4, 8, 12):
        rep = measure_fpr(t, b, "independent", n=n, trials=10**5,
                          seed=2009, stream=10 * b)
        bound = 8 * rep.mean_scan_keys / 2**b
        se = math.sqrt(max(rep.fpr * (1 - rep.fpr), 1e-12) / rep.trials)
        if rep.fpr > bound + 3 * se:
            ok = False
        fprs[b] = rep
    # halving: quadrupling b from 8 to 12 divides FPR by ~16
    r8, r12 = fprs[8], fprs[12]
    if (r8.false_positives >= 30 and r12.false_positives >= 30
            and r8.fpr > 0 and r12.fpr > 0):
        ratio = r12.fpr / r8.fpr
        if not (1 / 64 <= ratio <= 1 / 4):
            ok = False
    _report(9, "no false negatives over 1e6 mixed ops; FPR bound for "
               "b in {4,8,12}; 1/2^b scaling", ok)


def test_criterion_10_subsequence_lemma():
    t = 1 << 8
    ok = True
    for trial in range(10_000):
        rng = derived_rng(2010, trial)
        h = TrulyRandomHash(t, seed=2110, stream=trial)
        count = int(rng.integers(1, (2 * t) // 3))
        keys = sample_distinct_keys(rng, count, KEY_BOUND).tolist()
        mask = [bool(b) for b in rng.integers(0, 2, size=count)]
        start = int(rng.integers(0, t))
        if subsequence_scan_check(keys, mask, h, t, start) is not None:
            ok = False
            break
    _report(10, "filter scan keys always among exact-table scan keys, "
                "10^4 random instances", ok)


def test_criterion_11_log_bound_experiments():
    ok = True
    cfg = ExperimentConfig(
        experiment="max_run",
        families=("random", "tabulation"),
        n_values=(1 << 10, 1 << 13, 1 << 16),
        table_trials=20,
        seed=2011,
    )
    for r in run_experiment(cfg):
        if r.metric == "max_run_within_bound" and r.value != 1:
            ok = False
    cfg3 = ExperimentConfig(
        experiment="three_indep",
        families=("poly3",),
        n_values=(1 << 10, 1 << 13, 1 << 16),
        table_trials=20,
        query_trials=20_000,
        seed=2011,
    )
    for r in run_experiment(cfg3):
        if r.metric == "mean_probes_within_bound" and r.value != 1:
            ok = False
    _report(11, "max run <= 16*log2(n); 3-independent mean probes <= "
                "8*log2(n)", ok)


def test_criterion_12_cli_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "probe_cost",
        "families": ["poly5", "random"],
        "n_values": [1024],
        "table_trials": 4,
        "query_trials": 2000,
    }))
    blobs = []
    for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r3.csv", "3")):
        rc = cli_main(["--experiment", "probe_cost", "--config", str(cfg),
                       "--seed", "42", "--out", str(tmp_path / name),
                       "--threads", threads])
        assert rc == 0
        blobs.append((tmp_path / name).read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(12, "byte-identical CSV across reruns and thread counts", ok)
