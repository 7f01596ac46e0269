import collections
import concurrent.futures
import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import linprobe
from linprobe import experiments
from linprobe.cli import main as cli_main
from linprobe.experiments import (
    EXPERIMENTS,
    FAMILIES,
    MAX_TABLE,
    MODES,
    SEQ_FAMILIES,
    ExperimentConfig,
    default_config,
    make_family,
    max_run_from_counts,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from linprobe.hashing import TrulyRandomHash, derived_rng
from linprobe.probing import ProbeTable, occupancy, runs, table_size_for

import numpy as np
from probe_model import carry_model


def tiny_config(experiment, **over):
    base = dict(
        experiment=experiment,
        families=("poly5",),
        n_values=(256,),
        table_trials=4,
        query_trials=400,
        seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "probe_cost", "bogus": 1})

    def test_round_trip_through_json(self):
        for cfg in (tiny_config("max_run", n_values=[64]), *map(default_config, EXPERIMENTS)):
            assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_from_dict_starts_from_the_experiments_defaults(self, experiment):
        assert ExperimentConfig.from_dict({"experiment": experiment}) == default_config(experiment)
        assert (ExperimentConfig.from_dict({"experiment": experiment, "table_trials": 3})
                == replace(default_config(experiment), table_trials=3))

    def test_validates_load(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="probe_cost", load_target=1.5)

    def test_validates_modes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="filter_fpr", modes=("bloom",))

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment 'nope'"):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ValueError, match="unknown experiment 'nope'"):
            ExperimentConfig.from_dict({"experiment": "nope"})
        # a name that is no str is refused by name, not by a failed dict lookup
        for name in (["max_run"], {"max_run": 1}, 3, None):
            message = f"^unknown experiment {re.escape(repr(name))}; choose from "
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(experiment=name)
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_dict({"experiment": name})

    @pytest.mark.parametrize("experiment,name", [
        *((e, name) for e in sorted(EXPERIMENTS) for name in ("families", "n_values")),
        ("filter_fpr", "modes"), ("filter_fpr", "b_values"), ("interval_concentration", "levels")])
    def test_empty_list_the_experiment_reads_refused(self, experiment, name):
        with pytest.raises(ValueError, match=f"^{name} must not be empty for {experiment}$"):
            ExperimentConfig(experiment=experiment, **{name: []})

    def test_empty_list_the_experiment_ignores_accepted(self):
        config = ExperimentConfig(experiment="max_run", modes=[], b_values=[], levels=[])
        assert config.modes == config.b_values == config.levels == ()

    @pytest.mark.parametrize("load", [0.5, 2 / 3, 1e-7])
    def test_table_cap(self, load):
        # the largest n whose table fits MAX_TABLE slots is accepted, one more is not
        n = math.floor(MAX_TABLE * load)
        assert table_size_for(n, load) == MAX_TABLE
        assert ExperimentConfig(experiment="max_run", n_values=(n,), load_target=load)
        with pytest.raises(ValueError, match="more than"):
            ExperimentConfig(experiment="max_run", n_values=(n + 1,), load_target=load)

    def test_defaults_exist_for_every_experiment(self):
        for name in EXPERIMENTS:
            assert default_config(name).experiment == name


# Config fields drawn in range, and drawn out of range: wrong types, bools,
# NaN, negative and huge values.  Every accepted config stays small: t <= 2^10
# and at most 2 trials, so each one runs to rows in milliseconds.
WRONG = st.sampled_from([None, "1", 1.5, math.nan, math.inf, True, False, -1, {}, [1], [[1]]])
IN_RANGE = {
    "experiment": st.sampled_from(sorted(EXPERIMENTS)),
    "families": st.lists(st.sampled_from([*FAMILIES, *SEQ_FAMILIES]), max_size=2),
    "n_values": st.lists(st.integers(1, 300), max_size=2),
    "load_target": st.floats(0.5, 0.9),
    "b_values": st.lists(st.integers(1, 12), max_size=2),
    "modes": st.lists(st.sampled_from(MODES), max_size=2),
    "levels": st.lists(st.integers(0, 11) | st.just(10**30), max_size=2),
    "table_trials": st.integers(1, 2),
    "query_trials": st.integers(1, 2),
    "seed": st.integers(0, 2**70),
}
OUT_OF_RANGE = {
    "experiment": st.just("nope"),
    "families": st.just(["poly7"]),
    "n_values": st.lists(st.sampled_from([0, -1, MAX_TABLE, 2**64]), min_size=1, max_size=2),
    "load_target": st.sampled_from([0.0, 1.0, 1e-9, 2.0, -0.5]),
    "b_values": st.lists(st.sampled_from([0, -1, 57, 65, 10**30]), min_size=1, max_size=2),
    "modes": st.just(["bloom"]),
    "levels": st.just([-1]),
    "table_trials": st.integers(-2, 0),
    "query_trials": st.integers(-2, 0),
    "seed": st.integers(-(2**70), -1),
}


@st.composite
def config_dicts(draw):
    """A config dict with up to two fields out of range and maybe an unknown
    name; n_values and the trial counts are always given, as their defaults
    are large."""
    names = sorted(IN_RANGE)
    present = draw(st.sets(st.sampled_from(names))) | {"experiment", "n_values", "table_trials",
                                                       "query_trials"}
    broken = draw(st.sets(st.sampled_from([*names, "bogus"]), max_size=2))
    raw = {"bogus": 1} if "bogus" in broken else {}
    for name in sorted(present | broken - {"bogus"}):
        values = OUT_OF_RANGE[name] | WRONG if name in broken else IN_RANGE[name]
        raw[name] = draw(values, label=name)
    return raw


@given(config_dicts())
@example({"experiment": "filter_fpr", "n_values": [64], "b_values": [65], "modes": ["independent"],
          "table_trials": 1, "query_trials": 2})  # the signature mask overflowed uint64
@example({"experiment": "interval_concentration", "n_values": [64], "levels": [10**30],
          "table_trials": 1, "query_trials": 1})  # 2^level overflowed before it was compared
@settings(max_examples=100, deadline=None)
def test_config_boundary_refuses_or_runs(raw):
    # each dict is refused at the boundary with ValueError or TypeError, or runs to rows
    try:
        config = ExperimentConfig.from_dict(raw)
    except (ValueError, TypeError):
        return
    rows = run_experiment(config)
    assert all(r.t <= 1 << 10 for r in rows)
    assert rows_to_csv(rows).count("\n") == len(rows) + 1


class TestRows:
    def test_csv_header_and_shape(self):
        rows = run_experiment(tiny_config("max_run", families=("random",), table_trials=2))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "experiment,family,n,t,b,seed,metric,value"
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_json_mirrors_csv_values(self):
        rows = run_experiment(tiny_config("probe_cost", table_trials=2, query_trials=100))
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == len(rows)
        for row, obj in zip(rows, payload):
            assert obj["metric"] == row.metric
            assert obj["value"] == pytest.approx(float(row.value), rel=1e-15)

    def test_float_formatting_round_trips(self):
        rows = run_experiment(tiny_config("probe_cost", table_trials=2, query_trials=100))
        text = rows_to_csv(rows)
        for line, row in zip(text.strip().split("\n")[1:], rows):
            assert float(line.rsplit(",", 1)[1]) == float(row.value)


class TestDeterminism:
    def test_same_config_same_rows(self):
        cfg = tiny_config("probe_cost", table_trials=3, query_trials=200)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_thread_count_does_not_change_rows(self):
        cfg = tiny_config("probe_cost", table_trials=3, query_trials=200)
        assert run_experiment(cfg, threads=1) == run_experiment(cfg, threads=3)

    def test_seed_changes_rows(self):
        a = run_experiment(tiny_config("max_run", seed=1, table_trials=2))
        b = run_experiment(tiny_config("max_run", seed=2, table_trials=2))
        assert a != b


class TestProbeCost:
    def test_emits_contiguous_poly2_rows(self):
        cfg = tiny_config("probe_cost", families=("poly2_seq",), table_trials=2,
                          query_trials=100)
        rows = run_experiment(cfg)
        assert any(r.family == "poly2_seq" for r in rows)

    def test_flat_across_sizes_truly_random(self):
        cfg = tiny_config("probe_cost", families=("random",), n_values=(256, 2048),
                          table_trials=8, query_trials=4000)
        rows = run_experiment(cfg)
        means = [r.value for r in rows if r.metric == "search_absent_probes_mean"]
        assert max(means) / min(means) <= 1.5

    @pytest.mark.parametrize("queries,trials", [(5, 20), (200, 3)])
    def test_runs_exactly_query_trials_searches(self, monkeypatch, queries, trials):
        searches = []
        original = ProbeTable.search

        def counted(self, x, *args):
            searches.append(x)
            return original(self, x, *args)

        monkeypatch.setattr(ProbeTable, "search", counted)
        cfg = tiny_config("probe_cost", families=("random",), n_values=(64,),
                          table_trials=trials, query_trials=queries)
        rows = run_experiment(cfg)
        assert len(searches) == queries
        assert any(r.metric == "search_absent_probes_mean" for r in rows)


def absent_queries(keys, seed, stream, queries):
    """The trial's absent queries: uniform draws, less the stored keys."""
    stored = set(keys)
    rng = derived_rng(seed, stream)
    absent = []
    while len(absent) < queries:
        for q in rng.integers(0, 2**61 - 1, size=queries - len(absent), dtype=np.uint64):
            if int(q) not in stored:
                absent.append(int(q))
    return absent


def scalar_probe_cost_trial(family, n, t, seed, stream, queries):
    """The per-key reference: each key hashed by the table on insert, each
    absent query hashed and searched in turn."""
    h = make_family(family, t, seed, stream)
    keys = experiments.trial_keys(family, n, seed, stream + 1).tolist()
    table = ProbeTable(t, h)
    ins = [table.insert(x)[1] for x in keys]
    return ins, [table.search(q).probes for q in absent_queries(keys, seed, stream + 2, queries)]


# each side draws its own hash function: the random family's draw order is
# part of what is compared
@pytest.mark.parametrize("family", experiments.FAMILIES + experiments.SEQ_FAMILIES)
@pytest.mark.parametrize("n,t", [(3, 4), (200, 256), (700, 1024)])
def test_probe_cost_trial_matches_scalar_build(family, n, t):
    ins, srch = experiments._probe_cost_trial(family, n, t, 7, 3, 300)
    assert (ins.tolist(), srch.tolist()) == scalar_probe_cost_trial(family, n, t, 7, 3, 300)


@pytest.mark.parametrize("family", experiments.FAMILIES + experiments.SEQ_FAMILIES)
@pytest.mark.parametrize("n,t", [(3, 4), (700, 1024), (8192, 16384)])
def test_probe_cost_trial_matches_carry_model(family, n, t):
    # order-free: the insert probes sum to n + the total carry of the keys'
    # hash histogram, and an absent search takes 1 + the distance from its
    # start to the next empty slot
    ins, srch = experiments._probe_cost_trial(family, n, t, 7, 3, 300)
    keys = experiments.trial_keys(family, n, 7, 4).tolist()
    batch = np.array(keys + absent_queries(keys, 7, 5, 300), dtype=np.uint64)
    starts = make_family(family, t, 7, 3).hash_array(batch).astype(np.int64)
    total_carry, to_empty = carry_model(np.bincount(starts[:n], minlength=t))
    assert ins.sum() == n + total_carry
    assert srch.tolist() == [1 + to_empty[s] for s in starts[n:]]


@functools.cache
def exact_toy_values(t, n):
    """Exact expectations when n keys are inserted at uniform independent
    starts into a table of t slots: every one of the t^n start tuples is
    built in plain loops, and every absent search starts at each of the t
    slots alike.  Keys: the insert and absent-search probe means, the max
    run and its distribution ("max_run_dist", P[max run = v] per value v
    that occurs), and per level l = 1, 2 the chance that an aligned interval
    of 2^l slots receives at least 3/4 of its length in hashes (near-full)."""
    totals = dict.fromkeys(["insert", "absent", "max_run", "near_full_1", "near_full_2"], 0)
    max_runs = collections.Counter()
    for starts in itertools.product(range(t), repeat=n):
        full = [False] * t
        for start in starts:
            slot = start
            while full[slot]:
                slot = (slot + 1) % t
            full[slot] = True
            totals["insert"] += (slot - start) % t + 1
        for start in range(t):
            slot = start
            while full[slot]:
                slot = (slot + 1) % t
            totals["absent"] += (slot - start) % t + 1
        run = longest = 0
        for slot in range(2 * t):  # twice round, so a run through slot 0 is seen whole
            run = run + 1 if full[slot % t] else 0
            longest = max(longest, run)
        totals["max_run"] += longest
        max_runs[longest] += 1
        for level in (1, 2):
            width = 1 << level
            for first in range(0, t, width):
                hits = sum(first <= start < first + width for start in starts)
                totals[f"near_full_{level}"] += 4 * hits >= 3 * width
    per = {"insert": t**n * n, "absent": t**n * t, "max_run": t**n,
           "near_full_1": t**n * (t // 2), "near_full_2": t**n * (t // 4)}
    return {**{key: Fraction(total, per[key]) for key, total in totals.items()},
            "max_run_dist": {v: Fraction(c, t**n) for v, c in sorted(max_runs.items())}}


def test_exact_probe_means_at_toy_size():
    exact = exact_toy_values(8, 5)
    assert (exact["insert"], exact["absent"]) == (Fraction(1403, 1024), Fraction(9881, 4096))


def test_exact_max_run_and_near_full_at_toy_size():
    exact = exact_toy_values(8, 5)
    # an interval's hash count is Bin(5, 2^l / 8): P[Bin(5, 1/4) >= 2], P[Bin(5, 1/2) >= 3]
    assert (exact["near_full_1"], exact["near_full_2"]) == (Fraction(47, 128), Fraction(1, 2))
    assert exact["max_run"] == Fraction(3965, 1024)
    dist = exact["max_run_dist"]
    assert sum(dist.values()) == 1
    assert sum(v * p for v, p in dist.items()) == Fraction(3965, 1024)


def within_four_se(per_trial, expected):
    per_trial = np.asarray(per_trial, dtype=float)
    se = per_trial.std(ddof=1) / math.sqrt(len(per_trial))
    assert abs(per_trial.mean() - float(expected)) <= 4 * se, (per_trial.mean(), expected)


# seeds and tolerance fixed before the first run; 4,000 trials of n = 5 keys at
# t = 8 (load 2/3), one absent search each, on the streams the probe_cost grid gives
@pytest.mark.parametrize("family", ["random", "random_seq"])
@pytest.mark.parametrize("seed", [1, 2])
def test_probe_cost_means_match_exact_enumeration(family, seed):
    n, trials = 5, 4000
    t = table_size_for(n, 2 / 3)
    assert t == 8
    exact = exact_toy_values(t, n)
    results = [experiments._probe_cost_trial(family, n, t, seed, 3 * i, 1)
               for i in range(trials)]
    for observed, key in zip(zip(*results), ("insert", "absent")):
        within_four_se([probes.mean() for probes in observed], exact[key])


# seeds and tolerance fixed before the first run; 4,000 trials of n = 5 random
# keys at t = 8, on the streams the max_run and interval_concentration grids give.
# Each max-run value's count lies within 4 binomial SDs of N p_v, and a value the
# enumeration never gives is never drawn.  At level 2 exactly one half of the table
# holds >= 3 of the 5 hashes, so every trial reads 1/2, the SE is 0 and the check
# is exact
@pytest.mark.parametrize("seed", [1, 2])
def test_max_run_and_near_full_match_exact_enumeration(seed):
    n, t, trials = 5, 8, 4000
    exact = exact_toy_values(t, n)
    max_runs = [experiments._max_run_trial("random", n, t, seed, 2 * i) for i in range(trials)]
    within_four_se(max_runs, exact["max_run"])
    drawn, dist = collections.Counter(max_runs), exact["max_run_dist"]
    for v in drawn.keys() | dist.keys():
        p = float(dist.get(v, 0))
        assert abs(drawn[v] - trials * p) <= 4 * math.sqrt(trials * p * (1 - p)), (v, drawn, dist)
    hits = [experiments._interval_trial("random", n, t, seed, 2 * i, (1, 2))
            for i in range(trials)]
    for level, per_trial in zip((1, 2), zip(*hits)):
        within_four_se(np.array(per_trial) / (t >> level), exact[f"near_full_{level}"])


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in-process, so no worker is ever started."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerPool:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: RecordingPool(made, max_workers))
        return made

    def config(self, experiment="probe_cost"):
        return tiny_config(experiment, families=("poly5", "random"), n_values=(64, 128),
                           table_trials=2, query_trials=50)

    @pytest.mark.parametrize("experiment", ["probe_cost", "filter_fpr"])
    def test_one_pool_per_run(self, made, experiment):
        rows = run_experiment(self.config(experiment), threads=2)
        assert made == [2]
        assert rows_to_csv(rows) == rows_to_csv(run_experiment(self.config(experiment)))

    def test_no_pool_at_one_thread(self, made):
        run_experiment(self.config(), threads=1)
        assert made == []

    def test_pool_capped_at_cpus_and_trials(self, made):
        run_experiment(self.config(), threads=10**6)
        # 2 families x 2 sizes x 2 table trials
        assert len(made) == 1 and 1 <= made[0] <= min(os.cpu_count() or 1, 8)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, made, threads):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(self.config(), threads=threads)
        assert made == []

    def test_import_leaves_process_pool_unloaded(self):
        # the pool module is imported only when a run asks for workers
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, linprobe; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}).stdout
        assert out == "False\n"


class TestMaxRunFromCounts:
    def test_matches_built_table(self):
        for seed in range(20):
            t = 256
            h = TrulyRandomHash(t, seed=seed)
            table = ProbeTable(t, h)
            rng = derived_rng(seed, 77)
            keys = [int(k) for k in rng.integers(0, 2**61 - 1, size=150, dtype=np.uint64)]
            counts = np.zeros(t, dtype=np.int64)
            for x in set(keys):
                table.insert(x)
                counts[h(x)] += 1
            expected = max((r.length for r in runs(table)), default=0)
            assert max_run_from_counts(counts) == expected

    def test_single_key(self):
        counts = np.zeros(8, dtype=np.int64)
        counts[3] = 1
        assert max_run_from_counts(counts) == 1

    def test_rejects_full(self):
        with pytest.raises(ValueError):
            max_run_from_counts(np.ones(8, dtype=np.int64))

    def test_wrapping_run(self):
        counts = np.zeros(8, dtype=np.int64)
        counts[7] = 3
        assert max_run_from_counts(counts) == 3


class TestIntervalConcentration:
    def test_level_zero_matches_binomial_closed_form(self):
        cfg = tiny_config("interval_concentration", families=("random",),
                          n_values=(170,), table_trials=300, levels=(0,))
        rows = run_experiment(cfg)
        p_hat = next(r.value for r in rows if r.metric == "near_full_prob_l=0")
        t = next(r.t for r in rows)
        n = next(r.n for r in rows)
        closed = 1 - (1 - 1 / t) ** n
        assert p_hat == pytest.approx(closed, abs=0.02)

    def test_whole_table_interval_never_near_full(self):
        cfg = tiny_config("interval_concentration", families=("random",),
                          n_values=(170,), table_trials=20, levels=(9, 8))
        rows = run_experiment(cfg)
        # 2^8 = t: interval is the whole table, n < (3/4)t; 2^9 > t emits no row
        assert [r.metric for r in rows] == ["near_full_prob_l=8", "near_full_prob_x4l_l=8"]
        assert rows[0].value == 0.0


class TestThreeIndep:
    def test_bound_rows_emitted(self):
        cfg = tiny_config("three_indep", table_trials=3, query_trials=300)
        rows = run_experiment(cfg)
        flags = [r for r in rows if r.metric == "mean_probes_within_bound"]
        assert flags and all(f.value == 1 for f in flags)


class TestFilterFpr:
    def test_rows_for_all_modes(self):
        cfg = tiny_config("filter_fpr", modes=("independent", "hash_of_signature"),
                          b_values=(8,), n_values=(256,), query_trials=500)
        rows = run_experiment(cfg)
        families = {r.family for r in rows}
        assert families == {"independent", "hash_of_signature"}
        assert all(r.b == 8 for r in rows)


# config fields of the wrong shape: a str or an object for a list, a str for a number
WRONG_SHAPE = [{"families": "poly2"}, {"levels": 5}, {"load_target": "0.5"}, {"families": {}}]


class TestCli:
    def run(self, tmp_path, *args):
        return cli_main(list(args))

    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_module_lists(self):
        src = str(Path(linprobe.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "linprobe.cli", "--list"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0 and proc.stdout.split() == sorted(EXPERIMENTS)

    def test_missing_experiment_is_usage_error(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_experiment(self, capsys):
        assert cli_main(["--experiment", "nope", "--out", "x.csv"]) == 2

    def test_missing_out(self, capsys):
        assert cli_main(["--experiment", "max_run"]) == 2

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "max_run", "families": ["random"],
                                   "n_values": [64], "table_trials": 2}))
        rc = cli_main(["--experiment", "max_run", "--config", str(cfg),
                       "--out", str(tmp_path / "nodir" / "x.csv")])
        assert rc == 1

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wat": 1}))
        rc = cli_main(["--experiment", "max_run", "--config", str(cfg), "--out",
                       str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("bad", [{"out": "x.csv"}, {"families": ["poly7"]},
                                     {"table_trials": 0}, {"query_trials": 0},
                                     {"b_values": [0]}, {"levels": [-1]},
                                     {"experiment": "filter_fpr", "b_values": [60],
                                      "modes": ["paired"]},
                                     {"n_values": [100.5]}, {"n_values": [True]},
                                     {"table_trials": 2.5},
                                     {"experiment": "interval_concentration", "levels": [1.5]},
                                     {"n_values": [1 << 56]},
                                     {"experiment": "filter_fpr", "b_values": [64],
                                      "modes": ["tabulation_paired"], "query_trials": 10},
                                     {"seed": -1}, {"seed": 1.5}, {"seed": True},
                                     {"seed": [1]}, {"seed": []}, {"table_trials": [2]},
                                     {"n_values": [300], "load_target": 1e-9},  # t = 2^39
                                     {"experiment": "filter_fpr", "b_values": [65],
                                      "modes": ["independent"], "query_trials": 10},
                                     *WRONG_SHAPE])
    def test_bad_config_value(self, tmp_path, capsys, bad):
        experiment = bad.get("experiment", "max_run")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "n_values": [64], **bad}))
        out = tmp_path / "x.csv"
        rc = cli_main(["--experiment", experiment, "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "error: bad config" in err
        if bad in WRONG_SHAPE:  # the message names the field
            assert f"{next(iter(bad))} must be" in err

    @pytest.mark.parametrize("experiment,name", [("max_run", "families"),
                                                 ("probe_cost", "n_values"),
                                                 ("filter_fpr", "modes"),
                                                 ("filter_fpr", "b_values"),
                                                 ("interval_concentration", "levels")])
    def test_empty_list_field_is_config_error(self, tmp_path, capsys, experiment, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [64], "table_trials": 1, "query_trials": 1,
                                   name: []}))
        out = tmp_path / "x.csv"
        rc = cli_main(["--experiment", experiment, "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert f"error: bad config: {name} must not be empty" in capsys.readouterr().err

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli_main(["--experiment", "max_run", "--seed", "-1", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "error: bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("file_seed,flag,seed", [(7, [], 7), (7, ["--seed", "3"], 3),
                                                     (None, [], 0)])
    def test_seed_flag_overrides_config_seed(self, tmp_path, file_seed, flag, seed):
        cfg = {"families": ["random"], "n_values": [64], "table_trials": 2}
        outs = []
        for name, raw, argv in (("file", {**cfg, "seed": file_seed}, flag),
                                ("flag", cfg, ["--seed", str(seed)])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
            out = tmp_path / f"{name}.csv"
            rc = cli_main(["--experiment", "max_run", "--config", str(path), "--out", str(out),
                           *argv])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_without_experiment_uses_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": ["random"], "n_values": [64],
                                   "table_trials": 2}))
        out = tmp_path / "x.csv"
        rc = cli_main(["--experiment", "max_run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.read_text().split("\n")[1].startswith("max_run,random,64,")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "probe_cost", "families": ["poly5"],
                                   "n_values": [256], "table_trials": 3,
                                   "query_trials": 300}))
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            rc = cli_main(["--experiment", "probe_cost", "--config", str(cfg),
                           "--seed", "42", "--out", str(tmp_path / name),
                           "--threads", threads])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        out = tmp_path / "x.csv"
        rc = cli_main(["--experiment", "max_run", "--out", str(out), "--threads", threads])
        assert rc == 2 and not out.exists()
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "max_run", "families": ["random"],
                                   "n_values": [64], "table_trials": 2}))
        out = tmp_path / "x.json"
        rc = cli_main(["--experiment", "max_run", "--config", str(cfg),
                       "--out", str(out), "--format", "json"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload and {"experiment", "family", "n", "t", "b", "seed",
                            "metric", "value"} <= set(payload[0])


def test_package_exports():
    assert len(set(linprobe.__all__)) == len(linprobe.__all__)
    for name in linprobe.__all__:
        assert not isinstance(getattr(linprobe, name), types.ModuleType), name
    assert linprobe.occupancy is occupancy


def test_make_family_names():
    for name in FAMILIES + SEQ_FAMILIES:
        h = make_family(name, 64, seed=1, stream=0)
        assert all(0 <= h(x) < 64 for x in range(100))
    with pytest.raises(ValueError):
        make_family("md5", 64, seed=1, stream=0)


@pytest.mark.parametrize("name", ["linear", "linear_seq"])
def test_linear_family_names_refused(name):
    # x -> (a*x + b) mod p is the degree-1 polynomial: the family is poly2
    with pytest.raises(ValueError, match=f"unknown hash family '{name}'"):
        make_family(name, 64, seed=1, stream=0)
    with pytest.raises(ValueError, match=f"unknown hash family '{name}'"):
        ExperimentConfig(experiment="probe_cost", families=(name,))
