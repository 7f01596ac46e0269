"""The benchmark's workloads: how each builds its inputs from a seed, runs
one pass through linprobe, counts its ops, serialises its output for the
digest, and checks that output.

Experiment workloads run the CLI default configs with the overrides in
SCALE, so that a pass fits the run length at least twice: trial counts are
scaled down, and filter_fpr leaves out one mode.  n, t, families and b are
never changed.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, replace
from typing import Callable

import linprobe as lp

# experiment -> overrides applied on top of its CLI default config
SCALE = {
    # 20 trials -> 1; 1,000 absent searches per trial are kept
    "probe_cost": {"probe_cost": {"table_trials": 1, "query_trials": 1000}},
    # all 100,000 queries per (mode, b) cell, but hash_of_signature is left
    # out: at b = 4 its 16 start slots give scans whose length, and so the
    # pass time, varies 2.5x from seed to seed
    "filter_fpr": {"filter_fpr": {"modes": ("independent", "paired", "tabulation_paired")}},
    # both experiments at a tenth of their default trials
    "occupancy": {"max_run": {"table_trials": 2},
                  "interval_concentration": {"table_trials": 40}},
}


def experiment_configs(workload: str, seed: int) -> tuple[lp.ExperimentConfig, ...]:
    return tuple(replace(lp.default_config(exp, seed), **over)
                 for exp, over in SCALE[workload].items())


def run_experiments(configs) -> list[list[lp.Row]]:
    return [lp.run_experiment(c, threads=1) for c in configs]


def experiments_text(result) -> str:
    return "".join(lp.rows_to_csv(rows) for rows in result)


def check_rows(configs, result) -> list[str]:
    bad = []
    for c, rows in zip(configs, result):
        if not rows:
            bad.append(f"{c.experiment}: no rows")
        bad += [f"{c.experiment}: non-finite {r.metric}" for r in rows
                if not math.isfinite(r.value)]
    return bad


# ops are defined from the inputs, not from the algorithm

def probe_cost_ops(configs) -> int:
    """Table inserts plus absent searches."""
    (c,) = configs
    per_trial = max(1, c.query_trials // c.table_trials)
    return len(c.families) * c.table_trials * sum(n + per_trial for n in c.n_values)


def filter_fpr_ops(configs) -> int:
    """Filter inserts plus filter queries."""
    (c,) = configs
    return len(c.modes) * len(c.b_values) * sum(n + c.query_trials for n in c.n_values)


def occupancy_ops(configs) -> int:
    """Keys hashed into a histogram (interval_concentration stores
    floor(2t/3) keys per table)."""
    total = 0
    for c in configs:
        for n in c.n_values:
            if c.experiment == "interval_concentration":
                n = 2 * lp.table_size_for(n, c.load_target) // 3
            total += len(c.families) * c.table_trials * n
    return total


# moments: criteria 02-04 and demos/demo_moment_bounds.py as one pass

KS = (2, 4, 6, 8)
TAIL_NS = (12, 16, 20)
TAIL_DS = (1.5, 2.0, 2.5, 3.0)
MC_N, MC_D, MC_TRIALS = 256, 2.0, 10**5


@dataclass(frozen=True)
class MomentInputs:
    seed: int
    fourth: tuple[lp.BernoulliProfile, ...]
    kth: tuple[lp.BernoulliProfile, ...]
    tails: tuple[lp.BernoulliProfile, ...]
    big: lp.BernoulliProfile


def moment_inputs(seed: int) -> MomentInputs:
    """Random success probabilities from the seed.  Profile sizes cycle
    through fixed ranges, because 2^n enumeration cost would otherwise
    vary by seed."""
    rng = lp.derived_rng(seed, 0)
    return MomentInputs(
        seed=seed,
        fourth=tuple(lp.BernoulliProfile(tuple(rng.random(1 + i % 16)))
                     for i in range(200)),
        kth=tuple(lp.BernoulliProfile(tuple(rng.random(1 + i % 14)))
                  for i in range(50)),
        tails=tuple(lp.BernoulliProfile(tuple(rng.uniform(0.25, 0.75, n)))
                    for n in TAIL_NS),
        big=lp.BernoulliProfile.uniform(MC_N, 0.5),
    )


def run_moments(inp: MomentInputs) -> dict[str, list[tuple]]:
    tails = [lp.tail_check(p, d) for p in inp.tails for d in TAIL_DS]
    tails.append(lp.tail_check(inp.big, MC_D, trials=MC_TRIALS, seed=inp.seed))
    return {
        "fourth": [(lp.exact_fourth_moment(p), lp.brute_force_moment(p, 4))
                   for p in inp.fourth],
        "kth": [lp.kth_moment_bound_check(p, k) for p in inp.kth for k in KS],
        "tails": [astuple(r) for r in tails],
    }


def moments_ops(inp: MomentInputs) -> int:
    """Moment, bound and tail evaluations: two moments per fourth-moment
    profile, a moment and a bound per k-th check, one per tail."""
    return (2 * len(inp.fourth) + 2 * len(KS) * len(inp.kth)
            + len(TAIL_NS) * len(TAIL_DS) + 1)


def moments_text(result) -> str:
    return json.dumps({group: [[float(v) for v in item] for item in items]
                       for group, items in result.items()})


def check_moments(inp: MomentInputs, result) -> list[str]:
    """The claims the pass evaluates: closed form equals the oracle, the
    k-th moment bound holds, and tails respect 4/d^4."""
    bad = [f"fourth moment {exact!r} != oracle {brute!r}"
           for exact, brute in result["fourth"]
           if abs(exact - brute) > max(1e-9 * abs(brute), 1e-12)]
    bad += [f"k-th moment bound violated: {r!r}" for r in result["kth"] if not r[2]]
    bad += [f"tail {prob!r} above 4/d^4 = {fourth!r} at d = {d}"
            for d, _k, prob, se, _cheb, fourth, _bk, _exact in result["tails"]
            if prob > fourth * (1 + 1e-9) + 3 * se]
    return bad


# exact cross-check of the tracer's probe counts against the rows

def _pooled_sum(mean: float, count: int) -> int:
    """The integer sum behind a row's mean over `count` values.  Sums stay
    far below 2^52, so the rounded product is the only integer whose
    quotient rounds to `mean`; the equality check proves it."""
    total = round(mean * count)
    if total / count != mean:
        raise ValueError(f"mean {mean!r} is not a sum over {count} values")
    return total


def probe_cost_probe_totals(configs, result) -> dict[str, tuple[int, int]]:
    """(probe sum, call count) per traced span name, as the rows state them
    for one pass."""
    (c,), (rows,) = configs, result
    per_trial = max(1, c.query_trials // c.table_trials)
    totals = {"probing.insert": [0, 0], "probing.search": [0, 0]}
    for r in rows:
        if r.metric == "insert_probes_mean":
            span, count = "probing.insert", c.table_trials * r.n
        elif r.metric == "search_absent_probes_mean":
            span, count = "probing.search", c.table_trials * per_trial
        else:
            continue
        totals[span][0] += _pooled_sum(r.value, count)
        totals[span][1] += count
    return {k: tuple(v) for k, v in totals.items()}


def filter_fpr_probe_totals(configs, result) -> dict[str, tuple[int, int]]:
    """Shadow-table absent searches: probes = scanned keys + 1 per query."""
    (c,), (rows,) = configs, result
    total = calls = 0
    for r in rows:
        if r.metric == "mean_scan_keys":
            total += _pooled_sum(r.value, c.query_trials) + c.query_trials
            calls += c.query_trials
    return {"probing.search": (total, calls)}


@dataclass(frozen=True)
class Workload:
    build: Callable        # seed -> validated inputs (what setup_s times)
    run: Callable          # inputs -> output of one pass (what wall_s times)
    ops: Callable          # inputs -> ops per pass
    text: Callable         # output -> canonical text for the digest
    check: Callable        # (inputs, output) -> list of problems
    scale: str             # how the pass is scaled from the CLI defaults
    probe_totals: Callable | None = None  # (inputs, output) -> row-stated probes


def _experiment_workload(name, ops, probe_totals=None) -> Workload:
    scale = "; ".join(f"{exp} {over}" for exp, over in SCALE[name].items())
    return Workload(lambda seed: experiment_configs(name, seed), run_experiments,
                    ops, experiments_text, check_rows, scale, probe_totals)


WORKLOADS = {
    "probe_cost": _experiment_workload("probe_cost", probe_cost_ops,
                                       probe_cost_probe_totals),
    "filter_fpr": _experiment_workload("filter_fpr", filter_fpr_ops,
                                       filter_fpr_probe_totals),
    "occupancy": _experiment_workload("occupancy", occupancy_ops),
    "moments": Workload(moment_inputs, run_moments, moments_ops, moments_text,
                        check_moments, "one pass of criteria 02-04 and the moment demo"),
}

