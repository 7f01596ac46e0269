"""Seeded experiments over the hash families, the probing table, and the
signature filter, emitting flat (metric, value) rows for CSV/JSON export.

Every experiment is a pure function of (config, root seed).  Trials use
disjoint derived seed streams and order-insensitive aggregation, so the
output is identical for any worker-pool size.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .filters import MODES, _check_paired_width, measure_fpr, sample_distinct_keys
from .hashing import (
    DEFAULT_FIELD,
    TrulyRandomHash,
    derived_rng,
    derived_seed,
    new_linear,
    new_polynomial,
    new_tabulation,
)
from .probing import (
    ProbeTable,
    interval_counts,
    max_run_from_counts,
    near_full_threshold,
    table_size_for,
)

__all__ = ["EXPERIMENTS", "ExperimentConfig", "Row", "default_config", "make_family",
    "rows_to_csv", "rows_to_json", "run_experiment"]

FAMILIES = ("poly2", "poly3", "poly5", "linear", "tabulation", "random")
SEQ_FAMILIES = tuple(f"{name}_seq" for name in FAMILIES)  # keys 0..n-1 instead of uniform

TABULATION_CHARS = 4
TABULATION_CHAR_BITS = 16

MAX_RUN_SLACK = 16  # test constant for the max-run O(log n) claim
THREE_INDEP_SLACK = 8  # test constant for the 3-independent O(log n) claim


def make_family(name: str, t: int, seed: int, stream: int):
    """Draw a hash function with range [t] from the named family."""
    base = name.removesuffix("_seq")
    if base in ("poly2", "poly3", "poly5"):
        return new_polynomial(int(base[-1]), t, seed, stream=stream)
    if base == "linear":
        return new_linear(t, seed, stream=stream)
    if base == "tabulation":
        log_t = t.bit_length() - 1
        return new_tabulation(TABULATION_CHARS, TABULATION_CHAR_BITS, log_t, seed, stream=stream)
    if base == "random":
        return TrulyRandomHash(t, seed, stream=stream)
    raise ValueError(f"unknown hash family {name!r}")


def trial_keys(name: str, n: int, seed: int, stream: int) -> list[int]:
    """Keys stored in one trial: uniform distinct keys, or the contiguous
    prefix 0..n-1 for the *_seq variants."""
    if name.endswith("_seq"):
        return list(range(n))
    rng = derived_rng(seed, stream)
    return sample_distinct_keys(rng, n, DEFAULT_FIELD.p)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    families: tuple[str, ...] = ("poly2", "poly3", "poly5", "tabulation", "random")
    n_values: tuple[int, ...] = (1 << 10, 1 << 13, 1 << 16)
    load_target: float = 2 / 3
    b_values: tuple[int, ...] = (4, 8, 12)
    modes: tuple[str, ...] = MODES
    levels: tuple[int, ...] = tuple(range(9))
    table_trials: int = 20
    query_trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for family in self.families:
            if family not in FAMILIES and family not in SEQ_FAMILIES:
                raise ValueError(f"unknown hash family {family!r}")
        if not 0 < self.load_target < 1:
            raise ValueError("load target must lie in (0, 1)")
        for name, values in (("n_values", self.n_values), ("b_values", self.b_values),
                             ("levels", self.levels), ("table_trials", (self.table_trials,)),
                             ("query_trials", (self.query_trials,))):
            if any(isinstance(v, bool) or not isinstance(v, int) for v in values):
                raise ValueError(f"{name} must be integers, got {values!r}")
        if self.table_trials < 1:
            raise ValueError("table_trials must be at least 1")
        if self.query_trials < 1:
            raise ValueError("query_trials must be at least 1")
        for b in self.b_values:
            if b < 1:
                raise ValueError("b values must be at least 1")
        for level in self.levels:
            if level < 0:
                raise ValueError("levels must be non-negative")
        for n in self.n_values:
            if n < 1:
                raise ValueError("n values must be positive")
            if table_size_for(n, self.load_target) > DEFAULT_FIELD.p // 24:
                raise ValueError(f"n = {n} needs a table wider than p / 24 slots")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown filter mode {m!r}")
        if self.experiment == "filter_fpr" and "paired" in self.modes:
            for n in self.n_values:
                for b in self.b_values:
                    _check_paired_width(table_size_for(n, self.load_target), b)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        for key in ("families", "n_values", "b_values", "modes", "levels"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str, **override) -> "ExperimentConfig":
        """Config from a JSON file; keyword fields take precedence over it."""
        with open(path) as fh:
            return cls.from_dict({**json.load(fh), **override})


@dataclass(frozen=True)
class Row:
    experiment: str
    family: str
    n: int
    t: int
    b: Optional[int]
    seed: int
    metric: str
    value: float


def _fmt_value(v) -> str:
    if isinstance(v, (int, np.integer)) or float(v).is_integer():
        return str(int(v))
    return f"{float(v):.17g}"


def rows_to_csv(rows: list[Row]) -> str:
    lines = ["experiment,family,n,t,b,seed,metric,value"]
    for r in rows:
        b = "" if r.b is None else str(r.b)
        lines.append(
            f"{r.experiment},{r.family},{r.n},{r.t},{b},{r.seed},{r.metric},{_fmt_value(r.value)}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[Row]) -> str:
    payload = []
    for r in rows:
        payload.append(
            {
                "experiment": r.experiment,
                "family": r.family,
                "n": r.n,
                "t": r.t,
                "b": r.b,
                "seed": r.seed,
                "metric": r.metric,
                # round-trips exactly: 17 significant digits
                "value": float(f"{float(r.value):.17g}"),
            }
        )
    return json.dumps(payload, indent=1) + "\n"


def _map_trials(fn: Callable, args: list, threads: int) -> list:
    if threads <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, args))


# ---------------------------------------------------------------------------
# probe cost

def _probe_cost_trial(arg):
    family, n, t, seed, stream, queries = arg
    h = make_family(family, t, seed, stream)
    keys = trial_keys(family, n, seed, stream + 1)
    table = ProbeTable(t, h)
    ins = np.array([table.insert(x)[1] for x in keys], dtype=np.int64)
    stored = set(keys)
    rng = derived_rng(seed, stream + 2)
    srch = np.empty(queries, dtype=np.int64)
    got = 0
    while got < queries:
        for q in rng.integers(0, DEFAULT_FIELD.p, size=queries - got, dtype=np.uint64):
            q = int(q)
            if q in stored:
                continue
            srch[got] = table.search(q).probes
            got += 1
    return ins, srch


def exp_probe_cost(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Insert and absent-search probe counts per (family, n): mean and p99
    pooled over table_trials independently seeded builds, which share the
    query_trials absent searches as evenly as they divide."""
    rows = []
    stream = 0
    for family in config.families:
        for n in config.n_values:
            t = table_size_for(n, config.load_target)
            per_trial, extra = divmod(config.query_trials, config.table_trials)
            args = []
            for i in range(config.table_trials):
                args.append((family, n, t, config.seed, stream, per_trial + (i < extra)))
                stream += 3
            results = _map_trials(_probe_cost_trial, args, threads)
            ins = np.concatenate([r[0] for r in results])
            srch = np.concatenate([r[1] for r in results])
            for metric, data in (("insert_probes", ins), ("search_absent_probes", srch)):
                rows.append(Row(config.experiment, family, n, t, None, config.seed,
                                f"{metric}_mean", float(data.mean())))
                rows.append(Row(config.experiment, family, n, t, None, config.seed,
                                f"{metric}_p99", float(np.percentile(data, 99))))
    return rows


# ---------------------------------------------------------------------------
# interval concentration

def _trial_counts(family: str, n: int, t: int, seed: int, stream: int) -> np.ndarray:
    """Per-slot hash histogram of one trial's keys, hashed as one batch."""
    h = make_family(family, t, seed, stream)
    keys = np.array(trial_keys(family, n, seed, stream + 1), dtype=np.uint64)
    return np.bincount(h.hash_array(keys).astype(np.int64), minlength=t)


def _interval_trial(arg):
    family, n, t, seed, stream, levels = arg
    counts = _trial_counts(family, n, t, seed, stream)
    out = {}
    for level in levels:
        if (1 << level) > t:
            continue
        pooled = interval_counts(counts, level)
        out[level] = (int((pooled >= near_full_threshold(level)).sum()), len(pooled))
    return out


def exp_interval_concentration(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Empirical probability that an aligned level-l interval is near-full,
    i.e. receives >= ceil(3 * 2^l / 4) of the stored keys' hash values.

    The table is held at load 2/3 (n = floor(2t/3)).  All t/2^l intervals
    of a trial contribute samples; they are identically distributed, so
    the pooled estimate is unbiased.
    """
    rows = []
    stream = 0
    for family in config.families:
        for n_req in config.n_values:
            t = table_size_for(n_req, config.load_target)
            n = (2 * t) // 3
            args = []
            for _ in range(config.table_trials):
                args.append((family, n, t, config.seed, stream, config.levels))
                stream += 2
            results = _map_trials(_interval_trial, args, threads)
            for level in config.levels:
                if (1 << level) > t:
                    continue
                hits = sum(r[level][0] for r in results)
                total = sum(r[level][1] for r in results)
                p_hat = hits / total
                rows.append(Row(config.experiment, family, n, t, None, config.seed,
                                f"near_full_prob_l={level}", p_hat))
                rows.append(Row(config.experiment, family, n, t, None, config.seed,
                                f"near_full_prob_x4l_l={level}", p_hat * 4**level))
    return rows


# ---------------------------------------------------------------------------
# max run

def _max_run_trial(arg):
    return max_run_from_counts(_trial_counts(*arg))


def exp_max_run(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Max run length per trial, with a pass/fail row against the
    MAX_RUN_SLACK * log2(n) ceiling."""
    rows = []
    stream = 0
    for family in config.families:
        for n in config.n_values:
            t = table_size_for(n, config.load_target)
            args = []
            streams = []
            for _ in range(config.table_trials):
                args.append((family, n, t, config.seed, stream))
                streams.append(stream)
                stream += 2
            results = _map_trials(_max_run_trial, args, threads)
            for s, r in zip(streams, results):
                rows.append(Row(config.experiment, family, n, t, None,
                                derived_seed(config.seed, s), "max_run", r))
            bound = MAX_RUN_SLACK * max(1.0, math.log2(n))
            rows.append(Row(config.experiment, family, n, t, None, config.seed,
                            "max_run_overall", max(results)))
            rows.append(Row(config.experiment, family, n, t, None, config.seed,
                            "max_run_within_bound", int(max(results) <= bound)))
    return rows


# ---------------------------------------------------------------------------
# 3-independent probe cost

def exp_three_indep(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Mean probe cost with 3-independent polynomial hashing, against the
    THREE_INDEP_SLACK * log2(n) ceiling."""
    cfg = replace(config, families=("poly3",))
    rows = exp_probe_cost(cfg, threads)
    out = list(rows)
    for r in rows:
        if r.metric == "search_absent_probes_mean":
            bound = THREE_INDEP_SLACK * max(1.0, math.log2(r.n))
            out.append(replace(r, metric="mean_probes_within_bound",
                               value=int(r.value <= bound)))
    return out


# ---------------------------------------------------------------------------
# filter FPR

def _filter_trial(arg):
    mode, b, n, t, trials, seed, stream = arg
    return measure_fpr(t, b, mode, n, trials, seed, stream=stream)


def exp_filter_fpr(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """False-positive rate and mean exact-scan length per (mode, b, n)."""
    rows = []
    stream = 0
    args = []
    meta = []
    for mode in config.modes:
        for b in config.b_values:
            for n in config.n_values:
                t = table_size_for(n, config.load_target)
                args.append((mode, b, n, t, config.query_trials, config.seed, stream))
                meta.append((mode, b, n, t))
                stream += 1_100_000
    reports = _map_trials(_filter_trial, args, threads)
    for (mode, b, n, t), rep in zip(meta, reports):
        rows.append(Row(config.experiment, mode, n, t, b, config.seed, "fpr", rep.fpr))
        rows.append(Row(config.experiment, mode, n, t, b, config.seed,
                        "false_positives", rep.false_positives))
        rows.append(Row(config.experiment, mode, n, t, b, config.seed,
                        "mean_scan_keys", rep.mean_scan_keys))
    return rows


EXPERIMENTS = {
    "probe_cost": exp_probe_cost,
    "interval_concentration": exp_interval_concentration,
    "max_run": exp_max_run,
    "three_indep": exp_three_indep,
    "filter_fpr": exp_filter_fpr,
}

DEFAULT_OVERRIDES = {
    "probe_cost": {"families": ("poly2", "poly2_seq", "poly3", "poly5", "tabulation", "random"),
                   "query_trials": 20_000},
    "interval_concentration": {"families": ("poly5", "random"),
                               "n_values": (1 << 10,), "table_trials": 400},
    "max_run": {"families": ("random", "tabulation")},
    "three_indep": {"families": ("poly3",), "query_trials": 20_000},
    "filter_fpr": {"n_values": (1 << 14,)},
}


def default_config(experiment: str, seed: int = 0) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment=experiment, seed=seed,
                            **DEFAULT_OVERRIDES.get(experiment, {}))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    try:
        fn = EXPERIMENTS[config.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {config.experiment!r}") from None
    return fn(config, threads)
