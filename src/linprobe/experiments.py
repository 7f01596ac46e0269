"""Seeded experiments over the hash families, the probing table, and the
signature filter, emitting flat (metric, value) rows for CSV/JSON export.

Every experiment is a pure function of (config, root seed).  Trials use
disjoint derived seed streams and order-insensitive aggregation, so the
output is identical for any worker-pool size.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .filters import MODES, _check_width, measure_fpr, sample_distinct_keys
from .hashing import (
    MERSENNE61,
    TABULATION_CHAR_BITS,
    TABULATION_CHARS,
    TrulyRandomHash,
    _integer,
    derived_rng,
    derived_seed,
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

FAMILIES = ("poly2", "poly3", "poly5", "tabulation", "random")
SEQ_FAMILIES = tuple(f"{name}_seq" for name in FAMILIES)  # keys 0..n-1 instead of uniform

MAX_TABLE = 1 << 24  # slots: the widest table a config may ask for (each trial allocates one)
# The fields of ExperimentConfig that hold a tuple (a list in JSON); the rest hold one value.
_LIST_FIELDS = ("families", "n_values", "b_values", "modes", "levels")
# The list fields an experiment reads beyond families and n_values; none may be empty.
_READ_LISTS = {"filter_fpr": ("modes", "b_values"), "interval_concentration": ("levels",)}
# Each integer field of ExperimentConfig and its (or each entry's) least value.
_INT_FIELDS = (("n_values", 1), ("b_values", 1), ("levels", 0), ("table_trials", 1),
               ("query_trials", 1), ("seed", 0))

MAX_RUN_SLACK = 16  # test constant for the max-run O(log n) claim
THREE_INDEP_SLACK = 8  # test constant for the 3-independent O(log n) claim


def make_family(name: str, t: int, seed: int, stream: int):
    """Draw a hash function with range [t] from the named family."""
    base = name.removesuffix("_seq")
    if base in ("poly2", "poly3", "poly5"):
        return new_polynomial(int(base[-1]), t, seed, stream=stream)
    if base == "tabulation":
        log_t = t.bit_length() - 1
        return new_tabulation(TABULATION_CHARS, TABULATION_CHAR_BITS, log_t, seed, stream=stream)
    if base == "random":
        return TrulyRandomHash(t, seed, stream=stream)
    raise ValueError(f"unknown hash family {name!r}")


def trial_keys(name: str, n: int, seed: int, stream: int) -> np.ndarray:
    """Keys stored in one trial, as a uint64 array: uniform distinct keys,
    or the contiguous prefix 0..n-1 for the *_seq variants."""
    if name.endswith("_seq"):
        return np.arange(n, dtype=np.uint64)
    rng = derived_rng(seed, stream)
    return sample_distinct_keys(rng, n, MERSENNE61)


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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in _LIST_FIELDS:  # a list or tuple, held as a tuple; never a str
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for name in ("families", "n_values", *_READ_LISTS.get(self.experiment, ())):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty for {self.experiment}")
        for family in self.families:
            if family not in FAMILIES and family not in SEQ_FAMILIES:
                raise ValueError(f"unknown hash family {family!r}")
        if isinstance(self.load_target, bool) or not isinstance(self.load_target, (int, float)):
            raise ValueError(f"load_target must be a real number, got {self.load_target!r}")
        if not 0 < self.load_target < 1:
            raise ValueError("load target must lie in (0, 1)")
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            for v in value if name in _LIST_FIELDS else (value,):
                _integer(name, v, least)
        for n in self.n_values:
            if n > MAX_TABLE * self.load_target:
                raise ValueError(f"n = {n} needs a table of more than {MAX_TABLE} slots")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown filter mode {m!r}")
        if self.experiment == "filter_fpr":
            for mode, n, b in itertools.product(self.modes, self.n_values, self.b_values):
                _check_width(table_size_for(n, self.load_target), b, mode)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    lines += [f"{r.experiment},{r.family},{r.n},{r.t},{'' if r.b is None else r.b},{r.seed},"
              f"{r.metric},{_fmt_value(r.value)}" for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[Row]) -> str:
    payload = [{**asdict(r), "value": float(r.value)} for r in rows]
    return json.dumps(payload, indent=1) + "\n"


# ---------------------------------------------------------------------------
# the trial grid

class Cell(NamedTuple):
    family: str  # hash family, or filter mode
    n: int
    t: int
    b: Optional[int]
    streams: tuple[int, ...]  # first seed stream of each trial


def _cells(config: ExperimentConfig, roles: int) -> list[Cell]:
    """The experiment's cells in row order.  Trial i of cell c owns the
    `roles` seed streams from roles * (c * trials + i) on; no other code in
    this module numbers streams.  filter_fpr runs one trial per (mode, b, n)
    cell, every other experiment table_trials per (family, n) cell."""
    if config.experiment == "filter_fpr":
        grid = [(mode, n, b) for mode in config.modes for b in config.b_values
                for n in config.n_values]
        trials = 1
    else:
        grid = [(family, n, None) for family in config.families for n in config.n_values]
        trials = config.table_trials
    cells = []
    for c, (family, n, b) in enumerate(grid):
        t = table_size_for(n, config.load_target)
        if config.experiment == "interval_concentration":
            n = (2 * t) // 3  # the table is held at load 2/3
        cells.append(Cell(family, n, t, b, tuple(roles * (c * trials + i) for i in range(trials))))
    return cells


def _run_grid(config: ExperimentConfig, threads: int, roles: int, trial: Callable,
              extra: Callable[[Cell, int], tuple] = lambda cell, i: ()):
    """Yield (cell, trial results) for each cell in row order, where trial i
    of a cell is trial(family, n, t, seed, stream, *extra(cell, i)).

    Every trial of the run goes through one map.  At threads = 1 it is lazy
    and in-process, so only one cell's results are alive at a time; above 1
    it is one worker pool of at most min(threads, CPUs, trials) processes.
    """
    cells = _cells(config, roles)
    jobs = [(cell.family, cell.n, cell.t, config.seed, stream, *extra(cell, i))
            for cell in cells for i, stream in enumerate(cell.streams)]
    with ExitStack() as stack:
        if threads > 1 and jobs:
            # imported here, so that `import linprobe` does not pay for it
            from concurrent.futures import ProcessPoolExecutor

            workers = min(threads, os.cpu_count() or 1, len(jobs))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(trial, *zip(*jobs))
        else:
            results = itertools.starmap(trial, jobs)
        for cell in cells:
            yield cell, list(itertools.islice(results, len(cell.streams)))


def _row(config: ExperimentConfig, cell: Cell, metric: str, value,
         seed: Optional[int] = None) -> Row:
    return Row(config.experiment, cell.family, cell.n, cell.t, cell.b,
               config.seed if seed is None else seed, metric, value)


# ---------------------------------------------------------------------------
# probe cost

def _probe_cost_trial(family: str, n: int, t: int, seed: int, stream: int, queries: int):
    h = make_family(family, t, seed, stream)
    key_array = trial_keys(family, n, seed, stream + 1)
    keys = key_array.tolist()
    stored = set(keys)
    rng = derived_rng(seed, stream + 2)
    absent = []
    while len(absent) < queries:
        drawn = rng.integers(0, MERSENNE61, size=queries - len(absent), dtype=np.uint64)
        absent += [q for q in drawn.tolist() if q not in stored]
    # keys, then queries, in one batch: the random family draws in the order
    # a scalar insert-then-search loop would
    starts = h.hash_array(np.concatenate([key_array, np.array(absent, dtype=np.uint64)])).tolist()
    table = ProbeTable(t, h)
    ins = np.array([table.insert(x, s)[1] for x, s in zip(keys, starts[:n])], dtype=np.int64)
    srch = np.array([table.search(q, s).probes for q, s in zip(absent, starts[n:])],
                    dtype=np.int64)
    return ins, srch


def exp_probe_cost(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Insert and absent-search probe counts per (family, n): mean and p99
    pooled over table_trials independently seeded builds, which share the
    query_trials absent searches as evenly as they divide."""
    per_trial, extra = divmod(config.query_trials, config.table_trials)
    rows = []
    for cell, results in _run_grid(config, threads, 3, _probe_cost_trial,
                                   lambda cell, i: (per_trial + (i < extra),)):
        ins = np.concatenate([r[0] for r in results])
        srch = np.concatenate([r[1] for r in results])
        for metric, data in (("insert_probes", ins), ("search_absent_probes", srch)):
            rows.append(_row(config, cell, f"{metric}_mean", float(data.mean())))
            rows.append(_row(config, cell, f"{metric}_p99", float(np.percentile(data, 99))))
    return rows


# ---------------------------------------------------------------------------
# interval concentration

def _trial_counts(family: str, n: int, t: int, seed: int, stream: int) -> np.ndarray:
    """Per-slot hash histogram of one trial's keys, hashed as one batch."""
    h = make_family(family, t, seed, stream)
    keys = trial_keys(family, n, seed, stream + 1)
    return np.bincount(h.hash_array(keys).astype(np.int64), minlength=t)


def _interval_trial(family: str, n: int, t: int, seed: int, stream: int, levels) -> list[int]:
    """Near-full aligned intervals of one trial, one count per level."""
    counts = _trial_counts(family, n, t, seed, stream)
    return [int((interval_counts(counts, level) >= near_full_threshold(level)).sum())
            for level in levels]


def exp_interval_concentration(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Empirical probability that an aligned level-l interval is near-full,
    i.e. receives >= ceil(3 * 2^l / 4) of the stored keys' hash values.

    The table is held at load 2/3 (n = floor(2t/3)).  All t/2^l intervals
    of a trial contribute samples; they are identically distributed, so
    the pooled estimate is unbiased.  Levels with 2^l > t are skipped.
    """
    def fitting(cell: Cell) -> list[int]:
        return [level for level in config.levels if level < cell.t.bit_length()]

    rows = []
    for cell, results in _run_grid(config, threads, 2, _interval_trial,
                                   lambda cell, i: (fitting(cell),)):
        for level, hits in zip(fitting(cell), zip(*results)):
            p_hat = sum(hits) / (len(results) * (cell.t >> level))
            rows.append(_row(config, cell, f"near_full_prob_l={level}", p_hat))
            rows.append(_row(config, cell, f"near_full_prob_x4l_l={level}", p_hat * 4**level))
    return rows


# ---------------------------------------------------------------------------
# max run

def _max_run_trial(family: str, n: int, t: int, seed: int, stream: int) -> int:
    return max_run_from_counts(_trial_counts(family, n, t, seed, stream))


def exp_max_run(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Max run length per trial, with a pass/fail row against the
    MAX_RUN_SLACK * log2(n) ceiling."""
    rows = []
    for cell, results in _run_grid(config, threads, 2, _max_run_trial):
        rows += [_row(config, cell, "max_run", r, derived_seed(config.seed, s))
                 for s, r in zip(cell.streams, results)]
        bound = MAX_RUN_SLACK * max(1.0, math.log2(cell.n))
        rows.append(_row(config, cell, "max_run_overall", max(results)))
        rows.append(_row(config, cell, "max_run_within_bound", int(max(results) <= bound)))
    return rows


# ---------------------------------------------------------------------------
# 3-independent probe cost

def exp_three_indep(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """Mean probe cost with 3-independent polynomial hashing, against the
    THREE_INDEP_SLACK * log2(n) ceiling."""
    rows = exp_probe_cost(replace(config, families=("poly3",)), threads)
    return rows + [replace(r, metric="mean_probes_within_bound",
                           value=int(r.value <= THREE_INDEP_SLACK * max(1.0, math.log2(r.n))))
                   for r in rows if r.metric == "search_absent_probes_mean"]


# ---------------------------------------------------------------------------
# filter FPR

FILTER_STREAM_BLOCK = 1_100_000  # covers measure_fpr's key stream, stream + 1_000_003


def _filter_trial(mode: str, n: int, t: int, seed: int, stream: int, b: int, trials: int):
    return measure_fpr(t, b, mode, n, trials, seed, stream=stream)


def exp_filter_fpr(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """False-positive rate and mean exact-scan length per (mode, b, n)."""
    rows = []
    for cell, (rep,) in _run_grid(config, threads, FILTER_STREAM_BLOCK, _filter_trial,
                                  lambda cell, i: (cell.b, config.query_trials)):
        rows += [_row(config, cell, metric, getattr(rep, metric))
                 for metric in ("fpr", "false_positives", "mean_scan_keys")]
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
    return ExperimentConfig(experiment=experiment, seed=seed,
                            **DEFAULT_OVERRIDES.get(experiment, {}))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[Row]:
    """The experiment's rows; `threads` worker processes at most (1 starts
    none), and the rows do not depend on it."""
    _integer("threads", threads, 1)
    return EXPERIMENTS[config.experiment](config, threads)
