"""One argument rule for every public size, count, degree and width: a bool
or a non-integer raises TypeError, a value below the argument's least value
(or above its most, or a non-power of two where one is needed) raises
ValueError, and each message starts with the argument's name.  The
real-valued bounds `d`, `mu`, `max_load`, `load_target` and each of a
profile's `probabilities` raise ValueError for anything but a number in
range, nan included.  A per-slot histogram
`counts` must be a 1-D integer array (TypeError) of power-of-two length with
no negative entry (ValueError).  A refused call draws and enumerates nothing
first; numpy integers and floats are accepted."""

import math

import numpy as np
import pytest

from linprobe import experiments, filters, hashing, moments
from linprobe.experiments import ExperimentConfig, run_experiment
from linprobe.filters import make_filter, measure_fpr, sample_distinct_keys
from linprobe.hashing import (
    PolynomialHash,
    TabulationHash,
    TrulyRandomHash,
    make_family,
    new_polynomial,
    new_tabulation,
    verify_independence_exact,
)
from linprobe.moments import (
    BernoulliProfile,
    brute_force_moment,
    fourth_moment_bound,
    fourth_moment_bound_sharp,
    kth_moment_bound_check,
    kth_moment_bound_terms,
    tail_check,
)
from linprobe.probing import (
    ProbeTable,
    Run,
    check_query_run_lemma,
    check_run_lemma,
    interval_counts,
    max_run_from_counts,
    occupancy,
    table_size_for,
)

SMALL, LARGE = BernoulliProfile.uniform(20, 0.5), BernoulliProfile.uniform(64, 0.5)
BAD = (True, 2.5, "4", None, math.nan, math.inf, -1)
POW2 = "power of two"  # the least value of a power-of-two argument is 1; 3 is no power

# (argument name, least value or range of values, call with the argument set
# to v); every other argument is valid
CASES = {
    "ProbeTable": ("t", POW2, lambda v: ProbeTable(v, None)),
    "PolynomialHash": ("range_t", POW2, lambda v: PolynomialHash((1, 2), v)),
    "TrulyRandomHash": ("t", POW2, lambda v: TrulyRandomHash(v, 0)),
    "new_polynomial.k": ("k", 1, lambda v: new_polynomial(v, 8, 0)),
    "new_polynomial.t": ("t", POW2, lambda v: new_polynomial(2, v, 0)),
    "new_tabulation.c": ("c", 1, lambda v: new_tabulation(v, 8, 8, 0)),
    "new_tabulation.char_bits": ("char_bits", range(1, 21), lambda v: new_tabulation(2, v, 8, 0)),
    "new_tabulation.output_bits": ("output_bits", 0, lambda v: new_tabulation(2, 8, v, 0)),
    "TabulationHash": ("output_bits", 0,
                       lambda v: TabulationHash(np.zeros((2, 16), dtype=np.uint64), v)),
    "make_family.t": ("t", POW2, lambda v: make_family("tabulation", v, 0, 0)),
    "verify_independence_exact.p": ("p", 0, lambda v: verify_independence_exact(v, 1, 1)),
    "verify_independence_exact.k": ("k", 1, lambda v: verify_independence_exact(3, v, 1)),
    "verify_independence_exact.tuple_size":
        ("tuple_size", 1, lambda v: verify_independence_exact(3, 1, v)),
    "make_filter.t": ("t", POW2, lambda v: make_filter(v, 8, "independent", 0)),
    "make_filter.b": ("b", 1, lambda v: make_filter(64, v, "paired", 0)),
    "measure_fpr.t": ("t", POW2, lambda v: measure_fpr(v, 4, "paired", 10, 5, 0)),
    "measure_fpr.b": ("b", 1, lambda v: measure_fpr(64, v, "independent", 10, 5, 0)),
    "measure_fpr.n": ("n", 0, lambda v: measure_fpr(64, 4, "paired", v, 5, 0)),
    "measure_fpr.trials": ("trials", 1, lambda v: measure_fpr(64, 4, "paired", 10, v, 0)),
    # rng None: a call that draws fails with no argument's name
    "sample_distinct_keys.count": ("count", 0, lambda v: sample_distinct_keys(None, v, 10)),
    "sample_distinct_keys.bound": ("bound", range(0, 2**64 + 1),
                                   lambda v: sample_distinct_keys(None, 3, v)),
    "interval_counts": ("level", range(0, 5),
                        lambda v: interval_counts(np.zeros(16, dtype=np.int64), v)),
    # a run of 1 is too short at every level: the level is refused first
    "check_run_lemma": ("level", range(0, 5),
                        lambda v: check_run_lemma(Run(0, 1), v, np.zeros(16, dtype=np.int64))),
    "BernoulliProfile.uniform": ("n", 0, lambda v: BernoulliProfile.uniform(v, 0.5)),
    "table_size_for": ("n", 0, lambda v: table_size_for(v)),
    "brute_force_moment": ("k", 0, lambda v: brute_force_moment(SMALL, v)),
    "kth_moment_bound_terms": ("k", 2, lambda v: kth_moment_bound_terms(1.0, v)),
    "kth_moment_bound_check": ("k", 2, lambda v: kth_moment_bound_check(SMALL, v)),
    "tail_check.k.exact": ("k", 2, lambda v: tail_check(SMALL, 2.0, k=v)),
    "tail_check.k.sampled": ("k", 2, lambda v: tail_check(LARGE, 2.0, k=v, trials=9, seed=1)),
    "tail_check.trials": ("trials", 1, lambda v: tail_check(LARGE, 2.0, trials=v, seed=1)),
    "run_experiment": ("threads", 1, lambda v: run_experiment(
        ExperimentConfig("max_run", n_values=(8,), table_trials=1), threads=v)),
    **{f"ExperimentConfig.{name}": (name, least, lambda v, name=name: ExperimentConfig(
        "filter_fpr", **{name: (v,) if name in experiments._LIST_FIELDS else v}))
       for name, least in experiments._INT_FIELDS},
}


def bad_values(least):
    if least == POW2:
        return [*BAD, 0, 3]
    if isinstance(least, range):
        return [*bad_values(least.start), least.stop]
    return [*BAD, least - 1] if least > 0 else list(BAD)  # BAD holds -1


@pytest.fixture
def nothing_drawn(monkeypatch):
    """Any key, coefficient or table draw, Monte Carlo draw, enumeration or
    experiment run fails with a TypeError whose message names no argument."""
    for module in (hashing, filters, moments):
        monkeypatch.setattr(module, "derived_rng", None)
    monkeypatch.setattr(moments, "sum_distribution", None)
    monkeypatch.setattr(moments, "_outcome_blocks", None)
    monkeypatch.setattr(experiments, "_run_grid", None)


@pytest.mark.parametrize("case,value", [(case, v) for case, (_, least, _) in CASES.items()
                                        for v in bad_values(least)])
def test_refused_by_name_before_any_work(nothing_drawn, case, value):
    name, _, call = CASES[case]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    with pytest.raises(ValueError if integer else TypeError, match=f"^{name} "):
        call(value)


def max_load(v):
    return table_size_for(4, v)


def load_target(v):
    return ExperimentConfig("max_run", n_values=(8,), load_target=v)


def probabilities(v):
    return BernoulliProfile((0.5, v))


@pytest.mark.parametrize("call,value", [
    *((lambda v: tail_check(SMALL, v), v) for v in (True, "4", None, math.nan, math.inf, -1, 0)),
    *((lambda v: tail_check(LARGE, v, trials=9, seed=1), v) for v in (True, "4", math.inf, 0)),
    *((bound, v) for bound in (fourth_moment_bound, fourth_moment_bound_sharp)
      for v in ("4", None, math.nan, -1, 0.5, True)),
    *((bound, v) for bound in (max_load, load_target)
      for v in (True, "4", None, math.nan, math.inf, -1, 0, 1, 1.0, np.float32(1))),
    *((probabilities, v) for v in (True, np.True_, "0.5", None, math.nan, math.inf, -0.5, 1.5)),
])
def test_real_bound_refused_by_name(nothing_drawn, call, value):
    with pytest.raises(ValueError, match="^(d|mu|max_load|load_target|probabilities) "):
        call(value)


def test_numpy_floats_accepted():
    f = np.float32
    assert table_size_for(4, f(0.5)) == table_size_for(4, 0.5) == 8
    assert load_target(f(0.5)).load_target == 0.5
    assert fourth_moment_bound(f(2)) == fourth_moment_bound(2)
    assert tail_check(SMALL, f(2)) == tail_check(SMALL, 2.0)


def test_profile_holds_a_hashable_tuple_of_floats():
    # any iterable of numbers in [0, 1], numpy floats and the ints 0 and 1 included
    profile = BernoulliProfile([0.5, np.float64(0.25), np.float32(1), 0, 1])
    assert profile.probabilities == (0.5, 0.25, 1.0, 0.0, 1.0)
    assert all(type(p) is float for p in profile.probabilities)
    assert hash(profile) == hash(BernoulliProfile((0.5, 0.25, 1.0, 0.0, 1.0)))
    assert BernoulliProfile(iter([0.5])).probabilities == (0.5,)


HISTOGRAM_CALLS = {"occupancy": occupancy, "max_run_from_counts": max_run_from_counts,
                   "interval_counts": lambda counts: interval_counts(counts, 1),
                   "ProbeTable.from_counts": ProbeTable.from_counts,
                   "check_run_lemma": lambda counts: check_run_lemma(Run(0, 4), 0, counts),
                   # an empty table: the query's run is shorter than 4
                   "check_query_run_lemma": lambda counts: check_query_run_lemma(
                       ProbeTable(4, TrulyRandomHash(4, 0)), 5, counts)}
# (histogram, error): a non-array, a non-integer dtype, a shape other than
# 1-D, a length that is no power of two and a negative entry
HISTOGRAMS = [
    (np.zeros(12), TypeError), ([0, 0, 0, 0], TypeError), (np.array([0.5, 0, 0, 0]), TypeError),
    (np.zeros(4, dtype=bool), TypeError), (np.zeros((2, 2), dtype=np.int64), TypeError),
    (np.zeros(12, dtype=np.int64), ValueError), (np.zeros(0, dtype=np.int64), ValueError),
    (np.array([-1, 0, 0, 0]), ValueError), (np.array([2, -1, 0, 0]), ValueError),
]


# from_counts refuses a length that is no power of two by the rule of its
# table size t, before it reads the histogram (test_probing)
@pytest.mark.parametrize("case,counts,error", [
    (case, counts, error) for case in HISTOGRAM_CALLS for counts, error in HISTOGRAMS
    if case != "ProbeTable.from_counts" or len(counts) in (2, 4)])
def test_histogram_refused_by_name(case, counts, error):
    with pytest.raises(error, match="^counts "):
        HISTOGRAM_CALLS[case](counts)


def test_query_checker_refuses_another_tables_histogram():
    table = ProbeTable(64, TrulyRandomHash(64, 0))
    with pytest.raises(ValueError, match="^counts "):
        check_query_run_lemma(table, 5, np.zeros(128, dtype=np.int64))


def test_numpy_integers_accepted():
    i = np.int64
    assert ProbeTable(np.uint32(8), None).t == 8
    assert TrulyRandomHash(i(8), 0).range_t == 8
    assert new_polynomial(i(3), np.uint64(8), 0) == new_polynomial(3, 8, 0)
    assert np.array_equal(new_tabulation(i(2), i(4), i(8), 0).tables,
                          new_tabulation(2, 4, 8, 0).tables)
    assert verify_independence_exact(i(3), i(2), i(2)) == verify_independence_exact(3, 2, 2)
    assert make_family("tabulation", i(8), 0, 0).range_t == 8
    assert TabulationHash(np.zeros((2, 16), dtype=np.uint64), i(8)).range_t == 256
    assert BernoulliProfile.uniform(i(3), 0.5).n == 3 and table_size_for(i(10)) == 16
    assert (measure_fpr(i(64), i(4), "paired", i(10), i(5), 0)
            == measure_fpr(64, 4, "paired", 10, 5, 0))
    assert kth_moment_bound_check(SMALL, i(4)) == kth_moment_bound_check(SMALL, 4)
    config = ExperimentConfig("max_run", n_values=(i(8),), table_trials=i(1))
    assert run_experiment(config, threads=i(1)) == run_experiment(
        ExperimentConfig("max_run", n_values=(8,), table_trials=1))
