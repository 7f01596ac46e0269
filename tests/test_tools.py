"""`tools/bench_pairs.py`'s summary on synthetic runs: no benchmark is run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs_of(parent, change, name="wall_s"):
    """Runs of each side holding one value of the metric `name` each."""
    return {side: [{"correct": True, "metrics": {name: {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


@pytest.mark.parametrize("wins,decided,p", [
    (10, 10, Fraction(2, 1024)), (0, 10, Fraction(2, 1024)), (9, 10, Fraction(22, 1024)),
    (5, 10, 1), (8, 8, Fraction(2, 256)), (1, 1, 1), (0, 0, 1),
])
def test_sign_test_p_is_the_exact_two_sided_binomial_tail(wins, decided, p):
    assert bench_pairs.sign_test_p(wins, decided) == p


def test_summary_reports_sign_test_p_over_pairs_that_are_not_ties():
    parent = [1.0] * 10
    all_won = bench_pairs.summarize(runs_of(parent, [0.9] * 10), {"wall_s": "lower"})["wall_s"]
    assert (all_won["change_wins"], all_won["ties"], all_won["sign_test_p"]) == (10, 0, 2 / 1024)
    # two ties leave 8 decided pairs, all won by the change
    tied = bench_pairs.summarize(runs_of(parent, [1.0, 1.0] + [0.9] * 8), {"wall_s": "lower"})
    assert (tied["wall_s"]["change_wins"], tied["wall_s"]["ties"]) == (8, 2)
    assert tied["wall_s"]["sign_test_p"] == 2 / 256


def test_summary_counts_wins_by_the_metric_direction():
    # higher is better: the change wins 7 of 10 pairs, so p = 2 (1 + 10 + 45 + 120) / 1024
    change = [2.0] * 7 + [0.5] * 3
    row = bench_pairs.summarize(runs_of([1.0] * 10, change, "ops_per_s"),
                                {"ops_per_s": "higher"})["ops_per_s"]
    assert (row["change_wins"], row["pairs"], row["sign_test_p"]) == (7, 10, 352 / 1024)


def test_summary_leaves_out_a_metric_missing_from_a_run():
    runs = runs_of([1.0] * 3, [0.9] * 3)
    runs["change"][1]["metrics"] = {}
    assert bench_pairs.summarize(runs, {"wall_s": "lower"}) == {}
