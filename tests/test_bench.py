"""The benchmark's traced self-test as a tier-1 test.  A traced run counts
the probes of every ProbeTable.insert and search span and checks them
against the probe sums the rows state, so the experiments must keep every
insert and absent search on ProbeTable, with exact probe counts.  An
untraced `moments` run at seed 42 checks every pass against that seed's
pinned digest too, and so does an untraced `occupancy` run, whose
histograms hash the random family's keys in one batch."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload, seed, trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["probe_cost", "filter_fpr", "occupancy", "moments"])
def test_traced_self_test_passes(workload):
    run_bench(workload, seed=0, trace=1)


def test_moments_matches_seed_42_pin():
    run_bench("moments", seed=42, trace=0)


def test_occupancy_matches_seed_42_pin():
    run_bench("occupancy", seed=42, trace=0)
