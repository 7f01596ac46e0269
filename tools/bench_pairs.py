"""Alternating parent/change runs of the benchmark, summarized as JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --workload occupancy --seed 0 --pairs 10

PARENT and CHANGE are the roots of two source checkouts (clean copies of
the two trees).  Pair i runs

    python3 bench/run.py --workload W --seed S --seconds X --trace 0

in the parent checkout first when i is even, and in the change checkout
first when i is odd; X is the parent's BENCHMARK.json `run_seconds`.
After the pairs, each side runs FAULT_PASSES of the workload's passes in
one process to count the minor page faults (`ru_minflt`) and the system
time of a pass.  The last line of standard output is one JSON object: per
end-to-end metric, each side's median, quartiles (inclusive method), min
and max, the parent's interquartile range, the pairs the change wins (ties
count for neither side), the exact two-sided sign-test p-value of those
wins among the pairs that are not ties, the change of the median as a
fraction of the parent's, and a distribution-free confidence interval for
the median of the paired shifts (change minus parent, run i of each side).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FAULT_PASSES = 5
SHIFT_LEVEL = 0.95  # least coverage sought for the median-shift interval

# One process: build the workload's inputs, run a warm-up pass, then time
# passes and count the page faults and system time each one takes.
FAULT_CODE = """
import json, resource, sys, time
import workloads
wl = workloads.WORKLOADS[sys.argv[1]]
inputs = wl.build(int(sys.argv[2]))
wl.run(inputs)
rows = []
for _ in range(int(sys.argv[3])):
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    wl.run(inputs)
    wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    rows.append({"wall_s": wall, "minflt": r1.ru_minflt - r0.ru_minflt,
                 "sys_s": r1.ru_stime - r0.ru_stime})
print(json.dumps(rows))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    return parser.parse_args(argv)


def bench_run(root: Path, args, seconds: float) -> dict:
    """One `bench/run.py` run in the checkout at `root`: its JSON result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(proc.stdout.splitlines()[-1])


def fault_run(root: Path, args) -> list[dict]:
    """Per-pass wall time, minor page faults and system time in the checkout at `root`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_CODE, args.workload, str(args.seed),
                           str(FAULT_PASSES)],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method), min and max."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def sign_test_p(wins: int, decided: int) -> float:
    """Exact two-sided binomial (sign-test) p-value of `wins` among
    `decided` pairs under even odds: 10 of 10 gives 2/1024; 1.0 if none."""
    tail = sum(math.comb(decided, i) for i in range(min(wins, decided - wins) + 1))
    return min(1.0, 2 * tail / 2**decided)


def shift_interval(shifts: list[float]) -> dict:
    """Sign-test confidence interval for the median of `shifts`: their k-th
    smallest and k-th largest, which cover it with probability
    1 - 2 P[Bin(n, 1/2) < k] whatever their distribution, for the largest k
    whose coverage is at least SHIFT_LEVEL (k = 1 if none is).  10 shifts
    give the 2nd and the 9th, at 1 - 22/1024 = 97.9%."""
    n, ordered = len(shifts), sorted(shifts)
    levels = {k: 1 - sign_test_p(k - 1, n) for k in range(1, (n + 1) // 2 + 1)}
    k = max((k for k, level in levels.items() if level >= SHIFT_LEVEL), default=1)
    return {"low": ordered[k - 1], "high": ordered[n - k], "level": levels[k]}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric named in `better` ("lower" or "higher"), each side's spread
    over its runs and the change's wins over the pairs, run i of each side
    making pair i.  A metric missing from any run is left out."""
    summary = {}
    for name, direction in better.items():
        pairs = [(p["metrics"].get(name), c["metrics"].get(name))
                 for p, c in zip(runs["parent"], runs["change"])]
        if not pairs or any(p is None or c is None for p, c in pairs):
            continue
        parent, change = ([v["value"] for v in side] for side in zip(*pairs))
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        ties = sum(p == c for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        summary[name] = {
            "better": direction, "parent": p, "change": c, "parent_iqr": p["q3"] - p["q1"],
            "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "sign_test_p": sign_test_p(wins, len(pairs) - ties),
            "median_change_frac": c["median"] / p["median"] - 1 if p["median"] else None,
            "shift_ci": shift_interval([c - p for p, c in zip(parent, change)]),
        }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(bench_run(roots[side], args, benchmark["run_seconds"]))
            wall = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
            print(f"pair {i} {side} wall_s {wall}", file=sys.stderr)
    faults = {}
    for side in SIDES:
        rows = fault_run(roots[side], args)
        faults[side] = {key: statistics.median(r[key] for r in rows)
                        for key in ("wall_s", "minflt", "sys_s")} | {"passes": len(rows)}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": benchmark["run_seconds"],
        "correct_all": all(r["correct"] for side in SIDES for r in runs[side]),
        "summary": summarize(runs, better),
        "per_pass": faults,
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
