"""linprobe benchmark.

    python3 bench/run.py --workload probe_cost --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports linprobe
from its `src/` and refuses to run without it.  One process runs the
workload's passes as a closed loop at threads=1 (the next pass starts
when the previous one ends) for about --seconds, and checks every
pass's output against the sha256 pinned in pins.json for seeds 0 and 42,
or, for other seeds, against the run's first pass.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and span-traced passes, reports the per-layer metrics and writes the
aggregated spans to .bench_out/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# A fresh interpreter imports linprobe and builds the workload's inputs;
# the parent times the whole child process.
SETUP_CODE = "import sys, workloads; workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("probe_cost", "filter_fpr", "occupancy", "moments"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_linprobe():
    """Import linprobe from this checkout's src/ and nowhere else."""
    if not (SRC / "linprobe" / "__init__.py").is_file():
        raise SystemExit(f"bench: no linprobe sources at {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import linprobe

    if Path(linprobe.__file__).resolve().parent != SRC / "linprobe":
        raise SystemExit(f"bench: imported linprobe from {linprobe.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, workload, str(seed)],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Passes:
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str | None = None
    last_traced: object = None  # output of the last traced pass


def run_passes(wl, inputs, expected, seconds, modes, tracer) -> Passes:
    """Closed loop over passes, cycling through `modes` (traced or not),
    checking every pass's output against the `expected` digest, or against
    the first pass's when there is none."""
    res = Passes(digest=expected)
    deadline = time.perf_counter() + seconds
    last_start = time.perf_counter()
    while True:
        # a pass starts only while half of one as long as the last still fits
        now = time.perf_counter()
        if res.attempted >= len(modes) and now + (now - last_start) / 2 >= deadline:
            return res
        traced = modes[res.attempted % len(modes)]
        res.attempted += 1
        last_start = now
        try:
            try:
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                result = wl.run(inputs)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        except Exception:
            traceback.print_exc()
            res.failed += 1
            continue
        digest = hashlib.sha256(wl.text(result).encode()).hexdigest()
        if res.digest is None:
            res.digest = digest
        bad = wl.check(inputs, result)
        if digest != res.digest:
            bad.append(f"digest {digest} != {res.digest}")
        if bad:
            res.failed += 1
            res.problems += [f"pass {res.attempted}: {b}" for b in bad]
            continue
        res.walls[traced].append(wall)
        if traced:
            res.last_traced = result


def trace_metrics(args, wl, inputs, ops, res: Passes, tracer) -> dict:
    """Self-tests and per-layer metrics of a traced run; writes the spans."""
    leftover = tracer.leftover_wrappers()
    if leftover:
        res.problems.append(f"span wrappers left installed: {leftover}")
    print(f"self-test: traced passes reproduce the untraced digest: "
          f"{res.failed == 0}; span wrappers removed: {not leftover}")
    metrics = {}
    traced, untraced = res.walls[True], res.walls[False]
    if traced and untraced:
        if wl.probe_totals is not None:
            n, totals = len(traced), tracer.totals()
            for name, (total, calls) in wl.probe_totals(inputs, res.last_traced).items():
                got = (tracer.counts.get(name, 0), totals.get(name, (0,))[0])
                want = (n * total, n * calls)
                if got != want:
                    res.problems.append(f"{name} probes and calls {got} != rows {want}")
                else:
                    print(f"{name}.probes_mean {total / calls!r} equals the rows' pooled mean")
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = spans.layer_metrics(tracer, ops * len(traced), traced, overhead)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "scale": wl.scale, "ops_per_pass": ops,
        "untraced_walls_s": untraced, "traced_walls_s": traced,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": tracer.counts, "spans": tracer.dump(), "problems": res.problems,
    }, indent=1) + "\n")
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics


def end_to_end_metrics(ops, res: Passes, setup) -> dict:
    walls = res.walls[False]
    if not walls:
        return {}
    return {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(ops / w for w in walls), "ops/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_linprobe()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    ops = wl.ops(inputs)
    pins = json.loads((BENCH / "pins.json").read_text())
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    tracer = spans.Tracer()
    modes = (False, True) if args.trace else (False,)
    res = run_passes(wl, inputs, pins[args.workload].get(str(args.seed)),
                     args.seconds, modes, tracer)

    print(f"workload {args.workload}  seed {args.seed}  scale: {wl.scale}")
    print(f"passes {res.attempted}  failed {res.failed}  "
          f"failed_frac {res.failed / res.attempted}  digest {res.digest}  ops/pass {ops}")
    for traced in modes:
        print(f"{'traced' if traced else 'untraced'} pass seconds "
              f"{' '.join(f'{w:.4f}' for w in res.walls[traced])}")
    if args.trace:
        metrics = trace_metrics(args, wl, inputs, ops, res, tracer)
    else:
        metrics = end_to_end_metrics(ops, res, setup)
    for p in res.problems:
        print(f"FAIL {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": res.failed == 0 and not res.problems and bool(metrics),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
