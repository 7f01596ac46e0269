"""In-memory span tracer for the traced benchmark run.

The tracer wraps linprobe's public entry points at class or module level
for the duration of one pass and restores the originals afterwards, so no
source file of the package changes and an untraced pass runs the program
exactly as shipped.  Spans are aggregated per (name, parent) as calls,
total ns and self ns; self time is a span's time minus that of its child
spans.  Counts (probes, sampled keys) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

MARK = "_bench_span"

_POLY_NAMES = {k: f"hashing.poly{k}" for k in range(1, 9)}


def _poly_name(args) -> str:
    return _POLY_NAMES[len(args[0].coefficients)]


# (module, class or None, attribute, span name, count(args, result) or None)
#
# Polynomial hashes are traced at `eval_mod_p`, which `PolynomialHash.__call__`
# goes through and which the filters' universal signatures call directly, so
# every polynomial evaluation is one span.  `ProbeTable.delete` is on no
# experiment's path and is not traced.
TARGETS = (
    ("hashing", "PolynomialHash", "eval_mod_p", _poly_name, None),
    ("hashing", "LinearHash", "__call__", "hashing.linear", None),
    ("hashing", "TabulationHash", "__call__", "hashing.tabulation", None),
    ("hashing", "TrulyRandomHash", "__call__", "hashing.random", None),
    ("hashing", "TrulyRandomHash", "__init__", "hashing.construct", None),
    ("hashing", None, "new_polynomial", "hashing.construct", None),
    ("hashing", None, "new_tabulation", "hashing.construct", None),
    ("probing", "ProbeTable", "insert", "probing.insert", lambda a, r: r[1]),
    ("probing", "ProbeTable", "search", "probing.search", lambda a, r: r.probes),
    ("filters", "SignatureFilter", "insert", "filters.insert", None),
    ("filters", "SignatureFilter", "query", "filters.query", None),
    ("filters", None, "make_filter", "filters.make_filter", None),
    ("filters", None, "measure_fpr", "filters.measure_fpr", None),
    ("filters", None, "sample_distinct_keys", "filters.sample_distinct_keys",
     lambda a, r: len(r)),
    *(("moments", None, fn, f"moments.{fn}", None) for fn in (
        "exact_fourth_moment", "sum_distribution", "brute_force_moment",
        "fourth_moment_bound", "fourth_moment_bound_sharp",
        "kth_moment_bound_terms", "kth_moment_bound_check", "tail_check")),
    *(("experiments", None, fn, f"experiments.{fn}", None) for fn in (
        "run_experiment", "make_family", "trial_keys", "max_run_from_counts")),
)

HASH_EVALS = ("hashing.poly2", "hashing.poly3", "hashing.poly5",
              "hashing.linear", "hashing.tabulation", "hashing.random")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "linprobe" or name.startswith("linprobe.")]


class Tracer:
    """Collects spans while installed; `uninstall` restores every patched
    attribute.  Aggregates survive install/uninstall cycles."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[str, int] = {}
        self._stack = [["bench", 0]]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter_ns
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nm = name if fixed else name(args)
            parent = stack[-1]
            frame = [nm, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = spans.get((nm, parent[0]))
                if rec is None:
                    rec = spans[(nm, parent[0])] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if count is not None:
                counts[nm] = counts.get(nm, 0) + count(args, result)
            return result

        setattr(span, MARK, True)
        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import linprobe  # noqa: F401  (the package and its submodules)

        modules = _package_modules()
        for mod_name, cls_name, attr, name, count in TARGETS:
            mod = sys.modules[f"linprobe.{mod_name}"]
            if cls_name is not None:
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, count)
            # every module that bound the function by name calls it through
            # its own global, so each binding is patched
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names in the package's modules and classes that still hold a span
        wrapper; empty after a clean uninstall."""
        found = []
        for m in _package_modules():
            for key, val in vars(m).items():
                if getattr(val, MARK, False):
                    found.append(f"{m.__name__}.{key}")
                if isinstance(val, type) and val.__module__ == m.__name__:
                    found += [f"{m.__name__}.{key}.{a}" for a, v in vars(val).items()
                              if getattr(v, MARK, False)]
        return found

    def totals(self) -> dict[str, list[int]]:
        """calls, total ns and self ns per span name, summed over parents."""
        out: dict[str, list[int]] = {}
        for (name, _), (calls, total, self_ns) in self.spans.items():
            rec = out.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_ns
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "parent": p, "calls": c, "total_ns": t, "self_ns": s}
                for (n, p), (c, t, s) in sorted(self.spans.items())]


def layer_metrics(tracer: Tracer, ops: int, traced_walls: list[float],
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes.  `ops` is the workload's op
    count summed over the traced passes; `traced_walls` are their seconds.
    A metric of a layer that did no work on the workload reads 0."""
    tot = tracer.totals()
    wall_ns = sum(traced_walls) * 1e9
    passes = len(traced_walls)

    def per_call(name, unit_ns):
        calls, total, _ = tot.get(name, (0, 0, 0))
        return total / calls / unit_ns if calls else 0.0

    def per_count(name):
        calls = tracer.counts.get(name, 0)
        return tot[name][1] / calls if calls else 0.0

    def count_mean(name):
        calls = tot.get(name, (0,))[0]
        return tracer.counts.get(name, 0) / calls if calls else 0.0

    def self_ns(layer):
        return sum(rec[2] for name, rec in tot.items() if name.startswith(layer + "."))

    def share(layer):
        return self_ns(layer) / wall_ns

    evals = sum(tot.get(name, (0,))[0] for name in HASH_EVALS)
    return {
        "hashing.poly2.ns_per_call": (per_call("hashing.poly2", 1), "ns"),
        "hashing.poly3.ns_per_call": (per_call("hashing.poly3", 1), "ns"),
        "hashing.poly5.ns_per_call": (per_call("hashing.poly5", 1), "ns"),
        "hashing.tabulation.ns_per_call": (per_call("hashing.tabulation", 1), "ns"),
        "hashing.random.ns_per_call": (per_call("hashing.random", 1), "ns"),
        "hashing.construct.us_per_call": (per_call("hashing.construct", 1e3), "us"),
        "hashing.calls_per_op": (evals / ops if ops else 0.0, "calls/op"),
        "hashing.self_share": (share("hashing"), "frac"),
        "probing.insert.ns_per_call": (per_call("probing.insert", 1), "ns"),
        "probing.search.ns_per_call": (per_call("probing.search", 1), "ns"),
        "probing.insert.probes_mean": (count_mean("probing.insert"), "probes"),
        "probing.search.probes_mean": (count_mean("probing.search"), "probes"),
        "probing.self_share": (share("probing"), "frac"),
        "filters.insert.ns_per_call": (per_call("filters.insert", 1), "ns"),
        "filters.query.ns_per_call": (per_call("filters.query", 1), "ns"),
        "filters.sample_distinct_keys.ns_per_key":
            (per_count("filters.sample_distinct_keys"), "ns"),
        "filters.self_share": (share("filters"), "frac"),
        "experiments.max_run_from_counts.ms_per_call":
            (per_call("experiments.max_run_from_counts", 1e6), "ms"),
        "experiments.self_s": (self_ns("experiments") / 1e9 / passes, "s"),
        "experiments.self_share": (share("experiments"), "frac"),
        "moments.brute_force_moment.us_per_call":
            (per_call("moments.brute_force_moment", 1e3), "us"),
        "moments.sum_distribution.us_per_call":
            (per_call("moments.sum_distribution", 1e3), "us"),
        "moments.exact_fourth_moment.us_per_call":
            (per_call("moments.exact_fourth_moment", 1e3), "us"),
        "moments.tail_check.ms_per_call": (per_call("moments.tail_check", 1e6), "ms"),
        "moments.self_share": (share("moments"), "frac"),
        "trace.overhead_s": (overhead_s, "s"),
    }
