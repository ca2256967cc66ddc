"""Benchmark of the laminar_secretary CLI, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 30 --trace 0

Set-up generates the workload's instances from ``--seed`` and writes their
JSON files under ``.bench_work/``; it is repeated once per pass and its
median reported as ``setup_s``.  The workload's fixed call list then runs
in-process through ``laminar_secretary.cli.main`` (``--jobs 1``; no worker
pool) as many times as fit in ``--seconds``, every output of every pass is
checked, and each call is timed by its median over the passes, scaled by
the speed of the host next to it.  With ``--trace 1`` the
passes alternate between untraced and traced; the traced ones give the
per-layer metrics, and the spans of the last one are written to
``.bench_work/``.  ``README.md`` next to this file has the details.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (output checks) and ``metrics``.  The line before it records the
Python version, core count, git commit, seed and the output fingerprint.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
REF_NS = 1_000_000  # nominal reference-kernel time that timings are scaled to
WORKLOADS = ("mc_small", "mc_large", "verify")


# -- metric definitions ----------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mc_trials_per_s", "trials/s"),
    ("check_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# per-layer metric -> (unit, span names whose self time or call count it sums)
_SELF = "self"
_CALLS = "calls"
PER_LAYER = {
    "experiments.seed_calls": ("count", _CALLS, ("experiments.derive_seed",)),
    "experiments.seed_s": ("s", _SELF, ("experiments.derive_seed", "rng.init")),
    "kicknext.split_calls": ("count", _CALLS, ("kicknext.split",)),
    "kicknext.split_s": ("s", _SELF, ("kicknext.split",)),
    "matroid.greedy_ranks_calls": ("count", _CALLS, ("matroid.greedy_ranks",)),
    "matroid.greedy_ranks_s": ("s", _SELF, ("matroid.greedy_ranks",)),
    "kicknext.refs_calls": ("count", _CALLS, ("kicknext.refs",)),
    "kicknext.refs_s": ("s", _SELF, ("kicknext.refs",)),
    "kicknext.walk_calls": ("count", _CALLS, ("kicknext.walk",)),
    "kicknext.walk_s": ("s", _SELF, ("kicknext.walk",)),
    "experiments.trial_loop_s": ("s", _SELF, ("experiments.trial_loop",)),
    "experiments.aggregate_s": ("s", _SELF, ("experiments.monte_carlo_ratio",)),
    "experiments.exact_enum_s": ("s", _SELF, ("experiments.exact_expectation",)),
    "model.element_calls": ("count", _CALLS, ("model.element",)),
    "model.element_s": ("s", _SELF, ("model.element",)),
    "model.key_calls": ("count", _CALLS, ("model.key",)),
    "model.key_s": ("s", _SELF, ("model.key",)),
    "theory.padded_brank_calls": ("count", _CALLS, ("theory.padded_brank",)),
    "theory.padded_brank_s": ("s", _SELF, ("theory.padded_brank",)),
    "theory.g_exact_s": ("s", _SELF, ("theory.g_exact",)),
    "matroid.greedy_opt_calls": ("count", _CALLS, ("matroid.greedy_opt",)),
    "kicknext.run_traced_calls": ("count", _CALLS, ("kicknext.run_traced",)),
    "kicknext.run_traced_s": ("s", _SELF, ("kicknext.run_traced",)),
    "kicknext.qualifies_calls": ("count", _CALLS, ("kicknext.qualifies",)),
    "kicknext.qualifies_s": ("s", _SELF, ("kicknext.qualifies",)),
    "experiments.verify_lemmas_s": ("s", _SELF, ("experiments.verify_lemmas",)),
    "experiments.allkicked_s": ("s", _SELF, ("experiments.allkicked",)),
    "experiments.qualifying_s": ("s", _SELF, ("experiments.qualifying",
                                              "experiments.qualifying_counts")),
    "model.load_s": ("s", _SELF, ("model.load",)),
    "model.pre_s": ("s", _SELF, ("model.pre",)),
    "cli.self_s": ("s", _SELF, ("cli.main",)),
    "generators.generate_s": ("s", _SELF, ("generators.generate",)),  # set-up trace
}
# computed separately: the cache ratio and its base, the traced/untraced
# wall ratio and the span count
PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | {
    "kicknext.refs_cache_hit_ratio": "ratio",
    "kicknext.refs_cache_trials": "count",
    "trace_overhead_ratio": "ratio",
    "trace.spans": "count",
}


# -- environment record ------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` without running git, or
    "unknown" outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- host speed ------------------------------------------------------------------

_ITEM = dataclasses.make_dataclass("_Item", [("id", int), ("weight", float)], frozen=True)
_ITEMS = tuple(_ITEM(i, 1.0 / (i + 1)) for i in range(60))


def reference_kernel() -> float:
    """Fixed pure-Python work independent of the package, in the package's
    mix: linear scans reading dataclass attributes, dict, tuple and list
    traffic, a sort, bisection and Mersenne Twister draws."""
    rnd = random.Random(12345)
    acc = 0.0
    for target in range(60):
        for it in _ITEMS:
            if it.id == target:
                acc += it.weight
                break
    counts: dict[int, int] = {}
    rows = []
    for i in range(1500):
        t = (i * 7919) % 211
        counts[t] = counts.get(t, 0) + 1
        rows.append((t, rnd.random()))
    rows.sort()
    keys = [r[0] for r in rows]
    return acc + len(counts) + sum(bisect_right(keys, k) for k in range(0, 211, 5))


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


# -- one pass over the call list ---------------------------------------------------


def run_pass(w, cli, tracer=None):
    """Run the call list once, timing the reference kernel between calls;
    each outcome's ``ref_ns`` is the mean of the kernel times around it.
    With a tracer, every layer is wrapped for the duration of the pass and
    restored afterwards."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    outs = {}
    before = kernel_ns()
    try:
        for c in w.calls:
            o = c.run(cli, None if tracer is None else tracer.wrap)
            after = kernel_ns()
            o.ref_ns = (before + after) / 2
            outs[c.label] = o
            before = after
    finally:
        if tracer is not None:
            tracer.restore()
    return outs


def pass_times(w, passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """wall_s, mc_trials_per_s and check_s of the call list, each call
    taken at its median over the passes.  Scaled, a call's time is first
    multiplied by REF_NS / its ``ref_ns``: seconds on a host where the
    reference kernel takes REF_NS (README.md, "Timing method")."""
    t = {c.label: statistics.median(p[c.label].ns * (REF_NS / p[c.label].ref_ns if scaled else 1)
                                    for p in passes) / 1e9
         for c in w.calls}
    mc = [c for c in w.calls if c.kind == "mc"]
    return {
        "wall_s": sum(t.values()),
        "mc_trials_per_s": sum(c.trials for c in mc) / sum(t[c.label] for c in mc),
        "check_s": sum(t[c.label] for c in w.calls if c.kind == "check"),
    }


def layer_metrics(tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in one traced pass; times
    are multiplied by ``scale``."""
    names = tracer.names
    own = tracer.self_times()
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    loop = tracer.name_id("experiments.trial_loop")
    walk = tracer.name_id("kicknext.walk")
    refs = tracer.name_id("kicknext.refs")
    in_loop = [False] * len(tracer)
    trials = misses = 0
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += own[i]
        p = tracer.parent[i]
        in_loop[i] = nid == loop or (p >= 0 and in_loop[p])
        if in_loop[i] and nid == walk:
            trials += 1  # one arrival walk per Monte Carlo trial
        elif in_loop[i] and nid == refs:
            misses += 1  # reference sets built, not taken from the cache
    out = {}
    for metric, (_, kind, spans) in PER_LAYER.items():
        if kind == _CALLS:
            out[metric] = float(sum(calls.get(s, 0) for s in spans))
        else:
            out[metric] = sum(self_ns.get(s, 0) for s in spans) * scale / 1e9
    out["kicknext.refs_cache_trials"] = float(trials)
    out["kicknext.refs_cache_hit_ratio"] = (trials - misses) / trials if trials else 0.0
    out["trace.spans"] = float(len(tracer))
    return out


# -- a whole run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, min_passes: int = MIN_PASSES,
                 workdir: Path | None = None, keep_tracer: list | None = None) -> dict:
    """Set up, run and check one workload; returns the result object.
    ``scale`` shrinks trial counts (smoke tests); ``keep_tracer`` receives
    the tracer so tests can inspect spans and patched bindings."""
    import laminar_secretary
    from laminar_secretary import cli
    import workloads
    from tracer import Tracer

    root = Path.cwd()
    base = workdir if workdir is not None else root / ".bench_work"
    run_dir = base / f"{name}-s{seed}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(laminar_secretary) if trace else None
    if keep_tracer is not None and tracer is not None:
        keep_tracer.append(tracer)
    attempted = failed = 0
    try:
        if trace:  # the set-up is traced once, for generators.generate_s
            tracer.install()
            try:
                w = workloads.build(name, seed, run_dir, scale)
            finally:
                tracer.restore()
            generate_s = layer_metrics(tracer)["generators.generate_s"]
        else:
            w = workloads.build(name, seed, run_dir, scale)

        # the warm-up pass gives the reference outputs every later pass,
        # traced or not, must reproduce byte for byte
        reference = w.fingerprint(run_pass(w, cli))
        setup, plain, traced, layers = [], [], [], []
        start = time.monotonic()
        while len(plain) < min_passes or time.monotonic() - start < seconds:
            if not trace:  # set-up is repeated once per pass, spread over the run
                before = kernel_ns()
                t0 = time.perf_counter_ns()
                w = workloads.build(name, seed, run_dir, scale)
                t1 = time.perf_counter_ns()
                setup.append((t1 - t0, (before + kernel_ns()) / 2))
            for use_trace in ((False, True) if trace else (False,)):
                outs = run_pass(w, cli, tracer if use_trace else None)
                checks = w.checks(outs)
                checks.append(("fingerprint", w.fingerprint(outs) == reference))
                attempted += len(checks)
                failed += sum(1 for _, ok in checks if not ok)
                for label, ok in checks:
                    if not ok:
                        print(f"check failed: {label}", file=sys.stderr)
                if use_trace:
                    traced.append(outs)
                    layers.append(layer_metrics(
                        tracer, REF_NS / statistics.median(o.ref_ns for o in outs.values())))
                else:
                    plain.append(outs)

        if trace:
            metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            metrics["generators.generate_s"] = generate_s
            metrics["trace_overhead_ratio"] = (
                pass_times(w, traced)["wall_s"] / pass_times(w, plain)["wall_s"])
            units = PER_LAYER_UNITS
            tracer.write_csv(base / f"spans-{name}-s{seed}.csv.gz")
            unscaled = {}
        else:
            metrics = pass_times(w, plain)
            metrics["setup_s"] = statistics.median(ns * REF_NS / ref for ns, ref in setup) / 1e9
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
            unscaled = pass_times(w, plain, scaled=False)
            unscaled["setup_s"] = statistics.median(ns for ns, _ in setup) / 1e9
            unscaled["ref_kernel_ms"] = statistics.median(
                o.ref_ns for p in plain for o in p.values()) / 1e6
        info = {
            "workload": name, "seed": seed, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit(root), "fingerprint": reference,
            "passes": len(plain) + len(traced), "instances": w.shapes(), "unscaled": unscaled,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "info": info,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "laminar_secretary" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
