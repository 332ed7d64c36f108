"""Benchmark of the tanglesum library: one workload, timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tables|bigsum|moves --seed N \
        --seconds S --trace 0|1

Every pass runs on its own set-up: a fresh import of tanglesum from ./src
plus the workload's fixed inputs.  setup_s is the median set-up, pass_s
the median pass.  peak_rss_mb is the process's peak resident memory when
the first pass ends, so it covers one set-up and one pass whatever the
number of passes.  Passes repeat while the next one still fits in S
seconds, and at least MIN_PASSES run.  Every pass's outputs are checked
against their references, and its exact work counts must repeat.  With
--trace 1 untraced and traced passes alternate, and the per-layer metrics
come from the traced pass of median length.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record of the run (provenance,
every sample, counts and, when traced, every span) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads  # imports numpy, which stays out of the set-up timing
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACED = 1          # untraced and traced passes each, in --trace 1

# self-time layers: they partition the traced pass exactly
SELF_LAYERS = {
    "bench.self_s": ("pass",),
    "groups.build_s": ("groups.build",),
    "crossed_modules.build_s": ("crossed_modules.build",),
    "pairs.construct_s": ("pairs.construct",),
    "pairs.transfer_s": ("pairs.transfer",),
    "pairs.validate_s": ("pairs.validate",),
    "diagrams.load_s": ("diagrams.load",),
    "diagrams.neighbours_s": ("diagrams.neighbours",),
    "engine.enumerate_s": ("engine.enumerate",),
    "engine.evaluate_s": ("engine.evaluate",),
    "engine.bucket_s": ("engine.invariant", "engine.matrix"),
    "tables.compare_s": ("tables.diff", "tables.cell", "tables.expected"),
}
INCLUSIVE = {"engine.invariant_s": "engine.invariant",
             "engine.matrix_s": "engine.matrix"}
COUNTS = {
    "pairs.construct_calls": "pairs.construct.calls",
    "validation.tuples": "validation.tuples",
    "diagrams.neighbours": "diagrams.neighbours",
    "engine.invariant_calls": "engine.invariant.calls",
    "engine.matrix_calls": "engine.matrix.calls",
    "engine.statesums": "engine.enumerate.calls",
    "engine.colourings": "engine.enumerate.items",
    "tables.cells": "tables.cells",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def provenance(ts) -> dict:
    """Where and on what this run was made."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tanglesum": ts.engine.__file__,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(tracer, root: int) -> dict:
    """Per-layer seconds, counts and ratios of one traced pass."""
    bd = tracer.breakdown(root)
    names = set(bd["self_s"])
    covered = {n for group in SELF_LAYERS.values() for n in group}
    if not names <= covered:
        raise RuntimeError(f"spans without a layer: {sorted(names - covered)}")
    out = {k: (sum(bd["self_s"].get(n, 0.0) for n in group), "s")
           for k, group in SELF_LAYERS.items()}
    out.update({k: (bd["incl_s"].get(n, 0.0), "s")
                for k, n in INCLUSIVE.items()})
    counts = bd["counts"]
    out.update({k: (counts.get(n, 0), "count") for k, n in COUNTS.items()})
    bound = counts.get("engine.colouring_bound", 0)
    out["engine.colouring_yield"] = (
        counts.get("engine.enumerate.items", 0) / bound if bound else 0.0,
        "ratio")
    return out


def measure(wl, args) -> dict:
    """Set up and run passes for the window; return samples and checks."""
    tracer = Tracer() if args.trace else None
    run = {"setup_s": [], "pass_s": [], "traced": [], "counts": [],
           "attempted": 0, "failed": 0, "problems": [], "tracer": tracer}
    start = perf_counter()
    while True:
        # a fresh import and fresh inputs before every pass
        gc.collect()
        t0 = perf_counter()
        ts = workloads.import_library()
        state = wl.setup(ts, args.seed)
        run["setup_s"].append(perf_counter() - t0)
        gc.collect()
        use_trace = tracer is not None and len(run["traced"]) < len(run["pass_s"])
        if use_trace:
            for module, attr, name, opts in workloads.trace_points(ts):
                tracer.patch(module, attr, name, **opts)
            root = tracer.open("pass")
        t0 = perf_counter()
        out = wl.run(ts, state)
        dt = perf_counter() - t0
        if use_trace:
            tracer.close(root)
            tracer.unpatch()
            run["traced"].append((dt, root))
        else:
            run["pass_s"].append(dt)
            run.setdefault("peak_rss_kb", resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss)
        check = wl.check(ts, state, out)
        run["attempted"] += check.results
        run["failed"] += check.failed
        run["problems"].extend(check.problems)
        counts = dict(check.counts)
        if use_trace:
            counts.update(tracer.breakdown(root)["counts"])
        run["counts"].append((use_trace, counts))

        # stop once the next pass would overrun the window
        passes = len(run["pass_s"]) + len(run["traced"])
        done = len(run["pass_s"]) >= MIN_PASSES if tracer is None else \
            min(len(run["pass_s"]), len(run["traced"])) >= MIN_TRACED
        now = perf_counter()
        if done and now + (now - start) / passes > start + args.seconds:
            run["ts"], run["state"] = ts, state
            return run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tanglesum" / "__init__.py").is_file():
        print(f"error: no tanglesum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = measure(workloads.WORKLOADS[args.workload], args)
    ts, tracer = run["ts"], run["tracer"]

    # exact work counts must repeat across passes of the same kind
    first = {}
    for traced, counts in run["counts"]:
        first.setdefault(traced, counts)
    counts_repeat = all(c == first[t] for t, c in run["counts"])
    if not counts_repeat:
        run["problems"].append(f"work counts differ between passes: "
                               f"{run['counts']}")
    attempted, failed = run["attempted"], run["failed"]
    plain = run["pass_s"]
    q1, pass_med, q3 = quartiles(plain)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(ts),
        "setup_s": run["setup_s"], "pass_s": plain,
        "counts": first[bool(tracer)], "counts_repeat": counts_repeat,
        "attempted": attempted, "failed": failed,
        "problems": run["problems"][:50],
    }
    if args.workload == "moves":
        record["braid_words"] = run["state"].words
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(run["setup_s"]), "s"),
            "pass_s": (pass_med, "s"),
            "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        }
    else:
        traced = run["traced"]
        _, root = sorted(traced)[(len(traced) - 1) // 2]
        metrics = layer_metrics(tracer, root)
        _, _, opened, closed, _ = tracer.spans[root]
        metrics["trace.pass_s"] = (closed - opened, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(d for d, _ in traced) - pass_med, "s")
        record["traced_pass_s"] = [d for d, _ in traced]
        record["layers"] = {k: v for k, (v, _) in metrics.items()}
        record["trace"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['provenance']['nproc']}")
    print(f"  set-up: median of {len(run['setup_s'])}; passes: {len(plain)} "
          f"untraced (q1 {q1:.4f} s, median {pass_med:.4f} s, q3 {q3:.4f} s)"
          + (f", {len(run['traced'])} traced" if tracer else ""))
    for key, (value, unit) in metrics.items():
        print(f"  {key:26s} {value:14.6f} {unit}")
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted} "
          f"results); work counts {record['counts']}, repeat: {counts_repeat}")
    if args.workload == "moves":
        print(f"  braid words from seed {args.seed}: {record['braid_words']}")
    for p in run["problems"][:10]:
        print(f"  MISMATCH {p}")
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
