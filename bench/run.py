"""Benchmark of the groupoids package.

Run from the root of a checkout:

    python3 bench/run.py --workload chains --seed 1 --seconds 45 --trace 0

Workloads: complexes, chains (see README.md).  The program is imported
from ``src/`` of the current directory.  A run sets the workload up five
times (once here, four times in fresh processes) and reports the median,
makes one warm-up pass that is discarded, then makes timed passes for
``--seconds`` seconds, checks every result and prints one JSON object as
its last line of output.  ``pass_s`` is the sum over the workload's parts
of each part's median pass.
With ``--trace 1`` the same passes run with spans around each public
call and the per-layer metrics are printed instead; the spans are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("complexes", "chains")
SETUP_REPEATS = 5

# Layers timed by self time (metric name + "_s") and layer counts.
TIME_LAYERS = (
    "serialize.load", "serialize.emit", "cli.self", "complexes.build", "complexes.dual",
    "groupoid.flips", "holonomy.loops", "invariants.nacl", "invariants.i",
    "invariants.local", "invariants.compare", "homcx.cells", "homcx.report",
    "corpus.generate", "permgroup.chain", "permgroup.recognize", "games.tours",
    "graphconn.validate", "graphconn.loops", "permgroup.contains", "games.transport",
)
COUNT_LAYERS = (
    "complexes.faces", "complexes.dual_edges", "holonomy.generators", "homcx.cells",
    "corpus.items", "permgroup.base_len", "games.tours",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the parent runs itself in fresh processes with these
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--fresh-part", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_self(args, root: Path, *extra: str) -> dict:
    """Run this script in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Passes:
    """Pass times, per-operation records and traced layer totals, per part."""

    def __init__(self, parts):
        self.fresh_rss_mb = 0.0   # the largest peak of the fresh processes
        self.times = {part: [] for part in parts}
        self.records = {part: [] for part in parts}
        self.layers = {part: {} for part in parts}   # from fresh processes
        self.roots = {part: 0.0 for part in parts}

    def add(self, part, seconds, recs):
        self.times[part].append(seconds)
        self.records[part].append(recs)


def fresh_pass(w, part: str, tracer, trace_file: Path) -> dict:
    """One pass of ``part`` in this (fresh) process, as a JSON-ready dict."""
    from workloads import FailedOp
    w.warm_up()
    seconds, recs = w.run(part, tracer)
    result = {"seconds": seconds,
              "records": [{"failed": r.message} if isinstance(r, FailedOp) else r
                          for r in recs],
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.self_seconds().get(part, {})
        result["roots"] = tracer.root_seconds().get(part, 0.0)
        result["counts"] = w.counts.get(part, {})
        trace_file.parent.mkdir(exist_ok=True)
        tracer.dump(trace_file)
    return result


def timed_phase(args, root: Path, w, tracer) -> Passes:
    """Whole passes over every part, in turn, until ``--seconds`` have
    gone by.  A pass of a part in ``w.fresh`` runs in a fresh process and
    times itself there."""
    from workloads import FailedOp
    passes = Passes(w.parts)
    began = time.perf_counter()
    while True:
        for part in w.parts:
            if part in w.fresh:
                index = len(passes.times[part])
                res = run_self(args, root, "--fresh-part", f"{part}:{index}")
                passes.add(part, res["seconds"],
                           [FailedOp(r["failed"]) if isinstance(r, dict) else r
                            for r in res["records"]])
                passes.fresh_rss_mb = max(passes.fresh_rss_mb, res["peak_rss_mb"])
                if tracer is not None:
                    for layer, value in res["layers"].items():
                        passes.layers[part][layer] = passes.layers[part].get(layer, 0) + value
                    passes.roots[part] += res["roots"]
                    for name, value in res["counts"].items():
                        w.count(part, name, value)
            else:
                passes.add(part, *w.run(part, tracer))
        if time.perf_counter() - began >= args.seconds:
            return passes


def layer_metrics(w, tracer, passes: Passes) -> dict:
    """Self time and counts per layer, each per pass of the workload:
    a part's totals divided by the number of its passes, summed over
    parts."""
    passes_of = {part: len(recs) for part, recs in passes.records.items()}
    self_s = tracer.self_seconds()
    for part, layers in passes.layers.items():
        for layer, value in layers.items():
            self_s.setdefault(part, {})[layer] = self_s.get(part, {}).get(layer, 0) + value
    metrics = {}
    for layer in TIME_LAYERS:
        value = sum(self_s.get(part, {}).get(layer, 0.0) / n for part, n in passes_of.items())
        metrics[layer + "_s"] = {"value": value, "unit": "s"}

    def per_pass(name):
        return sum(w.counts.get(part, {}).get(name, 0) / n for part, n in passes_of.items())

    for layer in COUNT_LAYERS:
        metrics[layer] = {"value": per_pass(layer), "unit": "count"}
    gens = per_pass("holonomy.generators")
    metrics["holonomy.distinct_ratio"] = {
        "value": per_pass("holonomy.distinct") / gens if gens else 0.0, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "groupoids" / "__init__.py").is_file():
        print("error: no src/groupoids here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import groupoids
    import workloads
    if not Path(groupoids.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: groupoids imported from {groupoids.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    w = workloads.make(args.workload, args.seed, out_dir / f"{args.workload}-{os.getpid()}",
                       args.fresh_part.split(":")[0] if args.fresh_part else None)
    setup_here = time.perf_counter() - started
    tracer = Tracer() if args.trace else None
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        if args.fresh_part:
            part, index = args.fresh_part.split(":")
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}-{part}{index}.json"
            print(json.dumps(fresh_pass(w, part, tracer, trace_file)))
            return 0
        setups = [setup_here] + [run_self(args, root, "--setup-probe")["setup_s"]
                                 for _ in range(SETUP_REPEATS - 1)]
        w.warm_up()
        passes = timed_phase(args, root, w, tracer)
        peak_mb = max(peak_rss_mb(), passes.fresh_rss_mb)

        attempted = raised = mismatched = 0
        errors = []
        for part, samples in passes.records.items():
            for recs in samples:
                attempted += len(recs)
                for rec in recs:
                    if isinstance(rec, workloads.FailedOp):
                        raised += 1
                        if len(errors) < 20:
                            errors.append(f"{part}: {rec.message}")
            bad, part_errors = w.verify(part, samples)
            mismatched += bad
            errors += part_errors[:20]
    finally:
        w.close()

    for line in errors:
        print(f"check: {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "pass_s": {"value": sum(statistics.median(t) for t in passes.times.values()),
                       "unit": "s"},
        }
        print(f"passes {({p: [round(x, 4) for x in t] for p, t in passes.times.items()})} "
              f"setups {[round(s, 4) for s in setups]}", file=sys.stderr)
        print(f"part medians {({p: round(statistics.median(t), 4) for p, t in passes.times.items()})}",
              file=sys.stderr)
    else:
        metrics = layer_metrics(w, tracer, passes)
        roots = tracer.root_seconds()
        traced_pass = sum((roots.get(part, 0.0) + passes.roots[part]) / len(recs)
                          for part, recs in passes.records.items())
        print(f"traced operations per pass {traced_pass:.4f} s", file=sys.stderr)
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"correct": mismatched == 0, "attempted": attempted,
                      "failed": raised + mismatched, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
