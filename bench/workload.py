"""One benchmark process: set up one workload, run it, check it, measure it.

``run.py`` starts this in a fresh single-threaded Python process with the
checkout's ``src`` first on the path.  It runs passes over the workload's
items in a closed loop with one client (each item starts when the
previous one returns), for about ``--seconds`` but at least three
passes, and prints one JSON object on its last stdout line.  With ``--trace 1`` every item runs untraced and traced
in turn, so that the tracing overhead is measured item by item in the
same process.  With ``--setup-only`` it stops once the first item is
ready and prints the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import items as workloads
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3  # a run pools at least 3 x 40 samples, so at least 12 lie above p90


def run_item(cli, item, tracer=None):
    """Run one item; return (exit code, output, latency).

    The heap is collected first, outside the timing, so that an item
    starts as a fresh CLI process would, without the cyclic garbage of
    the items before it.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.item = item.name
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item.argv))
    except Exception:  # a programming error fails its item, not the run
        rc = "exception: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return rc, out.getvalue(), latency


def run_pass(cli, items, seed, goldens, tracer=None):
    """Run every item once; return (latencies, failures, traced latencies).

    With a tracer every item runs twice in a row, once untraced and once
    traced, the first of the two alternating from item to item, so that
    each traced latency has an untraced twin taken at the same moment.
    """
    latencies, traced, failures = [], [], []
    for i, item in enumerate(items):
        modes = (None,) if tracer is None else ((None, tracer) if i % 2 == 0 else (tracer, None))
        for mode in modes:
            rc, text, latency = run_item(cli, item, mode)
            (latencies if mode is None else traced).append(latency)
            problem = workloads.check_item(item, rc, text, goldens, seed)
            if problem:
                failures.append((item.name, problem, mode is not None))
    return latencies, failures, traced


def measure(cli, items, args, goldens):
    """Run passes for about args.seconds; return the result and its summary.

    A new pass starts while the run would end nearer to args.seconds with
    it than without it, so that the run takes about args.seconds, and
    always until the run holds MIN_PASSES passes.  A traced run has no
    floor on its passes: each of its passes holds every item twice.
    """
    tracer = layers.Tracer() if args.trace else None
    passes = []  # (latencies, failures, traced latencies)
    layer_samples = []
    floor = 1 if tracer else MIN_PASSES
    start = time.perf_counter()
    while len(passes) < floor or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < args.seconds:
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.reset_counters()
        lat, fails, traced = run_pass(cli, items, args.seed, goldens, tracer)
        passes.append((lat, fails, traced))
        if tracer:
            sample = tracer.layer_metrics(first_span)
            sample["cli.main.failed"] = sum(1 for f in fails if f[2])
            layer_samples.append(sample)
        for name, problem, _ in fails:
            print("FAIL %s: %s" % (name, problem), file=sys.stderr)

    attempted = sum(len(p[0]) + len(p[2]) for p in passes)
    failed = sum(len(p[1]) for p in passes)
    walls = [sum(p[0]) for p in passes]
    pool = [x for p in passes for x in p[0]]
    p90 = statistics.quantiles(pool, n=10)[8] if len(pool) > 1 else pool[0]
    summary = {
        "items_per_pass": len(items),
        "passes": len(passes),
        "pass_walls": [round(w, 4) for w in walls],
        "samples": len(pool),
        "samples_above_p90": sum(1 for x in pool if x > p90),
        "fail_frac": failed / attempted,
    }
    result = {"attempted": attempted, "failed": failed, "summary": summary}
    if tracer is None:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "item_p50_s": statistics.median(pool),
            "item_p90_s": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result
    metrics = layers.median_metrics(layer_samples)
    # pooled over every untraced/traced pair of the run
    metrics["trace.overhead_frac"] = sum(x for p in passes for x in p[2]) / sum(pool) - 1
    result["metrics"] = metrics
    summary["pairs"] = len(pool)
    spans_path = os.path.join(HERE, ".work", "spans-%s-%d.json" % (args.workload, args.seed))
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": tracer.spans}, fh)
    summary["spans"] = len(tracer.spans)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() when the launcher started this process")
    ap.add_argument("--root", required=True, help="checkout root holding src/gf4msd and codes/")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import gf4msd
    from gf4msd import cli

    src = os.path.join(args.root, "src")
    if not os.path.abspath(gf4msd.__file__).startswith(src + os.sep):
        raise SystemExit("gf4msd was imported from %s, not from %s" % (gf4msd.__file__, src))

    workdir = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        items = workloads.build(args.workload, args.seed, workdir, os.path.join(args.root, "codes"))
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        with open(os.path.join(HERE, "goldens.json")) as fh:
            goldens = json.load(fh)
        result = measure(cli, items, args, goldens)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
