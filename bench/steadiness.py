"""Run every workload several times and record the spread of its metrics.

Run from the root of a checkout:

    python3 bench/steadiness.py --runs 10 --seed 0 --out bench/results/steadiness.json
    python3 bench/steadiness.py --runs 10 --seed 100 --vary-seed --out bench/results/heldout.json

The first repeats every run on one seed, so that its spread is the
run-to-run noise a comparison of two commits on one seed meets.  The
second gives each run its own seed (100, 101, ...), none of which has
goldens, so that it also holds the input variance, as a check on seeds
nobody tuned on.  For each workload it runs ``bench/run.py`` once per
run, one run at a time, and records each end-to-end metric's values,
quartiles and inter-quartile range as a share of the median, next to the
bound in BENCHMARK.json.  It also records what the figures depend on: the
commit, Python and numpy versions, ``nproc``, the CPU model and each
workload's items and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items as workloads  # noqa: E402


def machine():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def item_argvs(workload):
    """Item name -> argv, with seeded input paths shortened to their file names."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        items = workloads.build(workload, 0, tmp, "codes")
        return {i.name: [os.path.basename(a) if a.startswith(tmp) else a for a in i.argv] for i in items}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--vary-seed", action="store_true", help="run i uses seed + i instead of seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [args.seed + i if args.vary_seed else args.seed for i in range(args.runs)]
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "seeds": seeds,
              "trace": args.trace, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        t0 = time.time()
        for seed in seeds:
            summary, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"summary": summary, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        entry = {"runs": runs, "elapsed_s": time.time() - t0, "items": item_argvs(workload)}
        if not args.trace and args.runs > 1:
            entry["spread"] = {
                name: dict(spread([r["metrics"][name] for r in runs]), bound=bound)
                for name, bound in bounds.items()
            }
        record["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry.get("spread", {}).items():
            print("%-15s %-12s median %-12.5g spread %.4f bound %.2f" % (
                workload, name, s["median"], s["iqr_over_median"], s["bound"]))


if __name__ == "__main__":
    main()
