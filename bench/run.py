"""gf4msd benchmark launcher.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lp_lattice --seed 1 --seconds 45 --trace 0

Runs one workload in a fresh Python process with numpy's BLAS pinned to
one thread, times the workload's set-up in further fresh processes
before and after it, and prints one JSON object as its last stdout line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from items import WORKLOADS  # noqa: E402
from layers import metric_units  # noqa: E402

# Set-up is timed in this many extra processes before the measured one
# and as many after it, so that its median spans the run and does not
# read the machine's speed at a single moment.
SETUPS_EACH_SIDE = 3
E2E_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def child(args, root, extra, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **CHILD_ENV)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", root,
        "--spawned-at", repr(time.time()),
    ] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be between 1 and 120")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gf4msd", "cli.py")):
        print("run.py: no src/gf4msd under %s; run it from the root of a gf4msd checkout" % root, file=sys.stderr)
        return 2

    try:
        setups = [child(args, root, ["--setup-only"], 20)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
        res = child(args, root, [], args.seconds + 100)
        setups += [child(args, root, ["--setup-only"], 20)["setup_s"] for _ in range(SETUPS_EACH_SIDE)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    setups.insert(SETUPS_EACH_SIDE, res["setup_s"])

    if args.trace:
        units = metric_units()
        values = res["metrics"]
    else:
        units = E2E_UNITS
        values = dict(res["metrics"], setup_s=statistics.median(setups))
    summary = dict(res["summary"], workload=args.workload, seed=args.seed, setup_samples=setups)
    print(json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
