"""Record the digests of every item's output in bench/goldens.json.

Run from the root of a checkout at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record_goldens.py

Items whose output cannot depend on the seed get one digest; seeded
items get one per seed of GOLDEN_SEEDS.  An output is recorded only if
it passes the item's own checks, so a golden never encodes a known-wrong
answer.
``verify`` items need no digest: their whole expected report is computed
from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import items as workloads  # noqa: E402

EMPTY = {"fixed": {}, "seeded": {}}
GOLDEN_SEEDS = range(0, 50)


def outputs(cli, items):
    """Digest of each item's output, after checking it."""
    out = {}
    for item in items:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(item.argv))
        problem = workloads.check_item(item, rc, buf.getvalue(), EMPTY, None)
        if problem:
            raise SystemExit("%s fails its checks: %s" % (item.name, problem))
        out[item.name] = workloads.digest(buf.getvalue())
    return out


def main():
    from gf4msd import cli

    codes = os.path.join(os.getcwd(), "codes")
    goldens = {"fixed": {}, "seeded": {}}
    tmp = tempfile.mkdtemp(dir=HERE)
    try:
        for workload in workloads.WORKLOADS:
            items = workloads.build(workload, GOLDEN_SEEDS[0], tmp, codes)
            fixed = [i for i in items if not i.seeded and i.argv[0] != "verify"]
            goldens["fixed"].update(outputs(cli, fixed))
            for seed in GOLDEN_SEEDS:
                items = workloads.build(workload, seed, tmp, codes)
                seeded = [i for i in items if i.seeded and i.argv[0] != "verify"]
                if seeded:
                    goldens["seeded"].setdefault(str(seed), {}).update(outputs(cli, seeded))
                    print("%s seed %d recorded" % (workload, seed), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
