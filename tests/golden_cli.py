"""The fixed CLI golden set: sha256 of stdout, exit code and stderr.

Run from any directory:

    python3 tests/golden_cli.py > golden.txt

It prints one line per command, ``sha256(stdout) exit sha256(stderr)
argv``, for 87 commands: ``bounds`` for every target over a fixed range,
with and without ``--classical-only``; ``lattice`` for n = 5..14, 16, 17,
with and without ``--quantum``; ``extremal`` for every n = +-1 (mod 6) in
5..71 (``distill``) and n = 12, 24, ..., 96 (``selfdual``); ``analyze``
(plain and ``--decimal``) and ``verify`` on the four shipped codes;
``analyze`` on seeded maximal self-orthogonal codes; ``search`` on the
shipped database and a seeded one; ``curve`` on the enumerators of seeded
maximal codes; ``search`` on a seeded maximal code with an all-zero
coordinate inserted, so one shortening deletes a column no generator
touches; ``analyze`` on a seeded self-orthogonal [70, 8] code, whose
words span two 64-bit limbs and whose weight enumerator has two head
generators; and ``search`` on a seeded self-orthogonal [70, 4] code with an
all-zero column inserted at position 64, whose shortenings span two limbs
and one of which keeps the parent's dimension.  Seeded files come from
fixed seeds and go to a temporary directory, printed as ``$TMP``; paths in
the checkout print relative to its root.  Running it on two checkouts and
diffing the outputs shows whether a change keeps every byte of the CLI;
``tests/golden_cli.txt`` holds the recorded output, which
``tests/test_cli.py`` compares line by line.  A deliberate change of CLI
output re-records that file.  The commands run in process through
``cli.main``, in about five seconds on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from gf4msd import gf4  # noqa: E402
from gf4msd.cli import main  # noqa: E402

CODES = os.path.join(ROOT, "codes")
SHIPPED = ("five_qubit", "five_qubit_product", "hexacode", "two_qubit")
BOUNDS = (("nu", 5, 49), ("distance", 5, 35), ("classical-distance", 6, 40))
LATTICE = (*range(5, 15), 16, 17)
ANALYZE_SEEDED = (7, 11, 13, 17, 19)
SEARCH_SEEDED = 14
CURVE_SEEDED = (5, 7, 11, 13)
ZERO_COORD_SEEDED = (11, 5)  # length of the maximal code, place of the zero column
TWO_LIMB_SEEDED = (70, 8)  # length and dimension of a self-orthogonal code
TWO_LIMB_ZERO_COORD_SEEDED = (70, 4, 64)  # length, dimension, place of the zero column


def _write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def commands(tmp):
    """The argv lists of the golden set, in order; seeded inputs go to tmp."""
    cmds = []
    for target, start, stop in BOUNDS:
        argv = ["bounds", "--target", target, "--start", str(start), "--stop", str(stop)]
        cmds += [argv, argv + ["--classical-only"]]
    for n in LATTICE:
        cmds += [["lattice", "--n", str(n)], ["lattice", "--n", str(n), "--quantum"]]
    cmds += [["extremal", "--n", str(n), "--family", "distill"] for n in range(5, 72) if n % 6 in (1, 5)]
    cmds += [["extremal", "--n", str(n), "--family", "selfdual"] for n in range(12, 97, 12)]
    for name in SHIPPED:
        path = os.path.join(CODES, name + ".g4c")
        cmds += [["analyze", path], ["analyze", path, "--decimal"], ["verify", path]]
    for n in ANALYZE_SEEDED:
        code = gf4.random_maximal_self_orthogonal_code(random.Random(n), n)
        cmds.append(["analyze", _write(tmp, "maximal%d.g4c" % n, code.to_text())])
    cmds.append(["search", os.path.join(CODES, "selfdual6.g4cdb")])
    rng = random.Random(SEARCH_SEEDED)
    code = gf4.random_self_orthogonal_code(rng, SEARCH_SEEDED, target_k=SEARCH_SEEDED // 2)
    while code.k != SEARCH_SEEDED // 2:
        code = gf4.random_self_orthogonal_code(rng, SEARCH_SEEDED, target_k=SEARCH_SEEDED // 2)
    cmds.append(["search", _write(tmp, "selfdual%d.g4cdb" % SEARCH_SEEDED, code.to_text())])
    for n in CURVE_SEEDED:
        code = gf4.random_maximal_self_orthogonal_code(random.Random(100 + n), n)
        text = gf4.weight_enumerator(code).to_json()
        cmds.append(["curve", _write(tmp, "enumerator%d.json" % n, text)])
    n, at = ZERO_COORD_SEEDED
    code = gf4.random_maximal_self_orthogonal_code(random.Random(200 + n), n)
    padded = gf4.Gf4Code(n + 1, tuple(g[:at] + (0,) + g[at:] for g in code.generators))
    cmds.append(["search", _write(tmp, "zerocoord%d.g4cdb" % (n + 1), padded.to_text())])
    n, k = TWO_LIMB_SEEDED
    code = gf4.random_self_orthogonal_code(random.Random(300 + n), n, target_k=k)
    cmds.append(["analyze", _write(tmp, "twolimb%d.g4c" % n, code.to_text())])
    n, k, at = TWO_LIMB_ZERO_COORD_SEEDED
    code = gf4.random_self_orthogonal_code(random.Random(400 + n), n, target_k=k)
    padded = gf4.Gf4Code(n + 1, tuple(g[:at] + (0,) + g[at:] for g in code.generators))
    cmds.append(["search", _write(tmp, "twolimbzero%d.g4cdb" % (n + 1), padded.to_text())])
    return cmds


def run(argv):
    """(stdout, exit code, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code, err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_lines():
    """Yield the line of each command of the golden set, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(tmp):
            out, code, err = run(argv)
            shown = " ".join(argv).replace(tmp, "$TMP").replace(ROOT + os.sep, "")
            yield "%s %s %s %s" % (_sha(out), code, _sha(err), shown)


def main_golden():
    for line in golden_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main_golden()
