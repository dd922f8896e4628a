"""The workloads: their item sets, seeded inputs and checks.

An item is one ``gf4msd.cli.main(argv)`` call, which gives one report or
verdict.  The seed reaches the program only through the generated
``.g4c``/``.g4cdb`` files and the ``verify`` trial seed in argv; it also
shuffles the item order.  Items whose output cannot depend on the seed
are checked against one golden digest, seeded items against a digest per
shipped seed.  Known values are checked as well, so a run on a seed without
goldens still checks every output it can.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Each workload runs two item sets, chosen so that every planned
# optimisation has one workload that runs its mechanism and one that
# bypasses it: lp_lattice has all the LPs and lattice counting and no
# codeword enumeration or oracle; codes_oracle the reverse.
WORKLOADS = {
    "lp_lattice": ("lp_sweep", "lattice_filter"),
    "codes_oracle": ("code_analysis", "oracle_check"),
}

# Noise-suppression exponents of tier-1 criterion 06 (theorem table).
THEOREM_NU = {5: 2, 7: 1, 11: 2, 13: 1, 17: 5, 19: 4, 23: 5, 25: 7, 29: 8, 31: 10}
# (n, classical, quantum) distance bounds of criterion 06; None is unchecked.
KNOWN_DISTANCE = {11: (5, 3), 23: (None, 7)}
# (classical, quantum) lattice counts as computed; 1885 contradicts the
# frozen 2919 of tier-1 criterion 05b, which stays as it is there.
KNOWN_LATTICE = {7: (18, 6), 12: (1885, 570)}
# signed_eval(A, 1/3) of the extremal self-dual enumerators (criterion 03).
SELFDUAL_SIGNED = {
    12: Fraction(-256, 81),
    24: Fraction(-1245184, 19683),
    36: Fraction(-12146704384, 14348907),
    48: Fraction(-121921236631552, 10460353203),
    60: Fraction(-1264863882942349312, 7625597484987),
    72: Fraction(-4471893160093900865536, 1853020188851841),
    84: Fraction(-433405775278763760286695424, 12157665459056928801),
    96: Fraction(-1572944082477201192612565876736, 2954312706550833698643),
}

LP_NU = (5, 7, 11, 13, 17, 19, 23, 25, 29)
LP_DISTANCE = tuple(range(5, 24, 2))
# 48 items in lp_lattice: with 3 or 4 passes the pooled p90 falls inside
# the block of nu n=23 and distance n=23 (about 1.1 s each, ranks 5-6 by
# cost) and the median inside a run of seven items of 30-45 ms, not on the
# edge between two items whose cost differs (see README.md).
LP_CLASSICAL_DISTANCE = tuple(range(6, 33, 2))

ANALYZE_SIZES = (13, 17, 19, 23)  # maximal self-orthogonal, k = (n - 1) / 2
SEARCH_DBS = ((14, 2), (18, 1), (20, 1))  # self-dual databases: (length, codes)
# The 26 extremal items and the five-qubit analyze take 2-21 ms each, at
# a cost no seed changes; with the two-qubit verify they are 28 of the 40
# items of codes_oracle, so they hold its pooled median, which would
# otherwise fall among seeded items whose cost varies with the code.
EXTREMAL_DISTILL = (5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47, 53, 59, 71)

LATTICE_CLASSICAL = (5, 6, 7, 8, 10, 11, 12, 14, 16)
LATTICE_QUANTUM = (5, 6, 7, 8, 10, 12)

# The shipped code files given to the dense oracle, all in exact mode
# (n <= 6).  The hexacode runs three times, on three seeded streams of
# trial points, at a cost (about 2 s) that no seed changes much.  With
# the n = 20 search and the n = 23 analyze (1.5-3 s, varying with the
# code) they are the five costliest items, far above every other (at most
# 0.7 s).  With 40 items the pooled p90 lies about 4 items from the top,
# so it falls on the second cheapest of those five: a hexacode item
# unless both seeded items cost less than the hexacode, never on the edge
# between two items whose cost differs.  Seeded random codes are left out:
# at this commit `verify` fails on most of them (see the known defect in
# README.md and test_bench.py).
ORACLE_CODES = ("hexacode", "hexacode", "hexacode", "five_qubit", "five_qubit_product", "two_qubit")
ORACLE_TRIALS = 10


@dataclass
class Item:
    name: str
    argv: list
    seeded: bool = False
    checks: list = field(default_factory=list)  # fn(output) -> error text or None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# -- checks ------------------------------------------------------------------


def _csv_row(out):
    lines = out.splitlines()
    if len(lines) != 2 or lines[0] != "n,bound_classical,bound_quantum,witness":
        raise ValueError("unexpected bounds CSV")
    return lines[1].split(",")


def check_bound(n, classical, quantum):
    def check(out):
        row = _csv_row(out)
        got = (int(row[0]), row[1], row[2])
        want = (n, str(classical) if classical is not None else row[1], str(quantum))
        if got != want:
            return "bounds row %s, expected %s" % (got, want)
        return None

    return check


def check_lattice_count(count):
    def check(out):
        first = out.split("\n", 1)[0]
        if first != "count,%d" % count:
            return "lattice %r, expected count %d" % (first, count)
        return None

    return check


def check_selfdual_signed(value):
    def check(out):
        got = json.loads(out)["signed_eval_pure"]
        if Fraction(got) != value:
            return "signed_eval_pure %s, expected %s" % (got, value)
        return None

    return check


def check_five_qubit(out):
    rep = json.loads(out)
    if rep["A"]["coeffs"] != [1, 0, 0, 0, 15, 0] or rep["B"]["coeffs"] != [1, 0, 0, 30, 15, 18]:
        return "five-qubit enumerators differ from A = 1 + 15y^4"
    if rep["distill"]["nu"] != 2 or not rep["distill"]["threshold_best"]["decimal"].startswith("0.172673"):
        return "five-qubit nu or threshold differ from 2 and 0.172673"
    return None


def check_analyze(n, k):
    """Identities every Hermitian self-orthogonal [n, k] code satisfies."""

    def check(out):
        rep = json.loads(out)
        A, B, C = (rep[key]["coeffs"] for key in ("A", "B", "C"))
        if (rep["n"], rep["k_gf4"], rep["logical_qubits"]) != (n, k, n - 2 * k):
            return "analyze header differs from n=%d k=%d" % (n, k)
        if A[0] != 1 or sum(A) != 4**k or any(A[1::2]):
            return "A is not an even enumerator of 4^k words"
        if B[0] != 1 or sum(B) != 4 ** (n - k):
            return "B does not count the 4^(n-k) dual words"
        if C != [b - a for a, b in zip(A, B)] or min(C) < 0:
            return "C differs from B - A"
        if "distill" not in rep:
            return "analyze gave no distillation report"
        return None

    return check


def check_search(n):
    def check(out):
        lines = out.splitlines()
        if lines[0] != "n,enumerator_hash,threshold,nu,beats_baseline" or len(lines) < 2:
            return "search CSV has no rows"
        if any(int(line.split(",", 1)[0]) != n - 1 for line in lines[1:]):
            return "search rows are not shortened length-%d codes" % (n - 1)
        return None

    return check


def expected_verify(seed, trials=ORACLE_TRIALS):
    """The report `verify` must print for a valid projector.

    The trial points come from the same seeded stream the program uses;
    every trial must match, whatever the code.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(trials):
        rbar = Fraction(rng.randint(-5, 5), rng.randint(9, 18))
        r2 = rbar * rbar
        text = str(r2.numerator) if r2.denominator == 1 else "%d/%d" % (r2.numerator, r2.denominator)
        rows.append({"rbar2": text, "match": True})
    report = {
        "projector_valid": True,
        "mode": "exact",
        "trials": rows,
        "all_match": True,
    }
    return json.dumps(report, indent=2) + "\n"


def check_verify(seed):
    want = expected_verify(seed)

    def check(out):
        if out == want:
            return None
        try:
            rep = json.loads(out)
            bad = sum(1 for t in rep["trials"] if not t["match"])
            return "verify: %d of %d trials mismatch (projector_valid %s)" % (
                bad,
                len(rep["trials"]),
                rep["projector_valid"],
            )
        except (ValueError, KeyError):
            return "verify output differs from the expected report"

    return check


# -- input generation --------------------------------------------------------


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _self_dual_code(gf4, rng, n):
    while True:
        code = gf4.random_self_orthogonal_code(rng, n, target_k=n // 2)
        if code.k == n // 2:
            return code


def build(workload, seed, workdir, codes_dir):
    """Write the seeded inputs under workdir; return the items in seeded order."""
    items = []
    for name in WORKLOADS[workload]:
        items += item_set(name, seed, workdir, codes_dir)
    random.Random("%s:%d" % (workload, seed)).shuffle(items)
    return items


def item_set(name, seed, workdir, codes_dir):
    """The items of one item set, in a fixed order."""
    from gf4msd import gf4  # not at the top: the launcher imports this module without gf4msd

    rng = random.Random("%s:%d" % (name, seed))
    items = []
    if name == "lp_sweep":
        for n in LP_NU:
            items.append(
                Item(
                    "nu:%d" % n,
                    ["bounds", "--target", "nu", "--start", str(n), "--stop", str(n)],
                    checks=[check_bound(n, THEOREM_NU[n], THEOREM_NU[n])],
                )
            )
        for n in LP_DISTANCE:
            checks = [check_bound(n, *KNOWN_DISTANCE[n])] if n in KNOWN_DISTANCE else []
            items.append(
                Item(
                    "distance:%d" % n,
                    ["bounds", "--target", "distance", "--start", str(n), "--stop", str(n)],
                    checks=checks,
                )
            )
        for n in LP_CLASSICAL_DISTANCE:
            items.append(
                Item(
                    "classical-distance:%d" % n,
                    ["bounds", "--target", "classical-distance", "--start", str(n), "--stop", str(n)],
                )
            )
    elif name == "code_analysis":
        items.append(
            Item(
                "analyze:five_qubit",
                ["analyze", os.path.join(codes_dir, "five_qubit.g4c")],
                checks=[check_five_qubit],
            )
        )
        for i, n in enumerate(ANALYZE_SIZES):
            code = gf4.random_maximal_self_orthogonal_code(rng, n)
            path = _write(os.path.join(workdir, "analyze%d_n%d.g4c" % (i, n)), code.to_text())
            items.append(
                Item("analyze:%d:n%d" % (i, n), ["analyze", path], True, [check_analyze(n, code.k)])
            )
        for i, (n, count) in enumerate(SEARCH_DBS):
            db = "\n".join(_self_dual_code(gf4, rng, n).to_text() for _ in range(count))
            path = _write(os.path.join(workdir, "selfdual%d_n%d.g4cdb" % (i, n)), db)
            items.append(Item("search:%d:n%d" % (i, n), ["search", path], True, [check_search(n)]))
        for n in EXTREMAL_DISTILL:
            items.append(Item("extremal:distill:%d" % n, ["extremal", "--n", str(n), "--family", "distill"]))
        for n, value in SELFDUAL_SIGNED.items():
            items.append(
                Item(
                    "extremal:selfdual:%d" % n,
                    ["extremal", "--n", str(n), "--family", "selfdual"],
                    checks=[check_selfdual_signed(value)],
                )
            )
    elif name == "lattice_filter":
        for n in LATTICE_CLASSICAL:
            checks = [check_lattice_count(KNOWN_LATTICE[n][0])] if n in KNOWN_LATTICE else []
            items.append(Item("lattice:%d" % n, ["lattice", "--n", str(n)], checks=checks))
        for n in LATTICE_QUANTUM:
            checks = [check_lattice_count(KNOWN_LATTICE[n][1])] if n in KNOWN_LATTICE else []
            items.append(Item("lattice:%d:quantum" % n, ["lattice", "--n", str(n), "--quantum"], checks=checks))
    elif name == "oracle_check":
        for i, code in enumerate(ORACLE_CODES):
            trial_seed = rng.randrange(2**31)
            items.append(
                Item(
                    "verify:%d:%s" % (i, code),
                    ["verify", os.path.join(codes_dir, code + ".g4c"), "--seed", str(trial_seed),
                     "--trials", str(ORACLE_TRIALS)],
                    checks=[check_verify(trial_seed)],
                )
            )
    else:
        raise ValueError("unknown item set %r" % name)
    return items


def check_item(item, rc, out, goldens, seed):
    """What is wrong with one item's exit code and output, or None."""
    problems = [] if rc == 0 else ["exit code %s" % rc]
    try:
        problems += [err for err in (check(out) for check in item.checks) if err]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append("unreadable output: %s" % exc)
    # verify items are compared with their full expected report instead
    if not problems and item.argv[0] != "verify":
        table = goldens["seeded"].get(str(seed), {}) if item.seeded else goldens["fixed"]
        want = table.get(item.name)
        if want is not None and want != digest(out):
            problems.append("output digest differs from the golden")
    return "; ".join(problems) or None
