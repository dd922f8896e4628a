"""Command-line interface.

Subcommands: analyze, search, bounds, extremal, curve, verify, lattice.
Every subcommand takes --out.  Numeric output defaults to exact rational
strings; analyze, extremal and curve take --decimal and --precision
digits (extremal --family distill has no rational field, so there they
change nothing), search always prints thresholds as decimals of --precision
digits, and analyze, search and verify, which enumerate codewords, take
--budget.  bounds makes one driver call per admissible length, which
builds the family once and decides both columns, the quantum search
starting at the classical level; --classical-only skips the quantum
search.  Exit codes: 0 success, 2 parse error or unreadable input file,
3 domain error (a mathematical inconsistency), 4 enumeration budget
exceeded; any other error propagates.  Each length domain has one
message: "n = N is not congruent to +-1 mod 6" for the distillation maps,
"need odd n >= 5" for the odd family and "need even n >= 6" for the
self-dual family; extremal --family distill needs the first two and
checks the odd family first.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import bounds, distill, gf4, invariants, oracle
from .enumerators import DomainError, Enumerator, macwilliams, signed_eval
from .enumerators import is_map_length, is_odd_family_length, is_selfdual_length
from .exact import Q, decimal_str, q_to_str

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_BUDGET = 4


class _Output:
    def __init__(self, args):
        self.decimal = getattr(args, "decimal", False)
        self.precision = getattr(args, "precision", 12)
        if self.precision < 0:
            raise DomainError("precision must be a nonnegative integer")
        self.path = getattr(args, "out", None)

    def num(self, x):
        if x is None:
            return ""
        if self.decimal:
            return decimal_str(Q(x), self.precision)
        return q_to_str(x)

    def emit(self, text):
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


class InputError(Exception):
    """An input file that cannot be read."""


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc)) from None


def _load_code(path):
    return gf4.parse_code(_read(path))


def _budget(args) -> int:
    """The codeword budget 4^k of --budget k."""
    if args.budget < 0:
        raise DomainError("budget must be a nonnegative integer")
    return 4**args.budget


def _threshold_blob(rep: distill.ThresholdReport, out: _Output):
    if rep.status != "ok":
        return {"status": rep.status}
    return {
        "status": "ok",
        "interval": [q_to_str(rep.low), q_to_str(rep.high)],
        "decimal": rep.decimal(out.precision),
        "stable": rep.stable,
    }


def _analyze_report(code: gf4.Gf4Code, budget: int, out: _Output):
    if not gf4.is_self_orthogonal(code):
        raise gf4.NotM3CodeError("code is not Hermitian self-orthogonal")
    A = gf4.weight_enumerator(code, budget)
    report = {
        "n": code.n,
        "k_gf4": code.k,
        "logical_qubits": code.n - 2 * code.k,
        "self_dual": gf4.is_self_dual(code),
        "A": json.loads(A.to_json()),
    }
    B = macwilliams(A)
    report["B"] = json.loads(B.to_json())
    C = B - A
    report["C"] = json.loads(C.to_json())
    if report["self_dual"]:
        val = signed_eval(A, Q(1, 3))
        report["state_check"] = {
            "signed_eval_pure": out.num(val),
            "nonneg_pure": val >= 0,
            "nonneg_interval": distill.check_success_nonneg(A)[0],
        }
    if is_map_length(code.n) and code.k == (code.n - 1) // 2:
        dmap = distill.build_map(A)
        ne, thr_nat, thr_other, best = _sign_thresholds(dmap)
        verdict = distill.quantum_verdict(dmap)
        report["distill"] = {
            "class": str(code.n % 6),
            "nu": ne.nu,
            "nu_status": ne.status,
            "leading_coefficient": out.num(ne.leading) if ne.leading is not None else None,
            "threshold_natural_sign": _threshold_blob(thr_nat, out),
            "threshold_other_sign": _threshold_blob(thr_other, out),
            "threshold_best": _threshold_blob(best, out),
            "quantum_constraints": {
                "success_nonneg": verdict.success_nonneg,
                "threshold_ok_plus": verdict.threshold_ok_plus,
                "threshold_ok_minus": verdict.threshold_ok_minus,
                "success_witness": out.num(verdict.success_witness)
                if verdict.success_witness is not None
                else None,
            },
        }
    return report


def _sign_thresholds(dmap):
    """Noise exponent of the natural-sign map dmap, the thresholds of both
    sign maps, and the better of the two."""
    nat = distill.threshold(dmap)
    other = distill.threshold(dmap.other_sign())
    if nat.status != "ok":
        best = other
    elif other.status != "ok":
        best = nat
    else:
        best = nat if nat.low >= other.low else other
    return distill.noise_exponent(dmap), nat, other, best


def cmd_analyze(args) -> int:
    out = _Output(args)
    budget = _budget(args)
    code = _load_code(args.file)
    report = _analyze_report(code, budget, out)
    out.emit(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


@functools.cache
def _baseline_interval():
    """Threshold of the 5-qubit reference map, computed on the first
    search of a process and reused."""
    return distill.threshold(distill.build_map(Enumerator.from_pairs(5, {0: 1, 4: 15})))


def cmd_search(args) -> int:
    out = _Output(args)
    budget = _budget(args)
    codes = gf4.parse_database(_read(args.file))
    baseline = _baseline_interval()
    seen = set()
    rows = []
    for code in codes:
        for A in gf4.shortened_enumerators(code, budget):
            key = A.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            k = (A.total().bit_length() - 1) // 2  # a shortening has 4^k words
            entry = {"n": A.n, "enumerator": key}
            if is_map_length(A.n) and k == (A.n - 1) // 2 and A.is_even_only():
                ne, _, _, best = _sign_thresholds(distill.build_map(A))
                entry["nu"] = ne.nu
                entry["threshold"] = best
            rows.append(entry)

    def sort_key(e):
        rep = e.get("threshold")
        if rep is None or rep.status != "ok":
            return (1, Q(0))
        return (0, -rep.low)

    rows.sort(key=sort_key)
    lines = ["n,enumerator_hash,threshold,nu,beats_baseline"]
    for e in rows:
        rep = e.get("threshold")
        if rep is not None and rep.status == "ok":
            dec = rep.decimal(out.precision)
            beats = rep.low > baseline.high
        else:
            dec, beats = "", False
        h = hashlib.sha256(e["enumerator"].encode()).hexdigest()[:16]
        nu = e.get("nu")
        lines.append("%d,%s,%s,%s,%s" % (e["n"], h, dec, "" if nu is None else nu, str(beats).lower()))
    out.emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bounds(args) -> int:
    out = _Output(args)
    driver, admissible = {
        "nu": (bounds.max_nu_bound, bounds.is_nu_length),
        "distance": (bounds.max_distance_bound, is_odd_family_length),
        "classical-distance": (bounds.classical_distance_bound_selfdual, is_selfdual_length),
    }[args.target]
    lines = ["n,bound_classical,bound_quantum,witness"]
    for n in range(args.start, args.stop + 1):
        if not admissible(n):
            continue
        classical, quantum, witness, fam = driver(n, quantum=not args.classical_only)
        wit_str = ";".join("%s=%s" % (name, q_to_str(v)) for name, v in zip(fam.names, witness))
        lines.append("%d,%s,%s,%s" % (n, classical, "" if quantum is None else quantum, wit_str))
    out.emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_extremal(args) -> int:
    out = _Output(args)
    n = args.n
    if args.family == "distill":
        A = invariants.extremal_distillation_enumerator(n)
        report = {
            "n": n,
            "family": "distill",
            "A": json.loads(A.to_json()),
            "A2": invariants.extremal_A2(n),
            "negative_degrees": [j for j, a in enumerate(A.coeffs) if a < 0],
            "realizable": all(a >= 0 for a in A.coeffs),
        }
    else:
        A = invariants.selfdual_extremal_enumerator(n)
        val = signed_eval(A, Q(1, 3))
        report = {
            "n": n,
            "family": "selfdual",
            "A": json.loads(A.to_json()),
            "signed_eval_pure": out.num(val),
            "nonneg_pure": val >= 0,
            "negative_degrees": [j for j, a in enumerate(A.coeffs) if a < 0],
        }
    out.emit(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_curve(args) -> int:
    out = _Output(args)
    A = Enumerator.from_json(_read(args.file))
    dmap = distill.build_map(A)
    rep = distill.threshold(dmap)
    lines = ["epsilon,epsilon_out"]
    for eps, val in distill.curve_rows(dmap, args.grid):
        lines.append("%s,%s" % (out.num(eps), out.num(val) if val is not None else ""))
    if rep.status == "ok":
        lines.append("threshold,%s" % rep.decimal(out.precision))
    else:
        lines.append("threshold,%s" % rep.status)
    out.emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    out = _Output(args)
    import random

    budget = _budget(args)
    if args.trials < 1:
        raise DomainError("trials must be a positive integer")
    code = _load_code(args.file)
    rng = random.Random(args.seed)
    A = gf4.weight_enumerator(code, budget)
    k = code.n - 2 * code.k
    proj = oracle.build_projector(gf4.rall_signs(code, budget), code.n, k)
    checks = {"projector_valid": True, "mode": proj.mode}
    trials = []
    for _ in range(args.trials):
        rbar = Q(rng.randint(-5, 5), rng.randint(9, 18))
        eta = oracle.projection_prob(proj, oracle.t_direction(rbar), code.n)
        ok = eta == signed_eval(A, rbar * rbar) / 2 ** (code.n - k)
        trials.append({"rbar2": q_to_str(rbar * rbar), "match": ok})
        if not ok:
            checks["projector_valid"] = False
    checks["trials"] = trials
    checks["all_match"] = all(t["match"] for t in trials)
    out.emit(json.dumps(checks, indent=2) + "\n")
    return EXIT_OK if checks["all_match"] else EXIT_MATH


def cmd_lattice(args) -> int:
    out = _Output(args)
    count, points, fam = bounds.lattice_search(args.n, use_quantum=args.quantum)
    lines = ["count,%d" % count, ",".join(fam.names)]
    for p in points:
        lines.append(",".join(map(str, p)))
    out.emit("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gf4msd", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, decimals=False, budget=False):
        p.add_argument("--out", help="write output to this path instead of stdout")
        if decimals:
            p.add_argument("--decimal", action="store_true", help="render decimals")
            p.add_argument("--precision", type=int, default=12, help="decimal digits")
        if budget:
            p.add_argument("--budget", type=int, default=18, help="max generator count k (4^k words)")

    p = sub.add_parser("analyze", help="full report for one generator file")
    p.add_argument("file")
    common(p, decimals=True, budget=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "search",
        help="shorten every code in a database at each coordinate and rank thresholds; "
        "every shortening of a code is tallied from one pass over the parent's orbit words",
    )
    p.add_argument("file")
    p.add_argument("--precision", type=int, default=12, help="threshold decimal digits")
    common(p, budget=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="bound sweeps over a range of lengths")
    p.add_argument("--target", choices=("nu", "distance", "classical-distance"), required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)
    p.add_argument("--classical-only", action="store_true", help="skip the quantum search")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("extremal", help="extremal enumerator of a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("distill", "selfdual"), required=True)
    common(p, decimals=True)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("curve", help="distillation curve CSV from an enumerator JSON file")
    p.add_argument("file")
    common(p, decimals=True)
    p.add_argument("--grid", type=int, default=512, help="curve grid points")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="exact stabilizer-group oracle cross-check of a generator file")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice", help="count integral enumerators for one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quantum", action="store_true")
    common(p)
    p.set_defaults(func=cmd_lattice)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call of a process and reused:
    parse_args reads the parser and changes nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except gf4.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except gf4.BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except DomainError as exc:
        print("inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
