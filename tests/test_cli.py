import hashlib
import json
import os
import pathlib
import random

import pytest
from golden_cli import commands, golden_lines

from gf4msd import bounds, distill
from gf4msd.cli import _sign_thresholds, build_parser, main
from gf4msd.distill import DegenerateMapError
from gf4msd.enumerators import DomainError, Enumerator, MacWilliamsError
from gf4msd.gf4 import Gf4Code, NotM3CodeError, random_maximal_self_orthogonal_code, random_self_orthogonal_code

CODES = pathlib.Path(__file__).resolve().parents[1] / "codes"
FIVE_QUBIT = str(CODES / "five_qubit.g4c")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_five_qubit(capsys, codes_dir):
    code, out = run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"))
    assert code == 0
    report = json.loads(out)
    assert report["A"]["coeffs"] == [1, 0, 0, 0, 15, 0]
    assert report["B"]["coeffs"] == [1, 0, 0, 30, 15, 18]
    assert report["distill"]["nu"] == 2
    assert report["distill"]["leading_coefficient"] == "5"
    assert report["distill"]["threshold_best"]["decimal"].startswith("0.172673")
    q = report["distill"]["quantum_constraints"]
    assert q["success_nonneg"] and q["threshold_ok_plus"] and q["threshold_ok_minus"]


def test_analyze_builds_one_map(capsys, codes_dir, monkeypatch):
    # the noise exponent, both thresholds and the quantum verdict read one
    # map, so the code's logical enumerator is derived once
    calls = []
    real = distill._logical
    monkeypatch.setattr(distill, "_logical", lambda A: calls.append(A) or real(A))
    assert run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"))[0] == 0
    assert len(calls) == 1


def test_best_threshold_of_two_is_the_larger():
    # the integral point (-6, 6, 6) of lattice_search(11): both sign maps
    # have a threshold, and the other sign's is the larger one
    A = Enumerator.from_pairs(11, {0: 1, 2: 15, 4: 120, 6: 372, 8: 495, 10: 21})
    _, nat, other, best = _sign_thresholds(distill.build_map(A))
    assert (nat.status, other.status) == ("ok", "ok")
    assert (nat.decimal(6), other.decimal(6)) == ("0.027719", "0.172673")
    assert best is other


def test_analyze_hexacode_state_report(capsys, codes_dir):
    code, out = run_cli(capsys, "analyze", str(codes_dir / "hexacode.g4c"))
    assert code == 0
    report = json.loads(out)
    assert report["self_dual"]
    assert report["state_check"]["signed_eval_pure"] == "16/3"
    assert report["state_check"]["nonneg_pure"]
    assert report["state_check"]["nonneg_interval"]
    assert "distill" not in report


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.g4c"
    bad.write_text("2 1\nxz\n")
    code = main(["analyze", str(bad)])
    assert code == 2


def test_analyze_not_self_orthogonal(tmp_path, capsys):
    bad = tmp_path / "full.g4c"
    bad.write_text("2 2\n10\n01\n")
    code = main(["analyze", str(bad)])
    assert code == 3


def test_budget_exit_code(codes_dir):
    assert main(["analyze", str(codes_dir / "hexacode.g4c"), "--budget", "1"]) == 4


def test_search_budget_guards_each_shortening(tmp_path, capsys, codes_dir):
    # the shortenings of the [6, 3] codes have dimension 2: 4^2 words fit a
    # budget of 2 and exceed one of 1
    db = str(codes_dir / "selfdual6.g4cdb")
    assert main(["search", db, "--budget", "2"]) == 0
    capsys.readouterr()
    assert main(["search", db, "--budget", "1"]) == 4
    assert capsys.readouterr().err == "budget exceeded: 4^2 codewords exceed budget 4\n"
    # shortening at an all-zero column keeps the parent's dimension 3
    code = random_maximal_self_orthogonal_code(random.Random(7), 7)
    padded = tmp_path / "zerocoord8.g4cdb"
    padded.write_text(Gf4Code(8, tuple(g[:5] + (0,) + g[5:] for g in code.generators)).to_text())
    assert main(["search", str(padded), "--budget", "3"]) == 0
    capsys.readouterr()
    assert main(["search", str(padded), "--budget", "2"]) == 4
    assert capsys.readouterr().err == "budget exceeded: 4^3 codewords exceed budget 16\n"
    # the first shortening over budget names its own dimension
    assert main(["search", str(padded), "--budget", "1"]) == 4
    assert capsys.readouterr().err == "budget exceeded: 4^2 codewords exceed budget 4\n"


def test_search_database(capsys, codes_dir):
    code, out = run_cli(capsys, "search", str(codes_dir / "selfdual6.g4cdb"), "--precision", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,enumerator_hash,threshold,nu,beats_baseline"
    assert len(lines) == 3  # two distinct shortened enumerators
    assert "0.172673" in lines[1]
    assert all(line.endswith("false") for line in lines[1:])


def test_search_empty_database(tmp_path, capsys):
    f = tmp_path / "empty.g4cdb"
    f.write_text("# nothing here\n")
    code, out = run_cli(capsys, "search", str(f))
    assert code == 0
    assert out.strip() == "n,enumerator_hash,threshold,nu,beats_baseline"


def test_bounds_distance_table(capsys):
    code, out = run_cli(capsys, "bounds", "--target", "distance", "--start", "11", "--stop", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bound_classical,bound_quantum,witness"
    assert lines[1].startswith("11,5,3,")
    assert "d0=-6" in lines[1]


def test_bounds_nu_skips_short_lengths(capsys):
    # n = -7, -5, -1 and 1 are +-1 mod 6 but shorter than the family
    code, out = run_cli(capsys, "bounds", "--target", "nu", "--start", "-7", "--stop", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("5,2,2,") and lines[2].startswith("7,1,1,")


@pytest.mark.parametrize(
    "target,start,stop", [("nu", 5, 13), ("distance", 5, 11), ("classical-distance", 6, 12)]
)
def test_bounds_classical_only_builds_no_quantum_row(capsys, monkeypatch, target, start, stop):
    argv = ("bounds", "--target", target, "--start", str(start), "--stop", str(stop))
    code, full = run_cli(capsys, *argv)
    assert code == 0

    def no_quantum_row(*args, **kwargs):
        raise AssertionError("a quantum row was built")

    for name in ("quantum_rows_distill", "quantum_rows_selfdual", "_success_rows"):
        monkeypatch.setattr(bounds, name, no_quantum_row)
    code, out = run_cli(capsys, *argv, "--classical-only")
    assert code == 0
    # the same rows with the quantum column left empty
    expect = [line.split(",") for line in full.splitlines()]
    for row in expect[1:]:
        row[2] = ""
    assert out.splitlines() == [",".join(row) for row in expect]


def test_bounds_nu_classical_only(capsys):
    code, out = run_cli(
        capsys, "bounds", "--target", "nu", "--start", "5", "--stop", "7", "--classical-only"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "5,2,," and lines[2] == "7,1,,"


# sha256 of stdout, recorded before the bound drivers shared one bisection
# helper and one elimination kernel (the longer bounds sweeps: before each
# driver decided both bounds in one call); they pin every witness column
GOLDEN_SHA256 = {
    ("bounds", "--target", "nu", "--start", "5", "--stop", "25"):
        "32d8a8bce206fa7e7bc28152b43266f44bd4433d203bc19915de75feaf2a6e72",
    ("bounds", "--target", "distance", "--start", "5", "--stop", "15"):
        "0b8274b022dac7f9bc7fc23482839ec83f30f1686fafe9c5191d73224a317cb8",
    ("bounds", "--target", "classical-distance", "--start", "6", "--stop", "24"):
        "6e6e797a57e1224be125481dfea370fff170f05816ea050b8b3be3443dcc9e61",
    ("bounds", "--target", "nu", "--start", "29", "--stop", "29"):
        "250334b2ced0ac00d105b1daeeea1c9bee5d67180f860b94e45fb0625981dcaf",
    ("bounds", "--target", "distance", "--start", "17", "--stop", "23"):
        "eb9518cc60f520391983aedf25a4136424f51db3911d04ab173393d5832f808a",
    ("bounds", "--target", "classical-distance", "--start", "26", "--stop", "32"):
        "13007dc3c08b7191888ab1173b9ddef36808d9c468f4f5df98f8ffb97f495608",
    ("lattice", "--n", "7"):
        "b08041e0321f05bcdbb8822fdb01cd96b04cc4a95671c500e91b348cb9b675e1",
    ("lattice", "--n", "7", "--quantum"):
        "a54d896f4ca36943e7fd784deb55ed4e8268182acb30ae61a464940163254952",
    ("lattice", "--n", "12", "--quantum"):
        "684dce9a33db8d9b271e3ecf2cc02483d338901cc54b68bd8eb54aab3b28586f",
    ("lattice", "--n", "16"):
        "b437cde276bc77f791ec9c44413002d03290f709fced1d25c045b0444c6f3c87",
    ("lattice", "--n", "16", "--quantum"):
        "a2e7786b4cc1491d580506129088cb04fa7814868ee186340ef991c7cb6701ae",
    ("bounds", "--target", "nu", "--start", "31", "--stop", "43"):
        "2f3100deffac1dcd658c5b7b39905129ffb6fdb3a23ce9490038f06474c9cbbe",
}


def test_bounds_and_lattice_golden_digests(capsys):
    for argv, digest in GOLDEN_SHA256.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of `verify --trials 10 --seed 7` stdout, recorded before the oracle
# moved to Pauli bitmasks; the report names no code, so the four coincide
VERIFY_SHA256 = "14c9551710176c694c76e3b99a8e287295307b52a9ec504ff9f9d49a3bc0aad5"


def test_verify_golden_digests(capsys, codes_dir):
    for name in ("hexacode", "five_qubit", "five_qubit_product", "two_qubit"):
        code, out = run_cli(capsys, "verify", str(codes_dir / (name + ".g4c")), "--trials", "10", "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256, name


def test_search_rejects_decimal_flag(capsys, codes_dir):
    # search always prints thresholds as decimals; the flag that claimed to switch it is gone
    with pytest.raises(SystemExit) as exc:
        main(["search", str(codes_dir / "selfdual6.g4cdb"), "--decimal"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --decimal" in capsys.readouterr().err


def test_bounds_rejects_quantum_flag(capsys):
    # quantum bounds are always printed; the flag that claimed to add them is gone
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--target", "nu", "--start", "5", "--stop", "5", "--quantum"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quantum" in capsys.readouterr().err


def test_extremal_reports(capsys):
    code, out = run_cli(capsys, "extremal", "--n", "13", "--family", "distill")
    assert code == 0
    rep = json.loads(out)
    assert rep["A"]["coeffs"][2] == -234
    assert not rep["realizable"]
    code, out = run_cli(capsys, "extremal", "--n", "24", "--family", "selfdual")
    rep = json.loads(out)
    assert rep["signed_eval_pure"] == "-1245184/19683"
    assert not rep["nonneg_pure"]
    code, out = run_cli(capsys, "extremal", "--n", "5", "--family", "distill")
    rep = json.loads(out)
    assert rep["A2"] == -30 and 2 in rep["negative_degrees"]


def test_curve_roundtrip(tmp_path, capsys, codes_dir):
    # enumerator JSON emitted by analyze feeds curve without loss
    code, out = run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"))
    blob = json.loads(out)["A"]
    f = tmp_path / "five.json"
    f.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "curve", str(f), "--grid", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,epsilon_out"
    assert lines[1] == "0,0"
    assert lines[9] == "1/2,1/2"
    assert lines[-1].startswith("threshold,0.172673")


def test_curve_rejects_an_empty_grid(tmp_path, capsys):
    # --grid 0 used to end in a ZeroDivisionError traceback
    f = tmp_path / "five.json"
    f.write_text(json.dumps({"n": 5, "coeffs": [1, 0, 0, 0, 15, 0]}))
    for grid in ("0", "-2"):
        assert main(["curve", str(f), "--grid", grid]) == 3
        assert capsys.readouterr().err == "inconsistency: grid must be a positive integer\n"


def test_curve_class_mismatch(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 9, "coeffs": [1] + [0] * 9}))
    assert main(["curve", str(f)]) == 3


# argument checks reachable from CLI input: exit 3 with these messages,
# recorded before the CLI caught only domain errors
DOMAIN_ERRORS = [
    (("extremal", "--n", "9", "--family", "distill"), "n = 9 is not congruent to +-1 mod 6"),
    (("extremal", "--n", "7", "--family", "selfdual"), "need even n >= 6"),
    (("extremal", "--n", "-1", "--family", "distill"), "need odd n >= 5"),
    (("lattice", "--n", "3"), "need odd n >= 5"),
    (("lattice", "--n", "4"), "need even n >= 6"),
    (("lattice", "--n", "9", "--quantum"), "n = 9 is not congruent to +-1 mod 6"),
    (("lattice", "--n", "24"), "lattice enumeration supports dim <= 3"),
    (("lattice", "--n", "1", "--quantum"), "need odd n >= 5"),
    (({"n": 5, "coeffs": [1, 0, -2, 0, 0, 0]},), "enumerator total A(1,1) must be positive"),
    (({"n": 5, "coeffs": [1, 0, 0, 0, 1, 0]},), "logical enumerator must be odd-only"),
    (("extremal", "--n", "1", "--family", "distill"), "need odd n >= 5"),
    (("verify", FIVE_QUBIT, "--trials", "0"), "trials must be a positive integer"),
    (("verify", FIVE_QUBIT, "--trials", "-1"), "trials must be a positive integer"),
    (("analyze", FIVE_QUBIT, "--budget", "-1"), "budget must be a nonnegative integer"),
    (("search", str(CODES / "selfdual6.g4cdb"), "--budget", "-1"), "budget must be a nonnegative integer"),
    (("verify", FIVE_QUBIT, "--budget", "-1"), "budget must be a nonnegative integer"),
    (("analyze", FIVE_QUBIT, "--decimal", "--precision", "-1"), "precision must be a nonnegative integer"),
    (("search", str(CODES / "selfdual6.g4cdb"), "--precision", "-1"), "precision must be a nonnegative integer"),
    (("extremal", "--n", "13", "--family", "distill", "--precision", "-1"), "precision must be a nonnegative integer"),
    (("lattice", "--n", "15", "--quantum"), "n = 15 is not congruent to +-1 mod 6"),
]


@pytest.mark.parametrize("command", ["analyze", "search", "verify", "curve"])
def test_missing_input_file_exit_2(tmp_path, capsys, command):
    missing = tmp_path / "missing.txt"
    assert main([command, str(missing)]) == 2
    assert capsys.readouterr().err == "cannot read %s: No such file or directory\n" % missing
    assert main([command, str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err == "cannot read %s: Is a directory\n" % tmp_path


@pytest.mark.parametrize("argv,message", DOMAIN_ERRORS)
def test_domain_errors_exit_3(tmp_path, capsys, argv, message):
    if isinstance(argv[0], dict):
        f = tmp_path / "enum.json"
        f.write_text(json.dumps(argv[0]))
        argv = ("curve", str(f))
    assert main(list(argv)) == 3
    assert capsys.readouterr().err == "inconsistency: %s\n" % message


def test_other_value_errors_propagate(monkeypatch):
    assert all(issubclass(e, DomainError) for e in (MacWilliamsError, NotM3CodeError, DegenerateMapError))

    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(bounds, "lattice_search", broken)
    with pytest.raises(ValueError, match="a programming error"):
        main(["lattice", "--n", "7"])


@pytest.mark.parametrize("check", ["certify_optimum", "certify_infeasible"])
def test_uncertified_lp_verdict_propagates(monkeypatch, check):
    monkeypatch.setattr(bounds.simplex, check, lambda *args: False)
    with pytest.raises(RuntimeError, match="certificate"):
        main(["bounds", "--target", "distance", "--start", "11", "--stop", "11"])


def test_analyze_precision_zero_renders_integers(capsys, codes_dir):
    code, out = run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"), "--decimal", "--precision", "0")
    assert code == 0
    rep = json.loads(out)["distill"]
    assert rep["leading_coefficient"] == "5"
    assert rep["threshold_natural_sign"]["decimal"] == "0"
    assert rep["threshold_best"]["decimal"] == "0"


def test_search_precision_zero_renders_integers(capsys, codes_dir):
    code, out = run_cli(capsys, "search", str(codes_dir / "selfdual6.g4cdb"), "--precision", "0")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "0"


@pytest.mark.parametrize("n", [7, 11, 13])
def test_verify_random_maximal_codes_exactly(tmp_path, capsys, n):
    code = random_maximal_self_orthogonal_code(random.Random(n), n)
    path = tmp_path / ("maximal%d.g4c" % n)
    path.write_text(code.to_text())
    rc, out = run_cli(capsys, "verify", str(path), "--trials", "4", "--seed", "3")
    assert rc == 0
    rep = json.loads(out)
    assert rep["mode"] == "exact" and rep["projector_valid"] and rep["all_match"]
    assert len(rep["trials"]) == 4 and all(t["match"] for t in rep["trials"])


def test_verify_reach_is_limited_only_by_the_budget(tmp_path, capsys):
    path = tmp_path / "maximal13.g4c"
    path.write_text(random_maximal_self_orthogonal_code(random.Random(13), 13).to_text())
    assert main(["verify", str(path), "--budget", "5"]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_import_leaves_numpy_unloaded():
    import subprocess
    import sys

    probe = "import sys, gf4msd.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(CODES.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"


def test_verify_subcommand(capsys, codes_dir):
    code, out = run_cli(capsys, "verify", str(codes_dir / "five_qubit.g4c"), "--trials", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_match"] and rep["mode"] == "exact"


def test_lattice_subcommand(capsys):
    code, out = run_cli(capsys, "lattice", "--n", "7", "--quantum")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count,6"


# sha256 of `lattice --n 11 --quantum` stdout (79 points), recorded before
# the quantum constraints were decided over Q in rbar^2
LATTICE_11_QUANTUM_SHA256 = "99ab038a6506971a5c1cf1c189ef6adbc657b140afe7b54a3d17bfe77d882565"


def test_lattice_n11_quantum_golden_digest(capsys):
    assert _digest(capsys, "lattice", "--n", "11", "--quantum") == LATTICE_11_QUANTUM_SHA256


# sha256 of `lattice --n 14 --quantum` stdout (2139 points), recorded before
# the Sturm chains became primitive integer polynomials
LATTICE_14_QUANTUM_SHA256 = "22e50b1e0a6fb2d50b570e83fbdf44085ec438a4c7c308b637ec231ea3bde9b7"


def test_lattice_n14_quantum_golden_digest(capsys):
    assert _digest(capsys, "lattice", "--n", "14", "--quantum") == LATTICE_14_QUANTUM_SHA256


def test_deterministic_output(capsys, codes_dir):
    _, out1 = run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"))
    _, out2 = run_cli(capsys, "analyze", str(codes_dir / "five_qubit.g4c"))
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys, codes_dir):
    target = tmp_path / "report.json"
    code = main(["analyze", str(codes_dir / "five_qubit.g4c"), "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["n"] == 5


def test_main_calls_share_one_parser_and_no_flags(tmp_path, capsys, codes_dir):
    # main builds its parser once per process; consecutive calls, each flag
    # given and then left out, print what a run on a fresh parser prints
    out_file = tmp_path / "report.json"
    five = str(codes_dir / "five_qubit.g4c")
    sequence = [
        ["bounds", "--target", "nu", "--start", "5", "--stop", "7", "--classical-only"],
        ["bounds", "--target", "nu", "--start", "5", "--stop", "7"],
        ["lattice", "--n", "7", "--quantum"],
        ["lattice", "--n", "7"],
        ["extremal", "--n", "12", "--family", "selfdual", "--decimal"],
        ["extremal", "--n", "12", "--family", "selfdual"],
        ["analyze", five, "--out", str(out_file)],
        ["analyze", five],
    ]

    def outcome(code):
        written = out_file.read_text() if out_file.exists() else None
        if written is not None:
            out_file.unlink()
        return code, capsys.readouterr().out, written

    got = [outcome(main(argv)) for argv in sequence]
    fresh = []
    for argv in sequence:
        args = build_parser().parse_args(argv)
        fresh.append(outcome(args.func(args)))
    assert got == fresh
    assert got[6][1] == "" and got[6][2] == got[7][1]
    assert got[0][1] != got[1][1] and got[2][1] != got[3][1] and got[4][1] != got[5][1]


# sha256 of `analyze` stdout on the shipped codes and on seeded maximal codes
# (random.Random(n)), and of `search` on the shipped database, recorded
# before codeword enumeration became one packed stream; n = 23 and the
# seeded [20, 10] search were recorded before weight enumerators were
# tallied in numpy blocks
ANALYZE_SHA256 = {
    "five_qubit": "0d24975ede7a8947f4e9f794ae5c8a52f450a94e776f02d4e0f0120025d4c02c",
    "five_qubit_product": "d933cb8802fe581d7f01b4ca657ce12d9cde945ec02cf35bae6492f6c6d63068",
    "hexacode": "5da6ea6af1f63d439b24e10c65347cfb891265a03af3e88366bab2a0e2132c86",
    "two_qubit": "a9c2ac3c21cc9556899d1f5d3d181a0d86298d7d7dbe746ed998730bf3053d29",
}
SEEDED_ANALYZE_SHA256 = {
    13: "8e9e12dd2fe48212b61ee39131e2c8e68ed48728c3406e4612d97503b07a5eb1",
    17: "3beb0f05679a3a799747ddd9d765b9f3102041d7edc2167066361e798c945118",
    19: "ac9528eb78e9c31b0a038b298dedd2a463369caf5975a4635155595c649b8209",
    23: "116c2a493ba0cdfa4a908d79106eff9e006007fce403ce0aef15ad34c72600c9",
}
# sha256 of the stdout digests, joined in order, of `extremal --family
# distill` at the 18 benchmark lengths and `--family selfdual` at n = 12,
# 24, ..., 96, recorded before both length classes shared one cancellation
# system
EXTREMAL_LENGTHS = {
    "distill": (5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47, 53, 59, 71),
    "selfdual": tuple(range(12, 97, 12)),
}
EXTREMAL_SHA256 = {
    "distill": "588bf0ae4ac5c36d5b0f4a72fe6ee562fa846f83c7c54bac7d6298698f2a1972",
    "selfdual": "76ecb179163b9b2f157764fe326f034bd829008b5e3e0f5b8aa86c0964b3ba38",
}
SEARCH_SHA256 = "a3a034acaf6fda1072e6ded2f8098fb0eb374abe313d72fabdfff3d1b062d5fe"
# a database of one self-dual [20, 10] code grown from random.Random(20)
SEEDED_SEARCH_SHA256 = "466ed006c9bb567540e26963e30deb43c9441611beaee7e39689f1f94438f2bb"


def _digest(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


def test_analyze_golden_digests(capsys, codes_dir):
    for name, digest in ANALYZE_SHA256.items():
        assert _digest(capsys, "analyze", str(codes_dir / (name + ".g4c"))) == digest, name


def test_analyze_seeded_maximal_golden_digests(tmp_path, capsys):
    for n, digest in SEEDED_ANALYZE_SHA256.items():
        code = random_maximal_self_orthogonal_code(random.Random(n), n)
        path = tmp_path / ("seed%d.g4c" % n)
        path.write_text(code.to_text())
        assert _digest(capsys, "analyze", str(path)) == digest, n


def test_extremal_golden_digests(capsys):
    for family, lengths in EXTREMAL_LENGTHS.items():
        joined = "".join(_digest(capsys, "extremal", "--n", str(n), "--family", family) for n in lengths)
        assert hashlib.sha256(joined.encode()).hexdigest() == EXTREMAL_SHA256[family], family


def test_golden_cli_commands_parse(tmp_path):
    # every command of tests/golden_cli.py is one the parser accepts
    argvs = commands(str(tmp_path))
    assert len(argvs) == 87
    for argv in argvs:
        build_parser().parse_args(argv)


def test_golden_cli_set_unchanged():
    # every line of tests/golden_cli.py against its recorded output
    expected = (pathlib.Path(__file__).parent / "golden_cli.txt").read_text().splitlines()
    got = list(golden_lines())
    assert len(got) == len(expected) == 87
    for line, want in zip(got, expected):
        assert line == want


def test_search_golden_digest(capsys, codes_dir):
    assert _digest(capsys, "search", str(codes_dir / "selfdual6.g4cdb")) == SEARCH_SHA256


def test_search_seeded_selfdual_golden_digest(tmp_path, capsys):
    rng = random.Random(20)
    code = random_self_orthogonal_code(rng, 20, target_k=10)
    while code.k != 10:
        code = random_self_orthogonal_code(rng, 20, target_k=10)
    path = tmp_path / "selfdual20.g4cdb"
    path.write_text(code.to_text())
    assert _digest(capsys, "search", str(path)) == SEEDED_SEARCH_SHA256


def test_curve_malformed_json_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    for text in ("{}", '{"n": 5}', "[1, 2]", '{"n": 5, "coeffs": 3}', '{"n": 1, "coeffs": [1]}', "not json"):
        f.write_text(text)
        assert main(["curve", str(f)]) == 2, text
        assert capsys.readouterr().err.startswith("parse error:"), text
