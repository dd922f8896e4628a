"""Acceptance criteria, one test per criterion with a printed verdict.

Each test prints "criterion N: PASS" after its assertions; pytest -v shows
the authoritative outcome.  Two criteria carry their own proof of the
expected value, because earlier targets for them contradicted the
documented definitions:

- 05b: the n=12 classical lattice count is 1885 (not 2919).  The test
  recounts the self-dual family by brute force in coefficient space, with
  its own integer expansion of f^6, f^3 g and g^2 and a finite box derived
  from pairs of nonnegativity rows, and requires the same point set as
  lattice_search.
- 08b: the fake n=11 enumerator passes success nonnegativity (it is
  rejected by the threshold constraint, criterion 8a).  The test proves
  N > 0 by an explicit inequality and by a checked degree-12 Bernstein
  certificate, neither of which uses Sturm sequences, and asserts the
  success constraint on a genuine violator: a classical-feasible n=11
  enumerator that passes the threshold test.
"""

import hashlib
import math
import random
import time
from fractions import Fraction as Q

from corpus import family_enumerator_at, random_codes, random_family_params, sampled_negative_point, verdict_all_ok

from gf4msd import bounds, simplex
from gf4msd.bounds import lattice_search, lp_feasible, max_distance_bound, max_nu_bound
from gf4msd.distill import (
    bernstein_certificate,
    build_map,
    check_success_nonneg,
    check_threshold_constraint,
    noise_exponent,
    quantum_verdict,
    threshold,
)
from gf4msd.enumerators import Enumerator, macwilliams, signed_eval
from gf4msd.exact import poly_eval
from gf4msd.gf4 import parse_code, rall_signs, weight_enumerator
from gf4msd.invariants import (
    expand_family,
    expand_selfdual,
    extremal_A2,
    extremal_distillation_enumerator,
    h_series,
    selfdual_extremal_params,
)
from gf4msd.oracle import build_projector, logical_component, projection_prob, t_direction
from gf4msd.gf4 import Gf4Code, SignedPauli

FAKE_11 = Enumerator.from_pairs(11, {0: 1, 2: 11, 4: 138, 6: 22, 8: 645, 10: 207})

PUTATIVE = {
    19: Enumerator.from_pairs(
        19, {0: 1, 6: 36, 8: 1194, 10: 9108, 12: 53736, 14: 103404, 16: 80877, 18: 13788}
    ),
    23: Enumerator.from_pairs(
        23,
        {0: 1, 6: 90, 8: 1314, 10: 348, 12: 107280, 14: 434880, 16: 1282869,
         18: 1543428, 20: 738072, 22: 86022},
    ),
    25: Enumerator.from_pairs(
        25,
        {0: 1, 4: 39, 6: 1155, 8: 8679, 10: 8796, 12: 112482, 14: 487338,
         16: 2805963, 18: 5398860, 20: 5548959, 22: 2268459, 24: 136485},
    ),
}

THEOREM_NU = {5: 2, 7: 1, 11: 2, 13: 1, 17: 5, 19: 4, 23: 5, 25: 7, 29: 8,
              31: 10, 35: 11, 37: 13, 41: 14, 43: 16, 47: 17, 49: 19}

TABLE_SELFDUAL = {
    12: Q(-256, 81),
    24: Q(-1245184, 19683),
    36: Q(-12146704384, 14348907),
    48: Q(-121921236631552, 10460353203),
    60: Q(-1264863882942349312, 7625597484987),
    72: Q(-4471893160093900865536, 1853020188851841),
    84: Q(-433405775278763760286695424, 12157665459056928801),
    96: Q(-1572944082477201192612565876736, 2954312706550833698643),
}

EXTREMAL_ROWS = {
    5: {0: 1, 2: -30, 4: 45},
    7: {0: 1, 2: -63, 4: 315, 6: -189},
    11: {0: 1, 2: -165, 4: 2970, 6: -12474, 8: 13365, 10: -2673},
    13: {0: 1, 2: -234, 4: 6435, 6: -46332, 8: 104247, 10: -69498, 12: 9477},
    17: {0: 1, 2: -408, 4: 21420, 6: -334152, 8: 1969110, 10: -4725864,
         12: 4511052, 14: -1487160, 16: 111537},
    19: {0: 1, 2: -513, 4: 34884, 6: -732564, 8: 6122142, 10: -22447854,
         12: 36732852, 14: -25430436, 16: 6357609, 18: -373977},
}


def _contains_decimal(low, high, value, tol):
    return low <= Q(value) + tol and high >= Q(value) - tol


def test_criterion_01_five_qubit_pipeline(codes_dir):
    t0 = time.time()
    code = parse_code((codes_dir / "five_qubit.g4c").read_text())
    A = weight_enumerator(code)
    assert A.coeffs == (1, 0, 0, 0, 15, 0)
    B = macwilliams(A, 16)
    assert B.coeffs == (1, 0, 0, 30, 15, 18)
    dmap = build_map(A)
    num, den = dmap.canonical_fraction()
    assert num == (0, 0, 5, -15, 15, -4)
    assert den == (1, -5, 15, -20, 10)
    ne = noise_exponent(dmap)
    assert ne.nu == 2 and ne.leading == 5
    rep = threshold(dmap)
    assert rep.status == "ok" and rep.high - rep.low <= Q(1, 10**12)
    assert _contains_decimal(rep.low, rep.high, Q(172673, 10**6), Q(1, 10**6))
    elapsed = time.time() - t0
    assert elapsed < 1.0, elapsed
    print("criterion 1: PASS (%.2fs)" % elapsed)


def test_criterion_02_extremal_distillation_rows():
    t0 = time.time()
    for n, row in EXTREMAL_ROWS.items():
        A = extremal_distillation_enumerator(n)
        assert A == Enumerator.from_pairs(n, row)
        m = (n - (n % 6)) // 6
        expect = -30 - 81 * m - 54 * m * m if n % 6 == 5 else -9 * m - 54 * m * m
        assert A.coeffs[2] == extremal_A2(n) == expect
        assert A.coeffs[2] < 0
    elapsed = time.time() - t0
    assert elapsed < 1.0, elapsed
    print("criterion 2: PASS (%.2fs)" % elapsed)


def test_criterion_03_selfdual_negativity_table():
    t0 = time.time()
    for n, expect in TABLE_SELFDUAL.items():
        A = expand_selfdual(selfdual_extremal_params(n))
        val = signed_eval(A, Q(1, 3))
        assert val == expect and val < 0
    elapsed = time.time() - t0
    assert elapsed < 5.0, elapsed
    print("criterion 3: PASS (%.2fs)" % elapsed)


def test_criterion_04_h_series():
    hs = h_series(8).coeffs
    assert hs[:6] == (1, -1, 2, -5, 14, -42)
    from gf4msd.exact import catalan

    assert hs == tuple((-1) ** j * catalan(j) for j in range(9))
    print("criterion 4: PASS")


def test_criterion_05a_lattice_counts_n7():
    t0 = time.time()
    classical, _, _ = lattice_search(7, use_quantum=False)
    quantum, _, _ = lattice_search(7, use_quantum=True)
    assert (classical, quantum) == (18, 6)
    print("criterion 5a: PASS (%.1fs)" % (time.time() - t0))


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _selfdual12_recount():
    """Classical n=12 self-dual enumerators A = f^6 + c1 f^3 g + c2 g^2 with
    every A_j (j >= 1) a nonnegative integer divisible by 3, counted by brute
    force over (A2, A4) without LP or lattice moduli.  Returns {(c1, c2)}."""
    f, g = [1, 0, 3], [0, 0, 1, 0, -2, 0, 1]  # x = 1, index = y-degree
    f3 = _conv(_conv(f, f), f)
    f6, f3g, g2 = _conv(f3, f3), _conv(f3, g), _conv(g, g)
    # unitriangular in (c1, c2): A2 = 18 + c1 and A4 = 135 + 7 c1 + c2, so
    # (A2, A4) and (c1, c2) determine each other over the integers
    assert (f6[2], f3g[2], g2[2]) == (18, 1, 0)
    assert (f6[4], f3g[4], g2[4]) == (135, 7, 1)

    def coeffs(a2, a4):
        c1 = a2 - 18
        c2 = a4 - 135 - 7 * c1
        return c1, c2, [x + c1 * y + c2 * z for x, y, z in zip(f6, f3g, g2)]

    # rows as affine forms in (A2, A4), read off at three points:
    #   A6 = 396 + 38 A2 - 4 A4     A8 = 1485 - 60 A2 + 6 A4
    #   A10 = 1980 + A2 - 4 A4      A12 = 234 + 20 A2 + A4
    base, e2, e4 = coeffs(0, 0)[2], coeffs(1, 0)[2], coeffs(0, 1)[2]
    forms = {j: (base[j], e2[j] - base[j], e4[j] - base[j]) for j in range(6, 13, 2)}
    assert forms == {6: (396, 38, -4), 8: (1485, -60, 6), 10: (1980, 1, -4), 12: (234, 20, 1)}
    assert all(base[j] == e2[j] == e4[j] == 0 for j in range(1, 13, 2))
    # finite box from pairs of rows: A2 >= 0 and A4 >= 0 are rows;
    #   2 A8 + 3 A10 = 8910 - 117 A2 >= 0   gives A2 <= 76;
    #   A8 + 60 A10 = 120285 - 234 A4 >= 0  gives A4 <= 514.
    # Divisibility by 3 of A2 and A4 themselves restricts both to 3Z.
    found = set()
    for a2 in range(0, 77, 3):
        for a4 in range(0, 515, 3):
            c1, c2, A = coeffs(a2, a4)
            if all(x >= 0 and x % 3 == 0 for x in A[1:]):
                found.add((c1, c2))
    return found


QUANTUM12_SHA256 = "524248686b2b5d2d7844b326e7e562a5bfcc9cd70ec039c25f6ca8ace26e6e3b"


def test_criterion_05b_lattice_counts_n12():
    t0 = time.time()
    classical, points, _ = lattice_search(12, use_quantum=False)
    quantum, qpoints, _ = lattice_search(12, use_quantum=True)
    elapsed = time.time() - t0
    assert elapsed < 60.0, elapsed
    assert quantum == 570
    # the 570 points themselves, recorded before root isolation moved to
    # one Sturm chain per polynomial
    text = "\n".join(",".join(str(v) for v in p) for p in qpoints)
    assert hashlib.sha256(text.encode()).hexdigest() == QUANTUM12_SHA256
    print("criterion 5b (quantum count): PASS (%.1fs)" % elapsed)
    # 1885, not the formerly reported 2919: an independent brute-force
    # recount in coefficient space finds the same 1885 points
    recount = _selfdual12_recount()
    assert len(recount) == 1885
    assert set(points) == recount
    assert classical == 1885, "classical count came out %d" % classical
    print("criterion 5b (classical count): PASS")


def test_criterion_06_bound_sweeps(monkeypatch):
    verdicts = []
    passed = []  # one entry per certificate check that returned True

    def recording(func):
        def wrapped(*args, **kwargs):
            verdicts.append(func(*args, **kwargs))
            return verdicts[-1]

        return wrapped

    def counting(check):
        def wrapped(*args):
            ok = check(*args)
            if ok is True:
                passed.append(check.__name__)
            return ok

        return wrapped

    # a level whose equality rows alone are inconsistent gets its verdict
    # from _equalities_infeasible, every other one from lp_feasible
    monkeypatch.setattr(bounds, "lp_feasible", recording(lp_feasible))
    monkeypatch.setattr(bounds, "_equalities_infeasible", recording(bounds._equalities_infeasible))
    for name in ("certify_optimum", "certify_infeasible", "certify_ray"):
        monkeypatch.setattr(simplex, name, counting(getattr(simplex, name)))
    t0 = time.time()
    for n, expect in THEOREM_NU.items():
        assert max_nu_bound(n)[:2] == (expect, expect), n
    assert max_distance_bound(11)[:2] == (5, 3)
    assert max_distance_bound(23)[1] == 7
    elapsed = time.time() - t0
    assert elapsed < 600.0, elapsed
    # every bound rests on certified LP verdicts, the infeasible ones that
    # set each upper limit included: one passed check per verdict
    assert {v.status for v in verdicts} == {"feasible", "infeasible"}
    assert len(passed) == len(verdicts)
    print("criterion 6: PASS (%.1fs)" % elapsed)


def test_criterion_07_oracle_equivalence(codes_dir):
    rng = random.Random(113)
    cases = [
        (Gf4Code(2, ((1, 1),)), 0),
        (parse_code((codes_dir / "five_qubit.g4c").read_text()), 1),
        (parse_code((codes_dir / "five_qubit_product.g4c").read_text()), 1),
        (parse_code((codes_dir / "hexacode.g4c").read_text()), 0),
    ]
    for code, k in cases:
        A = weight_enumerator(code)
        proj = build_projector(rall_signs(code), code.n, k)
        for _ in range(20):
            rbar = Q(rng.randint(-5, 5), rng.randint(9, 18))
            eta = projection_prob(proj, t_direction(rbar), code.n)
            assert eta == signed_eval(A, rbar * rbar) / 2 ** (code.n - k)
    # eps_out agreement for the 5-qubit code at 20 random eps
    five = cases[1][0]
    A = weight_enumerator(five)
    dmap = build_map(A)
    proj = build_projector(rall_signs(five), 5, 1)
    logical = SignedPauli.from_word((2,) * 5, -1)
    sqrt3 = math.sqrt(3)
    for _ in range(20):
        eps = rng.uniform(0.02, 0.48)
        rbar = Q((1 - 2 * eps) / sqrt3).limit_denominator(10**9)
        eta = float(projection_prob(proj, t_direction(rbar), 5))
        eta_l = float(logical_component(proj, logical, t_direction(rbar), 5))
        eps_in = Q((1 - float(rbar) * sqrt3) / 2).limit_denominator(10**12)
        assert abs(0.5 * (1 - sqrt3 * eta_l / eta) - float(dmap.eps_out(eps_in))) < 1e-10
    print("criterion 7: PASS")


def test_criterion_08a_fake_enumerator_threshold_violation():
    B = macwilliams(FAKE_11, 1024)
    assert all(c >= 0 for c in B.coeffs)
    thr = check_threshold_constraint(build_map(FAKE_11))
    ok_overall = thr[-1][0] and thr[1][0]
    assert not ok_overall
    failed = [lam for lam in (-1, 1) if not thr[lam][0]]
    for lam in failed:
        assert thr[lam][1] is not None and thr[lam][1] < 0
    print("criterion 8a (threshold constraint): PASS")


def test_criterion_08b_fake_enumerator_success_violation():
    # FAKE_11 passes success nonnegativity; criterion 8a rejects it by the
    # threshold constraint instead.  Proof without Sturm sequences: with
    # t = (1 - 2 eps)^2 / 3 in [0, 1/3] for eps in [0, 1],
    #   N = 1 - 11 t + 138 t^2 - 22 t^3 + 645 t^4 - 207 t^5
    #     = 1 - 11 t + t^2 (138 - 22 t) + t^4 (645 - 207 t)
    #    >= 1 - 11 t + 130 t^2 > 0   (discriminant 121 - 520 < 0).
    ok, witness = check_success_nonneg(FAKE_11)
    assert (ok, witness) == (True, None)
    n_poly = build_map(FAKE_11).n_poly
    n_of_t = [(-1) ** j * FAKE_11.coeffs[2 * j] for j in range(6)]
    assert n_of_t == [1, -11, 138, -22, 645, -207]
    # N(eps) is n_of_t(t(eps)): both have degree <= 10 and agree at 11 points
    assert len(n_poly) <= 11
    for i in range(11):
        eps = Q(i, 10)
        t = (1 - 2 * eps) ** 2 / 3
        assert poly_eval(n_poly, eps) == sum(c * t**j for j, c in enumerate(n_of_t))
    t_max = Q(1, 3)
    assert 138 - 22 * t_max >= 130 and 645 - 207 * t_max > 0 and 11**2 < 4 * 130
    # second decision procedure: nonnegative degree-12 Bernstein coefficients,
    # checked here as a representation of N at 13 points
    cert = bernstein_certificate(n_poly, 12)
    assert cert is not None and len(cert) == 13 and all(b >= 0 for b in cert)
    for i in range(13):
        eps = Q(i, 12) + Q(1, 7)
        bern = sum(b * math.comb(12, k) * eps**k * (1 - eps) ** (12 - k) for k, b in enumerate(cert))
        assert bern == poly_eval(n_poly, eps)
    print("criterion 8b (fake enumerator passes success): PASS")

    # the success constraint rejects what the classical constraints and the
    # threshold test accept: the n=11 lattice point (c1', d0', d1') = (-9, -6, -6)
    point = (-9, -6, -6)
    classical, points, fam = lattice_search(11, use_quantum=False)
    assert point in points
    violator = family_enumerator_at(fam, point)
    assert violator == Enumerator.from_pairs(11, {0: 1, 6: 198, 8: 495, 10: 330})
    B = macwilliams(violator, 2**10)
    for E in (violator, B):
        assert all(Q(c).denominator == 1 and c >= 0 and c % 3 == 0 for c in E.coeffs[1:])
    assert check_threshold_constraint(build_map(violator)) == {-1: (True, None), 1: (True, None)}
    # the witness is rbar^2 = 1/3, that is eps = 0
    ok, witness = check_success_nonneg(violator)
    assert (ok, witness) == (False, Q(1, 3))
    n0 = signed_eval(violator, witness)
    assert n0 == poly_eval(build_map(violator).n_poly, 0)
    assert n0 == 1 - Q(198, 27) + Q(495, 81) - Q(330, 243) == Q(-128, 81)
    print("criterion 8b (success constraint rejects a classical point): PASS")


def test_criterion_09_putative_enumerators():
    ne = noise_exponent(build_map(PUTATIVE[19]))
    assert (ne.nu, ne.leading) == (4, 395)
    ne = noise_exponent(build_map(PUTATIVE[23]))
    assert (ne.nu, ne.leading) == (5, 587)
    rep = threshold(build_map(PUTATIVE[23]))
    assert _contains_decimal(rep.low, rep.high, Q(175343, 10**6), Q(1, 10**6))
    ne = noise_exponent(build_map(PUTATIVE[25]))
    assert ne.leading == Q(23591, 5) and ne.nu == 7
    for A in PUTATIVE.values():
        assert verdict_all_ok(quantum_verdict(build_map(A)))
    print("criterion 9: PASS")


def test_criterion_10_property_corpora():
    t0 = time.time()
    codes = random_codes(seed=501, count=200, max_n=10)
    assert len(codes) >= 200
    for code in codes:
        A = weight_enumerator(code)
        assert all(c % 3 == 0 for c in A.coeffs[1:])
        B = macwilliams(A, 4**code.k)
        assert macwilliams(B, 4 ** (code.n - code.k)) == A
    from gf4msd.gf4 import hermitian_dual

    for code in codes[:60]:
        dd = hermitian_dual(hermitian_dual(code))
        assert dd.k == code.k and all(dd.contains(g) for g in code.generators)
    fams = random_family_params(seed=707, count=200, max_n=35)
    assert len(fams) >= 200
    sampled = 0
    for p in fams:
        A = expand_family(p)
        assert A.is_even_only() and A.total() == 2 ** (p.n - 1)
        if p.n % 6 not in (1, 5):
            continue
        dmap = build_map(A)
        ne = noise_exponent(dmap)
        if ne.status == "ok":
            assert ne.nu % 3 == (2 if p.n % 6 == 5 else 1) % 3
        ok, witness = check_success_nonneg(A)
        neg = sampled_negative_point(dmap.n_poly)
        if ok:
            assert neg is None
        else:
            assert signed_eval(A, witness) < 0
        sampled += 1
    assert sampled >= 100
    print("criterion 10: PASS (%.1fs)" % (time.time() - t0))
