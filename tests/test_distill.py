import hashlib
import random
from fractions import Fraction as Q

import pytest
from corpus import (
    T_OF_EPS,
    family_members,
    fixed_point_poly,
    poly_pow,
    random_family_params,
    random_maximal_codes,
    reference_map_polys,
    reference_threshold,
    verdict_all_ok,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gf4msd.distill import (
    DegenerateMapError,
    DistillMap,
    NoiseExponent,
    QuantumVerdict,
    bernstein_certificate,
    build_map,
    check_success_nonneg,
    check_threshold_constraint,
    curve_rows,
    natural_sign,
    noise_exponent,
    quantum_verdict,
    slack_sign_ok,
    threshold,
    threshold_slack,
)
from gf4msd.enumerators import Enumerator, is_map_length, macwilliams, signed_eval, signed_poly, transform_xy
from gf4msd.exact import ord_at_zero, poly, poly_compose, poly_deriv, poly_eval, poly_mul, poly_scale, rref
from gf4msd.gf4 import weight_enumerator
from gf4msd.invariants import (
    InvariantParams,
    expand_family,
    extremal_distillation_enumerator,
    num_cprime,
    num_dprime,
)

FIVE_A = Enumerator.from_pairs(5, {0: 1, 4: 15})

PUTATIVE_23 = Enumerator.from_pairs(
    23,
    {0: 1, 6: 90, 8: 1314, 10: 348, 12: 107280, 14: 434880, 16: 1282869,
     18: 1543428, 20: 738072, 22: 86022},
)
PUTATIVE_19 = Enumerator.from_pairs(
    19, {0: 1, 6: 36, 8: 1194, 10: 9108, 12: 53736, 14: 103404, 16: 80877, 18: 13788}
)
PUTATIVE_25 = Enumerator.from_pairs(
    25,
    {0: 1, 4: 39, 6: 1155, 8: 8679, 10: 8796, 12: 112482, 14: 487338,
     16: 2805963, 18: 5398860, 20: 5548959, 22: 2268459, 24: 136485},
)
FAKE_11 = Enumerator.from_pairs(11, {0: 1, 2: 11, 4: 138, 6: 22, 8: 645, 10: 207})


def _signed_map(A, lam):
    """The map of A for the logical sign lam: build_map(A) or its other_sign()."""
    dmap = build_map(A)
    return dmap if dmap.lam == lam else dmap.other_sign()


def test_five_qubit_map_exact():
    m = build_map(FIVE_A)
    num, den = m.canonical_fraction()
    assert num == (0, 0, 5, -15, 15, -4)
    assert den == (1, -5, 15, -20, 10)
    assert m.eps_out(Q(1, 2)) == Q(1, 2)
    ne = noise_exponent(m)
    assert ne.status == "ok" and ne.nu == 2 and ne.leading == 5


def test_sign_class_choice_is_pinned():
    # only lam = +1 (the natural class-5 choice) reproduces the known map
    wrong = build_map(FIVE_A).other_sign()
    assert wrong.lam == -1 and wrong.canonical_fraction() != build_map(FIVE_A).canonical_fraction()
    assert natural_sign(5) == 1 and natural_sign(7) == -1
    with pytest.raises(ValueError):
        natural_sign(9)


def test_map_matches_invariant_form():
    # cross-check M and N against the class-specific invariant expressions
    rng = random.Random(3)
    f = (0, 1, -1)  # eps (1 - eps)
    g = poly_mul(poly_pow((1, -2), 2), poly_pow((1, -1, 1), 2))
    for n in (11, 7, 13):
        from gf4msd.invariants import num_cprime, num_dprime

        cp = [Q(1)] + [Q(rng.randint(-20, 20)) for _ in range(num_cprime(n) - 1)]
        dp = [Q(rng.randint(-20, 20)) for _ in range(num_dprime(n))]
        A = expand_family(InvariantParams(n, cp, dp))
        dmap = build_map(A)
        # rescaled sums S1, S2 as polynomials in eps
        c = [Q(-16, 27) ** j * cp[j] * Q(4) ** ((n - 1) // 2 - 3 * j) for j in range(len(cp))]
        d = [Q(-16, 27) ** j * dp[j] * Q(4) ** ((n - 5) // 2 - 3 * j) for j in range(len(dp))]
        S1 = ()
        for j, cj in enumerate(c):
            term = poly_scale(poly_mul(poly_pow(f, (n - 1) // 2 - 3 * j), poly_pow(g, j)), cj)
            S1 = tuple(_add(S1, term))
        S2 = ()
        for j, dj in enumerate(d):
            term = poly_scale(poly_mul(poly_pow(f, (n - 5) // 2 - 3 * j), poly_pow(g, j)), dj)
            S2 = tuple(_add(S2, term))
        quart = (1, -1, 1)  # eps^2 - eps + 1
        w = poly_scale(poly_mul(poly_pow((1, -2), 2), quart), Q(4, 9))
        N_expect = _sub(S1, poly_mul(w, S2))
        assert tuple(N_expect) == dmap.n_poly
        if n % 6 == 5:
            M_expect = _sub(
                poly_mul((2, -2), S1),
                poly_mul(poly_scale(poly_mul(poly_mul((0, 0, 1), (-1, 2)), quart), Q(8, 9)), S2),
            )
        else:
            M_expect = _add(
                poly_mul((0, 2), S1),
                poly_mul(poly_scale(poly_mul(poly_mul(poly_pow((-1, 1), 2), (-1, 2)), quart), Q(8, 9)), S2),
            )
        assert tuple(M_expect) == dmap.m_poly


def _add(a, b):
    from gf4msd.exact import poly_add

    return poly_add(a, b)


def _sub(a, b):
    from gf4msd.exact import poly_add

    return poly_add(a, poly_scale(b, -1))


def test_half_fixed_point_generic():
    rng = random.Random(9)
    for n in (5, 7, 11):
        from gf4msd.invariants import num_cprime, num_dprime

        cp = [Q(1)] + [Q(rng.randint(-9, 9)) for _ in range(num_cprime(n) - 1)]
        dp = [Q(rng.randint(-9, 9)) for _ in range(num_dprime(n))]
        A = expand_family(InvariantParams(n, cp, dp))
        m = build_map(A)
        if poly_eval(m.n_poly, Q(1, 2)) != 0:
            assert m.eps_out(Q(1, 2)) == Q(1, 2)


def test_threshold_five_qubit():
    rep = threshold(build_map(FIVE_A))
    assert rep.status == "ok" and rep.stable
    assert rep.high - rep.low <= Q(1, 10**12)
    # exact root of 7 e^2 - 7 e + 1 inside the bracket
    quad = (1, -7, 7)
    assert poly_eval(quad, rep.low) * poly_eval(quad, rep.high) < 0
    assert rep.decimal(6) == "0.172673"


def test_threshold_putative_23():
    rep = threshold(build_map(PUTATIVE_23))
    assert rep.status == "ok" and rep.stable
    assert rep.decimal(6) == "0.175343"


def test_identity_map_has_no_threshold():
    triv = expand_family(InvariantParams(7, (1, -3), (0,)))
    m = build_map(triv)
    assert m.eps_out(Q(1, 5)) == Q(1, 5)
    assert threshold(m).status == "identity"


def test_noise_exponents_putative():
    ne = noise_exponent(build_map(PUTATIVE_19))
    assert (ne.nu, ne.leading) == (4, 395)
    ne = noise_exponent(build_map(PUTATIVE_23))
    assert (ne.nu, ne.leading) == (5, 587)
    ne = noise_exponent(build_map(PUTATIVE_25))
    assert (ne.nu, ne.leading) == (7, Q(23591, 5))


def test_putative_large_rows():
    A35 = Enumerator.from_pairs(
        35,
        {0: 1, 12: 42840, 16: 6715170, 18: 46236960, 20: 339481296,
         22: 1334551680, 24: 3443179320, 26: 5213799360, 28: 4481873880,
         30: 1943770752, 32: 353253285, 34: 16964640},
    )
    m = build_map(A35)
    ne = noise_exponent(m)
    assert (ne.nu, ne.leading) == (5, Q(11781, 23))
    rep = threshold(m)
    assert rep.decimal(5) == "0.16331" and rep.stable
    assert verdict_all_ok(quantum_verdict(m))
    A31 = Enumerator.from_pairs(
        31,
        {0: 1, 6: 369, 8: 2898, 10: 4521, 12: 57951, 14: 466488,
         16: 6245181, 18: 36350466, 20: 139591494, 22: 293155569,
         24: 343995552, 26: 204720453, 28: 45717291, 30: 3433590},
    )
    ne = noise_exponent(build_map(A31))
    assert (ne.nu, ne.leading) == (7, 18569)
    assert threshold(build_map(A31)).decimal(6) == "0.174321"


def test_noise_exponent_useless():
    useless = expand_family(InvariantParams(5, (1,), (0,)))  # N(0) = 0
    ne = noise_exponent(build_map(useless))
    assert ne.status == "useless" and ne.nu is None


def test_noise_exponent_perfect():
    # M = 0 identically is the perfect-map sentinel
    assert noise_exponent(DistillMap(5, 1, (0,) * 6, 1)) == NoiseExponent("perfect", None, None)


def test_quantum_verdicts():
    good = quantum_verdict(build_map(FIVE_A))
    assert verdict_all_ok(good)
    fake = quantum_verdict(build_map(FAKE_11))
    assert not (fake.threshold_ok_plus and fake.threshold_ok_minus)
    assert fake.threshold_witness_minus is not None
    assert fake.threshold_witness_minus < 0
    for A in (PUTATIVE_19, PUTATIVE_23, PUTATIVE_25):
        assert verdict_all_ok(quantum_verdict(build_map(A)))


def test_success_nonneg_examples():
    ok, _ = check_success_nonneg(FIVE_A)
    assert ok
    corner = expand_family(InvariantParams(5, (1,), (9,)))
    ok, wit = check_success_nonneg(corner)
    assert not ok
    # witness is a rational rbar^2 in [0, 1/3] with N < 0
    assert 0 <= wit <= Q(1, 3) and signed_eval(corner, wit) < 0


def test_threshold_constraint_n7_ratio_form():
    # the class-1 map constraint at eps_max reduces to d0/(25 c1 + 15 d0 - 54) >= 0
    for c1, d0 in [(-3, -6), (0, -6), (-9, 0), (-3, 6), (6, 6), (-3, 12)]:
        A = expand_family(InvariantParams(7, (1, Q(c1)), (Q(d0),)))
        thr = check_threshold_constraint(build_map(A))
        denom = 25 * c1 + 15 * d0 - 54
        expect_plus = Q(d0, denom) >= 0 if denom else None
        if expect_plus is not None:
            assert thr[-1][0] == expect_plus, (c1, d0)
        expect_minus = Q(3 * (25 * c1 - 54), denom) >= 1 if denom else None
        if expect_minus is not None:
            assert thr[1][0] == expect_minus, (c1, d0)


def test_degenerate_octahedron_test_raises():
    # A(1, 1) = 64 but N(eps_max) = 0: the slack's sign decides neither
    # logical sign choice
    A = _family_point(7, (0, Q(18, 5)))
    assert A.total() == 64 and signed_eval(A, Q(1, 9)) == 0
    for check in (check_threshold_constraint, quantum_verdict):
        with pytest.raises(DegenerateMapError):
            check(build_map(A))


def _verdict_from_functionals(A):
    """The QuantumVerdict assembled from enumerator functionals alone:
    check_success_nonneg, the sign of N(eps_max) = signed_eval(A, 1/9) and
    the threshold_slack of each sign, C = transform_xy(A) / A(1, 1) - A."""
    C = transform_xy(A).scale(Q(1, A.total())) - A
    n_max = signed_eval(A, Q(1, 9))
    thr = {}
    for lam in (1, -1):
        slack = threshold_slack(A, C, lam)
        ok = slack_sign_ok(n_max, slack)
        thr[lam] = (ok, None if ok else slack)
    ok_s, wit_s = check_success_nonneg(A)
    return thr, QuantumVerdict(ok_s, thr[-1][0], thr[1][0], wit_s, thr[-1][1], thr[1][1])


def _verdict_corpus():
    """FIVE_A, FAKE_11, PUTATIVE_23 and seeded integer family points at
    n = 5, 7, 11 and 13 whose N(eps_max) is not 0."""
    rng = random.Random(30)
    corpus = [FIVE_A, FAKE_11, PUTATIVE_23]
    for n in (5, 7, 11, 13):
        free = num_cprime(n) - 1 + num_dprime(n)
        corpus += [_family_point(n, [rng.randint(-60, 60) for _ in range(free)]) for _ in range(12)]
    return [A for A in corpus if signed_eval(A, Q(1, 9)) != 0]


def test_verdicts_read_a_map_of_either_sign():
    # a map of either sign decides both constraints for both signs, as the
    # enumerator functionals do
    corpus = _verdict_corpus()
    assert len(corpus) > 40
    for A in corpus:
        thr, verdict = _verdict_from_functionals(A)
        for lam in (1, -1):
            dmap = _signed_map(A, lam)
            assert check_threshold_constraint(dmap) == thr, (A, lam)
            assert quantum_verdict(dmap) == verdict, (A, lam)


def test_t_polys_n_is_a_positive_multiple_of_signed_poly():
    # the same integer N(t) for both signs; q is checked against p in
    # test_threshold_matches_eps_chain_reference
    for A in _verdict_corpus() + [PUTATIVE_19, PUTATIVE_25]:
        dmap = build_map(A)
        n_t = dmap.t_polys()[0]
        sp = poly(signed_poly(A))
        c = Q(n_t[0], sp[0])
        assert c > 0 and n_t == tuple(c * v for v in sp) and all(type(v) is int for v in n_t)
        assert dmap.other_sign().t_polys()[0] == n_t


def test_threshold_constraint_slack_is_rational():
    thr = check_threshold_constraint(build_map(FAKE_11))
    ok_minus, slack = thr[1]
    assert not ok_minus and slack == Q(-5152, 6561)


def test_rational_threshold_identity():
    # with u = 1 - 2 eps and t = u^2 / 3: N = signed_eval(A, t) and
    # M - 2 eps N = u q(t), q(t) = signed_eval(A, t) + lam sum_j C_{2j+1} (-1)^j t^j / 3;
    # at eps_max, u = 1/sqrt(3) and t = 1/9, so sqrt(3) (M - 2 eps N) = q(1/9)
    for A in (FIVE_A, FAKE_11, PUTATIVE_19, PUTATIVE_23):
        C = macwilliams(A) - A
        for lam in (1, -1):
            m = _signed_map(A, lam)

            def q(t):
                odd = sum(C.coeffs[2 * j + 1] * (-t) ** j for j in range((A.n + 1) // 2))
                return signed_eval(A, t) + lam * Q(odd, 3)

            # both sides of each identity have degree <= n in eps
            p, n_poly = fixed_point_poly(m), m.n_poly
            assert len(p) <= A.n + 1 and len(n_poly) <= A.n + 1
            for i in range(A.n + 1):
                eps = Q(i, 7) - Q(1, 3)
                u = 1 - 2 * eps
                assert poly_eval(p, eps) == u * q(u * u / 3), (A.n, lam, eps)
                assert poly_eval(n_poly, eps) == signed_eval(A, u * u / 3), (A.n, lam, eps)
            assert threshold_slack(A, C, lam) == q(Q(1, 9)), (A.n, lam)
    # the five-qubit threshold lies below eps_max: positive slack, N(eps_max) > 0
    C5 = macwilliams(FIVE_A) - FIVE_A
    assert threshold_slack(FIVE_A, C5, 1) > 0 and signed_eval(FIVE_A, Q(1, 9)) > 0


def test_bernstein_certificates():
    assert bernstein_certificate((1,), 4) == [1] * 5
    m = build_map(FIVE_A)
    cert = bernstein_certificate(m.n_poly, 6)
    assert cert is not None and all(c >= 0 for c in cert)
    assert bernstein_certificate((Q(-1, 2), 1), 5) is None
    assert bernstein_certificate((Q(-1, 2), 1), 9) is None


def test_curve_rows():
    m = build_map(FIVE_A)
    rows = curve_rows(m, grid=8)
    assert len(rows) == 9
    assert rows[0] == (0, 0)
    assert rows[-1] == (Q(1, 2), Q(1, 2))


def test_build_map_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_map(Enumerator.from_pairs(9, {0: 1}))  # n = 3 mod 6
    with pytest.raises(ValueError):
        build_map(Enumerator.from_pairs(5, {0: 1, 1: 1, 4: 14}))


def test_closed_form_map_matches_composition_in_t():
    # every member of both families for odd n = 5..61, both signs, and
    # n = 1: the eps polynomials of the map on the integer numerator equal
    # the route that composed in t
    from gf4msd.bounds import distillation_family
    from gf4msd.distill import _numerator

    fams = [distillation_family(n, pin) for n in range(5, 62, 2) for pin in (True, False)]
    pairs = [(A, C) for fam in fams for A, _, C in family_members(fam)]
    pairs += [(Enumerator(1, (a, 0)), Enumerator(1, (0, c))) for a in (0, 1, Q(1, 2)) for c in (0, 3, Q(1, 3))]
    for A, C in pairs:
        for lam in (1, -1):
            dmap = DistillMap(A.n, lam, *_numerator(A, C, lam))
            assert (dmap.m_poly, dmap.n_poly) == reference_map_polys(A, C, lam)


def threshold_corpus():
    """The five-qubit code, seeded random maximal codes of every map length
    up to 23, the extremal distillation enumerators for n = +-1 mod 6 up to
    71 (q up to degree 35, no fixed point in (0, 1/2)) and seeded points of
    the invariant family at map lengths up to 23."""
    codes = random_maximal_codes(seed=28, count=21, lengths=(5, 7, 11, 13, 17, 19, 23))
    corpus = [FIVE_A] + [weight_enumerator(code) for code in codes]
    corpus += [extremal_distillation_enumerator(n) for n in range(5, 72) if is_map_length(n)]
    params = random_family_params(seed=28, count=60, max_n=23)
    corpus += [expand_family(p) for p in params if is_map_length(p.n)]
    return corpus


def test_threshold_reports_pinned():
    # (status, low, high, stable) of both signs over the corpus, as the
    # Sturm chain in eps reported them
    digest = hashlib.sha256()
    for A in threshold_corpus():
        for lam in (1, -1):
            rep = threshold(_signed_map(A, lam))
            digest.update(repr((rep.status, rep.low, rep.high, rep.stable)).encode())
    assert digest.hexdigest() == "697db9e9606945cfdb4ddbad9aec7b416274429e68a9e731964f09af8d743649"


def _family_point(n, x):
    """The odd family at c0' = 1 and the free coefficients x (c' then d')."""
    k = num_cprime(n)
    return expand_family(InvariantParams(n, (1,) + tuple(x[: k - 1]), tuple(x[k - 1 :])))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.sampled_from((5, 7, 11, 13)), lam=st.sampled_from((1, -1)))
def test_threshold_matches_eps_chain_reference(data, n, lam):
    # integer points of the invariant family, almost all of them fake
    # enumerators; the isolation on q(t) must report what the chain of
    # p(eps) reported, and p = u q(u^2 / 3) / scale, scale > 0
    free = num_cprime(n) - 1 + num_dprime(n)
    A = _family_point(n, data.draw(st.lists(st.integers(-60, 60), min_size=free, max_size=free)))
    dmap = _signed_map(A, lam)
    assert threshold(dmap) == reference_threshold(dmap)
    p = fixed_point_poly(dmap)
    q = dmap.t_polys()[1]
    assert len(q) <= (n + 1) // 2 and all(type(v) is int for v in q) and dmap.scale > 0
    assert poly_scale(poly_mul((1, -2), poly_compose(q, T_OF_EPS)), Q(1, dmap.scale)) == p


def _meeting(n, lam, conditions, fixed):
    """A family point whose fixed-point polynomial p meets the conditions
    (linear functionals of p), its last free coefficients set to fixed:
    p is affine in the point, so one rational solve."""
    free = num_cprime(n) - 1 + num_dprime(n)

    def p_at(x):
        return fixed_point_poly(_signed_map(_family_point(n, x), lam))

    base = p_at([0] * free)
    units = [p_at([int(i == j) for i in range(free)]) for j in range(free)]
    rows = [[f(u) - f(base) for u in units] + [-f(base)] for f in conditions]
    rows += [[int(j == free - len(fixed) + i) for j in range(free)] + [v] for i, v in enumerate(fixed)]
    pivots, _, cols = rref(rows, free)
    assert cols == list(range(free))
    return _family_point(n, [row[-1] for row in pivots])


def _value(eps, order=0):
    def f(p):
        for _ in range(order):
            p = poly_deriv(p)
        return poly_eval(p, eps)

    return f


@pytest.mark.parametrize(
    "n, root, extra, fixed, exact",
    [
        (11, Q(1, 5), False, -7, False),
        (11, Q(1, 4), False, -7, True),  # the first bisection midpoint
        (11, Q(1, 8), False, 3, True),
        (13, Q(1, 5), True, 3, False),
        (13, Q(1, 5), True, -7, False),
    ],
)
def test_threshold_at_a_double_root(n, root, extra, fixed, exact):
    # p with a double root at root, and with extra an extra factor
    # 1 - 2 eps (p is odd in u, so u^3 | p; then t | q)
    conditions = [_value(root), _value(root, 1)] + [_value(Q(1, 2), 1)] * extra
    dmap = _signed_map(_meeting(n, 1, conditions, [fixed]), 1)
    assert all(f(fixed_point_poly(dmap)) == 0 for f in conditions)
    q = dmap.t_polys()[1]
    assert (q[0] == 0) == extra
    rep = threshold(dmap)
    assert rep == reference_threshold(dmap)
    assert rep.status == "ok" and rep.low <= root <= rep.high
    assert (rep.low == rep.high) == exact


def test_threshold_reads_no_eps_polynomials():
    # the eps polynomials are cached properties: a map that threshold,
    # noise_exponent and eps_out alone read reports what the polynomials
    # of one read first give, and other_sign is an involution onto the map
    # of -lam, whose polynomials are the reference's
    for A in (FIVE_A, PUTATIVE_23, FAKE_11):
        for lam in (1, -1):
            fresh, read = _signed_map(A, lam), _signed_map(A, lam)
            assert read.m_poly and read.n_poly
            rep, ne = threshold(fresh), noise_exponent(fresh)
            eps = [Q(i, 7) - Q(1, 3) for i in range(A.n + 2)]
            outs = [fresh.eps_out(e) for e in eps]
            assert "m_poly" not in vars(fresh) and "n_poly" not in vars(fresh)
            assert rep == threshold(read) and fresh == read
            nu = ord_at_zero(read.m_poly)
            assert (ne.nu, ne.leading) == (nu, read.m_poly[nu] / (2 * read.n_poly[0]))
            assert outs == [poly_eval(read.m_poly, e) / (2 * poly_eval(read.n_poly, e)) for e in eps]
            other = fresh.other_sign()
            assert other.lam == -lam and other.other_sign() == fresh
            assert (other.m_poly, other.n_poly) == reference_map_polys(A, macwilliams(A) - A, -lam)
