import hashlib
from fractions import Fraction as Q

import pytest
from corpus import fraction_combination, poly_pow, random_family_params, reference_block, reference_blocks

from gf4msd.enumerators import DomainError, Enumerator, signed_eval, transform_xy
from gf4msd.exact import poly_add, poly_scale, rref
from gf4msd.invariants import (
    InvariantParams,
    SelfDualParams,
    expand_family,
    expand_selfdual,
    extremal_A2,
    extremal_distillation_enumerator,
    extremal_distillation_params,
    h_series,
    params_from_enumerator,
    selfdual_extremal_enumerator,
    selfdual_extremal_params,
    unit_family_basis,
)

# frozen classification values for the extremal distillation family
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

# sha256 of one line "n c'_0,...,c'_m d'_0,...,d'_k" per n = +-1 (mod 6) in
# 5..143, recorded before both length classes shared one cancellation system
EXTREMAL_PARAMS_SHA256 = "af864d70cc801507d06f83071d01091ff50506a7bbd3937a58755066247dd3c0"
# the same lines for n = +-1 (mod 6) in 145..199, and one line "n c_0,...,c_k"
# of selfdual_extremal_params per even n in 6..198, both recorded before the
# blocks and the extremal systems were worked over Z
EXTREMAL_PARAMS_145_199_SHA256 = "3a99f2edf39872a36cc8cc2984948b67b91e674002829bf94ff96fa190db14ee"
SELFDUAL_PARAMS_SHA256 = "1fd93e930a666d7caea5bbb28ddf6c3440004bdc21f42acd09bf9a1bb608cb25"

SELFDUAL_PURE_EVALS = {
    12: Q(-256, 81),
    24: Q(-1245184, 19683),
    36: Q(-12146704384, 14348907),
    48: Q(-121921236631552, 10460353203),
    60: Q(-1264863882942349312, 7625597484987),
    72: Q(-4471893160093900865536, 1853020188851841),
    84: Q(-433405775278763760286695424, 12157665459056928801),
    96: Q(-1572944082477201192612565876736, 2954312706550833698643),
}


def test_expand_family_five_qubit():
    A = expand_family(InvariantParams(5, (1,), (-6,)))
    assert A.coeffs == (1, 0, 0, 0, 15, 0)
    A = expand_family(InvariantParams(5, (1,), (-36,)))
    assert A.coeffs == (1, 0, -30, 0, 45, 0)


def test_expand_family_general_term():
    # with only c0' = 1 the degree-2 coefficient is 9 at n=7
    A = expand_family(InvariantParams(7, (1, 0), (0,)))
    assert A.coeffs[2] == 9
    B = expand_family(InvariantParams(7, (1, 1), (1,)))
    assert B.coeffs[2] == 9 + 1 + 1  # c1' + d0' + 9


def test_expand_selfdual_hexacode():
    A = expand_selfdual(SelfDualParams(6, (1, -9)))
    assert A.coeffs == (1, 0, 0, 0, 45, 0, 18)
    # trivial choice: (x^2 + 3y^2)^(n/2)
    A = expand_selfdual(SelfDualParams(8, (1, 0)))
    assert A.coeffs == (1, 0, 12, 0, 54, 0, 108, 0, 81)


def test_h_series():
    hs = h_series(8)
    assert hs.coeffs == (1, -1, 2, -5, 14, -42, 132, -429, 1430)
    assert h_series(0).coeffs == (1,)
    # closed form (-4)^j (1/2)_j / (2)_j
    for j, h in enumerate(hs.coeffs):
        poch_half = Q(1)
        poch_two = Q(1)
        for i in range(j):
            poch_half *= Q(1, 2) + i
            poch_two *= 2 + i
        assert h == Q(-4) ** j * poch_half / poch_two
    with pytest.raises(ValueError):
        h_series(-1)


def test_extremal_distillation_rows():
    for n, row in EXTREMAL_ROWS.items():
        A = extremal_distillation_enumerator(n)
        assert A == Enumerator.from_pairs(n, row), n
        assert A.coeffs[2] == extremal_A2(n)
        assert A.coeffs[2] < 0


def _extremal_params_digest(lengths):
    text = "".join(
        "%d %s %s\n" % (n, ",".join(map(str, p.cprime)), ",".join(map(str, p.dprime)))
        for n in lengths
        if n % 6 in (1, 5)
        for p in [extremal_distillation_params(n)]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_extremal_params_pinned():
    assert _extremal_params_digest(range(5, 144)) == EXTREMAL_PARAMS_SHA256
    assert _extremal_params_digest(range(145, 200)) == EXTREMAL_PARAMS_145_199_SHA256


def test_selfdual_extremal_params_pinned():
    text = "".join("%d %s\n" % (n, ",".join(map(str, selfdual_extremal_params(n).c))) for n in range(6, 199, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == SELFDUAL_PARAMS_SHA256


def _numerator_poly(A, lam):
    # M(eps) = N + lam sum_j C_{2j+1} (-1)^j (1 - 2 eps)^(2j+1) / 3^(j+1) with
    # N = sum_j A_{2j} (-(1 - 2 eps)^2 / 3)^j and C = A(x + 3y, x - y) / 2^(n-1) - A
    n = A.n
    C = transform_xy(A).scale(Q(1, 2 ** (n - 1))) - A
    m = ()
    for j in range(n // 2 + 1):
        m = poly_add(m, poly_scale(poly_pow((1, -2), 2 * j), Q((-1) ** j * A.coeffs[2 * j], 3**j)))
    for j in range((n + 1) // 2):
        coeff = Q(lam * (-1) ** j * C.coeffs[2 * j + 1], 3 ** (j + 1))
        m = poly_add(m, poly_scale(poly_pow((1, -2), 2 * j + 1), coeff))
    return m


def test_extremal_is_the_maximal_cancellation_member():
    # A_0 = 1 and M_0 = ... = M_{t-1} = 0 over the unit family basis, for the
    # smallest t with a unique solution, solved here without the H series;
    # its numerator then vanishes to order n exactly, the top level of max_nu_bound
    for n in (5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41):
        lam = 1 if n % 6 == 5 else -1
        basis = unit_family_basis(n)
        polys = [_numerator_poly(b, lam) for b in basis]
        k = len(basis)
        a0_row = [b.coeffs[0] for b in basis] + [1]
        for t in range(1, n + 2):
            m_rows = [[p[i] if i < len(p) else 0 for p in polys] + [0] for i in range(t)]
            pivot_rows, leftover, pivot_cols = rref([a0_row] + m_rows, k)
            if len(pivot_cols) == k:
                break
        assert len(pivot_cols) == k and all(row[k] == 0 for row in leftover), n
        M = [sum(row[k] * (p[i] if i < len(p) else 0) for row, p in zip(pivot_rows, polys)) for i in range(n + 1)]
        assert not any(M[:n]) and M[n], n
        A = Enumerator(n, (0,) * (n + 1))
        for row, b in zip(pivot_rows, basis):
            A = A + b.scale(row[k])
        assert A == extremal_distillation_enumerator(n), n


def test_extremal_a2_closed_form():
    assert extremal_A2(5) == -30
    assert extremal_A2(7) == -63
    assert extremal_A2(13) == -234
    # lengths without an extremal enumerator fail as extremal_distillation_params does
    for n, message in ((9, "congruent to \\+-1 mod 6"), (-1, "need odd n >= 5"), (1, "need odd n >= 5")):
        for f in (extremal_A2, extremal_distillation_params):
            with pytest.raises(DomainError, match=message):
                f(n)


def test_extremal_divisibility_small_n():
    # observed for n < 20: all nonzero coefficients divisible by 3 past A_0
    for n in (5, 7, 11, 13, 17, 19):
        A = extremal_distillation_enumerator(n)
        assert all(c % 3 == 0 for c in A.coeffs[1:])


def test_selfdual_extremal_params():
    p12 = selfdual_extremal_params(12)
    assert p12.c == (1, -18, -9)
    A12 = expand_selfdual(p12)
    assert A12 == Enumerator.from_pairs(12, {0: 1, 6: 396, 8: 1485, 10: 1980, 12: 234})
    p6 = selfdual_extremal_params(6)
    assert p6.c == (1, -9)


def test_selfdual_negativity_sweep():
    for n, expected in SELFDUAL_PURE_EVALS.items():
        A = selfdual_extremal_enumerator(n)
        val = signed_eval(A, Q(1, 3))
        assert val == expected
        assert val < 0
        # closed-form shortcut: (-16/27)^(2m) c_(2m)
        m = n // 12
        c = selfdual_extremal_params(n).c
        assert val == Q(-16, 27) ** (2 * m) * c[2 * m]


def test_params_roundtrip():
    for n, cp, dp in [
        (5, (1,), (-6,)),
        (7, (1, Q(-3)), (Q(1, 2),)),
        (11, (1, Q(2, 3)), (-6, Q(7, 5))),
        (13, (1, -12, 4), (-6, 9)),
    ]:
        p = InvariantParams(n, cp, dp)
        q = params_from_enumerator(expand_family(p))
        assert q == p


def test_unit_family_basis_is_the_expansion_of_unit_vectors():
    from gf4msd.invariants import num_cprime, num_dprime

    def units(k):
        return [tuple(int(i == j) for i in range(k)) for j in range(k)]

    for n in range(1, 40):
        basis = unit_family_basis(n)
        if n % 2:
            nc, nd = num_cprime(n), num_dprime(n)
            expected = [expand_family(InvariantParams(n, u[:nc], u[nc:])) for u in units(nc + nd)]
        else:
            expected = [expand_selfdual(SelfDualParams(n, u)) for u in units(n // 6 + 1)]
        assert basis == expected, n


def test_blocks_match_their_definition():
    # every block is the integer product fhat^a ghat^j (times the wedge),
    # multiplied out in y, and each unit basis member is one block
    from gf4msd.invariants import _blocks

    for n in range(1, 151):
        blocks = _blocks(n)
        assert blocks == reference_blocks(n), n
        assert all(type(c) is int for block in blocks for c in block), n
        assert unit_family_basis(n) == [fraction_combination(n, (1,), (b,)) for b in blocks], n


def test_expansions_match_a_fraction_combination():
    # both expansions against the blocks combined in Fractions, coefficient
    # types included (int where integral, Fraction otherwise); the self-dual
    # length n + 1 takes the first n // 6 + 1 of the family coefficients
    def types(A):
        return [type(c) for c in A.coeffs]

    for p in random_family_params():
        n = p.n
        A, ref = expand_family(p), fraction_combination(n, p.cprime + p.dprime, reference_blocks(n))
        assert A == ref and types(A) == types(ref), p
        s = SelfDualParams(n + 1, (p.cprime + p.dprime)[: (n + 1) // 6 + 1])
        A, ref = expand_selfdual(s), fraction_combination(n + 1, s.c, reference_blocks(n + 1))
        assert A == ref and types(A) == types(ref), s


def test_params_from_enumerator_rejects_outside_span():
    bad = Enumerator.from_pairs(5, {0: 1, 1: 1})
    with pytest.raises(ValueError, match="not in the invariant family span"):
        params_from_enumerator(bad)


def test_family_parity_is_a_domain_error():
    # a length of the wrong parity is a mathematical domain error, not a bug
    with pytest.raises(DomainError, match="n must be odd"):
        params_from_enumerator(Enumerator.from_pairs(6, {0: 1, 2: 45}))
    with pytest.raises(DomainError, match="n must be odd"):
        InvariantParams(6, (1,), ())
    with pytest.raises(DomainError, match="n must be even"):
        SelfDualParams(5, (1,))


def test_params_from_enumerator_rejects_degenerate_basis(monkeypatch):
    from gf4msd import invariants

    first = invariants.unit_family_basis(5)[0]
    monkeypatch.setattr(invariants, "unit_family_basis", lambda n: [first, first])
    with pytest.raises(ValueError, match="degenerate"):
        params_from_enumerator(Enumerator.from_pairs(5, {0: 1, 4: 15}))


def test_linsolve_pivots_and_rejects_singular():
    from gf4msd.invariants import _linsolve

    # the first column's pivot sits in the second row; the solution comes
    # back as integer numerators over one positive denominator
    Y, d = _linsolve([[0, 2], [3, 1]], [4, 5])
    assert d > 0 and all(type(v) is int for v in Y) and [Q(v, d) for v in Y] == [1, 2]
    Y, d = _linsolve([[2, 1], [1, 3]], [1, 1])
    assert [Q(v, d) for v in Y] == [Q(2, 5), Q(1, 5)]
    with pytest.raises(ValueError, match="singular"):
        _linsolve([[1, 2], [2, 4]], [1, 2])


def test_extremal_params_match_known_rescale():
    # the n=5 extremal comes from d0' = -36; the realized 5-qubit code from -6
    p = extremal_distillation_params(5)
    assert p.dprime == (Q(-36),)
    five = params_from_enumerator(Enumerator.from_pairs(5, {0: 1, 4: 15}))
    assert five.cprime == (1,) and five.dprime == (-6,)


def test_family_macwilliams_structure():
    # B - A has only odd powers across random rational parameters
    import random

    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([5, 7, 11, 13])
        from gf4msd.invariants import num_cprime, num_dprime

        cp = [Q(1)] + [Q(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(num_cprime(n) - 1)]
        dp = [Q(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(num_dprime(n))]
        A = expand_family(InvariantParams(n, cp, dp))
        assert A.is_even_only()
        assert A.total() == 2 ** (n - 1)
        from gf4msd.enumerators import transform_xy

        B = transform_xy(A).scale(Q(1, 2 ** (n - 1)))
        C = B - A
        assert C.is_odd_only()


def test_invariant_transform_covariance():
    # fhat and ghat pick up factors 4 and 64 under (x, y) -> (x+3y, x-y),
    # checked on expanded products up to degree 19
    for fpow, gpow in [(1, 0), (0, 1), (3, 1), (2, 2), (5, 1), (0, 3)]:
        deg = 2 * fpow + 6 * gpow
        if deg > 19:
            continue
        block = reference_block(fpow, gpow)
        E = Enumerator(deg, tuple(block) + (0,) * (deg + 1 - len(block)))
        T = transform_xy(E)
        scale = 4**fpow * 64**gpow
        assert T.coeffs == tuple(scale * c for c in E.coeffs)
