"""Randomized property suites over code and enumerator corpora."""

import functools
import random
from fractions import Fraction as Q

from corpus import (
    poly_pow,
    random_codes,
    random_family_params,
    random_maximal_codes,
    sampled_negative_point,
    series_compose,
    series_inv,
    series_mul,
)

from gf4msd.distill import build_map, check_success_nonneg, noise_exponent
from gf4msd.enumerators import macwilliams, signed_eval, transform_xy
from gf4msd.exact import poly_mul
from gf4msd.gf4 import (
    Gf4Code,
    enumerate_codewords,
    hermitian_dual,
    random_maximal_self_orthogonal_code,
    shorten,
    unpack,
    vec_add,
    vec_scale,
    weight_enumerator,
)
from gf4msd.invariants import expand_family, h_series, params_from_enumerator

CODES = random_codes()
MAXIMAL = random_maximal_codes()
FAMILY = random_family_params()


def test_corpus_sizes():
    assert len(CODES) >= 200
    assert len(FAMILY) >= 200


def test_code_enumerator_structure():
    for code in CODES:
        A = weight_enumerator(code)
        assert A.coeffs[0] == 1
        assert A.total() == 4**code.k
        assert A.is_even_only()
        assert all(c % 3 == 0 for c in A.coeffs[1:])


def test_macwilliams_involution_on_codes():
    for code in CODES:
        A = weight_enumerator(code)
        B = macwilliams(A, 4**code.k)
        assert all(c >= 0 for c in B.coeffs)
        back = macwilliams(B, 4 ** (code.n - code.k))
        assert back == A


def test_double_dual_row_space():
    for code in CODES[:80]:
        dd = hermitian_dual(hermitian_dual(code))
        assert dd.k == code.k
        assert all(dd.contains(g) for g in code.generators)


def test_dual_enumerator_cross_module():
    checked = 0
    for code in CODES:
        if code.n - code.k > 7 or checked >= 60:
            continue
        A = weight_enumerator(code)
        dual = hermitian_dual(code)
        assert weight_enumerator(dual) == macwilliams(A, 4**code.k)
        checked += 1
    assert checked >= 30


def test_dual_enumerator_with_head_generators():
    # k = 8..10 here and 9..11 for the dual: both tallies combine head
    # generators with the span of the last 6
    for n in (17, 19, 21):
        code = random_maximal_self_orthogonal_code(random.Random(300 + n), n)
        dual = hermitian_dual(code)
        assert code.k > 6 and dual.k > 6
        assert weight_enumerator(dual) == macwilliams(weight_enumerator(code), 4**code.k)


def test_shortening_monotonicity():
    rng = random.Random(4)
    for code in CODES[:60]:
        if code.n < 2 or code.k == 0:
            continue
        coord = rng.randrange(code.n)
        s = shorten(code, coord)
        for w in enumerate_codewords(s):
            w = unpack(s.n, w)
            assert code.contains(w[:coord] + (0,) + w[coord:])


def test_shortening_has_every_codeword_vanishing_there():
    # 4^k of the shortening at c counts the parent's codewords zero at c,
    # also at a coordinate no generator touches; the rref the shortening
    # computes of its rows on first read is the one a fresh construction
    # computes
    padded = Gf4Code(8, tuple(g[:3] + (0,) + g[3:] for g in MAXIMAL[0].generators))
    assert padded.n == 8 and padded.k == 3
    for code in CODES + [padded]:
        mask = (1 << code.n) - 1
        supports = [(w >> code.n | w) & mask for w in enumerate_codewords(code)]
        for c in range(code.n):
            vanishing = sum(1 for s in supports if not s >> (code.n - 1 - c) & 1)
            short = shorten(code, c)
            assert 4**short.k == vanishing, (code, c)
            assert short._rref == Gf4Code(short.n, short.generators)._rref, (code, c)


def test_shortening_answers_as_a_validated_code():
    # a shortening is built from its rows without validation; its answers
    # to contains, on its rows, their combinations and random words, and
    # its further shortenings are those of the code the same rows build
    # through Gf4Code
    rng = random.Random(30)
    for code in random_codes(seed=30, count=80, max_n=12):
        for c in range(code.n):
            short = shorten(code, c)
            fresh = Gf4Code(short.n, short.generators)
            words = list(short.generators)
            for _ in range(6):
                combo = [vec_scale(rng.randrange(4), g) for g in short.generators]
                words.append(functools.reduce(vec_add, combo, (0,) * short.n))
                words.append(tuple(rng.randrange(4) for _ in range(short.n)))
            assert [short.contains(w) for w in words] == [fresh.contains(w) for w in words], (code, c)
            assert all(short.contains(w) for w in words[: short.k])
            for d in range(short.n):
                assert shorten(short, d) == shorten(fresh, d), (code, c, d)


def test_maximal_codes_have_full_weight_logical():
    for code in MAXIMAL:
        A = weight_enumerator(code)
        B = macwilliams(A, 4**code.k)
        C = B - A
        assert C.is_odd_only()
        assert C.coeffs[code.n] > 0


def test_residue_classes_on_codes():
    for code in MAXIMAL:
        A = weight_enumerator(code)
        ne = noise_exponent(build_map(A))
        if ne.status != "ok":
            continue
        assert ne.nu % 3 == (2 if code.n % 6 == 5 else 1), (code.n, ne.nu)


def test_family_structure_and_roundtrip():
    for p in FAMILY:
        A = expand_family(p)
        assert A.is_even_only()
        assert A.total() == 2 ** (p.n - 1)
        B = transform_xy(A).scale(Q(1, 2 ** (p.n - 1)))
        assert (B - A).is_odd_only()
    for p in FAMILY[:40]:
        assert params_from_enumerator(expand_family(p)) == p


def test_residue_classes_on_family():
    for p in FAMILY:
        if p.n % 6 not in (1, 5):
            continue
        A = expand_family(p)
        ne = noise_exponent(build_map(A))
        if ne.status != "ok":
            continue
        assert ne.nu % 3 == (2 if p.n % 6 == 5 else 1) % 3, (p.n, ne.nu)


def test_sturm_vs_sampling_agreement():
    checked = 0
    for p in FAMILY:
        if p.n % 6 not in (1, 5):
            continue
        A = expand_family(p)
        dmap = build_map(A)
        ok, witness = check_success_nonneg(A)
        sampled = sampled_negative_point(dmap.n_poly)
        if ok:
            assert sampled is None, (p, sampled)
        else:
            assert signed_eval(A, witness) < 0
        checked += 1
    assert checked >= 100


def test_h_series_matches_composition():
    order = 6
    hs = h_series(order).coeffs
    eo = 3 * order + 2
    # phi(eps) = eps^3 (1-eps)^3 / ((1-2 eps)^2 (eps^2-eps+1)^2)
    num = poly_mul(poly_pow((0, 1), 3), poly_pow((1, -1), 3))
    den = poly_mul(poly_pow((1, -2), 2), poly_pow((1, -1, 1), 2))
    phi = series_mul(list(num), series_inv(list(den), eo), eo)
    lhs = series_compose(list(hs), phi, eo)
    # direct expansion of (2 eps - 1)(eps^2 - eps + 1) / (eps - 1)^3
    hn = poly_mul((-1, 2), (1, -1, 1))
    hd = poly_pow((-1, 1), 3)
    rhs = series_mul(list(hn), series_inv(list(hd), eo), eo)
    assert lhs == rhs
