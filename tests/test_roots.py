from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import fraction_horner, poly_pow

from gf4msd.exact import (
    poly,
    poly_degree,
    poly_deriv,
    poly_divmod,
    poly_mul,
    poly_scale,
    scaled_horner,
)
from gf4msd.roots import (
    bernstein_coefficients,
    isolate_roots,
    poly_nonneg_on,
    refine_root,
    sturm_chain,
)


def test_square_free_strips_multiplicity():
    p = poly_mul((1, -2), poly_mul((1, -2), (3, 1)))  # roots 1/2 (double) and -3
    h = sturm_chain(p)[0]
    assert fraction_horner(h, Q(1, 2)) == 0
    assert fraction_horner(h, -3) == 0
    # degree dropped by one
    assert len(h) == len(p) - 1


def test_count_and_isolate():
    # roots at 1/3, 1/2, 2
    p = poly_mul(poly_mul((-1, 3), (-1, 2)), (-2, 1))
    assert len(isolate_roots(p, 0, 1)) == 2
    ivs = isolate_roots(p, 0, 3)
    assert len(ivs) == 3
    for (lo, hi), root in zip(ivs, (Q(1, 3), Q(1, 2), Q(2))):
        assert lo <= root <= hi
    lo, hi = refine_root(p, *ivs[0], width=Q(1, 10**12))
    assert hi - lo <= Q(1, 10**12)
    assert lo <= Q(1, 3) <= hi


def test_half_open_interval_contract():
    # (a, b] excludes a root at a and includes a root at b
    assert isolate_roots((0, 1), 0, 1) == []
    assert isolate_roots((-1, 1), 0, 1) == [(1, 1)]
    assert poly_nonneg_on((0, 1), 0, 1) == (True, None)
    ok, wit = poly_nonneg_on((0, -1), 0, 1)
    assert not ok and 0 < wit <= 1
    with pytest.raises(ValueError):
        isolate_roots((), 0, 1)


def test_refine_root_at_right_end():
    assert refine_root((-1, 1), 0, 1, Q(1, 1000)) == (1, 1)


def test_exact_root_hits():
    # refinement lands exactly on a rational root hit mid-bisection
    ivs = isolate_roots((-1, 2), 0, 1)
    assert len(ivs) == 1
    lo, hi = refine_root((-1, 2), *ivs[0], width=Q(1, 1000))
    assert lo == hi == Q(1, 2)
    # isolation around an exact midpoint root next to a second root
    p = poly_mul((-1, 3), (-1, 2))
    ivs = isolate_roots(p, 0, 1)
    assert (Q(1, 2), Q(1, 2)) in ivs and len(ivs) == 2


def test_nonneg_on_interval():
    ok, wit = poly_nonneg_on((1, 0, 15), 0, 1)
    assert ok and wit is None
    ok, wit = poly_nonneg_on((-1, 2), 0, 1)  # negative left of 1/2
    assert not ok and fraction_horner((-1, 2), wit) < 0
    # touching zero is still nonnegative: (x - 1/2)^2
    ok, _ = poly_nonneg_on(poly_mul((-1, 2), (-1, 2)), 0, 1)
    assert ok
    # tiny interior dip
    p = poly_mul((-1, 3), (-1, 2))  # roots 1/3, 1/2; negative between
    ok, wit = poly_nonneg_on(p, 0, 1)
    assert not ok and Q(1, 3) < wit < Q(1, 2)
    # zero polynomial
    assert poly_nonneg_on((), 0, 1) == (True, None)


def test_bernstein_basics():
    assert bernstein_coefficients((1,), 4) == [1] * 5
    # eps - 1/2 changes sign: endpoint coefficients are p(0), p(1)
    coeffs = bernstein_coefficients((Q(-1, 2), 1), 3)
    assert coeffs[0] == Q(-1, 2) and coeffs[-1] == Q(1, 2)
    with pytest.raises(ValueError):
        bernstein_coefficients((1, 2, 3), 1)


# Rationals on a dyadic grid (which bisection of integer ends hits exactly)
# and with small odd denominators (which it never hits).
RATIONALS = st.one_of(
    st.builds(lambda k, e: Q(k, 2**e), st.integers(-16, 16), st.integers(0, 4)),
    st.builds(Q, st.integers(-20, 20), st.sampled_from((3, 5, 7, 9))),
)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(RATIONALS, min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_roots_agree_with_known_factorization(roots, data):
    mults = [data.draw(st.integers(1, 3)) for _ in roots]
    p = (data.draw(st.sampled_from((Q(1), Q(-2), Q(3, 7)))),)
    for r, m in zip(roots, mults):
        p = poly_mul(p, poly_pow((-r, 1), m))
    ends = st.one_of(st.sampled_from(roots), RATIONALS)
    a, b = sorted((data.draw(ends), data.draw(ends)))
    if a == b:
        b = a + 1
    inside = sorted(r for r in roots if a < r <= b)

    ivs = isolate_roots(p, a, b)
    assert len(ivs) == len(inside)
    width = data.draw(st.sampled_from((Q(1, 3), Q(1, 64), Q(1, 1000))))
    for i, ((lo, hi), r) in enumerate(zip(ivs, inside)):
        assert a <= lo <= r <= hi <= b
        assert lo == hi == r or lo < r < hi
        if i + 1 < len(ivs):
            assert hi <= ivs[i + 1][0] and hi < inside[i + 1]
        rlo, rhi = refine_root(p, lo, hi, width)
        assert lo <= rlo <= r <= rhi <= hi and rhi - rlo <= width

    # the sign of p is constant between consecutive roots
    cuts = sorted({a, b, *(r for r in roots if a < r < b)})
    samples = cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    ok, wit = poly_nonneg_on(p, a, b)
    assert ok == all(fraction_horner(p, x) >= 0 for x in samples)
    if not ok:
        assert a <= wit <= b and fraction_horner(p, wit) < 0
    # the same decision for -p
    ok, wit = poly_nonneg_on(poly_scale(p, -1), a, b)
    assert ok == all(fraction_horner(p, x) <= 0 for x in samples)
    if not ok:
        assert a <= wit <= b and fraction_horner(p, wit) > 0


def test_sign_is_the_scaled_horner_value():
    p = (3, 0, -4, 1)  # x^3 - 4x^2 + 3, a root at 1
    for x in (Q(0), Q(-2), Q(-7, 3), Q(5, 10**30 + 7), Q(10**20 + 1, 3)):
        assert scaled_horner(p, x) == x.denominator**3 * fraction_horner(p, x)
    assert scaled_horner(p, Q(1)) == 0 and scaled_horner(p, -1) == -2
    assert scaled_horner((-5,), Q(1, 7)) == -5 and scaled_horner((0, 7), Q(0)) == 0


# Reference: the rational Sturm algorithm, evaluated in Fractions, that the
# integer kernel must reproduce exactly.


def _ref_chain(p):
    chain = [poly(Q(a) for a in p)]
    if poly_deriv(chain[0]):
        chain.append(poly_deriv(chain[0]))
    while poly_degree(chain[-1]) > 0:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(poly_scale(r, -1))
    g = chain[-1]
    return [poly_divmod(f, g)[0] for f in chain] if poly_degree(g) > 0 else chain


def _ref_variations(chain, x):
    signs = [v > 0 for v in (fraction_horner(f, x) for f in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _ref_cells(chain, lo, hi):
    drop = _ref_variations(chain, lo) - _ref_variations(chain, hi)
    if drop <= 1:
        return [(lo, hi)] * drop
    mid = (lo + hi) / 2
    return _ref_cells(chain, lo, mid) + _ref_cells(chain, mid, hi)


def _ref_refine(h, lo, hi, width):
    s = fraction_horner(h, hi)
    if s == 0:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = fraction_horner(h, mid)
        if v == 0:
            return mid, mid
        lo, hi = (lo, mid) if (v > 0) == (s > 0) else (mid, hi)
    return lo, hi


def _ref_left_of_root(h, lo, hi):
    if fraction_horner(h, lo):
        return lo
    s = fraction_horner(h, hi)
    while True:
        mid = (lo + hi) / 2
        v = fraction_horner(h, mid)
        if s == 0 or v * s < 0:
            return mid
        hi, s = mid, v


def _ref_nonneg(p, a, b):
    for x in (a, b):
        if fraction_horner(p, x) < 0:
            return False, x
    chain = _ref_chain(p)
    for lo, hi in _ref_cells(chain, a, b):
        x = _ref_left_of_root(chain[0], lo, hi)
        if fraction_horner(p, x) < 0:
            return False, x
    return True, None


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(RATIONALS, max_size=4, unique=True),
    cofactor=st.lists(RATIONALS, max_size=4),
    data=st.data(),
)
def test_integer_kernel_matches_rational_reference(roots, cofactor, data):
    # squared factors, a cofactor with any (or no) real roots, and ends that
    # may be roots
    p = tuple(cofactor) + (data.draw(st.sampled_from((Q(1), Q(-2), Q(3, 7)))),)
    for r in roots:
        p = poly_mul(p, poly_pow((-r, 1), data.draw(st.integers(1, 3))))
    ends = st.one_of(st.sampled_from(roots), RATIONALS) if roots else RATIONALS
    a, b = sorted((data.draw(ends), data.draw(ends)))
    if a == b:
        b = a + 1

    ref = _ref_chain(p)
    chain = sturm_chain(p)
    assert len(chain) == len(ref)
    for f, g in zip(chain, ref):
        assert all(type(c) is int for c in f) and gcd(*f) == 1
        k = f[-1] / g[-1]  # every entry a positive multiple of the rational one
        assert k > 0 and tuple(k * c for c in g) == f

    cells = _ref_cells(ref, a, b)
    ivs = [(hi, hi) if fraction_horner(ref[0], hi) == 0 else (lo, hi) for lo, hi in cells]
    assert isolate_roots(p, a, b) == ivs
    width = data.draw(st.sampled_from((Q(1, 3), Q(1, 64), Q(1, 1000))))
    for lo, hi in ivs:
        assert refine_root(p, lo, hi, width) == _ref_refine(ref[0], lo, hi, width)
    for q in (p, poly_scale(p, -1)):
        assert poly_nonneg_on(q, a, b) == _ref_nonneg(poly(q), a, b)
