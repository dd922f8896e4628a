from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import fraction_horner

from gf4msd import bounds, distill, invariants
from gf4msd.enumerators import (
    DomainError,
    Enumerator,
    MacWilliamsError,
    ParseError,
    macwilliams,
    signed_eval,
    signed_poly,
    transform_xy,
)

FIVE_A = Enumerator.from_pairs(5, {0: 1, 4: 15})
HEXA_A = Enumerator.from_pairs(6, {0: 1, 4: 45, 6: 18})


def test_construction_and_views():
    with pytest.raises(ValueError):
        Enumerator(3, (1, 0))
    e = Enumerator(2, (Q(2, 2), 0, Q(3)))
    assert e.coeffs == (1, 0, 3)
    assert e.is_integral()
    assert e.total() == 4
    assert FIVE_A.is_even_only()
    assert not FIVE_A.is_odd_only()
    assert FIVE_A.pretty() == "1 + 15y^4"
    assert FIVE_A.canonical_key() == "5:1,0,0,0,15,0"


def test_macwilliams_five_qubit():
    B = macwilliams(FIVE_A)
    assert B.coeffs == (1, 0, 0, 30, 15, 18)
    C = B - FIVE_A
    assert C.coeffs == (0, 0, 0, 30, 0, 18)
    assert C.is_odd_only()


def test_macwilliams_self_dual_fixed_point():
    assert macwilliams(HEXA_A).coeffs == HEXA_A.coeffs


def test_macwilliams_zero_code():
    A = Enumerator.from_pairs(3, {0: 1})
    B = macwilliams(A)
    # (x + 3y)^3 expanded
    assert B.coeffs == (1, 9, 27, 27)


def test_macwilliams_non_integer_output():
    bad = Enumerator(2, (1, 1, 1))
    with pytest.raises(MacWilliamsError):
        macwilliams(bad)


def test_macwilliams_involution():
    for A in (FIVE_A, HEXA_A):
        back = macwilliams(macwilliams(A))
        assert back.coeffs == A.coeffs


def test_transform_scaling_identities():
    fhat = Enumerator(2, (1, 0, 3))
    assert transform_xy(fhat).coeffs == (4, 0, 12)
    ghat = Enumerator(6, (0, 0, 1, 0, -2, 0, 1))
    assert transform_xy(ghat).coeffs == tuple(64 * c for c in ghat.coeffs)


def test_signed_eval():
    assert signed_eval(FIVE_A, Q(1, 3)) == 1 + 15 * Q(1, 9)
    # x^n at any argument is 1
    assert signed_eval(Enumerator.from_pairs(7, {0: 1}), Q(5, 7)) == 1
    pair = Enumerator.from_pairs(2, {0: 1, 2: 3})
    assert signed_eval(pair, Q(1, 3)) == 0  # 1 - 3 r^2 at r^2 = 1/3
    with pytest.raises(ValueError):
        signed_eval(Enumerator.from_pairs(3, {1: 1}), Q(1, 2))


_COEFF = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**9))
_T = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
    st.integers(-5, 5).map(lambda v: Q(v, 10**40 + 7)),  # a large denominator
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFF, min_size=1, max_size=9), _T)
@example([Q(1, 3), 0, Q(-7, 2)], Q(0))
@example([1, 2, 3], -2)
@example([Q(-5, 6), Q(1, 10**20)], Q(-7, 10**30 + 1))
def test_signed_eval_matches_fraction_horner(even_coeffs, t):
    # an even-only enumerator with rational coefficients A_{2j}
    A = Enumerator.from_pairs(2 * len(even_coeffs), {2 * j: a for j, a in enumerate(even_coeffs)})
    value = signed_eval(A, t)
    assert type(value) is Q
    assert value == fraction_horner(signed_poly(A), t)


def test_signed_eval_at_zero_is_one():
    assert signed_eval(FIVE_A, 0) == 1
    assert signed_eval(HEXA_A, 0) == 1


def _transform_by_binomial_sums(A):
    """A(x + 3y, x - y) by the binomial convolution of (x+3y)^(n-j)
    against (x-y)^j for each A_j, the direct formula."""
    n = A.n
    out = [0] * (n + 1)
    for j, a in enumerate(A.coeffs):
        if a == 0:
            continue
        for k in range(n + 1):
            s = 0
            for i in range(max(0, k - (n - j)), min(j, k) + 1):
                s += comb(n - j, k - i) * 3 ** (k - i) * comb(j, i) * (-1) ** i
            if s:
                out[k] += a * s
    return Enumerator(n, tuple(out))


_TRANSFORM_COEFF = st.one_of(st.integers(-10**4, 10**4), st.fractions(-50, 50, max_denominator=100))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 24).flatmap(lambda n: st.lists(_TRANSFORM_COEFF, min_size=n + 1, max_size=n + 1)))
@example([Q(1, 2)])
@example([0] * 25)
@example([1] + [0] * 23 + [Q(-7, 3)])
def test_transform_xy_matches_binomial_sums(coeffs):
    A = Enumerator(len(coeffs) - 1, tuple(coeffs))
    T = transform_xy(A)
    assert T == _transform_by_binomial_sums(A)
    # (x, y) -> (x + 3y, x - y) twice is (x, y) -> (4x, 4y)
    assert transform_xy(T) == A.scale(4**A.n)


def test_serialization():
    again = Enumerator.from_json(FIVE_A.to_json())
    assert again == FIVE_A
    frac = Enumerator(1, (Q(1, 2), 1))
    assert Enumerator.from_json(frac.to_json()) == frac
    with pytest.raises(ParseError):  # no padding around a rational string
        Enumerator.from_json('{"n": 0, "coeffs": [" 7 "]}')


# The length domains: for each entry point, the message of the first domain
# that n falls outside, per n of LENGTHS; None where n is inside them all.
ODD, EVEN = "need odd n >= 5", "need even n >= 6"
MAP = "n = {n} is not congruent to +-1 mod 6"
LENGTHS = (-1, 1, 3, 4, 9, 15)
ODD_THEN_MAP = (ODD, ODD, ODD, ODD, MAP, MAP)
DOMAIN_CASES = {
    "distillation_family": (bounds.distillation_family, (ODD, ODD, ODD, ODD, None, None)),
    "max_distance_bound": (bounds.max_distance_bound, (ODD, ODD, ODD, ODD, None, None)),
    "max_nu_bound": (bounds.max_nu_bound, ODD_THEN_MAP),
    "extremal_distillation_params": (invariants.extremal_distillation_params, ODD_THEN_MAP),
    "extremal_A2": (invariants.extremal_A2, ODD_THEN_MAP),
    "natural_sign": (distill.natural_sign, (None, None, MAP, MAP, MAP, MAP)),
    "quantum_filter_distill": (
        lambda n: bounds.quantum_filter_distill(bounds.distillation_family(n, pin_trivial=False)),
        ODD_THEN_MAP,
    ),
    "selfdual_family": (bounds.selfdual_family, (EVEN,) * 6),
    "selfdual_extremal_params": (invariants.selfdual_extremal_params, (EVEN,) * 6),
    "classical_distance_bound_selfdual": (bounds.classical_distance_bound_selfdual, (EVEN,) * 6),
    "lattice_search": (bounds.lattice_search, (ODD, ODD, ODD, EVEN, None, None)),
    "lattice_search_quantum": (lambda n: bounds.lattice_search(n, use_quantum=True), (ODD, ODD, ODD, EVEN, MAP, MAP)),
}


@pytest.mark.parametrize("name", DOMAIN_CASES)
def test_length_domain_messages(name):
    func, expected = DOMAIN_CASES[name]
    messages = {ODD, EVEN} | {MAP.format(n=n) for n in LENGTHS}
    for n, message in zip(LENGTHS, expected):
        try:
            func(n)
            got = None
        except DomainError as exc:
            # lattice_search(15) fails later, on the lattice dimension
            got = str(exc) if str(exc) in messages else None
        assert got == (message and message.format(n=n)), (name, n)
