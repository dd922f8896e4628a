from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gf4msd.enumerators import (
    Enumerator,
    MacWilliamsError,
    alt_odd_eval,
    logical_enumerator,
    macwilliams,
    signed_eval,
    signed_poly,
    transform_xy,
)
from gf4msd.exact import poly_eval

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
    B = macwilliams(FIVE_A, 16)
    assert B.coeffs == (1, 0, 0, 30, 15, 18)
    C = logical_enumerator(FIVE_A, B)
    assert C.coeffs == (0, 0, 0, 30, 0, 18)
    assert C.is_odd_only()


def test_macwilliams_self_dual_fixed_point():
    assert macwilliams(HEXA_A, 64).coeffs == HEXA_A.coeffs


def test_macwilliams_zero_code():
    A = Enumerator.from_pairs(3, {0: 1})
    B = macwilliams(A, 1)
    # (x + 3y)^3 expanded
    assert B.coeffs == (1, 9, 27, 27)


def test_macwilliams_count_mismatch():
    with pytest.raises(MacWilliamsError):
        macwilliams(FIVE_A, 17)


def test_macwilliams_non_integer_output():
    bad = Enumerator(2, (1, 1, 1))
    with pytest.raises(MacWilliamsError):
        macwilliams(bad, 3)


def test_macwilliams_involution():
    for A, size in ((FIVE_A, 16), (HEXA_A, 64)):
        n = A.n
        B = macwilliams(A, size)
        back = macwilliams(B, 4**n // size)
        assert back.coeffs == A.coeffs


def test_transform_scaling_identities():
    fhat = Enumerator(2, (1, 0, 3))
    assert transform_xy(fhat).coeffs == (4, 0, 12)
    ghat = Enumerator(6, (0, 0, 1, 0, -2, 0, 1))
    assert transform_xy(ghat).coeffs == tuple(64 * c for c in ghat.coeffs)


def test_logical_enumerator_negative_rejected():
    A = Enumerator.from_pairs(2, {0: 1, 2: 3})
    B = Enumerator.from_pairs(2, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        logical_enumerator(A, B)


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
    assert value == poly_eval(signed_poly(A), t)


def test_signed_eval_at_zero_is_one():
    assert signed_eval(FIVE_A, 0) == 1
    assert signed_eval(HEXA_A, 0) == 1


def test_alt_odd_eval():
    C = Enumerator.from_pairs(5, {3: 30, 5: 18})
    t = Q(1, 4)
    assert alt_odd_eval(C, t) == -30 * t**3 + 18 * t**5
    assert alt_odd_eval(Enumerator(4, (0,) * 5), Q(1, 2)) == 0
    # single-term y^n cases
    assert alt_odd_eval(Enumerator.from_pairs(5, {5: 1}), 1) == 1
    assert alt_odd_eval(Enumerator.from_pairs(3, {3: 1}), 1) == -1
    with pytest.raises(ValueError):
        alt_odd_eval(FIVE_A, 1)


def test_serialization():
    again = Enumerator.from_json(FIVE_A.to_json())
    assert again == FIVE_A
    frac = Enumerator(1, (Q(1, 2), 1))
    assert Enumerator.from_json(frac.to_json()) == frac
