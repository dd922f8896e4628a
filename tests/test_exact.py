from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import fraction_horner, series_compose, series_inv, series_mul

from gf4msd import exact
from gf4msd.exact import (
    binom,
    catalan,
    decimal_str,
    ord_at_zero,
    poly,
    poly_compose,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    primitive,
    q_from_str,
    q_to_str,
    rref,
)


def test_rational_strings():
    assert q_to_str(Q(3)) == "3"
    assert q_to_str(Q(-256, 81)) == "-256/81"
    assert q_from_str("-256/81") == Q(-256, 81)
    assert q_from_str(" 7 ") == 7


def test_rational_strings_by_input_type(monkeypatch):
    # ints print as str(x), Fractions from their own numerator and
    # denominator; neither is wrapped in a new Fraction
    monkeypatch.setattr(exact, "Q", None)
    assert q_to_str(0) == "0" and q_to_str(-7) == "-7"
    assert q_to_str(10**40 + 1) == str(10**40 + 1)
    assert q_to_str(Q(6, 3)) == "2" and q_to_str(Q(-5, 10**30)) == "-1/2" + "0" * 29
    monkeypatch.undo()
    # anything else goes through Fraction as before
    assert (q_to_str(True), q_to_str(False)) == ("1", "0")
    assert (q_to_str("3/6"), q_to_str(" -4/2 "), q_to_str("7")) == ("1/2", "-2", "7")
    with pytest.raises(ValueError):
        q_to_str("x")


def test_generalized_binomial():
    assert binom(5, 2) == 10
    assert binom(5, 7) == 0
    assert binom(-1, 0) == 1
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(3, -1) == 0
    # the reflection formula against the product a (a-1) ... (a-k+1) / k!
    for a in range(-30, 30):
        for k in range(-3, 30):
            num = den = 1
            for i in range(max(k, 0)):
                num, den = num * (a - i), den * (i + 1)
            assert binom(a, k) == (num // den if k >= 0 else 0), (a, k)


def test_catalan():
    assert [catalan(j) for j in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_decimal_rendering():
    assert decimal_str(Q(1, 3), 6) == "0.333333"
    assert decimal_str(Q(2, 3), 4) == "0.6667"
    assert decimal_str(Q(-1, 8), 3) == "-0.125"
    assert decimal_str(Q(5), 2) == "5.00"


def test_decimal_rendering_without_digits():
    # zero digits render the rounded integer, with no decimal point
    assert decimal_str(Q(5), 0) == "5"
    assert decimal_str(Q(1, 2), 0) == "1"
    assert decimal_str(Q(-3, 2), 0) == "-2"
    assert decimal_str(Q(7, 4), 0) == "2"
    assert decimal_str(Q(1, 10), 0) == "0"
    # a negative value that rounds to zero prints without a sign
    assert decimal_str(Q(-1, 10), 0) == "0"
    assert decimal_str(Q(-1, 10**6), 3) == "0.000"
    assert decimal_str(Q(-1, 2), 0) == "-1"
    with pytest.raises(ValueError):
        decimal_str(Q(1, 3), -1)


def test_poly_basics():
    p = poly([1, 0, 3, 0])
    assert p == (1, 0, 3)
    assert poly_eval(p, Q(1, 2)) == Q(7, 4)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    q, r = poly_divmod((-1, 0, 1), (1, 1))  # (x^2 - 1) / (x + 1) = x - 1
    assert q == (-1, 1) and r == ()
    assert ord_at_zero((0, 0, 5, 1)) == 2
    assert ord_at_zero(()) is None


def test_poly_gcd():
    a = poly_mul((1, 1), (2, 1))
    b = poly_mul((1, 1), (3, 1))
    assert poly_gcd(a, b) == (1, 1)
    assert poly_gcd((), (2, 2)) == (1, 1)


def test_series_ops():
    geo = [1, 1, 1, 1, 1]
    inv = series_inv(geo, 4)
    assert inv == [1, -1, 0, 0, 0]
    assert series_mul(geo, inv, 4) == [1, 0, 0, 0, 0]
    comp = series_compose([1, 1], [0, 2, 1], 3)
    assert comp == [1, 2, 1, 0]
    with pytest.raises(ValueError):
        series_compose([1], [1, 1], 2)


_ENTRY = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)


@st.composite
def _matrices(draw):
    """(rows, ncols, permutation): up to 5 rows, up to 2 carried columns."""
    ncols = draw(st.integers(1, 4))
    width = ncols + draw(st.integers(0, 2))
    m = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=width, max_size=width), min_size=m, max_size=m))
    return rows, ncols, draw(st.permutations(range(m)))


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_properties(case):
    rows, ncols, perm = case
    pivot_rows, leftover, pivot_cols = rref(rows, ncols)
    assert len(pivot_rows) + len(leftover) == len(rows)
    assert len(pivot_rows) == len(pivot_cols)
    # reduced echelon form in the pivot range
    assert pivot_cols == sorted(set(pivot_cols))
    for i, (row, p) in enumerate(zip(pivot_rows, pivot_cols)):
        assert all(v == 0 for v in row[:p]) and row[p] == 1
        assert all(row[q] == 0 for k, q in enumerate(pivot_cols) if k != i)
    assert all(v == 0 for row in leftover for v in row[:ncols])
    # every input row is the combination of pivot rows its pivot entries
    # name, over the whole width once no leftover row carries a residue
    consistent = all(v == 0 for row in leftover for v in row)
    checked = len(rows[0]) if consistent and rows else ncols
    for x in rows:
        for c in range(checked):
            assert x[c] == sum(x[p] * row[c] for p, row in zip(pivot_cols, pivot_rows))
    # carried columns take the same row operations as the pivot range: an
    # identity block carried behind them records each output's combination
    m = len(rows)
    tagged = [list(x) + [int(i == r) for i in range(m)] for r, x in enumerate(rows)]
    t_piv, t_left, _ = rref(tagged, ncols)
    for out in t_piv + t_left:
        mix = out[len(out) - m :]
        assert all(
            out[c] == sum(w * x[c] for w, x in zip(mix, rows)) for c in range(len(out) - m)
        )
    # the output does not depend on the order of the input rows
    s_piv, _, s_cols = rref([rows[i] for i in perm], ncols)
    assert s_cols == pivot_cols
    assert [r[:ncols] for r in s_piv] == [r[:ncols] for r in pivot_rows]
    if consistent:
        assert s_piv == pivot_rows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**6, 10**6), _ENTRY), max_size=6))
def test_primitive_properties(values):
    out = primitive(values)
    assert len(out) == len(values) and all(type(v) is int for v in out)
    if not any(values):
        assert out == (0,) * len(values)
        return
    assert gcd(*out) == 1
    # a positive multiple: out = k * values with one k > 0 for every entry
    i = next(i for i, v in enumerate(values) if v)
    k = Q(out[i]) / Q(values[i])
    assert k > 0 and all(o == k * Q(v) for o, v in zip(out, values))
    assert primitive(out) == out
    assert primitive(tuple(Q(v) for v in out)) == out


def test_primitive_examples():
    assert primitive([Q(2, 3), Q(1, 2), Q(-7, 3)]) == (4, 3, -14)
    assert primitive((6, -4, 0)) == (3, -2, 0)
    assert primitive((0, 0)) == (0, 0)
    assert primitive(()) == ()
    assert primitive((-5,)) == (-1,)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_ENTRY, max_size=7),
    st.lists(_ENTRY, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=20),
)
@example([], [1, 2], Q(1, 2))
@example([Q(1, 3), 2, 5], [Q(-7, 2)], Q(3))
@example([1, 0, -1], [Q(1, 2), 0, 0], Q(0))
@example([0, 0, 0], [1, 1], Q(1))
def test_poly_compose_evaluates_as_substitution(p, q, x):
    out = poly_compose(p, q)
    assert fraction_horner(out, x) == fraction_horner(p, fraction_horner(q, x))
    assert out == poly(out)  # trimmed
    if all(type(c) is int for c in p + q):
        assert all(type(c) is int for c in out)


def test_poly_compose_examples():
    assert poly_compose((), (1, 2)) == ()
    assert poly_compose((5, 1), ()) == (5,)
    assert poly_compose((1, 2, 3), (Q(1, 2),)) == (Q(11, 4),)
    # t(eps) = (1 - 2 eps)^2 / 3 substituted into 1 - 3t
    assert poly_compose((1, -3), (Q(1, 3), Q(-4, 3), Q(4, 3))) == (0, 4, -4)
    assert poly_compose((0, 1), (Q(1, 12), Q(1, 12))) == (Q(1, 12), Q(1, 12))


def test_rref_examples():
    # carried rhs: x + 2y = 5, 3x + 4y = 6 -> x = -4, y = 9/2
    piv, left, cols = rref([[1, 2, 5], [3, 4, 6]], 2)
    assert cols == [0, 1] and left == []
    assert piv == [[1, 0, -4], [0, 1, Q(9, 2)]]
    # a dependent row is left over with its residue in the carried column
    piv, left, cols = rref([[0, 2, 4], [0, 1, 3], [0, 0, 0]], 2)
    assert cols == [1] and piv == [[0, 1, 2]]
    assert left == [[0, 0, 1], [0, 0, 0]]
