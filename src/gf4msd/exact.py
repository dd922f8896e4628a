"""Exact rational helpers shared across the package.

Univariate polynomials are tuples of coefficients indexed by power
(``p[i]`` multiplies ``x**i``) and trimmed so the last entry is nonzero;
the zero polynomial is the empty tuple.  Coefficients may be ints or
Fractions; operations never introduce floats.  ``poly_compose`` is the
general polynomial substitution (the Bernstein pieces' shifts); the
distillation map's change of variable is the binomial matrix of
``distill.eps_rows``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

Q = Fraction

ZERO_POLY: tuple = ()


def q_to_str(x) -> str:
    if type(x) is int:
        return str(x)
    if not isinstance(x, Fraction):
        x = Q(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else "%d/%d" % (num, den)


def as_int_if_possible(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def integer_row(values) -> tuple:
    """The rational vector scaled to integers by the lcm of its
    denominators, and that scale: (list of ints, scale)."""
    if all(type(v) is int for v in values):
        return list(values), 1
    vals = [Q(v) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


def dot(row, vec):
    """sum_i row[i] vec[i] over the shorter of the two."""
    return sum(map(mul, row, vec))


def primitive(values) -> tuple:
    """The primitive integer vector (content 1) that is a positive multiple
    of a rational vector; the zero vector stays zero."""
    values = integer_row(values)[0]
    g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def binom(a: int, k: int) -> int:
    """Generalized binomial coefficient for integer a, by the reflection
    C(a, k) = (-1)^k C(k - a - 1, k) for a < 0."""
    if k < 0:
        return 0
    return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)


def catalan(j: int) -> int:
    return comb(2 * j, j) // (j + 1)


def decimal_str(x, digits: int = 12) -> str:
    """Render a rational as a decimal string, rounded to `digits` >= 0 places."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    x = Q(x)
    scaled = abs(x) * 10**digits
    # round half away from zero; a value that rounds to zero has no sign
    units = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if x < 0 and units else ""
    if not digits:
        return sign + str(units)
    s = str(units).rjust(digits + 1, "0")
    return "%s%s.%s" % (sign, s[:-digits], s[-digits:])


# ---------------------------------------------------------------------------
# dense polynomial arithmetic


def poly(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p) -> int:
    return len(p) - 1


def poly_add(p, q_) -> tuple:
    n = max(len(p), len(q_))
    return poly((p[i] if i < len(p) else 0) + (q_[i] if i < len(q_) else 0) for i in range(n))


def poly_scale(p, s) -> tuple:
    if s == 0:
        return ZERO_POLY
    return tuple(a * s for a in p)


def poly_mul(p, q_) -> tuple:
    if not p or not q_:
        return ZERO_POLY
    out = [0] * (len(p) + len(q_) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q_):
            if b:
                out[i + j] += a * b
    return poly(out)


def poly_eval(p, x) -> Fraction:
    """p(x) for an int or Fraction x, exact by integer Horner over the
    common denominator of the coefficients."""
    ints, den = integer_row(p)
    return Q(scaled_horner(ints, x), den * x.denominator ** max(len(p) - 1, 0))


def scaled_horner(p, x) -> int:
    """v^deg p(u/v) for x = u/v, v > 0: the integer Horner evaluation of an
    integer polynomial, with the sign of p(x)."""
    u, v = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return acc


def poly_compose(p, q) -> tuple:
    """p(q(x)): Horner over Z gives v^deg p(u/v) for q = u/v (p scaled to
    integers, u over Z, v > 0), divided once at the end."""
    ints, scale = integer_row(p)
    u, v = integer_row(q)
    acc, w = ZERO_POLY, 1
    for c in reversed(ints):
        acc = poly_add(poly_mul(acc, u), (c * w,))
        w *= v
    den = scale * w // v
    return acc if den == 1 else tuple(Q(a, den) for a in acc)


def poly_deriv(p) -> tuple:
    return poly(i * a for i, a in enumerate(p) if i > 0) if len(p) > 1 else ZERO_POLY


def poly_divmod(p, d):
    """Exact division with remainder over the rationals."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Q(a) for a in p]
    dq = [Q(a) for a in d]
    out = [Q(0)] * max(len(p) - len(d) + 1, 0)
    lead = dq[-1]
    while len(r) >= len(dq) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(dq):
            break
        k = len(r) - len(dq)
        f = r[-1] / lead
        out[k] = f
        for i, a in enumerate(dq):
            r[k + i] -= f * a
        r.pop()
    return poly(out), poly(r)


def poly_gcd(p, q_) -> tuple:
    """Monic gcd over the rationals."""
    a, b = poly(Q(x) for x in p), poly(Q(x) for x in q_)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ZERO_POLY
    return poly_scale(a, Q(1) / a[-1])


def ord_at_zero(p) -> int | None:
    """Order of vanishing at 0; None for the zero polynomial."""
    return next((i for i, a in enumerate(p) if a != 0), None)


# ---------------------------------------------------------------------------
# linear algebra


def rref_steps(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination over Z, one row at a time in
    input order (Bareiss, Math. Comp. 22, 1968).

    Each input row is first scaled to integers by integer_row, with scale
    s.  After each row this yields (d, pivots, leftover): pivots is a tuple
    of (col, row) pairs in increasing col, each row an integer list that is
    d > 0 at its col and 0 at every other pivot col, so that the rows over
    d are the reduced row echelon form of the rows so far; leftover holds,
    in input order, a pair (row, scale) for each row so far that is zero in
    the first ncols columns, row over scale being what is left of it.
    Columns after ncols are carried along without pivoting, and no yielded
    list is changed afterwards.
    """
    d, pivots, leftover = 1, (), ()
    for values in rows:
        r, s = integer_row(values)
        red = [d * v for v in r] if d != 1 else r
        for p, prow in pivots:
            f = r[p]
            if f:
                red = [a - f * b for a, b in zip(red, prow)]
        q = next((c for c in range(ncols) if red[c]), None)
        if q is None:
            leftover += ((red, d * s),)
        else:
            e = red[q]
            if e < 0:
                red, e = [-v for v in red], -e
            # every division is exact: d and e are the determinants of the
            # pivot blocks before and after the new row joins
            new = []
            for p, prow in pivots:
                f = prow[q]
                if f:
                    prow = [(a * e - f * b) // d for a, b in zip(prow, red)]
                elif e != d:
                    prow = [a * e // d for a in prow]
                new.append((p, prow))
            new.append((q, red))
            new.sort(key=lambda pr: pr[0])
            d, pivots = e, tuple(new)
        yield d, pivots, leftover


def rref(rows, ncols: int):
    """Gauss-Jordan elimination over Q, pivoting in the first ncols columns.

    Columns after ncols (a right-hand side, or a record of which input rows
    were combined) are carried along without pivoting.  Returns
    (pivot_rows, leftover_rows, pivot_cols): pivot_rows[i] has 1 at
    pivot_cols[i] (increasing) and 0 at every other pivot column; the
    leftover rows, in input order, are what is left of the rows that
    depend on earlier ones, zero in the first ncols columns.  This is
    rref_steps read at its last step; ``gf4.rref`` is the same elimination
    over GF(4).
    """
    d, pivots, leftover = 1, (), ()
    for d, pivots, leftover in rref_steps(rows, ncols):
        pass
    return (
        [[Q(v, d) for v in row] for _, row in pivots],
        [[Q(v, s) for v in row] for row, s in leftover],
        [p for p, _ in pivots],
    )

