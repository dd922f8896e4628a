"""Exact rational helpers shared across the package.

Univariate polynomials are tuples of coefficients indexed by power
(``p[i]`` multiplies ``x**i``) and trimmed so the last entry is nonzero;
the zero polynomial is the empty tuple.  Coefficients may be ints or
Fractions; operations never introduce floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

Q = Fraction

ZERO_POLY: tuple = ()


def q_to_str(x) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def q_from_str(s: str) -> Fraction:
    return Q(s.strip())


def as_int_if_possible(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def primitive(values) -> tuple:
    """The primitive integer vector (content 1) that is a positive multiple
    of a rational vector; the zero vector stays zero."""
    if not all(isinstance(v, int) for v in values):
        values = [Q(v) for v in values]
        den = lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def binom(a: int, k: int) -> int:
    """Generalized binomial coefficient for integer a (possibly negative)."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k) if k <= a else 0
    num = 1
    for i in range(k):
        num *= a - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    assert num % den == 0
    return num // den


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


def poly_sub(p, q_) -> tuple:
    n = max(len(p), len(q_))
    return poly((p[i] if i < len(p) else 0) - (q_[i] if i < len(q_) else 0) for i in range(n))


def poly_neg(p) -> tuple:
    return tuple(-a for a in p)


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


def poly_pow(p, e: int) -> tuple:
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_eval(p, x):
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


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
    if not p:
        return None
    for i, a in enumerate(p):
        if a != 0:
            return i
    return None


# ---------------------------------------------------------------------------
# linear algebra


def rref(rows, ncols: int):
    """Gauss-Jordan elimination over Q, pivoting in the first ncols columns.

    Columns after ncols (a right-hand side, or a record of which input rows
    were combined) are carried along without pivoting.  Each column takes
    as pivot the first unused row, in input order, that is nonzero there.
    Returns (pivot_rows, leftover_rows, pivot_cols): pivot_rows[i] has 1 at
    pivot_cols[i] (increasing) and 0 at every other pivot column; the
    leftover rows, in input order, are zero in the first ncols columns.
    ``gf4.rref`` is the same elimination over GF(4).
    """
    work = [[Q(v) for v in r] for r in rows]
    unused = list(range(len(work)))
    chosen, pivot_cols = [], []
    for col in range(ncols):
        sel = next((i for i in unused if work[i][col] != 0), None)
        if sel is None:
            continue
        unused.remove(sel)
        piv = work[sel][col]
        prow = work[sel] = [v / piv for v in work[sel]]
        for i, row in enumerate(work):
            f = row[col]
            if i != sel and f != 0:
                work[i] = [v - f * w for v, w in zip(row, prow)]
        chosen.append(sel)
        pivot_cols.append(col)
    return [work[i] for i in chosen], [work[i] for i in unused], pivot_cols


# ---------------------------------------------------------------------------
# truncated power series (dense lists of length order+1)


def series(p, order: int) -> list:
    out = list(p[: order + 1])
    out += [0] * (order + 1 - len(out))
    return out


def series_mul(a, b, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def series_inv(a, order: int) -> list:
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv = [Q(1) / Q(a[0])] + [Q(0)] * order
    for k in range(1, order + 1):
        s = 0
        for i in range(1, k + 1):
            ai = a[i] if i < len(a) else 0
            if ai:
                s += ai * inv[k - i]
        inv[k] = -s / a[0]
    return inv


def series_compose(outer, inner, order: int) -> list:
    """outer(inner(x)) truncated; requires inner[0] == 0."""
    if inner and inner[0] != 0:
        raise ValueError("inner series must have zero constant term")
    out = [0] * (order + 1)
    power = [1] + [0] * order
    for c in outer:
        if c:
            for i, x in enumerate(power):
                out[i] += c * x
        power = series_mul(power, series(inner, order), order)
        if all(x == 0 for x in power):
            break
    return out
