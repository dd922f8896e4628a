"""Exact real-root analysis for rational polynomials, in integer arithmetic.

One Sturm chain per polynomial decides everything here.  Its sign
variations V count the distinct real roots of p in the half-open interval
(a, b] as V(a) - V(b), for every a < b and whether or not a or b is a
root: a root at a is not counted, a root at b is.  Root isolation is
plain bisection on these counts, a root on the right end of a cell comes
back as the exact interval (r, r), and sign decisions on closed intervals
test the two ends and one point left of each root.  Chain entries are
primitive integer polynomials, positive multiples of the rational Sturm
entries, and only signs are read: p at u/v (v > 0) is the integer
v^deg p(u/v) by Horner.  Positive scaling keeps every sign, so every
result is that of the rational chain, and no floating point enters.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .exact import Q, poly, poly_degree, poly_deriv, primitive, scaled_horner


def _primitive(p) -> tuple:
    """The primitive integer polynomial that is a positive multiple of p."""
    return poly(primitive(p))


def _pdivmod(a, b) -> tuple:
    """(q, r) with k a = q b + r over Z, k > 0: positive multiples of a div b and a mod b."""
    r, q = list(a), []
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    for k in range(len(a) - len(b), -1, -1):
        t = r.pop()
        g = gcd(t, m)
        c, f = s * t // g, m // g  # f r - c x^k b clears the top term
        if f > 1:
            q, r = [x * f for x in q], [x * f for x in r]
        q.append(c)
        for i in range(len(b) - 1):
            r[k + i] -= c * b[i]
    return tuple(reversed(q)), poly(r)


def sturm_chain(p) -> list:
    """Sturm chain of p as primitive integer polynomials: the remainder
    sequence of (p, p'), divided by its last entry g = gcd(p, p') when g
    is not constant.

    chain[0] is then the square-free part of p, consecutive entries share
    no root, and the sign variations count distinct roots on (a, b].
    """
    chain = [_primitive(p)]
    if not chain[0]:
        raise ValueError("zero polynomial has no isolated roots")
    d = _primitive(poly_deriv(chain[0]))
    if d:
        chain.append(d)
    while poly_degree(chain[-1]) > 0:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    g = chain[-1]
    if poly_degree(g) > 0:
        chain = [_primitive(_pdivmod(f, g)[0]) for f in chain]
    return chain


def _variations(chain, x) -> int:
    signs = [v > 0 for v in (scaled_horner(f, x) for f in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _cells(level, a, b):
    """Yield bisection cells (lo, hi] of (a, b] in increasing order, one distinct root each.

    level(x) is an integer with level(lo) - level(hi) distinct roots on
    (lo, hi] for all lo < hi, such as the sign variations of a Sturm chain.
    """

    def split(lo, vlo, hi, vhi):
        if vlo - vhi == 1:
            yield lo, hi
        elif vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = level(mid)
            yield from split(lo, vlo, mid, vmid)
            yield from split(mid, vmid, hi, vhi)

    a, b = Q(a), Q(b)
    return split(a, level(a), b, level(b))


def isolate_roots(p, a, b) -> list:
    """Disjoint increasing rational intervals, one per distinct root of p in (a, b].

    A root on the right end of its bisection cell comes back as (r, r);
    any other interval (lo, hi) holds its root strictly inside, with
    p(hi) != 0.
    """
    chain = sturm_chain(p)
    cells = _cells(partial(_variations, chain), a, b)
    return [(hi, hi) if scaled_horner(chain[0], hi) == 0 else (lo, hi) for lo, hi in cells]


def refine_root(p, lo, hi, width) -> tuple:
    """Shrink an isolating interval of isolate_roots to the requested width."""
    return _refine(partial(scaled_horner, sturm_chain(p)[0]), Q(lo), Q(hi), width)


def _refine(sign, lo, hi, width) -> tuple:
    """Bisection of (lo, hi] against sign(hi), sign(x) having the sign of a
    square-free polynomial at x; a root at hi or at a midpoint comes back
    as (r, r)."""
    s = sign(hi)
    if s == 0:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = sign(mid)
        if v == 0:
            return mid, mid
        if (v > 0) == (s > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _left_of_root(h, lo, hi):
    """A point of [lo, r) off the roots of h, r being its one root in (lo, hi]."""
    if scaled_horner(h, lo):
        return lo
    s = scaled_horner(h, hi)
    while True:
        mid = (lo + hi) / 2
        v = scaled_horner(h, mid)
        if s == 0 or v * s < 0:
            return mid
        hi, s = mid, v


def poly_nonneg_on(p, a, b):
    """Decide p(x) >= 0 for all x in [a, b] exactly.

    Returns (True, None) or (False, witness) with a rational witness where
    p(witness) < 0.  Between consecutive roots the sign of p is constant,
    so a, b and one point left of each root in (a, b] decide it.
    """
    p = _primitive(p)
    a, b = Q(a), Q(b)
    if not p:
        return True, None
    for x in (a, b):
        if scaled_horner(p, x) < 0:
            return False, x
    chain = sturm_chain(p)
    for lo, hi in _cells(partial(_variations, chain), a, b):
        x = _left_of_root(chain[0], lo, hi)
        if scaled_horner(p, x) < 0:
            return False, x
    return True, None


def bernstein_coefficients(p, degree: int) -> list:
    """Coefficients of p in the Bernstein basis of the given degree on [0, 1]."""
    from math import comb

    if poly_degree(p) > degree:
        raise ValueError("degree too small for polynomial")
    out = []
    for j in range(degree + 1):
        s = Q(0)
        for k in range(min(j, len(p) - 1) + 1 if p else 0):
            if p[k]:
                s += Q(comb(j, k), comb(degree, k)) * p[k]
        out.append(s)
    return out
