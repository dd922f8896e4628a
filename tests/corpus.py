"""Randomized corpora shared by the property and acceptance suites, and the
plain references that the exact kernels are checked against: Fraction
Horner for the evaluators, the invariant blocks by their definition in y
and their Fraction combination for the invariant expansions, the
distillation map composed in t and the family rows built member by member
in Fractions for the closed-form integer kernels, the threshold isolated
on the Sturm chain of the fixed-point polynomial in eps, and truncated
power series for the invariant ring's H series; also the readings of maps
and families that only the tests need, in Fractions."""

import random
from fractions import Fraction as Q
from math import lcm

from gf4msd.bounds import LinConstraint
from gf4msd.distill import THRESHOLD_WIDTH, ThresholdReport
from gf4msd.enumerators import Enumerator, signed_poly
from gf4msd.exact import poly_add, poly_compose, poly_divmod, poly_eval, poly_mul, poly_scale
from gf4msd.gf4 import (
    GF4_CHARS,
    Gf4Code,
    random_maximal_self_orthogonal_code,
    random_self_orthogonal_code,
)
from gf4msd.invariants import InvariantParams, num_cprime, num_dprime
from gf4msd.roots import isolate_roots, refine_root


def fraction_horner(p, x):
    """p(x) by Horner in Fractions: a reference kept apart from
    exact.poly_eval and its integer kernel."""
    acc = Q(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_pow(p, e):
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


# y-degree coefficient vectors (x = 1) of fhat = x^2 + 3y^2, ghat =
# y^2 (x^2 - y^2)^2 and the wedge y^2 (x^2 - y^2)
FHAT = (1, 0, 3)
GHAT = (0, 0, 1, 0, -2, 0, 1)
WEDGE = (0, 0, 1, 0, -1)


def reference_block(fpow, gpow, wedge=False):
    """fhat^fpow ghat^gpow, times the wedge if asked, multiplied out in y."""
    block = poly_mul(poly_pow(FHAT, fpow), poly_pow(GHAT, gpow))
    return poly_mul(WEDGE, block) if wedge else block


def reference_blocks(n):
    """The blocks of the length-n family in invariants._blocks order: c'
    (or the self-dual c) by j, then d' by j."""
    parts = [(n // 2, False)] if n % 2 == 0 else [((n - 1) // 2, False), ((n - 5) // 2, True)]
    return [reference_block(top - 3 * j, j, wedge) for top, wedge in parts for j in range(top // 3 + 1)]


def fraction_combination(n, coeffs, blocks):
    """The degree-n enumerator sum_i coeffs[i] blocks[i], accumulated in the
    coefficients' own type."""
    out = [0] * (n + 1)
    for c, block in zip(coeffs, blocks):
        for deg, val in enumerate(block):
            out[deg] += c * val
    return Enumerator(n, tuple(out))


# t = (1 - 2 eps)^2 / 3 as a polynomial in eps
T_OF_EPS = (Q(1, 3), Q(-4, 3), Q(4, 3))


def reference_map_polys(A, C, lam):
    """(M, N) in eps with N = signed_poly(A)(t) and M = N + lam u
    sum_j C_2j+1 (-t)^j / 3, each composed with t(eps) by poly_compose: the
    route that distill.eps_rows, the binomial matrix on a map's
    u-numerator, replaced."""
    n_poly = poly_compose(signed_poly(A), T_OF_EPS)
    odd_c = [(-1) ** j * c for j, c in enumerate(C.coeffs[1::2])]
    odd = poly_mul((1, -2), poly_compose(odd_c, T_OF_EPS))
    return poly_add(n_poly, poly_scale(odd, Q(lam, 3))), n_poly


def fixed_point_poly(dmap):
    """p = M - 2 eps N in eps, from the map's eps polynomials."""
    return poly_add(dmap.m_poly, poly_mul((0, -2), dmap.n_poly))


def reference_threshold(dmap):
    """The threshold isolated on p = M - 2 eps N in eps: the factors
    (1 - 2 eps) divided out over Q, the first isolating interval of the
    rest on (0, 1/2] refined to THRESHOLD_WIDTH, and the signs of p and N
    at half its left end; the route that distill.threshold replaced by the
    chain of q(t)."""
    p_full = fixed_point_poly(dmap)
    if not p_full:
        return ThresholdReport("identity")
    p = p_full
    while poly_eval(p, Q(1, 2)) == 0:
        p = poly_divmod(p, (-1, 2))[0]
    cells = isolate_roots(p, 0, Q(1, 2))
    if not cells:
        return ThresholdReport("no_threshold")
    lo, hi = refine_root(p, *cells[0], THRESHOLD_WIDTH)
    probe = lo / 2 if lo > 0 else lo
    pm, nm = poly_eval(p_full, probe), poly_eval(dmap.n_poly, probe)
    return ThresholdReport("ok", lo, hi, nm != 0 and pm / (2 * nm) < 0)


def family_members(fam):
    """The (A, B, C) Enumerators of each member of a family: its integer
    lists over the family's scale."""
    s = fam.scale
    return tuple(tuple(Enumerator(fam.n, tuple(Q(v, s) for v in vec)) for vec in m) for m in fam.ints)


def family_row(fam, func, sense):
    """The constraint func(A, B, C) <sense> 0 on a family's points, func
    linear memberwise, evaluated on each member in its own types."""
    base, *steps = family_members(fam)
    return LinConstraint(tuple(func(*m) for m in steps), sense, -func(*base))


def code_from_strings(rows):
    """The code generated by rows written in GF4_CHARS, one string each."""
    gens = tuple(tuple(GF4_CHARS.index(ch) for ch in row.strip()) for row in rows)
    return Gf4Code(len(gens[0]) if gens else 0, gens)


def verdict_all_ok(verdict):
    """Both consistency constraints of a QuantumVerdict hold, for both signs."""
    return verdict.success_nonneg and verdict.threshold_ok_plus and verdict.threshold_ok_minus


def family_enumerator_at(fam, point):
    """The A of a family at a point: the members' A combined in Fractions."""
    (A, _, _), *steps = family_members(fam)
    for v, (Ai, _, _) in zip(point, steps):
        if v:
            A = A + Ai.scale(Q(v))
    return A


def series(p, order):
    out = list(p[: order + 1])
    out += [0] * (order + 1 - len(out))
    return out


def series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def series_inv(a, order):
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


def series_compose(outer, inner, order):
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


def random_codes(seed=101, count=200, max_n=10):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        code = random_self_orthogonal_code(rng, n)
        out.append(code)
    return out


def random_maximal_codes(seed=77, count=24, lengths=(5, 7, 11)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(list(lengths))
        out.append(random_maximal_self_orthogonal_code(rng, n))
    return out


def random_family_params(seed=303, count=200, max_n=35):
    rng = random.Random(seed)
    out = []
    lengths = [n for n in range(5, max_n + 1, 2)]
    while len(out) < count:
        n = rng.choice(lengths)
        cp = [Q(1)] + [
            Q(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(num_cprime(n) - 1)
        ]
        dp = [Q(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(num_dprime(n))]
        out.append(InvariantParams(n, tuple(cp), tuple(dp)))
    return out


def sampled_negative_point(poly, grid=1000):
    """First eps = i/grid in [0, 1] with poly(eps) < 0, scanning exactly.

    Uses integer Horner on the denominator-cleared polynomial, so each
    sample is an exact sign evaluation.
    """
    if not poly:
        return None
    den = 1
    for c in poly:
        den = lcm(den, Q(c).denominator)
    ints = [int(Q(c) * den) for c in poly]
    d = len(ints) - 1
    mpows = [grid**e for e in range(d + 1)]
    for i in range(grid + 1):
        v = 0
        for j in range(d, -1, -1):
            v = v * i + ints[j] * mpows[d - j]
        if v < 0:
            return Q(i, grid)
    return None
