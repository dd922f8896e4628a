"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule on one integer tableau
(fraction-free pivoting: Edmonds 1967, Bareiss 1968).  Problems are stated
over free variables with <= and == rows of rational data; each row is
scaled to integers once, variables split into nonnegative pairs, and
slacks/artificials are added.  The tableau holds D * B^-1 [A | b] for the
current basis B, where D = |det B| is the common denominator, so every
pivot is an exact integer division and every value read off it is exact.

Every verdict carries a certificate, each checked exactly by its own
function:

    primal   min c.x   s.t.  G x <= h,  E x = f
    dual     max -h.lam - f.mu   s.t.  c + G^T lam + E^T mu = 0,  lam >= 0

- optimal: dual multipliers (`certify_optimum`);
- infeasible: a Farkas vector lam >= 0, mu with G^T lam + E^T mu = 0 and
  h.lam + f.mu < 0 (`certify_infeasible`), read off the phase-1 multipliers;
- unbounded: a feasible point x and a ray d with G d <= 0, E d = 0 and
  c.d < 0 (`certify_ray`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import Q

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


@dataclass
class LpResult:
    status: str
    x: tuple | None = None  # optimum, or the feasible point a ray starts from
    objective: Fraction | None = None
    # one multiplier per <= row (lam >= 0) and per == row (mu): the duals of
    # an optimum, the Farkas vector of an infeasible result
    dual_ub: tuple | None = None
    dual_eq: tuple | None = None
    ray: tuple | None = None


def _integer_row(values):
    """The row scaled by the lcm of its denominators, and that scale."""
    vals = [Q(v) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


def _pivot(tab, basis, row, col, d):
    """Fraction-free pivot; returns the new common denominator.

    Each row r != row becomes (T[r] * p - T[r][col] * T[row]) / d, an exact
    division.  A negative pivot (the phase-1 cleanup allows one) negates
    the tableau so that the denominator stays positive.
    """
    prow = tab[row]
    p = prow[col]
    for r, trow in enumerate(tab):
        if r == row:
            continue
        f = trow[col]
        if f:
            tab[r] = [(a * p - f * b) // d for a, b in zip(trow, prow)]
        elif p != d:
            tab[r] = [a * p // d for a in trow]
    basis[row] = col
    if p < 0:
        for r, trow in enumerate(tab):
            tab[r] = [-a for a in trow]
        p = -p
    return p


def _simplex(tab, basis, cost, enter_limit, d):
    """Minimize the integer cost; Bland's rule; entering columns below
    enter_limit only.  Returns (status, entering column or None, d)."""
    while True:
        in_basis = set(basis)
        priced = [(cost[b], tab[r]) for r, b in enumerate(basis) if cost[b]]
        entering = -1
        for j in range(enter_limit):
            if j in in_basis:
                continue
            # sign of the reduced cost, scaled by d > 0
            if cost[j] * d < sum(cb * trow[j] for cb, trow in priced):
                entering = j
                break
        if entering < 0:
            return OPTIMAL, None, d
        ratios = [
            (Fraction(trow[-1], trow[entering]), basis[r], r)
            for r, trow in enumerate(tab)
            if trow[entering] > 0
        ]
        if not ratios:
            return UNBOUNDED, entering, d
        _, _, row = min(ratios)
        d = _pivot(tab, basis, row, entering, d)


def solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free."""
    nv = len(c)
    c = [Q(v) for v in c]
    rows = [list(r) + [b] for r, b in zip(a_ub, b_ub)]
    rows += [list(r) + [b] for r, b in zip(a_eq, b_eq)]
    n_ub, n_eq = len(a_ub), len(a_eq)
    nrows = n_ub + n_eq
    art_start = 2 * nv + n_ub
    ncols = art_start + nrows

    tab = []
    row_mult = []  # original row i = row_mult[i] * tableau row i
    for i, values in enumerate(rows):
        ints, scale = _integer_row(values)
        arow, rhs = ints[:-1], ints[-1]
        row = arow + [-v for v in arow]
        row += [1 if (i < n_ub and j == i) else 0 for j in range(n_ub)]
        sign = 1
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            sign = -1
        row_mult.append(sign * scale)
        row += [1 if j == i else 0 for j in range(nrows)]
        tab.append(row + [rhs])

    basis = [art_start + i for i in range(nrows)]

    def multipliers(cost, scale, d):
        # simplex multipliers y from the artificial columns (B^-1 e_i is
        # stored there); the original rows carry -row_mult_i * y_i
        cb = [cost[b] for b in basis]
        y = [
            sum(cb[r] * tab[r][art_start + i] for r in range(nrows))
            for i in range(nrows)
        ]
        w = [Fraction(-row_mult[i] * y[i], scale * d) for i in range(nrows)]
        return tuple(w[:n_ub]), tuple(w[n_ub:])

    # phase 1
    phase1 = [0] * art_start + [1] * nrows
    _, _, d = _simplex(tab, basis, phase1, ncols, 1)
    if any(tab[r][-1] for r in range(nrows) if basis[r] >= art_start):
        # the phase-1 multipliers give y.A <= 0 on every non-artificial
        # column and y.b > 0: a Farkas vector
        lam, mu = multipliers(phase1, 1, d)
        return LpResult(INFEASIBLE, dual_ub=lam, dual_eq=mu)
    for r in range(nrows):
        if basis[r] >= art_start:
            for j in range(art_start):
                if tab[r][j] != 0:
                    d = _pivot(tab, basis, r, j, d)
                    break

    def point():
        xfull = [0] * art_start
        for r in range(nrows):
            if basis[r] < art_start:
                xfull[basis[r]] = tab[r][-1]
        return tuple(Fraction(xfull[j] - xfull[nv + j], d) for j in range(nv))

    # phase 2 (artificial columns stay in the tableau but may not enter)
    c_scale = lcm(*(v.denominator for v in c))
    c_int = [v.numerator * (c_scale // v.denominator) for v in c]
    cost = c_int + [-v for v in c_int] + [0] * (n_ub + nrows)
    status, entering, d = _simplex(tab, basis, cost, art_start, d)
    if status == UNBOUNDED:
        direction = [0] * art_start
        direction[entering] = d
        for r in range(nrows):
            if basis[r] < art_start:
                direction[basis[r]] = -tab[r][entering]
        ray = tuple(Fraction(direction[j] - direction[nv + j], d) for j in range(nv))
        return LpResult(UNBOUNDED, x=point(), ray=ray)

    x = point()
    objective = sum(ci * xi for ci, xi in zip(c, x))
    lam, mu = multipliers(cost, c_scale, d)
    return LpResult(OPTIMAL, x=x, objective=objective, dual_ub=lam, dual_eq=mu)


def _dot(row, vec):
    return sum(Q(a) * v for a, v in zip(row, vec))


def _feasible_point(a_ub, b_ub, a_eq, b_eq, x) -> bool:
    return all(_dot(row, x) <= Q(b) for row, b in zip(a_ub, b_ub)) and all(
        _dot(row, x) == Q(b) for row, b in zip(a_eq, b_eq)
    )


def certify_optimum(c, a_ub, b_ub, a_eq, b_eq, result: LpResult) -> bool:
    """Exact optimality certificate.

    Checks primal feasibility, dual feasibility, stationarity,
    complementary slackness and a zero duality gap; any failure is False.
    """
    if result.status != OPTIMAL:
        return False
    x = result.x
    if not _feasible_point(a_ub, b_ub, a_eq, b_eq, x):
        return False
    lam = list(result.dual_ub or ())
    mu = list(result.dual_eq or ())
    if any(l < 0 for l in lam):
        return False
    for j in range(len(c)):
        s = Q(c[j])
        s += sum(lam[i] * Q(a_ub[i][j]) for i in range(len(a_ub)))
        s += sum(mu[k] * Q(a_eq[k][j]) for k in range(len(a_eq)))
        if s != 0:
            return False
    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        slack = Q(b) - _dot(row, x)
        if lam[i] * slack != 0:
            return False
    gap = result.objective
    gap += sum(lam[i] * Q(b_ub[i]) for i in range(len(b_ub)))
    gap += sum(mu[k] * Q(b_eq[k]) for k in range(len(b_eq)))
    return gap == 0


def certify_infeasible(a_ub, b_ub, a_eq, b_eq, result: LpResult) -> bool:
    """Exact Farkas certificate of infeasibility.

    Checks lam >= 0, G^T lam + E^T mu = 0 and h.lam + f.mu < 0 for the
    multipliers (lam, mu) = (result.dual_ub, result.dual_eq); then no x
    satisfies G x <= h, E x = f.
    """
    lam, mu = result.dual_ub, result.dual_eq
    if result.status != INFEASIBLE or lam is None or mu is None:
        return False
    if len(lam) != len(a_ub) or len(mu) != len(a_eq) or any(l < 0 for l in lam):
        return False
    pairs = list(zip(lam, a_ub)) + list(zip(mu, a_eq))
    nv = len(pairs[0][1]) if pairs else 0
    for j in range(nv):
        if sum(w * Q(row[j]) for w, row in pairs) != 0:
            return False
    return _dot(b_ub, lam) + _dot(b_eq, mu) < 0


def certify_ray(c, a_ub, b_ub, a_eq, b_eq, result: LpResult) -> bool:
    """Exact certificate of unboundedness.

    Checks that result.x is feasible and that the ray d satisfies G d <= 0,
    E d = 0 and c.d < 0, so x + t d stays feasible while c.x falls without
    bound as t grows.
    """
    if result.status != UNBOUNDED or result.x is None or result.ray is None:
        return False
    d = result.ray
    if not _feasible_point(a_ub, b_ub, a_eq, b_eq, result.x):
        return False
    if not _feasible_point(a_ub, [0] * len(a_ub), a_eq, [0] * len(a_eq), d):
        return False
    return _dot(c, d) < 0
