"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule on one integer tableau
(fraction-free pivoting: Edmonds 1967, Bareiss 1968).  Problems are stated
over free variables with <= and == rows of rational data; each row and the
objective are scaled to integers once (``exact.integer_row``), variables
split into nonnegative pairs, and slacks/artificials are added.  The
tableau holds D * B^-1 [A | b] for the current basis B, where D = |det B|
is the common denominator, so every pivot is an exact integer division and
every value read off it is exact.
Only the x+, artificial and rhs columns are stored: each x- column is the
negated x+ column and each slack column is its row's artificial column
times the sign the row was stored with, so a (stored column, sign) map
gives Bland's rule the columns, and the pivots, of the full tableau.

Phase 1 has two starts.  The default puts every row's artificial in the
basis; its point is the reported witness of a bound (Bland's vertex, pinned
byte for byte by the CLI goldens) and the one the Fraction reference solver
of the tests reproduces.  The slack start (``slack_start=True``) puts in the
slack of each <= row whose rhs is >= 0: such a row is stored unnegated, so
its slack column is its artificial's.  Only the other rows start with an
artificial, and phase 1 skips about two pivots per such row.  ``bounds`` uses it for the LPs whose only output is a
verdict or an optimum: a bound's bisection probes and quantum-level search,
and the range LPs of the lattice count and the vertex enumeration.  Its
status and optimum are those of the default start, each certified alike,
but its point is a certified vertex that need not be Bland's vertex from
the all-artificial start, and its duals or ray may differ too.

Every verdict carries a certificate, each checked exactly by its own
function:

    primal   min c.x   s.t.  G x <= h,  E x = f
    dual     max -h.lam - f.mu   s.t.  c + G^T lam + E^T mu = 0,  lam >= 0

- optimal: dual multipliers (`certify_optimum`);
- infeasible: a Farkas vector lam >= 0, mu with G^T lam + E^T mu = 0 and
  h.lam + f.mu < 0 (`certify_infeasible`), read off the phase-1 multipliers;
- unbounded: a feasible point x and a ray d with G d <= 0, E d = 0 and
  c.d < 0 (`certify_ray`).

The checks run in integers, on the rows scaled by integer_row, with x and
the multipliers each scaled once to a common denominator.  A check that
fails returns False, and ``bounds.lp_feasible`` raises on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Q, integer_row

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


def _pivot(tab, basis, cols, row, col, d):
    """Fraction-free pivot on column col of the full tableau; returns the
    new common denominator.

    Column col is cols[col] = (stored column, sign).  Each row r != row
    becomes (T[r] * p - T[r][col] * T[row]) / d, an exact division.  A
    negative pivot (the phase-1 cleanup allows one) negates the tableau so
    that the denominator stays positive.
    """
    sc, sg = cols[col]
    prow = tab[row]
    p = sg * prow[sc]
    for r, trow in enumerate(tab):
        if r == row:
            continue
        f = sg * trow[sc]
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


def _simplex(tab, basis, cols, cost, enter_limit, d):
    """Minimize the integer cost; Bland's rule; entering columns below
    enter_limit only.  Returns (status, entering column or None, d)."""
    while True:
        in_basis = set(basis)
        priced = [(cost[b], tab[r]) for r, b in enumerate(basis) if cost[b]]
        z = {}  # cost_B . (stored column), each computed once
        entering = -1
        for j in range(enter_limit):
            if j in in_basis:
                continue
            sc, sg = cols[j]
            if sc not in z:
                z[sc] = sum(cb * trow[sc] for cb, trow in priced)
            # sign of the reduced cost, scaled by d > 0
            if cost[j] * d < sg * z[sc]:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, None, d
        # ratio test: the least rhs / a over a > 0, ties to the least
        # basic column, compared by cross-multiplication
        sc, sg = cols[entering]
        row, num, den = None, 0, 1
        for r, trow in enumerate(tab):
            a = sg * trow[sc]
            if a > 0:
                cmp = trow[-1] * den - num * a
                if row is None or cmp < 0 or (cmp == 0 and basis[r] < basis[row]):
                    row, num, den = r, trow[-1], a
        if row is None:
            return UNBOUNDED, entering, d
        d = _pivot(tab, basis, cols, row, entering, d)


def solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, slack_start=False):
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Phase 1 starts from every row's artificial, or with slack_start from
    the slack of each <= row whose rhs is >= 0 (its column is the
    artificial's) and the artificials of the other rows only.  Both starts
    give the same status and optimum, each with a certificate, but the
    point, the duals or the ray may differ: a slack-start point is a
    certified vertex, not necessarily Bland's vertex from the artificials.
    Callers that report the point keep the default.
    """
    nv = len(c)
    rows = [list(r) + [b] for r, b in zip(a_ub, b_ub)]
    rows += [list(r) + [b] for r, b in zip(a_eq, b_eq)]
    n_ub, n_eq = len(a_ub), len(a_eq)
    nrows = n_ub + n_eq
    art_start = 2 * nv + n_ub
    ncols = art_start + nrows

    tab = []
    row_mult = []  # original row i = row_mult[i] * tableau row i
    for i, values in enumerate(rows):
        ints, scale = integer_row(values)
        arow, rhs = ints[:-1], ints[-1]
        sign = 1
        if rhs < 0:
            arow = [-v for v in arow]
            rhs = -rhs
            sign = -1
        row_mult.append(sign * scale)
        tab.append(arow + [1 if j == i else 0 for j in range(nrows)] + [rhs])
    # column j of the full tableau (x+, x-, slacks, artificials) is
    # sign * tab column: x- is -x+, and the slack of <= row i is its
    # artificial column times the sign its row was stored with
    cols = [(j, 1) for j in range(nv)] + [(j, -1) for j in range(nv)]
    cols += [(nv + i, 1 if row_mult[i] > 0 else -1) for i in range(n_ub)]
    cols += [(nv + i, 1) for i in range(nrows)]

    basis = [
        2 * nv + i if slack_start and i < n_ub and row_mult[i] > 0 else art_start + i
        for i in range(nrows)
    ]

    def multipliers(cost, scale, d):
        # simplex multipliers y from the artificial columns (B^-1 e_i is
        # stored there); the original rows carry -row_mult_i * y_i
        cb = [cost[b] for b in basis]
        y = [
            sum(cb[r] * tab[r][nv + i] for r in range(nrows))
            for i in range(nrows)
        ]
        w = [Fraction(-row_mult[i] * y[i], scale * d) for i in range(nrows)]
        return tuple(w[:n_ub]), tuple(w[n_ub:])

    # phase 1
    phase1 = [0] * art_start + [1] * nrows
    _, _, d = _simplex(tab, basis, cols, phase1, ncols, 1)
    if any(tab[r][-1] for r in range(nrows) if basis[r] >= art_start):
        # the phase-1 multipliers give y.A <= 0 on every non-artificial
        # column and y.b > 0: a Farkas vector
        lam, mu = multipliers(phase1, 1, d)
        return LpResult(INFEASIBLE, dual_ub=lam, dual_eq=mu)
    for r in range(nrows):
        if basis[r] >= art_start:
            for j in range(art_start):
                if tab[r][cols[j][0]] != 0:
                    d = _pivot(tab, basis, cols, r, j, d)
                    break

    def point():
        xfull = [0] * art_start
        for r in range(nrows):
            if basis[r] < art_start:
                xfull[basis[r]] = tab[r][-1]
        return tuple(Fraction(xfull[j] - xfull[nv + j], d) for j in range(nv))

    # phase 2 (artificial columns stay in the tableau but may not enter)
    c_int, c_scale = integer_row(c)
    cost = c_int + [-v for v in c_int] + [0] * (n_ub + nrows)
    status, entering, d = _simplex(tab, basis, cols, cost, art_start, d)
    if status == UNBOUNDED:
        sc, sg = cols[entering]
        direction = [0] * art_start
        direction[entering] = d
        for r in range(nrows):
            if basis[r] < art_start:
                direction[basis[r]] = -sg * tab[r][sc]
        ray = tuple(Fraction(direction[j] - direction[nv + j], d) for j in range(nv))
        return LpResult(UNBOUNDED, x=point(), ray=ray)

    x = point()
    objective = Q(_dot(c_int, x), c_scale)
    lam, mu = multipliers(cost, c_scale, d)
    return LpResult(OPTIMAL, x=x, objective=objective, dual_ub=lam, dual_eq=mu)


def _dot(row, vec):
    return sum(a * v for a, v in zip(row, vec))


def _integer_rows(a, b):
    """Each row with its rhs scaled to integers: (rows, rhs, scales)."""
    rows, rhs, scales = [], [], []
    for row, v in zip(a, b):
        ints, scale = integer_row(list(row) + [v])
        rows.append(ints[:-1])
        rhs.append(ints[-1])
        scales.append(scale)
    return rows, rhs, scales


def _integer_duals(c, weights, scales):
    """c and the multipliers of the integer rows (weight / scale), as
    integers over one positive common denominator k: (c, weights, k)."""
    ints, k = integer_row(list(c) + [w if s == 1 else Q(w, s) for w, s in zip(weights, scales)])
    return ints[: len(c)], ints[len(c) :], k


def _combination(weights, rows, width):
    """sum_i weights[i] * rows[i], skipping zero weights."""
    out = [0] * width
    for w, row in zip(weights, rows):
        if w:
            out = [a + w * b for a, b in zip(out, row)]
    return out


def _feasible_point(a_ub, b_ub, a_eq, b_eq, x) -> bool:
    """G x <= h and E x = f, checked on the integer rows against x scaled
    once by the lcm sx of its denominators."""
    xs, sx = integer_row(x)
    g, h, _ = _integer_rows(a_ub, b_ub)
    e, f, _ = _integer_rows(a_eq, b_eq)
    return all(_dot(row, xs) <= b * sx for row, b in zip(g, h)) and all(
        _dot(row, xs) == b * sx for row, b in zip(e, f)
    )


def certify_optimum(c, a_ub, b_ub, a_eq, b_eq, result: LpResult) -> bool:
    """Exact optimality certificate.

    Checks primal feasibility, dual feasibility, stationarity,
    complementary slackness and a zero duality gap; any failure is False.
    """
    if result.status != OPTIMAL:
        return False
    lam, mu = tuple(result.dual_ub or ()), tuple(result.dual_eq or ())
    if len(lam) != len(a_ub) or len(mu) != len(a_eq):
        return False
    xs, sx = integer_row(result.x)
    g, h, g_scales = _integer_rows(a_ub, b_ub)
    e, f, e_scales = _integer_rows(a_eq, b_eq)
    gx = [_dot(row, xs) for row in g]
    if any(v > b * sx for v, b in zip(gx, h)):
        return False
    if any(_dot(row, xs) != b * sx for row, b in zip(e, f)):
        return False
    cs, duals, k = _integer_duals(c, lam + mu, g_scales + e_scales)
    ls, ms = duals[: len(lam)], duals[len(lam) :]
    if any(l < 0 for l in ls):
        return False
    # stationarity: k (c + G^T lam + E^T mu) = 0
    if any(a + b for a, b in zip(cs, _combination(duals, g + e, len(cs)))):
        return False
    # complementary slackness: lam_i > 0 only on tight rows
    if any(l and v != b * sx for l, v, b in zip(ls, gx, h)):
        return False
    # zero duality gap: k (objective + h.lam + f.mu) = 0
    return k * result.objective + _dot(ls, h) + _dot(ms, f) == 0


def certify_infeasible(a_ub, b_ub, a_eq, b_eq, result: LpResult) -> bool:
    """Exact Farkas certificate of infeasibility.

    Checks lam >= 0, G^T lam + E^T mu = 0 and h.lam + f.mu < 0 for the
    multipliers (lam, mu) = (result.dual_ub, result.dual_eq); then no x
    satisfies G x <= h, E x = f.
    """
    lam, mu = result.dual_ub, result.dual_eq
    if result.status != INFEASIBLE or lam is None or mu is None:
        return False
    if len(lam) != len(a_ub) or len(mu) != len(a_eq):
        return False
    g, h, g_scales = _integer_rows(a_ub, b_ub)
    e, f, e_scales = _integer_rows(a_eq, b_eq)
    _, duals, _ = _integer_duals((), tuple(lam) + tuple(mu), g_scales + e_scales)
    ls, ms = duals[: len(lam)], duals[len(lam) :]
    if any(l < 0 for l in ls):
        return False
    rows = g + e
    if any(_combination(duals, rows, len(rows[0]) if rows else 0)):
        return False
    return _dot(ls, h) + _dot(ms, f) < 0


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
