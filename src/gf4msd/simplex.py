"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule on one integer tableau
(fraction-free pivoting on a dictionary: Edmonds 1967, Bareiss 1968, Avis's
lrs).  Problems are stated over free variables with <= and == rows of
rational data; each row and the objective are scaled to integers once
(``exact.integer_row``), variables split into nonnegative pairs, and
slacks/artificials are added.  The tableau is D * B^-1 [A | b] for the
basis B and D = |det B|, so every pivot is an exact integer division.
An x- column is its x+ column negated and a slack column is its row's
artificial column times the sign the row was stored with, so a (stored
column, sign) map over the x+ and artificial columns gives Bland's rule
every column.  At most one twin is basic, so nv stored columns are not,
and only they and the rhs are kept: a basic one is sign * D times its
row's unit vector.  A pivot is a fraction-free Jordan exchange: each other
row r becomes (T[r] p - f T[row]) / d and the leaving column takes the
entering one's slot, with -f * sign there and sign * d in the pivot row.
The row z = c_B . T of the phase's cost, over every stored column, takes
the same update, so pricing and the multipliers read it, not the rows.

Phase 1 starts by default from every row's artificial; its point is the
reported witness of a bound (Bland's vertex, pinned byte for byte by the
CLI goldens) and the one the tests' Fraction reference solver reproduces.
The slack start (``slack_start=True``) puts in the slack of each <= row of
rhs >= 0 (stored unnegated, so its slack column is its artificial's) and
the artificials of the other rows only, skipping about two phase-1 pivots
per such row.  ``bounds`` uses it for the LPs read only for a verdict or an
optimum: bisection probes, quantum-level searches and the range LPs of the
lattice count and vertex enumeration.  It gives the same status and
optimum, each certified alike, but maybe another vertex, duals or ray.

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

from .exact import Q, dot, integer_row

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


def _column(tab, basis, cols, loc, d, sc):
    """Stored column sc: its slot, or sign * d in the row where it is basic.
    loc maps a stored column to its slot, or to ~r when basic in row r."""
    k = loc[sc]
    if k >= 0:
        return [trow[k] for trow in tab]
    column = [0] * len(tab)
    column[~k] = cols[basis[~k]][1] * d
    return column


def _pivot(tab, basis, cols, row, col, d, loc, z=None, cost=None):
    """Fraction-free Jordan exchange of basis[row] for column col
    (cols[col] = (stored column, sign)); returns the new denominator.

    Each row r != row becomes (T[r] * p - f * T[row]) / d, exactly, with
    f = sign * T[r][slot]; so does the cost row z when given, with f the
    scaled reduced cost.  When the twin of col leaves, its stored column
    stays basic and only the pivot row can change.  A negative pivot (the
    phase-1 cleanup allows one) negates the tableau, keeping d > 0.
    """
    sc, sg = cols[col]
    sb, sgb = cols[basis[row]]
    k = loc[sc]
    prow = tab[row]
    p = sg * (prow[k] if k >= 0 else sgb * d)
    if z is not None:
        full = [prow[i] if i >= 0 else 0 for i in loc] + prow[-1:]
        full[sb] = sgb * d
        g = sg * z[sc] - cost[col] * d
        z[:] = [(a * p - g * b) // d for a, b in zip(z, full)]
    if k >= 0:
        for r, trow in enumerate(tab):
            if r == row:
                continue
            f = sg * trow[k]
            if f:
                trow = [(a * p - f * b) // d for a, b in zip(trow, prow)]
                trow[k] = -f * sgb
                tab[r] = trow
            elif p != d:
                tab[r] = [a * p // d for a in trow]
        prow[k] = sgb * d
        loc[sb], loc[sc] = k, ~row
    basis[row] = col
    if p < 0:
        for trow in (tab if k >= 0 else [prow]) + ([] if z is None else [z]):
            trow[:] = [-a for a in trow]
        p = -p
    return p


def _simplex(tab, basis, cols, loc, cost, z, enter_limit, d):
    """Minimize the integer cost, with z = c_B . T kept current; Bland's
    rule; entering columns below enter_limit only.  Returns (status,
    entering column or None, d)."""
    while True:
        in_basis = set(basis)
        entering = -1
        for j in range(enter_limit):
            sc, sg = cols[j]
            # sign of the reduced cost, scaled by d > 0
            if j not in in_basis and cost[j] * d < sg * z[sc]:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, None, d
        # ratio test: the least rhs / a over a > 0, ties to the least
        # basic column, compared by cross-multiplication
        sc, sg = cols[entering]
        row, num, den = None, 0, 1
        for r, (a, trow) in enumerate(zip(_column(tab, basis, cols, loc, d, sc), tab)):
            a *= sg
            if a > 0:
                cmp = trow[-1] * den - num * a
                if row is None or cmp < 0 or (cmp == 0 and basis[r] < basis[row]):
                    row, num, den = r, trow[-1], a
        if row is None:
            return UNBOUNDED, entering, d
        d = _pivot(tab, basis, cols, row, entering, d, loc, z, cost)


def solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, slack_start=False):
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Phase 1 starts from every row's artificial, or with slack_start from
    the slack of each <= row of rhs >= 0 and the other rows' artificials:
    the same status and optimum, but maybe another point, duals or ray.
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
    for values in rows:
        ints, scale = integer_row(values)
        sign = -1 if ints[-1] < 0 else 1
        row_mult.append(sign * scale)
        tab.append(ints if sign > 0 else [-v for v in ints])
    # column j of the full tableau (x+, x-, slacks, artificials) is
    # sign * stored column: x- is -x+, and the slack of <= row i is its
    # artificial column times the sign its row was stored with
    cols = [(j, 1) for j in range(nv)] + [(j, -1) for j in range(nv)]
    cols += [(nv + i, 1 if row_mult[i] > 0 else -1) for i in range(n_ub)]
    cols += [(nv + i, 1) for i in range(nrows)]
    # the x+ columns start in the slots, each artificial's stored column basic
    loc = list(range(nv)) + [~i for i in range(nrows)]

    basis = [
        2 * nv + i if slack_start and i < n_ub and row_mult[i] > 0 else art_start + i
        for i in range(nrows)
    ]

    def cost_row(cost, d):
        # c_B . T over the slots and the rhs, then over every stored column
        cb = [cost[b] for b in basis]
        zs = [dot(cb, col) for col in zip(*tab)] or [0] * (nv + 1)
        return [zs[k] if k >= 0 else cb[~k] * cols[basis[~k]][1] * d for k in loc] + zs[-1:]

    def multipliers(z, scale, d):
        # the simplex multipliers y are z at the artificial stored columns
        # (B^-1 e_i is stored there); the original rows carry -row_mult_i * y_i
        w = [Fraction(-row_mult[i] * z[nv + i], scale * d) for i in range(nrows)]
        return tuple(w[:n_ub]), tuple(w[n_ub:])

    # phase 1
    phase1 = [0] * art_start + [1] * nrows
    z = cost_row(phase1, 1)
    _, _, d = _simplex(tab, basis, cols, loc, phase1, z, ncols, 1)
    if any(tab[r][-1] for r in range(nrows) if basis[r] >= art_start):
        # the phase-1 multipliers give y.A <= 0 on every non-artificial
        # column and y.b > 0: a Farkas vector
        lam, mu = multipliers(z, 1, d)
        return LpResult(INFEASIBLE, dual_ub=lam, dual_eq=mu)
    for r in range(nrows):
        if basis[r] >= art_start:
            for j in range(art_start):
                if _column(tab, basis, cols, loc, d, cols[j][0])[r]:
                    d = _pivot(tab, basis, cols, r, j, d, loc)
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
    z = cost_row(cost, d)
    status, entering, d = _simplex(tab, basis, cols, loc, cost, z, art_start, d)
    if status == UNBOUNDED:
        sc, sg = cols[entering]
        direction = [0] * art_start
        direction[entering] = d
        for r, a in enumerate(_column(tab, basis, cols, loc, d, sc)):
            if basis[r] < art_start:
                direction[basis[r]] = -sg * a
        ray = tuple(Fraction(direction[j] - direction[nv + j], d) for j in range(nv))
        return LpResult(UNBOUNDED, x=point(), ray=ray)

    x = point()
    objective = Q(dot(c_int, x), c_scale)
    lam, mu = multipliers(z, c_scale, d)
    return LpResult(OPTIMAL, x=x, objective=objective, dual_ub=lam, dual_eq=mu)


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
    return all(dot(row, xs) <= b * sx for row, b in zip(g, h)) and all(
        dot(row, xs) == b * sx for row, b in zip(e, f)
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
    gx = [dot(row, xs) for row in g]
    if any(v > b * sx for v, b in zip(gx, h)):
        return False
    if any(dot(row, xs) != b * sx for row, b in zip(e, f)):
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
    return k * result.objective + dot(ls, h) + dot(ms, f) == 0


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
    return dot(ls, h) + dot(ms, f) < 0


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
    return dot(c, d) < 0
