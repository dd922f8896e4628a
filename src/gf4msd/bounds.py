"""Linear-programming and lattice-point machinery over invariant coefficients.

Enumerator families are affine maps from a few free rational parameters to
coefficient vectors; classical cuts demand nonnegative (dual) coefficients,
quantum cuts demand nonnegative success probability and a threshold inside
the stabilizer octahedron.  Each linear row is an integer dot product over
the members scaled to integers, stored as the primitive integer vector
that is a positive multiple of the rational row, which keeps every
verdict.  Feasibility questions run
through the exact simplex once the equalities are substituted away, and
a bound driver eliminates its family's equalities once for all its
levels; LPs read only for a verdict or an optimum start from the slack
basis, and a bound's reported witness from the all-artificial one.
Integral searches enumerate a lattice of positive integer moduli directly
and apply the exact nonlinear verdicts as a post-filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import simplex
from .distill import eps_max_rows, eps_rows, natural_sign, numerator_u, slack_sign_ok
from .distill import quantum_verdict  # noqa: F401
from .enumerators import DomainError, transform_xy
from .enumerators import check_length, is_map_length, is_odd_family_length, is_selfdual_length
from .exact import Q, dot, integer_row, poly_compose, primitive, rref_steps
from .invariants import num_cprime, unit_family_basis
from .roots import bernstein_coefficients, poly_nonneg_on

SENSES = ("<=", ">=", "==")

# grid of the self-dual success cuts: rbar^2 in steps of 1 / (3 SUCCESS_GRID)
SUCCESS_GRID = 16

# pieces of [0, 1/3] on which Bernstein forms pre-decide the success filter
BERNSTEIN_PIECES = 4


class UnboundedRegionError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinConstraint:
    """coeffs . x <sense> rhs, stored as the primitive integer row that is a
    positive multiple of the one given; the scale keeps every verdict."""

    coeffs: tuple
    sense: str
    rhs: int

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError("sense must be one of %s" % (SENSES,))
        *coeffs, rhs = primitive((*self.coeffs, self.rhs))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "rhs", rhs)

    def satisfied(self, point) -> bool:
        v = sum(c * p for c, p in zip(self.coeffs, point))
        if self.sense == "<=":
            return v <= self.rhs
        if self.sense == ">=":
            return v >= self.rhs
        return v == self.rhs

    def is_trivial(self):
        """None if the constraint involves a variable, else its truth value."""
        return None if any(self.coeffs) else self.satisfied((0,) * len(self.coeffs))


@dataclass(frozen=True)
class Polytope:
    dim: int
    names: tuple
    constraints: tuple

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != self.dim:
                raise ValueError("constraint dimension mismatch")

    def contains(self, point) -> bool:
        return all(c.satisfied(point) for c in self.constraints)


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice of points whose i-th coordinate is a multiple of moduli[i]."""

    moduli: tuple

    def __post_init__(self):
        if any(not isinstance(m, int) or m <= 0 for m in self.moduli):
            raise ValueError("moduli must be positive integers")


def build_polytope(dim, names, rows):
    """Assemble constraints, dropping trivially-true rows.

    A trivially false row is kept; the simplex reports it infeasible with a
    Farkas vector.
    """
    out = tuple(row for row in rows if row.is_trivial() is not True)
    return Polytope(dim, tuple(names), out)


# ---------------------------------------------------------------------------
# LP interface


@dataclass(frozen=True)
class LpVerdict:
    """A certified verdict: lp_feasible raises on a failed certificate."""

    status: str  # "feasible" | "infeasible" | "unbounded"
    witness: tuple | None = None
    optimum: Fraction | None = None
    ray: tuple | None = None


def _split_rows(polytope):
    """Integer (a_ub, b_ub, a_eq, b_eq) of the rows; >= rows are negated
    into <= rows."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in polytope.constraints:
        if c.sense == "==":
            a_eq.append(c.coeffs)
            b_eq.append(c.rhs)
        elif c.sense == "<=":
            a_ub.append(c.coeffs)
            b_ub.append(c.rhs)
        else:
            a_ub.append(tuple(-v for v in c.coeffs))
            b_ub.append(-c.rhs)
    return a_ub, b_ub, a_eq, b_eq


@dataclass(frozen=True)
class _Embedding:
    """d x_p = row[dim] - sum_j row[free[j]] t_j at each pivot column p of the
    fraction-free reduced equalities, and x_free[j] = t_j."""

    dim: int
    d: int
    free: tuple
    pivots: tuple  # (p, row) pairs

    def __call__(self, t) -> tuple:
        x = [None] * self.dim
        for fc, v in zip(self.free, t):
            x[fc] = v
        for p, row in self.pivots:
            x[p] = Q(row[self.dim] - sum(row[fc] * v for fc, v in zip(self.free, t)), self.d)
        return tuple(x)

    def substitute(self, coeffs):
        """Integer (a, k) with d (coeffs . x) = a . t + k on the embedded points."""
        a = [self.d * coeffs[fc] for fc in self.free]
        k = 0
        for p, row in self.pivots:
            w = coeffs[p]
            if w:
                k += w * row[self.dim]
                a = [v - w * row[fc] for v, fc in zip(a, self.free)]
        return a, k

    def reduce(self, polytope: Polytope) -> Polytope:
        """The inequality rows of the polytope on the embedded points, over
        the free variables; a positive multiple d keeps every row."""
        rows = []
        for c in polytope.constraints:
            if c.sense != "==":
                coeffs, k = self.substitute(c.coeffs)
                rows.append(LinConstraint(coeffs, c.sense, self.d * c.rhs - k))
        return build_polytope(len(self.free), tuple(polytope.names[fc] for fc in self.free), rows)


def _eliminate(dim: int, eq_rows):
    """The == rows eliminated once, row by row in list order, fraction-free.

    Entry k is ("ok", embed) when the first k rows are consistent over the
    rationals, embed mapping the free variables to their solutions, and
    ("infeasible", mu) otherwise: mu weights those k rows so that
    E^T mu = 0 and f.mu < 0 (a Farkas vector of the equalities alone).  The
    elimination of a prefix is its unique reduced row echelon form, so entry
    k is what eliminating the first k rows alone gives.
    """
    m = len(eq_rows)
    # each row carries, after the rhs, its combination of the original rows
    aug = [list(c.coeffs) + [c.rhs] + [int(i == r) for i in range(m)] for r, c in enumerate(eq_rows)]
    out = [("ok", _Embedding(dim, 1, tuple(range(dim)), ()))]
    for k, (d, pivots, leftover) in enumerate(rref_steps(aug, dim), 1):
        bad = next((row for row, _ in leftover if row[dim]), None)
        if bad is not None:
            # the combination reads 0 = bad[dim]; orient it to f.mu < 0
            sign = -1 if bad[dim] > 0 else 1
            out.append(("infeasible", tuple(sign * w for w in bad[dim + 1 : dim + 1 + k])))
        else:
            cols = {p for p, _ in pivots}
            free = tuple(c for c in range(dim) if c not in cols)
            out.append(("ok", _Embedding(dim, d, free, pivots)))
    return out


def reduce_equalities(polytope: Polytope):
    """Eliminate == rows exactly, producing an inequality-only polytope.

    Returns (status, reduced, embed) where embed maps a reduced-space point
    back to the original variables; status is "ok" or "infeasible".  Each
    pivot variable of the reduced row echelon form is substituted into the
    inequality rows.  Equality systems inconsistent over the rationals
    short-circuit with ("infeasible", mu, None): mu weights the == rows, in
    order, so that E^T mu = 0 and f.mu < 0 (a Farkas vector of the
    equalities alone).
    """
    eq_rows = [c for c in polytope.constraints if c.sense == "=="]
    status, embed = _eliminate(polytope.dim, eq_rows)[-1]
    if status == "infeasible":
        return status, embed, None
    return "ok", embed.reduce(polytope) if eq_rows else polytope, embed


def _check(ok: bool) -> None:
    if not ok:
        raise RuntimeError("an LP certificate failed its exact check")


def _equalities_infeasible(eq_rows, mu) -> LpVerdict:
    """The verdict of == rows inconsistent over Q, certified by mu."""
    rows = ((), (), [c.coeffs for c in eq_rows], [c.rhs for c in eq_rows])
    _check(simplex.certify_infeasible(*rows, simplex.LpResult(simplex.INFEASIBLE, dual_ub=(), dual_eq=mu)))
    return LpVerdict("infeasible")


def lp_feasible(polytope: Polytope, objective=None, maximize=False, *, slack_start=False) -> LpVerdict:
    """Exact feasibility / optimization over the polytope.

    Equality rows are eliminated exactly before the simplex runs.  With no
    objective, reports a feasible witness or infeasibility; with one, also
    the exact optimum (or an improving ray when unbounded).  Every verdict
    is certified: an optimum by its duals, infeasibility by a Farkas
    vector, unboundedness by a feasible point and a ray; a certificate that
    fails its check raises RuntimeError.  slack_start is passed to
    simplex.solve, by callers that read only the status or the optimum: the
    witness is then certified but maybe not Bland's vertex, a bound's one.
    """
    if objective is not None and len(objective) != polytope.dim:
        raise ValueError("objective has %d coefficients for %d variables" % (len(objective), polytope.dim))
    status, reduced, embed = reduce_equalities(polytope)
    if status == "infeasible":
        return _equalities_infeasible([c for c in polytope.constraints if c.sense == "=="], reduced)
    rows = _split_rows(reduced)
    if objective is None:
        c = [0] * reduced.dim
    else:
        c = embed.substitute(objective)[0]
        if maximize:
            c = [-v for v in c]
    res = simplex.solve(c, *rows, slack_start=slack_start)
    if res.status == simplex.INFEASIBLE:
        _check(simplex.certify_infeasible(*rows, res))
        return LpVerdict("infeasible")
    if res.status == simplex.UNBOUNDED:
        _check(simplex.certify_ray(c, *rows, res))
        zero = embed((0,) * reduced.dim)
        return LpVerdict("unbounded", ray=tuple(r - z for r, z in zip(embed(res.ray), zero)))
    _check(simplex.certify_optimum(c, *rows, res))
    witness = embed(res.x)
    optimum = None if objective is None else sum(Q(a) * b for a, b in zip(objective, witness))
    return LpVerdict("feasible", witness=witness, optimum=optimum)


def _ranges(polytope: Polytope):
    """Exact (min, max) of each variable over the polytope, or None when it
    is empty; an unbounded variable raises UnboundedRegionError.  Only the
    optima are read, so the LPs start from the slack basis."""
    out = []
    for i in range(polytope.dim):
        obj = [0] * polytope.dim
        obj[i] = 1
        ends = []
        for mx in (False, True):
            v = lp_feasible(polytope, objective=obj, maximize=mx, slack_start=True)
            if v.status == "infeasible":
                return None
            if v.status == "unbounded":
                raise UnboundedRegionError("region is unbounded in %s" % polytope.names[i])
            ends.append(v.optimum)
        out.append(tuple(ends))
    return out


# ---------------------------------------------------------------------------
# 2-d vertex enumeration


def _ccw_sorted(points):
    """The points counterclockwise about their centroid: by half-plane,
    then by -dx/dy within it, the ray y = 0 first."""
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def key(p):
        dx, dy = p[0] - cx, p[1] - cy
        return (dy < 0 or (dy == 0 and dx <= 0), dy != 0, -dx / dy if dy else 0)

    return sorted(points, key=key)


def enumerate_vertices_2d(polytope: Polytope):
    """All vertices of a bounded 2-d polytope, counterclockwise.

    Vertices are pairwise intersections of constraint boundary lines that
    satisfy every constraint; an unbounded region raises.
    """
    if polytope.dim != 2:
        raise ValueError("vertex enumeration requires dim = 2")
    if _ranges(polytope) is None:
        return []
    lines = [(c.coeffs, c.rhs) for c in polytope.constraints]
    pts = set()
    for i in range(len(lines)):
        (a1, b1), r1 = lines[i]
        for j in range(i + 1, len(lines)):
            (a2, b2), r2 = lines[j]
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            x = Q(r1 * b2 - b1 * r2, det)
            y = Q(a1 * r2 - r1 * a2, det)
            if polytope.contains((x, y)):
                pts.add((x, y))
    return _ccw_sorted(list(pts))


# ---------------------------------------------------------------------------
# lattice-point enumeration


def count_lattice_points(polytope: Polytope, lattice: LatticeSpec, extra_filter=None):
    """Exact enumeration of lattice points inside the polytope.

    Variable ranges come from LP; dimensions above 3 are rejected.  All
    coordinates but the last run over their ranges, and the last one's
    range is solved from the integer rows (a floor or ceiling per row, an
    exact division per == row).  The optional filter (e.g. the exact
    quantum verdict) is called with each such point.  Returns (count,
    points) with the points in lexicographic order, each a tuple of ints.
    """
    if polytope.dim > 3:
        raise DomainError("lattice enumeration supports dim <= 3")
    if len(lattice.moduli) != polytope.dim:
        raise ValueError("lattice dimension mismatch")
    ends = _ranges(polytope)
    if ends is None:
        return 0, []
    if not polytope.dim:  # the one point ()
        found = [()] if polytope.contains(()) and (extra_filter is None or extra_filter(())) else []
        return len(found), found
    last = polytope.dim - 1
    # the multiples of m in [lo, hi] for each coordinate but the last
    ranges = [range(-(-lo // m) * m, hi // m * m + 1, m) for (lo, hi), m in zip(ends[:last], lattice.moduli)]
    m = lattice.moduli[last]
    lo_end, hi_end = -(-ends[last][0] // 1), ends[last][1] // 1  # the integers of its LP range
    a_ub, h, a_eq, f = _split_rows(polytope)
    # the rows as a . prefix + c x_last <= b (ub) or == b (eq)
    ub = [(row[last], b) for row, b in zip(a_ub, h)]
    eq = [(row[last], b) for row, b in zip(a_eq, f)]
    cols = [[row[i] for row in a_ub + a_eq] for i in range(last)]
    n_ub = len(ub)
    found = []

    def solve_last(prefix, sums):
        lo, hi = lo_end, hi_end
        for (c, b), s in zip(ub, sums):
            r = b - s
            if c > 0:
                hi = min(hi, r // c)
            elif c < 0:
                lo = max(lo, -(r // -c))
            elif r < 0:
                return
        for (c, b), s in zip(eq, sums[n_ub:]):
            r = b - s
            if c:
                if r % c:
                    return
                lo, hi = max(lo, r // c), min(hi, r // c)
            elif r:
                return
        points = (prefix + (v,) for v in range(-(-lo // m) * m, hi // m * m + 1, m))
        found.extend(points if extra_filter is None else filter(extra_filter, points))

    def rec(idx, prefix, sums):
        if idx == last:
            solve_last(prefix, sums)
            return
        col = cols[idx]
        for v in ranges[idx]:
            rec(idx + 1, prefix + (v,), [s + a * v for s, a in zip(sums, col)])

    rec(0, (), [0] * (n_ub + len(eq)))
    return len(found), found


# ---------------------------------------------------------------------------
# affine enumerator families


@dataclass(frozen=True)
class AffineFamily:
    """Affine map from free parameters to (A, B, C) enumerator triples, held
    over Z as the integer tuples (s A, s B, s C) of each member, s = scale;
    the rows are integer dot products over them."""

    n: int
    names: tuple
    ints: tuple  # (s A, s B, s C) for the pinned base, then one per parameter
    scale: int = 1

    @property
    def dim(self) -> int:
        return len(self.names)


def distillation_family(n: int, pin_trivial: bool = True) -> AffineFamily:
    """Free-coefficient family for odd n, pinned to c0' = 1.

    pin_trivial additionally fixes d0' = -6 (no weight-1 logical operator)
    and, for n >= 7, c1' = 3(5 - n)/2 (no weight-2 stabilizer).  With
    s = 2^(n-1), the members are s A, s B = transform_xy(A) and s C = s B - s A
    over Z.
    """
    check_length(n, is_odd_family_length)
    nc = num_cprime(n)
    units = [(A.coeffs, transform_xy(A).coeffs) for A in unit_family_basis(n)]
    pins = {}  # beside c0' = 1, the base units[0]
    if pin_trivial:
        pins[nc] = -6  # d0'
        if nc > 1:
            pins[1] = 3 * (5 - n) // 2  # c1'
    A, T = units[0]
    for i, v in pins.items():
        A = [a + v * b for a, b in zip(A, units[i][0])]
        T = [a + v * b for a, b in zip(T, units[i][1])]
    free = [i for i in range(1, len(units)) if i not in pins]
    names = tuple("c%d" % i if i < nc else "d%d" % (i - nc) for i in free)
    s = 2 ** (n - 1)
    pairs = [(A, T)] + [units[i] for i in free]
    ints = tuple((tuple(s * a for a in A), tuple(T), tuple(t - s * a for a, t in zip(A, T))) for A, T in pairs)
    return AffineFamily(n, names, ints, s)


def selfdual_family(n: int) -> AffineFamily:
    """Self-dual family for even n, pinned to c0 = 1; B = A and C = 0."""
    check_length(n, is_selfdual_length)
    # the pinned base c0 = 1, then one member per free cj
    ints = tuple((A.coeffs, A.coeffs, (0,) * (n + 1)) for A in unit_family_basis(n))
    return AffineFamily(n, tuple("c%d" % j for j in range(1, len(ints))), ints)


# linear functionals over (A, B, C), rows over the members' integer lists


def _rows(vectors, weights, sense):
    """w . X <sense> 0 for each weight vector w, X affine in the point:
    the base's list, then one list per parameter."""
    base, *steps = vectors
    return [LinConstraint([dot(w, v) for v in steps], sense, -dot(w, base)) for w in weights]


def _coefficient_rows(fam: AffineFamily, which: str, degrees, sense):
    """X_j <sense> 0 for each j of degrees, X the point's A, B or C."""
    base, *steps = (m["ABC".index(which)] for m in fam.ints)
    return [LinConstraint([v[j] for v in steps], sense, -base[j]) for j in degrees]


def _success_rows(fam: AffineFamily, points):
    """N >= 0 at each rbar^2 = p/q of points: q^J N = sum_j A_2j (-p)^j
    q^(J - j), J = n // 2."""
    J = fam.n // 2
    weights = [[(-x.numerator) ** j * x.denominator ** (J - j) for j in range(J + 1)] for x in points]
    return _rows([m[0][::2] for m in fam.ints], weights, ">=")


def _numerators(fam: AffineFamily, lam: int) -> list:
    """Each member's integer numerator_u, its map's u-numerator times the
    positive 3^h scale."""
    return [numerator_u(A[::2], C[1::2], lam) for A, _, C in fam.ints]


def numerator_coefficient_rows(fam: AffineFamily, lam: int, count: int):
    """Equality rows forcing the first `count` numerator coefficients to 0:
    the rows of eps_rows on each member's integer numerator_u."""
    vectors = _numerators(fam, lam)
    return _rows(vectors, eps_rows(len(vectors[0]), count), "==")


def classical_rows(fam: AffineFamily):
    """Nonnegativity of every dual coefficient; the self-dual family has
    B = A, so there they are its own."""
    return _coefficient_rows(fam, "B", range(1, fam.n + 1), ">=")


def quantum_rows_distill(fam: AffineFamily):
    """Linearized quantum cuts: N(0) >= 0, N(eps_max) >= 0 and the
    sign-resolved threshold inequality for both logical sign choices, the
    last three the rows of eps_max_rows on the members' numerators (N is
    the same for both signs)."""
    plus = _numerators(fam, 1)
    n_row, slack_row = eps_max_rows(len(plus[0]))
    rows = _success_rows(fam, (Q(1, 3),)) + _rows(plus, (n_row, slack_row), ">=")
    return rows + _rows(_numerators(fam, -1), (slack_row,), ">=")


def success_rows(fam: AffineFamily):
    """Success cuts A(1, i rbar) >= 0 at rbar^2 = i / (3 SUCCESS_GRID) for
    i = 0..SUCCESS_GRID: necessary conditions of success nonnegativity on
    all of [0, 1/3]."""
    return _success_rows(fam, [Q(i, 3 * SUCCESS_GRID) for i in range(SUCCESS_GRID + 1)])


def quantum_rows_selfdual(fam: AffineFamily):
    """The success cuts of success_rows plus the eps -> 0
    leading-coefficient sign condition."""
    rows = success_rows(fam)
    jtop = fam.n // 6
    if jtop >= 1:
        coeffs = [0] * fam.dim
        coeffs[fam.names.index("c%d" % jtop)] = (-1) ** jtop
        rows.append(LinConstraint(coeffs, ">=", 0))
    return rows


# ---------------------------------------------------------------------------
# bound drivers


def is_nu_length(n: int) -> bool:
    """Lengths max_nu_bound accepts: the odd family's with a distillation map."""
    return is_odd_family_length(n) and is_map_length(n)


def _bound(fam: AffineFamily, cuts, eq_rows, sizes, value):
    """Classical and quantum bounds of one family build.

    Level i keeps the classical rows and the first sizes[i] equality rows,
    and its feasibility falls monotonically with i.  The equality rows are
    eliminated once, and each level substitutes its prefix's pivots into
    the inequality rows.  The classical level is bisected over the levels
    by LP verdicts from the slack start; its witness is then solved once
    from the all-artificial start, Bland's vertex at that level.  The
    quantum cuts only add rows, so the quantum level cannot exceed the
    classical one: it is the classical level when the witness meets the
    cuts, and is otherwise searched downward from it; cuts None skips that
    search.  Returns (classical bound, quantum bound or None, witness,
    fam), the bound of level i being value(sizes[i]).
    """
    levels = _eliminate(fam.dim, eq_rows)

    def witness_at(poly, i, slack_start=True):
        """A point of poly and the equality rows of level i, or None."""
        status, embed = levels[sizes[i]]
        if status == "infeasible":
            _equalities_infeasible(eq_rows[: sizes[i]], embed)  # raises unless certified
            return None
        v = lp_feasible(embed.reduce(poly), slack_start=slack_start)
        return embed(v.witness) if v.status == "feasible" else None

    base = classical_rows(fam)
    poly = build_polytope(fam.dim, fam.names, base)
    lo, hi = -1, len(sizes) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if witness_at(poly, mid) is not None:
            lo = mid
        else:
            hi = mid - 1
    if lo < 0:
        raise RuntimeError("no feasible level for n=%d" % fam.n)
    witness = witness_at(poly, lo, slack_start=False)
    level = lo
    if cuts is not None and not all(c.satisfied(witness) for c in cuts):
        poly = build_polytope(fam.dim, fam.names, base + cuts)
        while level >= 0 and witness_at(poly, level) is None:
            level -= 1
        if level < 0:
            raise RuntimeError("no feasible level for n=%d" % fam.n)
    quantum = None if cuts is None else value(sizes[level])
    return value(sizes[lo]), quantum, witness, fam


def max_nu_bound(n: int, quantum: bool = True):
    """Largest noise-suppression exponents consistent with the cuts.

    The levels are the exponents nu = n (mod 3), from n mod 3 up to nu = n;
    level nu forces the first nu numerator coefficients of the natural-sign
    map to vanish, and before the pins only the extremal distillation
    enumerator meets the top level, nu = n.  The non-trivial pins (no
    weight-1 logical, no weight-2 stabilizer) always apply.  Returns
    (classical nu, quantum nu or None, witness, family).
    """
    check_length(n, is_odd_family_length, is_map_length)
    sizes = range(n % 3, n + 1, 3)
    fam = distillation_family(n, pin_trivial=True)
    eq_rows = numerator_coefficient_rows(fam, natural_sign(n), n)
    cuts = quantum_rows_distill(fam) if quantum else None
    return _bound(fam, cuts, eq_rows, sizes, lambda nu: nu)


def max_distance_bound(n: int, quantum: bool = True):
    """Largest quantum distance 2i + 1 with a feasible enumerator (odd n >= 5).

    Level i forces C_1, C_3, ..., C_{2i-1} to vanish.  The quantum cut is
    the nonnegative success probability of pure inputs, N(0) >= 0, which is
    what strengthens the classical bound.  Returns (classical, quantum or
    None, witness, family).
    """
    fam = distillation_family(n, pin_trivial=False)
    eq_rows = _coefficient_rows(fam, "C", range(1, n, 2), "==")
    cuts = _success_rows(fam, (Q(1, 3),)) if quantum else None
    return _bound(fam, cuts, eq_rows, range(len(eq_rows) + 1), lambda i: 2 * i + 1)


def classical_distance_bound_selfdual(n: int, quantum: bool = True):
    """Largest classical distance 2i + 2 of a self-dual enumerator of even
    length; level i forces A_2, A_4, ..., A_{2i} to vanish.  Returns
    (classical, quantum or None, witness, family)."""
    fam = selfdual_family(n)
    eq_rows = _coefficient_rows(fam, "A", range(2, n + 1, 2), "==")
    cuts = quantum_rows_selfdual(fam) if quantum else None
    return _bound(fam, cuts, eq_rows, range(len(eq_rows) + 1), lambda i: 2 * i + 2)


# ---------------------------------------------------------------------------
# integral searches


def integral_lattice(fam: AffineFamily) -> LatticeSpec:
    """Per-variable moduli making every tracked coefficient an integer
    divisible by three (diagonal translation of the congruences): those of
    B, which is A in the self-dual family."""
    s = fam.scale
    base, *steps = (m[1][1 : fam.n + 1] for m in fam.ints)
    if any(b % (3 * s) for b in base):
        raise ValueError("pinned base violates the divisibility lattice")
    moduli = []
    for B in steps:
        # the smallest m > 0 with m c in 3Z is 3 den(c) / gcd(num(c), 3)
        coeffs = [Q(b, s) for b in B]
        moduli.append(lcm(*(3 * c.denominator // gcd(c.numerator, 3) for c in coeffs)))
    return LatticeSpec(tuple(moduli))


def quantum_filter_distill(fam: AffineFamily):
    """Exact nonlinear verdict: the octahedron threshold test for both sign
    choices on affine rows in the point (N(eps_max) = 0 fails), then
    success nonnegativity on the physical interval.  A length n not
    congruent to +-1 mod 6 has no map and raises here."""
    check_length(fam.n, is_map_length)
    # positive multiples of N(eps_max) and both slacks: only signs are read
    rows = quantum_rows_distill(fam)[1:]
    success = quantum_filter_selfdual(fam)

    def ok(point) -> bool:
        n_max, *slacks = (sum(c * v for c, v in zip(r.coeffs, point)) - r.rhs for r in rows)
        if n_max == 0 or not all(slack_sign_ok(n_max, s) for s in slacks):
            return False
        return success(point)

    return ok


def _bernstein_forms(polys):
    """Integer Bernstein coefficients of each polynomial on the pieces
    [i h, (i + 1) h], h = 1 / (3 BERNSTEIN_PIECES), of [0, 1/3], in one
    flat list per polynomial; each piece has one positive scale for all of
    them, so a combination of the lists is a positive multiple, piece by
    piece, of the combination's own coefficients."""
    degree = max(len(p) for p in polys) - 1
    h = Q(1, 3 * BERNSTEIN_PIECES)
    forms = [[] for _ in polys]
    for i in range(BERNSTEIN_PIECES):
        piece = []
        for p in polys:
            piece += bernstein_coefficients(poly_compose(p, (i * h, h)), degree)
        ints = integer_row(piece)[0]
        for k, form in enumerate(forms):
            form += ints[k * (degree + 1) : (k + 1) * (degree + 1)]
    return forms


def quantum_filter_selfdual(fam: AffineFamily):
    """Exact verdict A(1, i rbar) >= 0 for all rbar^2 in [0, 1/3], on the
    signed polynomials of the members' integer lists, sum_j (-1)^j s A_2j t^j,
    combined by the point's coordinates.

    A point passes at once when its Bernstein coefficients on every piece
    of _bernstein_forms are >= 0, since they bound the polynomial from
    below there; any other point is decided by poly_nonneg_on."""
    polys = [[(-1) ** j * a for j, a in enumerate(A[::2])] for A, _, _ in fam.ints]
    base, *steps = polys
    form0, *form_steps = _bernstein_forms(polys)

    def ok(point) -> bool:
        form = form0
        for k, s in zip(point, form_steps):
            if k:
                form = [x + k * y for x, y in zip(form, s)]
        if min(form, default=0) >= 0:
            return True
        p = base
        for k, s in zip(point, steps):
            p = [x + k * y for x, y in zip(p, s)]
        return poly_nonneg_on(p, 0, Q(1, 3))[0]

    return ok


def lattice_search(n: int, use_quantum: bool = False):
    """Count integral enumerators (coefficients divisible by 3) at length n.

    Odd n uses the dual coefficients of the full (c', d') family, even n
    the self-dual coefficients.  With use_quantum the success rows, which
    every point that passes the quantum filter satisfies, join the
    polytope.  Returns (count, points, family), each point a tuple of ints
    in lexicographic order.
    """
    if n % 2:
        fam = distillation_family(n, pin_trivial=False)
        filt = quantum_filter_distill(fam) if use_quantum else None
    else:
        fam = selfdual_family(n)
        filt = quantum_filter_selfdual(fam) if use_quantum else None
    rows = classical_rows(fam) + (success_rows(fam) if use_quantum else [])
    poly = build_polytope(fam.dim, fam.names, rows)
    lattice = integral_lattice(fam)
    count, points = count_lattice_points(poly, lattice, extra_filter=filt)
    return count, points, fam
