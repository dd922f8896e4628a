"""Exact one-round distillation maps derived from weight enumerators.

For an even-only enumerator A of odd length n = +-1 mod 6, the output
error rate is the exact rational function

    eps_out(eps) = M(eps) / (2 N(eps)),

with N(eps) = sum_j A_{2j} (-(1-2 eps)^2 / 3)^j and M(eps) adding the
logical contribution weighted by a sign choice lam in {+1, -1}; the
natural choice is +1 for n = 5 mod 6 and -1 for n = 1 mod 6.  Thresholds
are isolated exactly; constraint verdicts never touch floating point
(evaluations at the octahedron boundary live in Q[sqrt(3)]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumerators import Enumerator, transform_xy
from .exact import (
    Q,
    decimal_str,
    ord_at_zero,
    poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
)
from .roots import bernstein_coefficients, isolate_roots, poly_nonneg_on, refine_root


class DegenerateMapError(ValueError):
    pass


@dataclass(frozen=True)
class Sqrt3:
    """Exact element a + b*sqrt(3) of Q[sqrt(3)]."""

    a: Fraction
    b: Fraction

    def __add__(self, other):
        other = _lift(other)
        return Sqrt3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Sqrt3(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = _lift(other)
        return Sqrt3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against 3 b^2
        if a * a > 3 * b * b:
            return 1 if a > 0 else -1
        if a * a < 3 * b * b:
            return 1 if b > 0 else -1
        return 0


def _lift(x) -> Sqrt3:
    if isinstance(x, Sqrt3):
        return x
    return Sqrt3(Q(x), Q(0))


# boundary of the single-qubit stabilizer octahedron: (1 - 1/sqrt(3)) / 2
EPS_MAX = Sqrt3(Q(1, 2), Q(-1, 6))


def eval_sqrt3(p, x: Sqrt3) -> Sqrt3:
    acc = _lift(0)
    for c in reversed(p):
        acc = acc * x + _lift(c)
    return acc


def natural_sign(n: int) -> int:
    if n % 6 == 5:
        return 1
    if n % 6 == 1:
        return -1
    raise ValueError("n must be congruent to +-1 mod 6")


@dataclass(frozen=True)
class DistillMap:
    n: int
    lam: int  # logical sign choice: +1 (n = 5 mod 6 natural) or -1
    m_poly: tuple  # numerator M
    n_poly: tuple  # N, half the denominator

    def eps_out(self, eps) -> Fraction:
        eps = Q(eps)
        denom = 2 * poly_eval(self.n_poly, eps)
        if denom == 0:
            raise ZeroDivisionError("N vanishes at %s" % eps)
        return poly_eval(self.m_poly, eps) / denom

    def fixed_point_poly(self) -> tuple:
        return poly_sub(self.m_poly, poly_mul((0, 2), self.n_poly))

    def canonical_fraction(self):
        """(numerator, denominator) reduced and scaled to denominator(0) = 1."""
        from .exact import poly_divmod, poly_gcd

        g = poly_gcd(self.m_poly, poly_scale(self.n_poly, 2))
        num = poly_divmod(self.m_poly, g)[0]
        den = poly_divmod(poly_scale(self.n_poly, 2), g)[0]
        if den and den[0] != 0:
            s = Q(1) / den[0]
            num, den = poly_scale(num, s), poly_scale(den, s)
        return num, den


def _n_poly(A: Enumerator) -> tuple:
    base = poly_scale(poly_pow((1, -2), 2), Q(-1, 3))  # -(1-2e)^2/3
    out: tuple = ()
    power: tuple = (1,)
    for j in range(0, A.n + 1, 2):
        if A.coeffs[j]:
            out = poly_add(out, poly_scale(power, A.coeffs[j]))
        power = poly_mul(power, base)
    return out


def _odd_part_poly(C: Enumerator) -> tuple:
    """sum_j C_{2j+1} (-1)^j (1-2e)^(2j+1) / 3^(j+1) as an exact polynomial."""
    out: tuple = ()
    lin = (1, -2)
    for j in range(0, (C.n - 1) // 2 + 1):
        c = C.coeffs[2 * j + 1]
        if c:
            term = poly_scale(poly_pow(lin, 2 * j + 1), Q((-1) ** j * c, 3 ** (j + 1)))
            out = poly_add(out, term)
    return out


def _dual(A: Enumerator) -> Enumerator:
    total = A.total()
    if total <= 0:
        raise ValueError("enumerator total A(1,1) must be positive")
    return transform_xy(A).scale(Q(1, total))


def build_map(A: Enumerator, lam: int | None = None, B: Enumerator | None = None) -> DistillMap:
    """Distillation map for an even-only enumerator A, n = +-1 mod 6.

    lam selects the logical sign class; None takes the natural choice for
    n mod 6.  B may be supplied to skip the dual transform.
    """
    n = A.n
    if n % 6 not in (1, 5):
        raise ValueError("n = %d is not congruent to +-1 mod 6" % n)
    if not A.is_even_only():
        raise ValueError("stabilizer enumerator must be even-only")
    if lam is None:
        lam = natural_sign(n)
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if B is None:
        B = _dual(A)
    C = B - A
    if not C.is_odd_only():
        raise ValueError("logical enumerator must be odd-only")
    n_poly = _n_poly(A)
    m_poly = poly_add(n_poly, poly_scale(_odd_part_poly(C), lam))
    if not n_poly:
        raise DegenerateMapError("N is identically zero")
    return DistillMap(n, lam, m_poly, n_poly)


@dataclass(frozen=True)
class NoiseExponent:
    status: str  # "ok" | "useless" | "perfect"
    nu: int | None
    leading: Fraction | None


def noise_exponent(dmap: DistillMap) -> NoiseExponent:
    """nu = ord_0 M - ord_0 N and the exact leading coefficient of eps_out.

    A vanishing success probability at eps = 0 makes the exponent
    meaningless ("useless"); M = 0 is the perfect-map sentinel.
    """
    if not dmap.m_poly:
        return NoiseExponent("perfect", None, None)
    om = ord_at_zero(dmap.m_poly)
    on = ord_at_zero(dmap.n_poly)
    if on != 0:
        return NoiseExponent("useless", None, None)
    lead = Q(dmap.m_poly[om]) / (2 * Q(dmap.n_poly[0]))
    return NoiseExponent("ok", om, lead)


@dataclass(frozen=True)
class ThresholdReport:
    status: str  # "ok" | "no_threshold" | "identity"
    low: Fraction | None = None
    high: Fraction | None = None
    stable: bool | None = None

    def decimal(self, digits: int = 12) -> str | None:
        if self.status != "ok":
            return None
        return decimal_str((self.low + self.high) / 2, digits)


def threshold(dmap: DistillMap, width=Q(1, 10**12)) -> ThresholdReport:
    """Smallest fixed point of the map in (0, 1/2), isolated exactly.

    The bracketing interval has p = M - 2 eps N of opposite signs at its
    endpoints (or is a single exact rational root) and is refined to the
    requested width.  The stability flag checks eps_out < eps just below.
    """
    p_full = dmap.fixed_point_poly()
    p = p_full
    if not p:
        return ThresholdReport("identity")
    # strip the forced fixed points at 0 and 1/2
    from .exact import poly_divmod

    while p and poly_eval(p, 0) == 0:
        p = poly_divmod(p, (0, 1))[0]
    while p and poly_eval(p, Q(1, 2)) == 0:
        p = poly_divmod(p, (-1, 2))[0]
    if not p or not any(c for c in p):
        return ThresholdReport("identity")
    half = Q(1, 2)
    # roots at 0 and 1/2 are stripped, so every isolated root is interior
    intervals = isolate_roots(p, 0, half)
    if not intervals:
        return ThresholdReport("no_threshold")
    lo, hi = refine_root(p, *intervals[0], width=width)
    # stability: sign of eps_out - eps at a point between 0 and the root
    probe = lo / 2 if lo > 0 else lo
    pm = poly_eval(p_full, probe)
    nm = poly_eval(dmap.n_poly, probe)
    stable = nm != 0 and (pm / (2 * nm)) < 0
    return ThresholdReport("ok", lo, hi, stable)


# ---------------------------------------------------------------------------
# quantum consistency constraints


@dataclass(frozen=True)
class QuantumVerdict:
    success_nonneg: bool
    threshold_ok_plus: bool  # lam = -1 map (n = 1 mod 6 natural choice)
    threshold_ok_minus: bool  # lam = +1 map
    success_witness: Fraction | None = None
    threshold_witness_plus: Fraction | None = None
    threshold_witness_minus: Fraction | None = None

    @property
    def all_ok(self) -> bool:
        return self.success_nonneg and self.threshold_ok_plus and self.threshold_ok_minus


def check_success_nonneg(A: Enumerator):
    """Decide N(eps) >= 0 on [0, 1] exactly; witness is a rational eps."""
    n_poly = _n_poly(A)
    ok, witness = poly_nonneg_on(n_poly, 0, 1)
    return ok, witness


def _threshold_ok(dmap: DistillMap):
    """(ok, witness) for eps_out(eps_max) >= eps_max, decided in Q[sqrt(3)]."""
    slack = eval_sqrt3(dmap.fixed_point_poly(), EPS_MAX)
    den_sign = eval_sqrt3(dmap.n_poly, EPS_MAX).sign()
    if den_sign == 0:
        raise DegenerateMapError("N(eps_max) = 0; threshold test degenerate")
    if slack.sign() in (0, den_sign):
        return True, None
    # for even-only A the slack is a pure sqrt(3) multiple, so
    # sqrt(3) * slack = 3 b is the rational violated quantity
    return False, 3 * slack.b if slack.a == 0 else None


def _sign_maps(A: Enumerator):
    """The maps for lam = -1 and lam = +1, sharing one dual transform."""
    B = _dual(A)
    return [build_map(A, lam=lam, B=B) for lam in (-1, 1)]


def check_threshold_constraint(A: Enumerator):
    """eps_out(eps_max) >= eps_max for both logical sign choices.

    eps_max = (1 - 1/sqrt(3))/2 is the stabilizer-octahedron boundary; a
    map crossing below it would purify undistillable states.  Returns
    {lam: (ok, witness)} where the witness is the exact rational value of
    sqrt(3) * (M - 2 eps N)(eps_max), negative exactly on violation.
    N(eps_max) = 0 raises a degenerate-map error.
    """
    return {dmap.lam: _threshold_ok(dmap) for dmap in _sign_maps(A)}


def quantum_verdict(A: Enumerator) -> QuantumVerdict:
    """Both consistency constraints with exact witnesses on failure."""
    maps = _sign_maps(A)
    ok_s, wit_s = poly_nonneg_on(maps[0].n_poly, 0, 1)
    thr = {dmap.lam: _threshold_ok(dmap) for dmap in maps}
    return QuantumVerdict(
        success_nonneg=ok_s,
        threshold_ok_plus=thr[-1][0],
        threshold_ok_minus=thr[1][0],
        success_witness=wit_s,
        threshold_witness_plus=thr[-1][1],
        threshold_witness_minus=thr[1][1],
    )


def bernstein_certificate(p, degree: int):
    """Nonnegative Bernstein coefficients of p on [0, 1], if they exist.

    A certificate proves p >= 0 on [0, 1]; absence proves nothing.
    """
    coeffs = bernstein_coefficients(poly(Q(c) for c in p), degree)
    if all(c >= 0 for c in coeffs):
        return coeffs
    return None


def curve_rows(dmap: DistillMap, grid: int = 512):
    """(eps, eps_out) pairs on a uniform grid over [0, 1/2]."""
    rows = []
    for i in range(grid + 1):
        eps = Q(i, 2 * grid)
        try:
            rows.append((eps, dmap.eps_out(eps)))
        except ZeroDivisionError:
            rows.append((eps, None))
    return rows
