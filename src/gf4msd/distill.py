"""Exact one-round distillation maps derived from weight enumerators.

For an even-only enumerator A of odd length n = +-1 mod 6 with logical
enumerator C, write u = 1 - 2 eps and t = rbar^2 = u^2 / 3.  The output
error rate is the exact rational function

    eps_out(eps) = M(eps) / (2 N(eps)),

where N and M are polynomials in u:

    N = signed_poly(A)(t) = A(1, i rbar) = sum_j (-1)^j A_2j u^2j / 3^j,
    M = sum_j (-1)^j (A_2j u^2j + lam C_2j+1 u^(2j+1) / 3) / 3^j,

so that N is M's even part and M - 2 eps N = u (N + lam sum_j C_{2j+1}
(-1)^j t^j / 3); lam in {+1, -1} is the logical sign choice, naturally +1
for n = 5 mod 6 and -1 for n = 1 mod 6.  A map holds 3^h M in u as
integers, the u-numerator w, and every reading of the map is computed
from it: eps_out at u = 1 - 2 eps, the noise exponent from the rows of one
integer binomial matrix (``eps_rows``, which the bounds' numerator rows
share), the polynomials in eps on demand, and N(t) and q(t) in t, integers
with M - 2 eps N = u q(t) up to a positive scale (``t_polys``).  Thresholds
are isolated exactly on q, of degree (n - 1) / 2, read at t(eps) along a
bisection in eps.  The quantum consistency constraints read a map of
either sign and are decided over Q in t for both: success nonnegativity
N >= 0 for t in [0, 1/3], and eps_out >= eps at the stabilizer-octahedron
boundary eps_max = (1 - 1/sqrt(3)) / 2, where u = 1/sqrt(3), t = 1/9 and
sqrt(3) (M - 2 eps N) is the rational threshold_slack; both are integer
weight rows over w (``eps_max_rows``), the verdicts' and the LP cuts'.
No verdict touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from .enumerators import DomainError, Enumerator, check_length, is_map_length, signed_poly, transform_xy
from .exact import (
    Q,
    decimal_str,
    dot,
    integer_row,
    ord_at_zero,
    poly,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_scale,
    scaled_horner,
)
from .roots import _cells, _refine, _variations, bernstein_coefficients, poly_nonneg_on, sturm_chain


class DegenerateMapError(DomainError):
    pass


def natural_sign(n: int) -> int:
    check_length(n, is_map_length)
    return 1 if n % 6 == 5 else -1


@dataclass(frozen=True)
class DistillMap:
    """M = sum_i numerator[i] u^i / scale in u = 1 - 2 eps, N its even part.

    The integer numerator and its scale are those of numerator_u on the
    enumerators' coefficients over their common denominator, so two maps
    are equal exactly when their n, lam, M and N are.
    """

    n: int
    lam: int  # logical sign choice: +1 (n = 5 mod 6 natural) or -1
    numerator: tuple  # 3^h s M in u, integers (numerator_u)
    scale: int  # 3^h s > 0

    @cached_property
    def m_poly(self) -> tuple:
        """The numerator M in eps."""
        return _eps_poly(self.numerator, self.scale, 1)

    @cached_property
    def n_poly(self) -> tuple:
        """N in eps, half the denominator."""
        return _eps_poly(self.numerator, self.scale, 2)

    def other_sign(self) -> DistillMap:
        """The map of the same enumerator for -lam: C's terms of M change sign."""
        w = tuple(-v if i % 2 else v for i, v in enumerate(self.numerator))
        return DistillMap(self.n, -self.lam, w, self.scale)

    def t_polys(self) -> tuple:
        """The integers (N, q) in t = u^2 / 3 with N(t) = scale N and
        M - 2 eps N = u q(t) / scale: N_j = w_2j 3^j from M's even part N,
        and M - 2 eps N = (M - N) + u N, M - N being M's odd part, so
        q_j = (w_2j + w_2j+1) 3^j; q has degree (n - 1) / 2."""
        w = self.numerator
        return (
            poly(a * 3**j for j, a in enumerate(w[::2])),
            poly((a + c) * 3**j for j, (a, c) in enumerate(zip(w[::2], w[1::2]))),
        )

    def eps_out(self, eps) -> Fraction:
        """M / (2 N) at u = 1 - 2 eps; the scale cancels."""
        eps = Q(eps)
        u = 1 - 2 * eps
        denom = 2 * poly_eval(self.numerator[::2], u * u)
        if denom == 0:
            raise ZeroDivisionError("N vanishes at %s" % eps)
        return poly_eval(self.numerator, u) / denom

    def canonical_fraction(self):
        """(numerator, denominator) reduced and scaled to denominator(0) = 1."""
        g = poly_gcd(self.m_poly, poly_scale(self.n_poly, 2))
        num = poly_divmod(self.m_poly, g)[0]
        den = poly_divmod(poly_scale(self.n_poly, 2), g)[0]
        if den and den[0] != 0:
            s = Q(1) / den[0]
            num, den = poly_scale(num, s), poly_scale(den, s)
        return num, den


def numerator_u(a_even, c_odd, lam) -> list:
    """3^h M in u, h = len(c_odd), from as many A_2j as C_2j+1 (odd n);
    its even part is 3^h N, and integer inputs give integers."""
    h = len(c_odd)
    w = []
    for j, (a, c) in enumerate(zip(a_even, c_odd)):
        s = (-1) ** j * 3 ** (h - 1 - j)
        w += (3 * s * a, lam * s * c)
    return w


def eps_rows(width: int, count: int) -> list:
    """Rows k < count of the binomial matrix taking the coefficients w_i of
    a polynomial in u = 1 - 2 eps to its eps^k one, (-2)^k sum_i C(i, k) w_i;
    each row is the one before times -2 (i - k) / (k + 1), exactly."""
    rows, row = [], [1] * width
    for k in range(count):
        rows.append(row)
        row = [-2 * v * (i - k) // (k + 1) for i, v in enumerate(row)]
    return rows


def _numerator(A: Enumerator, C: Enumerator, lam) -> tuple:
    """(numerator_u, its scale) on the integer row of A's even and C's odd
    coefficients; A even-only and C odd-only."""
    a, c = A.coeffs[::2], C.coeffs[1::2]
    ints, s = integer_row(a + c)
    return tuple(numerator_u(ints[: len(a)], ints[len(a) :], lam)), s * 3 ** len(c)


def _eps_poly(w, den, step) -> tuple:
    """eps_rows on w (step 1, M) or on its even part (step 2, N), divided once."""
    return tuple(Q(v, den) for v in poly(dot(r[::step], w[::step]) for r in eps_rows(len(w), len(w))))


def eps_max_rows(width: int) -> tuple:
    """Integer weight rows over a u-numerator w of the given width at the
    stabilizer-octahedron boundary, u^2 = 1/3 and t = 1/9, J = (width - 1) // 2:
    3^(J - i // 2) on even i gives 3^J scale N(eps_max), and on every i
    3^J q(1/9) = 3^J scale threshold_slack."""
    J = (width - 1) // 2
    slack = [3 ** (J - i // 2) for i in range(width)]
    return [0 if i % 2 else v for i, v in enumerate(slack)], slack


def _logical(A: Enumerator) -> Enumerator:
    """C = B - A after the checks every map and verdict rests on.

    A(1, 1) > 0 with A even-only also rules out N = 0 identically.
    """
    check_length(A.n, is_map_length)
    if not A.is_even_only():
        raise DomainError("stabilizer enumerator must be even-only")
    total = A.total()
    if total <= 0:
        raise DomainError("enumerator total A(1,1) must be positive")
    C = transform_xy(A).scale(Q(1, total)) - A
    if not C.is_odd_only():
        raise DomainError("logical enumerator must be odd-only")
    return C


def build_map(A: Enumerator, lam: int | None = None) -> DistillMap:
    """Distillation map for an even-only enumerator A, n = +-1 mod 6.

    lam selects the logical sign class; None takes the natural choice for
    n mod 6.
    """
    C = _logical(A)
    if lam is None:
        lam = natural_sign(A.n)
    if lam not in (1, -1):
        raise DomainError("lam must be +1 or -1")
    return DistillMap(A.n, lam, *_numerator(A, C, lam))


@dataclass(frozen=True)
class NoiseExponent:
    status: str  # "ok" | "useless" | "perfect"
    nu: int | None
    leading: Fraction | None


def noise_exponent(dmap: DistillMap) -> NoiseExponent:
    """nu = ord_0 M - ord_0 N and the exact leading coefficient of eps_out.

    A vanishing success probability at eps = 0 makes the exponent
    meaningless ("useless"); M = 0 is the perfect-map sentinel.  Read from
    the numerator w: scale N(0) = sum_j w_2j at u = 1, and scale M's eps^k
    coefficient is row k of eps_rows on w, so the scale cancels.
    """
    w = dmap.numerator
    if not any(w):
        return NoiseExponent("perfect", None, None)
    n_0 = sum(w[::2])
    if n_0 == 0:
        return NoiseExponent("useless", None, None)
    nu, m_nu = next((k, v) for k, row in enumerate(eps_rows(len(w), len(w))) if (v := dot(row, w)))
    return NoiseExponent("ok", nu, Q(m_nu, 2 * n_0))


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


THRESHOLD_WIDTH = Q(1, 10**12)  # width of the refined bracketing interval


def _t_of(eps) -> Fraction:
    """t = (1 - 2 eps)^2 / 3 at eps = a/b: (b - 2a)^2 / (3 b^2)."""
    a, b = eps.numerator, eps.denominator
    return Q((b - 2 * a) ** 2, 3 * b * b)


def _t_level(chain, eps) -> int:
    """Minus the distinct roots of chain[0] on [t(eps), oo), up to a
    constant: t falls as eps rises, so two of these differ by the roots on
    (lo, hi] in eps, the chain's count on (t(hi), t(lo)] moved to
    [t(hi), t(lo)) by its zeros at the ends."""
    t = _t_of(eps)
    return -_variations(chain, t) - (scaled_horner(chain[0], t) == 0)


def threshold(dmap: DistillMap) -> ThresholdReport:
    """Smallest fixed point of the map in (0, 1/2), isolated exactly.

    The bracketing interval holds the smallest root of p = M - 2 eps N in
    (0, 1/2) strictly inside (or is a single exact rational root) and is
    refined to THRESHOLD_WIDTH.  p = u q(t) / scale (t_polys), and
    eps -> t is one-to-one and falling on [0, 1/2], so the bisection runs
    on eps cells but reads the Sturm chain of q, of half p's degree, at
    t(eps).  The stability flag checks eps_out < eps just below.
    """
    n_t, q = dmap.t_polys()
    if not q:
        return ThresholdReport("identity")
    # isolating on (0, 1/2] leaves out the forced fixed point at 0; the
    # ones at 1/2 (t = 0) are u and the factors t of q, so strip those and
    # every isolated root is interior
    chain = sturm_chain(q[ord_at_zero(q) :])
    cell = next(_cells(partial(_t_level, chain), 0, Q(1, 2)), None)
    if cell is None:
        return ThresholdReport("no_threshold")
    lo, hi = _refine(lambda eps: scaled_horner(chain[0], _t_of(eps)), *cell, THRESHOLD_WIDTH)
    # stability: sign of eps_out - eps at a point between 0 and the root,
    # where u > 0: p has the sign of q(t), and N that of N(t)
    t = _t_of(lo / 2 if lo > 0 else lo)
    stable = scaled_horner(q, t) * scaled_horner(n_t, t) < 0
    return ThresholdReport("ok", lo, hi, stable)


# ---------------------------------------------------------------------------
# quantum consistency constraints


@dataclass(frozen=True)
class QuantumVerdict:
    success_nonneg: bool
    threshold_ok_plus: bool  # lam = -1 map (n = 1 mod 6 natural choice)
    threshold_ok_minus: bool  # lam = +1 map
    success_witness: Fraction | None = None  # rbar^2 in [0, 1/3]
    threshold_witness_plus: Fraction | None = None
    threshold_witness_minus: Fraction | None = None


def check_success_nonneg(A: Enumerator):
    """Decide N = A(1, i rbar) >= 0 for rbar^2 in [0, 1/3] exactly.

    Returns (True, None) or (False, witness), the witness a rational
    rbar^2 with signed_eval(A, witness) < 0.
    """
    return poly_nonneg_on(signed_poly(A), 0, Q(1, 3))


def _at_eps_max(w, scale) -> tuple:
    """(3^J scale N(eps_max), threshold_slack) of the map with numerator w,
    from the rows of eps_max_rows."""
    n_row, slack_row = eps_max_rows(len(w))
    return dot(n_row, w), Q(dot(slack_row, w), 3 ** ((len(w) - 1) // 2) * scale)


def threshold_slack(A: Enumerator, C: Enumerator, lam: int) -> Fraction:
    """sqrt(3) (M - 2 eps N) at eps_max, a rational linear functional of (A, C).

    At eps_max, u = 1/sqrt(3) and t = 1/9, so this is q(1/9) / scale, A
    even-only and C odd-only of odd length.
    """
    return _at_eps_max(*_numerator(A, C, lam))[1]


def slack_sign_ok(n_max, slack) -> bool:
    """eps_out(eps_max) >= eps_max from the signs of N(eps_max) != 0 and
    the threshold slack (or positive multiples of them): the slack may not
    have the sign opposite to N(eps_max)."""
    return slack == 0 or (slack > 0) == (n_max > 0)


def _threshold_ok(dmap: DistillMap):
    """(ok, witness) for eps_out(eps_max) >= eps_max, the witness being the
    slack when slack_sign_ok fails."""
    n_max, slack = _at_eps_max(dmap.numerator, dmap.scale)
    if n_max == 0:
        raise DegenerateMapError("N(eps_max) = 0; threshold test degenerate")
    if slack_sign_ok(n_max, slack):
        return True, None
    return False, slack


def check_threshold_constraint(dmap: DistillMap):
    """eps_out(eps_max) >= eps_max for dmap and dmap.other_sign().

    eps_max = (1 - 1/sqrt(3))/2 is the stabilizer-octahedron boundary; a
    map crossing below it would purify undistillable states.  Returns
    {lam: (ok, witness)} where the witness is the exact rational
    threshold_slack, of sign opposite to N(eps_max) exactly on violation.
    N(eps_max) = 0 raises a degenerate-map error.
    """
    return {m.lam: _threshold_ok(m) for m in (dmap, dmap.other_sign())}


def quantum_verdict(dmap: DistillMap) -> QuantumVerdict:
    """Both consistency constraints from a map of either sign, with exact
    witnesses on failure; N(t) of t_polys is a positive multiple of
    signed_poly(A), so success is check_success_nonneg(A), witness and all."""
    thr = check_threshold_constraint(dmap)
    ok_s, wit_s = poly_nonneg_on(dmap.t_polys()[0], 0, Q(1, 3))
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
    if grid < 1:
        raise DomainError("grid must be a positive integer")
    rows = []
    for i in range(grid + 1):
        eps = Q(i, 2 * grid)
        try:
            rows.append((eps, dmap.eps_out(eps)))
        except ZeroDivisionError:
            rows.append((eps, None))
    return rows
