"""Invariant-ring parametrizations of enumerator families.

Every admissible enumerator of a maximal self-orthogonal code of odd
length n is an exact linear combination built from the two invariants

    fhat = x^2 + 3 y^2        ghat = y^2 (x^2 - y^2)^2,

with coefficient vectors (c'_j, d'_j); self-dual codes of even length use
the fhat/ghat ring alone.  The y-polynomials those coefficients multiply,
the blocks fhat^a ghat^j (times the wedge y^2 (x^2 - y^2) for d'), are
listed once per length by _blocks as integer polynomials, and every
expansion, the unit basis included, is a linear combination of them,
accumulated over Z and divided once.  This module also inverts the
parametrizations and solves the extremal cancellation system exactly, one
integer linear system for every n = +-1 mod 6.  The noise-suppression
levels are the exponents nu = n (mod 3) up to nu = n, and the extremal
distillation enumerator is the one member with A_0 = 1 at the top level,
nu = n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerators import DomainError, Enumerator, check_length, is_map_length, is_odd_family_length, is_selfdual_length
from .exact import Q, binom, catalan, integer_row, poly_mul, rref, rref_steps


def num_cprime(n: int) -> int:
    return (n - 1) // 6 + 1


def num_dprime(n: int) -> int:
    return (n - 5) // 6 + 1 if n >= 5 else 0


@dataclass(frozen=True)
class InvariantParams:
    """Coefficients (c'_j, d'_j) of the odd-length family of degree n."""

    n: int
    cprime: tuple
    dprime: tuple

    def __post_init__(self):
        if self.n % 2 == 0:
            raise DomainError("n must be odd")
        object.__setattr__(self, "cprime", tuple(Q(x) for x in self.cprime))
        object.__setattr__(self, "dprime", tuple(Q(x) for x in self.dprime))
        if len(self.cprime) != num_cprime(self.n):
            raise ValueError("expected %d c' coefficients" % num_cprime(self.n))
        if len(self.dprime) != num_dprime(self.n):
            raise ValueError("expected %d d' coefficients" % num_dprime(self.n))


@dataclass(frozen=True)
class SelfDualParams:
    """Coefficients c_j of the even-length self-dual family of degree n."""

    n: int
    c: tuple

    def __post_init__(self):
        if self.n % 2:
            raise DomainError("n must be even")
        object.__setattr__(self, "c", tuple(Q(x) for x in self.c))
        if len(self.c) != self.n // 6 + 1:
            raise ValueError("expected %d coefficients" % (self.n // 6 + 1))


@dataclass(frozen=True)
class HSeries:
    order: int
    coeffs: tuple


def h_series(order: int) -> HSeries:
    """Power-series coefficients H_j = (-4)^j (1/2)_j / (2)_j = (-1)^j Catalan(j)."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    return HSeries(order, tuple((-1) ** j * catalan(j) for j in range(order + 1)))


def _blocks(n: int) -> list:
    """The y-polynomials multiplied by a family's coefficients, in order:
    fhat^(n/2 - 3j) ghat^j for even n; for odd n fhat^((n-1)/2 - 3j) ghat^j
    (c'), then y^2 (x^2 - y^2) fhat^((n-5)/2 - 3j) ghat^j (d').

    Each block is an integer polynomial in u = y^2, spread back to the even
    y-degrees.  The first of each run is w fhat^top, with w = 1 or the
    wedge u (1 - u); each next one is the one before times
    ghat / fhat^3 = u (1 - u)^2 / (1 + 3u)^3, a multiplication and an exact
    division of O(n) steps each.
    """
    parts = [(n // 2, (1,))] if n % 2 == 0 else [((n - 1) // 2, (1,)), ((n - 5) // 2, (0, 1, -1))]
    out = []
    for top, w in parts:
        p = list(poly_mul([binom(top, i) * 3**i for i in range(top + 1)], w))
        for j in range(top // 3 + 1):
            if j:  # times u (1 - u)^2, then over (1 + 3u)^3
                p = [0] + [a - 2 * b + c for a, b, c in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]
                for _ in range(3):  # synthetic division by 1 + 3u; the remainder is 0
                    for i in range(1, len(p)):
                        p[i] -= 3 * p[i - 1]
                    p.pop()
            block = [0] * (2 * len(p) - 1)
            block[::2] = p
            out.append(tuple(block))
    return out


def _combine(n: int, coeffs, blocks) -> Enumerator:
    """The degree-n enumerator sum_i coeffs[i] blocks[i]: the coefficients
    scaled to integers, accumulated over Z and divided once."""
    ints, scale = integer_row(coeffs)
    out = [0] * (n + 1)
    for c, block in zip(ints, blocks):
        if c:
            for deg in range(0, len(block), 2):
                out[deg] += c * block[deg]
    return Enumerator(n, tuple(out) if scale == 1 else tuple(Q(v, scale) for v in out))


def expand_family(p: InvariantParams) -> Enumerator:
    """Expand the odd-length parametrization into an exact Enumerator.

    A = x * sum_j c'_j fhat^((n-1)/2 - 3j) ghat^j
        + x y^2 (x^2 - y^2) * sum_j d'_j fhat^((n-5)/2 - 3j) ghat^j
    """
    return _combine(p.n, p.cprime + p.dprime, _blocks(p.n))


def expand_selfdual(p: SelfDualParams) -> Enumerator:
    """A = sum_j c_j fhat^(n/2 - 3j) ghat^j for even n."""
    return _combine(p.n, p.c, _blocks(p.n))


def unit_family_basis(n: int):
    """Enumerators of the unit parameter vectors: for odd n the c'-block
    then the d'-block of expand_family, for even n those of expand_selfdual."""
    return [_combine(n, (1,), (block,)) for block in _blocks(n)]


def params_from_enumerator(A: Enumerator) -> InvariantParams:
    """Invert expand_family exactly; raises if A is outside the family span."""
    n = A.n
    if n % 2 == 0:
        raise DomainError("n must be odd")
    basis = unit_family_basis(n)
    # the (n+1) x len(basis) overdetermined system, rhs carried after it
    mat = [[b.coeffs[j] for b in basis] + [A.coeffs[j]] for j in range(n + 1)]
    pivot_rows, leftover, pivot_cols = rref(mat, len(basis))
    if len(pivot_cols) < len(basis):
        raise ValueError("family basis is degenerate")
    if any(row[-1] != 0 for row in leftover):
        raise ValueError("enumerator is not in the invariant family span")
    sol = [row[-1] for row in pivot_rows]
    nc = num_cprime(n)
    return InvariantParams(n, tuple(sol[:nc]), tuple(sol[nc:]))


# ---------------------------------------------------------------------------
# rescaled coordinates used by the cancellation system (internal only)


def _unscaled(n, top, nums, den):
    """The rescaled coefficients nums[j] / den of the blocks pulled back to
    c' (top = 1) or d' (top = 5): each over (-16/27)^j 4^((n - top)/2 - 3j),
    with one Fraction per coefficient."""
    return tuple(Q(v * 27**j, den * (-16) ** j * 4 ** ((n - top) // 2 - 3 * j)) for j, v in enumerate(nums))


def _linsolve(mat, rhs):
    """Exact solution of a square integer system as integer numerators over
    one denominator d > 0: (Y, d) with Y / d the solution; raises on a
    singular system."""
    d, pivots = 1, ()
    for d, pivots, _ in rref_steps([row + [r] for row, r in zip(mat, rhs)], len(mat)):
        pass
    if len(pivots) < len(mat):
        raise ValueError("singular cancellation system")
    return [row[-1] for _, row in pivots], d


def extremal_distillation_params(n: int) -> InvariantParams:
    """Parameters cancelling the maximal number of phi-powers for odd n = +-1 mod 6.

    The cancellation series is S = P S~1 + R S~2 with S~1 = sum_j c_{m-j} phi^j,
    S~2 = sum_j d_{nd-1-j} phi^j (nd = num_dprime(n)) and (P, R) = (1, (4/9) H)
    for n = 6m+5 or (H, -4/9) for n = 6m+1, held as {power: coefficient} and
    stated times 9, so that every entry is an integer (H is integral).  Its
    first m + nd coefficients vanish for one choice of c_1..c_m, d_0..d_{nd-1}
    given c_0 = 2^(n-1), which is then pulled back to (c', d').  One of P and R
    is a constant v, so the u unknowns beside it meet rows 0..u-1 alone: the
    remaining rows are a square system in the other side's unknowns, solved
    as Y / d, and each unit unknown is then an integer over d v.
    """
    check_length(n, is_odd_family_length, is_map_length)
    m, nd = num_cprime(n) - 1, num_dprime(n)
    H = dict(enumerate(h_series(m + nd - 1).coeffs))
    if n % 6 == 5:
        P, R = {0: 9}, {t: 4 * h for t, h in H.items()}
    else:
        P, R = {t: 9 * h for t, h in H.items()}, {0: -4}
    c0 = 2 ** (n - 1)
    rhs = [-c0 * P.get(t - m, 0) for t in range(m + nd)]  # row t is phi^t
    # each side's unknowns by their power of phi: c_m..c_1 beside P, d_{nd-1}..d_0 beside R
    (unit, u), (other, k) = ((P, m), (R, nd)) if len(P) == 1 else ((R, nd), (P, m))
    Y, d = _linsolve([[other.get(t - j, 0) for j in range(k)] for t in range(u, u + k)], rhs[u:])
    X = [rhs[t] * d - sum(other.get(t - j, 0) * yj for j, yj in enumerate(Y)) for t in range(u)]
    # the unit side over d v, the other over d; c_0 joins the c side
    (cs, cden), (ds, dden) = ((X, d * unit[0]), (Y, d)) if unit is P else ((Y, d), (X, d * unit[0]))
    cp = _unscaled(n, 1, [c0 * cden] + cs[::-1], cden)
    dp = _unscaled(n, 5, ds[::-1], dden)
    return InvariantParams(n, cp, dp)


def extremal_distillation_enumerator(n: int) -> Enumerator:
    return expand_family(extremal_distillation_params(n))


def extremal_A2(n: int) -> int:
    """A_2 of the extremal distillation enumerator: -3 C(n, 2), always < 0."""
    check_length(n, is_odd_family_length, is_map_length)
    return -3 * binom(n, 2)


def selfdual_extremal_params(n: int) -> SelfDualParams:
    """Closed-form coefficients of the extremal self-dual enumerator.

    c_j = (n / 2j) sum_r (-3)^(r+1) binom(n/2 - 3j + r, r) binom(3j - r - 2, j - r - 1)
    forces A_2 = A_4 = ... to vanish up to the extremal distance.
    """
    check_length(n, is_selfdual_length)
    cs = [Q(1)]
    for j in range(1, n // 6 + 1):
        s, p3 = 0, 1
        for r in range(j):
            p3 *= -3
            s += p3 * binom(n // 2 - 3 * j + r, r) * binom(3 * j - r - 2, j - r - 1)
        cs.append(Q(n * s, 2 * j))
    return SelfDualParams(n, tuple(cs))


def selfdual_extremal_enumerator(n: int) -> Enumerator:
    return expand_selfdual(selfdual_extremal_params(n))
