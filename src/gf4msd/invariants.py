"""Invariant-ring parametrizations of enumerator families.

Every admissible enumerator of a maximal self-orthogonal code of odd
length n is an exact linear combination built from the two invariants

    fhat = x^2 + 3 y^2        ghat = y^2 (x^2 - y^2)^2,

with coefficient vectors (c'_j, d'_j); self-dual codes of even length use
the fhat/ghat ring alone.  The y-polynomials those coefficients multiply,
the blocks fhat^a ghat^j (times the wedge y^2 (x^2 - y^2) for d'), are
listed once per length by _blocks, and every expansion, the unit basis
included, is a linear combination of them.  This module also inverts the
parametrizations and solves the extremal cancellation systems exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerators import DomainError, Enumerator
from .exact import (
    Q,
    binom,
    catalan,
    poly_mul,
    poly_pow,
    rref,
)

# y-degree coefficient vectors of the basic invariants (degrees 2 and 6)
FHAT = (1, 0, 3)
GHAT = (0, 0, 1, 0, -2, 0, 1)


def _fg_power(fpow: int, gpow: int):
    return poly_mul(poly_pow(FHAT, fpow), poly_pow(GHAT, gpow))


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
            raise ValueError("n must be odd")
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
            raise ValueError("n must be even")
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
    (c'), then y^2 (x^2 - y^2) fhat^((n-5)/2 - 3j) ghat^j (d')."""
    parts = [(n // 2, (1,))] if n % 2 == 0 else [((n - 1) // 2, (1,)), ((n - 5) // 2, (0, 0, 1, 0, -1))]
    return [poly_mul(w, _fg_power(top - 3 * j, j)) for top, w in parts for j in range(top // 3 + 1)]


def _combine(n: int, coeffs, blocks) -> Enumerator:
    """The degree-n enumerator sum_i coeffs[i] blocks[i]."""
    out = [0] * (n + 1)
    for c, block in zip(coeffs, blocks):
        if c:
            for deg, val in enumerate(block):
                out[deg] += c * val
    return Enumerator(n, tuple(out))


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
        raise ValueError("n must be odd")
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
# rescaled coordinates used by the cancellation systems (internal only)


def _unscaled(n, j, v, top):
    """The rescaled coefficient v of block j pulled back to c' (top = 1)
    or d' (top = 5): v / ((-16/27)^j 4^((n - top)/2 - 3j))."""
    return v / (Q(-16, 27) ** j * Q(4) ** ((n - top) // 2 - 3 * j))


def _linsolve(mat, rhs):
    """Exact solution of a square system; raises on a singular system."""
    pivot_rows, _, pivot_cols = rref([row + [r] for row, r in zip(mat, rhs)], len(mat))
    if len(pivot_cols) < len(mat):
        raise ValueError("singular cancellation system")
    return [row[-1] for row in pivot_rows]


def extremal_distillation_params(n: int) -> InvariantParams:
    """Parameters cancelling the maximal number of phi-powers for odd n = +-1 mod 6.

    The cancellation series is  S~1 + (4/9) H S~2  for n = 6m+5 and
    H S~1 - (4/9) S~2  for n = 6m+1, with S~1 = sum c_{m-j} phi^j and the
    matching d-sums; the c/d unknowns are then pulled back to (c', d').
    """
    if n % 6 not in (1, 5):
        raise DomainError("n must be congruent to +-1 mod 6")
    if n < 5:
        raise DomainError("need odd n >= 5")
    c0 = Q(2) ** (n - 1)
    if n % 6 == 5:
        m = (n - 5) // 6
        H = h_series(2 * m).coeffs
        # unknown d_0..d_m from rows t = m..2m; then c_1..c_m explicitly
        mat, rhs = [], []
        for t in range(m, 2 * m + 1):
            row = [Q(0)] * (m + 1)
            for j in range(0, m + 1):
                if 0 <= t - j <= 2 * m:
                    row[m - j] += Q(4, 9) * H[t - j]
            mat.append(row)
            rhs.append(-c0 if t == m else Q(0))
        d = _linsolve(mat, rhs)
        c = [Q(0)] * (m + 1)
        c[0] = c0
        for t in range(0, m):
            acc = Q(0)
            for j in range(0, t + 1):
                acc += Q(4, 9) * H[t - j] * d[m - j]
            c[m - t] = -acc
    else:
        m = (n - 1) // 6
        H = h_series(2 * m).coeffs
        # series H*S~1 - (4/9)*S~2 with S~1 = sum c_{m-j} phi^j (c_0 known)
        # and S~2 = sum d_{m-1-j} phi^j; rows t = 0..2m-1.
        # unknown order: c_1..c_m then d_0..d_{m-1}
        size = 2 * m
        mat = [[Q(0)] * size for _ in range(size)]
        rhs = [Q(0)] * size
        for t in range(2 * m):
            for j in range(0, m + 1):
                if t - j < 0:
                    continue
                coeff = Q(H[t - j])
                if m - j == 0:
                    rhs[t] -= coeff * c0
                else:
                    mat[t][m - j - 1] += coeff
            for j in range(0, m):
                if t == j:
                    mat[t][m + (m - 1 - j)] += Q(-4, 9)
        sol = _linsolve(mat, rhs)
        c = [c0] + sol[:m]
        d = sol[m:]
    cp = tuple(_unscaled(n, j, cj, 1) for j, cj in enumerate(c))
    dp = tuple(_unscaled(n, j, dj, 5) for j, dj in enumerate(d))
    return InvariantParams(n, cp, dp)


def extremal_distillation_enumerator(n: int) -> Enumerator:
    return expand_family(extremal_distillation_params(n))


def extremal_A2(n: int) -> int:
    """Closed-form A_2 of the extremal distillation enumerator (always < 0)."""
    if n % 6 == 5:
        m = (n - 5) // 6
        return -30 - 81 * m - 54 * m * m
    if n % 6 == 1:
        m = (n - 1) // 6
        return -9 * m - 54 * m * m
    raise ValueError("n must be congruent to +-1 mod 6")


def selfdual_extremal_params(n: int) -> SelfDualParams:
    """Closed-form coefficients of the extremal self-dual enumerator.

    c_j = (n / 2j) sum_r (-3)^(r+1) binom(n/2 - 3j + r, r) binom(3j - r - 2, j - r - 1)
    forces A_2 = A_4 = ... to vanish up to the extremal distance.
    """
    if n % 2 or n < 6:
        raise DomainError("n must be even and at least 6")
    cs = [Q(1)]
    for j in range(1, n // 6 + 1):
        s = Q(0)
        for r in range(j):
            s += (
                Q(-3) ** (r + 1)
                * binom(n // 2 - 3 * j + r, r)
                * binom(3 * j - r - 2, j - r - 1)
            )
        cs.append(Q(n, 2 * j) * s)
    return SelfDualParams(n, tuple(cs))


def selfdual_extremal_enumerator(n: int) -> Enumerator:
    return expand_selfdual(selfdual_extremal_params(n))
