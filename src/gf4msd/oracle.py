"""Dense-matrix cross-checks of every enumerator formula.

Builds stabilizer projectors directly from signed Pauli words and computes
projection probabilities and logical components by matrix algebra, fully
independently of the enumerator identities they validate.

A signed Pauli carries the x/z bitmasks of `gf4` (qubit 0 is the most
significant bit).  Row r of the signed word has its one entry in column
r ^ x, with phase sign * (-i)^#Y * (-1)^popcount(r & z); for one qubit
Y[r][1 - r] = -i(-1)^r.

The projector is one complex128 array in both modes.  All Pauli phases
live in {1, i, -1, -i}, so its entries are Gaussian integers over 2^(n-k)
and float64 holds them, and every partial sum of their products, exactly:
the hermiticity, idempotence, trace and commutation checks are exact
equalities.  The mode only picks the result of a trace: for
n <= EXACT_LIMIT the rational Bloch vector is scaled to integers and the
result is an exact Fraction, for larger n (up to DIM_LIMIT) it is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Q
from .gf4 import SignedPauli

EXACT_LIMIT = 6
DIM_LIMIT = 12

_UNITS = (1, -1j, -1, 1j)  # (-i)^m for m mod 4


def _pauli(sp: SignedPauli):
    """Column index and phase per row of the signed Pauli word."""
    rows = np.arange(1 << sp.n)
    signs = np.where(np.bitwise_count(rows & sp.z) & 1, -sp.sign, sp.sign)
    return rows ^ sp.x, _UNITS[(sp.x & sp.z).bit_count() % 4] * signs


@dataclass(frozen=True)
class DenseOperator:
    n: int
    k: int
    mat: np.ndarray  # complex128, entries Gaussian integers / 2^(n-k)
    mode: str


def build_projector(paulis, n: int, k: int) -> DenseOperator:
    """Projector (1/2^(n-k)) * sum of signed Pauli operators.

    The supplied list must be the full 2^(n-k)-element signed group, e.g.
    `gf4.rall_signs(code)`.  Hermiticity, idempotence and trace 2^k are
    checked exactly; inconsistent signs or a non-commuting set fail them.
    """
    if n > DIM_LIMIT:
        raise ValueError("dimension 2^%d exceeds the oracle limit" % n)
    if len(paulis) != 2 ** (n - k):
        raise ValueError("expected the full group of 2^(n-k) signed words")
    rows = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for sp in paulis:
        cols, phases = _pauli(sp)
        mat[rows, cols] += phases
    mat /= 2 ** (n - k)
    # Scaled by 4^(n-k), every real or imaginary partial sum of mat @ mat is
    # an integer of size below 2^(3n+1) <= 2^37 < 2^53 for n <= 12, so
    # float64 computes it exactly and these checks are exact.
    if not np.array_equal(mat, mat.conj().T):
        raise ValueError("projector is not hermitian")
    if not np.array_equal(mat @ mat, mat):
        raise ValueError("signed words do not form a stabilizer group")
    if np.trace(mat) != 2**k:
        raise ValueError("projector trace is not 2^k")
    return DenseOperator(n, k, mat, "exact" if n <= EXACT_LIMIT else "float")


@dataclass(frozen=True)
class DensityVector:
    """Single-qubit Bloch components; a_i = 1 for a normalized state."""

    a_i: Fraction
    a_x: Fraction
    a_y: Fraction
    a_z: Fraction

    def __post_init__(self):
        for f in ("a_i", "a_x", "a_y", "a_z"):
            object.__setattr__(self, f, Q(getattr(self, f)))

    def is_physical(self) -> bool:
        return self.a_x**2 + self.a_y**2 + self.a_z**2 <= self.a_i**2


def t_direction(rbar) -> DensityVector:
    """Twirled magic-state direction: a_x = a_y = a_z = rbar."""
    return DensityVector(Q(1), Q(rbar), Q(rbar), Q(rbar))


def _trace_rho_power(proj: DenseOperator, op, bloch: DensityVector, n: int, what: str):
    """tr(op rho(a)^n) for op with Gaussian-integer entries over 2^(n-k)."""
    if not bloch.is_physical():
        raise ValueError("Bloch vector is outside the physical ball")
    exact = proj.mode == "exact"
    dtype = object if exact else np.float64
    comps = (bloch.a_i, bloch.a_x, bloch.a_y, bloch.a_z)
    lcm = math.lcm(*(c.denominator for c in comps))
    a_i, a_x, a_y, a_z = (int(c * lcm) for c in comps)
    # 2 * lcm * rho = [[a_i + a_z, a_x - i a_y], [a_x + i a_y, a_i - a_z]]
    re = np.array([[a_i + a_z, a_x], [a_x, a_i - a_z]], dtype=dtype)
    im = np.array([[0, -a_y], [a_y, 0]], dtype=dtype)
    r_re, r_im = re, im
    for _ in range(n - 1):
        r_re, r_im = np.kron(r_re, re) - np.kron(r_im, im), np.kron(r_re, im) + np.kron(r_im, re)
    scale = 2 ** (proj.n - proj.k)
    g_re, g_im = ((part * scale).astype(np.int64).astype(dtype) for part in (op.real, op.imag))
    # sum_ij op_ij R_ji, real and imaginary parts
    t_re = (g_re * r_re.T).sum() - (g_im * r_im.T).sum()
    if exact and (g_re * r_im.T).sum() + (g_im * r_re.T).sum() != 0:
        raise ArithmeticError("%s came out complex" % what)
    den = scale * (2 * lcm) ** n
    return Fraction(t_re, den) if exact else float(t_re) / den


def projection_prob(proj: DenseOperator, bloch: DensityVector, n: int):
    """tr(Pi rho(a)^n): exact Fraction in exact mode, float otherwise."""
    return _trace_rho_power(proj, proj.mat, bloch, n, "projection probability")


def logical_component(proj: DenseOperator, logical: SignedPauli, bloch: DensityVector, n: int):
    """tr(Pi rho(a)^n Q_L) for a signed logical word commuting with Pi."""
    cols, phases = _pauli(logical)
    # Q_L maps row r to column cols[r] = r ^ x, and cols is its own inverse
    pq = proj.mat[:, cols] * phases[cols]
    qp = phases[:, None] * proj.mat[cols, :]
    if not np.array_equal(pq, qp):
        raise ValueError("logical operator does not commute with the projector")
    return _trace_rho_power(proj, pq, bloch, n, "logical component")


def m3_unitary():
    """Order-3 Clifford cycling X -> Y -> Z -> X under conjugation.

    (1/2) [[1+i, 1+i], [-1+i, 1-i]]; the entries are dyadic, so complex128
    holds it and its tensor powers exactly.  The global phase is not
    contractual; only the conjugation action is.
    """
    return 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])


def m3_tensor(n: int):
    m = m3_unitary()
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def commutes_with_m3(proj: DenseOperator) -> bool:
    if proj.mode != "exact":
        raise ValueError("exact mode only")
    m = m3_tensor(proj.n)
    return np.array_equal(m @ proj.mat, proj.mat @ m)
