"""Exact, matrix-free cross-checks of every enumerator formula.

Checks a stabilizer group and computes tr(Pi rho(a)^n) from its signed Pauli
words alone, independently of the enumerator identities they validate.  A
word carries the x/z bitmasks of `gf4` (qubit 0 is the most significant bit)
and stands for the Hermitian P(x, z) = i^popcount(x & z) X^x Z^z (Y = iXZ).
As rho(a) = (a_i I + a_x X + a_y Y + a_z Z)/2 has tr(P rho(a)) = a_P per
letter, every trace is an exact (1/2^(n-k)) sum_w s_w a_i^#I a_x^#X a_y^#Y a_z^#Z.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import Q
from .gf4 import SignedPauli


def _product(a, b):
    """a * b for commuting signed words ((x, z), sign), with the phases of
    Aaronson and Gottesman, Phys. Rev. A 70, 052328 (2004): i^e1 X^x1 Z^z1 *
    i^e2 X^x2 Z^z2 = i^(e1+e2) (-1)^popcount(z1 & x2) X^(x1^x2) Z^(z1^z2)."""
    ((x1, z1), s1), ((x2, z2), s2) = a, b
    x, z = x1 ^ x2, z1 ^ z2
    # a * b = i^m s1 s2 P(x, z), and m is even exactly when a and b commute
    m = ((x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count() - (x & z).bit_count()) % 4
    if m % 2:
        raise ValueError("signed words do not commute")
    return (x, z), s1 * s2 * (1 - m)


def _tally(words) -> Counter:
    """Sum of the signs of words ((x, z), sign) per letter count (#X, #Y, #Z)."""
    counts = Counter()
    for (x, z), s in words:
        y = x & z
        counts[(x ^ y).bit_count(), y.bit_count(), (z ^ y).bit_count()] += s
    return counts


@dataclass(frozen=True)
class StabilizerGroup:
    """A checked signed stabilizer group of 2^(n-k) words on n qubits."""

    n: int
    k: int
    words: dict  # (x, z) -> sign
    tally: Counter  # _tally of the words
    mode = "exact"  # every trace is an exact Fraction


def build_projector(paulis, n: int, k: int) -> StabilizerGroup:
    """The group of the projector (1/2^(n-k)) * sum of signed Pauli words.

    The list must be the full signed group, e.g. `gf4.rall_signs(code)`: its words
    commute, leave out -I and are the group they generate, signs included.  The
    span grows one new generator at a time, in O(2^(n-k)) products.
    """
    if len(paulis) != 2 ** (n - k):
        raise ValueError("expected the full group of 2^(n-k) signed words")
    words = {(sp.x, sp.z): sp.sign for sp in paulis if sp.n == n}
    if len(words) != len(paulis) or words.get((0, 0)) != 1:
        raise ValueError("signed words repeat, have the wrong length or lack +I")
    span = {(0, 0): 1}
    for g in words.items():
        if g[0] not in span:
            span.update([_product(g, w) for w in span.items()])
    if span != words:
        raise ValueError("signed words are not the group they generate")
    return StabilizerGroup(n, k, words, _tally(words.items()))


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
        """rho(a) is positive semidefinite: a_i >= |(a_x, a_y, a_z)|."""
        return self.a_i >= 0 and self.a_x**2 + self.a_y**2 + self.a_z**2 <= self.a_i**2


def t_direction(rbar) -> DensityVector:
    """Twirled magic-state direction: a_x = a_y = a_z = rbar."""
    return DensityVector(Q(1), Q(rbar), Q(rbar), Q(rbar))


def _trace(proj: StabilizerGroup, tally: Counter, bloch: DensityVector, n: int) -> Fraction:
    """(1/2^(n-k)) sum of s a_i^#I a_x^#X a_y^#Y a_z^#Z over the tallied words."""
    if n != proj.n:
        raise ValueError("the group acts on %d qubits, not %d" % (proj.n, n))
    if not bloch.is_physical():
        raise ValueError("Bloch vector is outside the physical ball")
    i, x, y, z = bloch.a_i, bloch.a_x, bloch.a_y, bloch.a_z
    total = sum(c * i ** (n - u - v - w) * x**u * y**v * z**w for (u, v, w), c in tally.items())
    return Q(total, 2 ** (n - proj.k))


def projection_prob(proj: StabilizerGroup, bloch: DensityVector, n: int) -> Fraction:
    """tr(Pi rho(a)^n), an exact Fraction."""
    return _trace(proj, proj.tally, bloch, n)


def logical_component(proj: StabilizerGroup, logical: SignedPauli, bloch: DensityVector, n: int) -> Fraction:
    """tr(Pi rho(a)^n Q_L) for a signed logical word commuting with Pi."""
    if logical.n != n:
        raise ValueError("the logical word has length %d, not %d" % (logical.n, n))
    q = (logical.x, logical.z), logical.sign
    return _trace(proj, _tally(_product(w, q) for w in proj.words.items()), bloch, n)


def commutes_with_m3(proj: StabilizerGroup) -> bool:
    """Whether the transversal order-3 Clifford cycling X -> Y -> Z -> X fixes
    Pi: the group is closed, signs included, under (x, z) -> (x ^ z, x)."""
    return all(proj.words.get((x ^ z, x)) == s for (x, z), s in proj.words.items())
