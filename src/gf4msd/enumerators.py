"""Exact polynomial algebra for weight enumerators.

An Enumerator is a homogeneous degree-n bivariate polynomial
A(x, y) = sum_j A_j x^(n-j) y^j stored by y-degree with exact integer (or,
during linear-programming work, rational) coefficients.  All operations
here are pure functions on immutable values; no floating point anywhere.
It also states the three length domains, each with the one message of
its DomainError.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from .exact import Q, as_int_if_possible, integer_row, poly_eval, q_to_str


class DomainError(ValueError):
    """Input outside the mathematical domain of a command: exit code 3."""


class MacWilliamsError(DomainError):
    """The dual transform produced evidence the input was not a code enumerator."""


class ParseError(ValueError):
    """Malformed input text: a generator file, a database or enumerator JSON."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else "line %d: %s" % (line, message))


def is_map_length(n: int) -> bool:
    """Lengths with a distillation map: n = +-1 mod 6."""
    return n % 6 in (1, 5)


def is_odd_family_length(n: int) -> bool:
    """Lengths of the odd invariant family: odd n >= 5."""
    return n % 2 == 1 and n >= 5


def is_selfdual_length(n: int) -> bool:
    """Lengths of the self-dual family: even n >= 6."""
    return n % 2 == 0 and n >= 6


_LENGTH_MESSAGES = {
    is_map_length: "n = {n} is not congruent to +-1 mod 6",
    is_odd_family_length: "need odd n >= 5",
    is_selfdual_length: "need even n >= 6",
}


def check_length(n: int, *domains) -> None:
    """Raise the DomainError of the first of the length domains that n is outside."""
    for domain in domains:
        if not domain(n):
            raise DomainError(_LENGTH_MESSAGES[domain].format(n=n))


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


@dataclass(frozen=True)
class Enumerator:
    n: int
    coeffs: tuple

    def __post_init__(self):
        c = tuple(as_int_if_possible(x) for x in self.coeffs)
        if len(c) != self.n + 1:
            raise ValueError("need %d coefficients, got %d" % (self.n + 1, len(c)))
        object.__setattr__(self, "coeffs", c)

    def __getitem__(self, j: int):
        return self.coeffs[j]

    def __add__(self, other: "Enumerator") -> "Enumerator":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Enumerator(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Enumerator") -> "Enumerator":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Enumerator(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "Enumerator":
        return Enumerator(self.n, tuple(a * s for a in self.coeffs))

    def total(self):
        """A(1, 1): the codeword count for a code-derived enumerator."""
        return sum(self.coeffs)

    def is_even_only(self) -> bool:
        return all(a == 0 for j, a in enumerate(self.coeffs) if j % 2 == 1)

    def is_odd_only(self) -> bool:
        return all(a == 0 for j, a in enumerate(self.coeffs) if j % 2 == 0)

    def is_integral(self) -> bool:
        return all(isinstance(a, int) for a in self.coeffs)

    def pretty(self) -> str:
        terms = []
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            if j == 0:
                terms.append(q_to_str(a))
            elif j == 1:
                terms.append("%sy" % ("" if a == 1 else q_to_str(a)))
            else:
                terms.append("%sy^%d" % ("" if a == 1 else q_to_str(a), j))
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def canonical_key(self) -> str:
        return "%d:%s" % (self.n, ",".join(q_to_str(a) for a in self.coeffs))

    def to_json(self) -> str:
        if self.is_integral():
            return json.dumps({"n": self.n, "coeffs": list(self.coeffs)})
        return json.dumps({"n": self.n, "coeffs": [q_to_str(a) for a in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "Enumerator":
        """Inverse of to_json: {"n": n, "coeffs": [n + 1 ints or "p/q"]}.

        Any other input raises ParseError.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError("not JSON: %s" % exc) from None
        if not isinstance(data, dict) or not {"n", "coeffs"} <= data.keys():
            raise ParseError('expected an object with keys "n" and "coeffs"')
        n, coeffs = data["n"], data["coeffs"]
        if type(n) is not int or n < 0 or not isinstance(coeffs, list) or len(coeffs) != n + 1:
            raise ParseError('expected "n" >= 0 and a list of n + 1 "coeffs"')
        for c in coeffs:
            if type(c) is not int and not (isinstance(c, str) and _RATIONAL.fullmatch(c)):
                raise ParseError("coefficient %r is not an integer or a rational string" % (c,))
        try:
            return cls(n, tuple(Q(c) if isinstance(c, str) else c for c in coeffs))
        except ValueError as exc:  # a numerator past the int string-conversion limit
            raise ParseError(str(exc)) from None

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Enumerator":
        c = [0] * (n + 1)
        for j, a in dict(pairs).items():
            c[j] = a
        return cls(n, tuple(c))


def transform_xy(A: Enumerator) -> Enumerator:
    """A(x + 3y, x - y), expanded exactly (no divisor), by homogeneous
    Horner over Z at x = 1: acc <- acc (1 + 3y) + A_j (1 - y)^j."""
    ints, scale = integer_row(A.coeffs)
    acc, power = [], [1]  # power = (1 - y)^j
    for a in ints:
        acc = [x + 3 * y for x, y in zip(acc + [0], [0] + acc)]
        if a:
            acc = [x + a * y for x, y in zip(acc, power)]
        power = [x - y for x, y in zip(power + [0], [0] + power)]
    return Enumerator(A.n, tuple(acc) if scale == 1 else tuple(Q(x, scale) for x in acc))


def macwilliams(A: Enumerator) -> Enumerator:
    """Dual enumerator B(x, y) = A(x + 3y, x - y) / A(1, 1).

    Raises MacWilliamsError when an all-integer input produces a
    non-integer coefficient (the input then cannot be the enumerator of a
    code; nothing is rounded).
    """
    total = A.total()
    coeffs = tuple(Q(a, total) for a in transform_xy(A).coeffs)
    if A.is_integral():
        bad = [j for j, c in enumerate(coeffs) if c.denominator != 1]
        if bad:
            raise MacWilliamsError(
                "non-integer dual coefficients at degrees %s" % (bad,)
            )
    return Enumerator(A.n, coeffs)


def signed_poly(A: Enumerator) -> tuple:
    """Coefficients in t = rbar^2 of A(1, i rbar) = sum_j A_{2j} (-t)^j.

    Requires all odd coefficients to vanish (stabilizer part only).
    """
    if not A.is_even_only():
        raise ValueError("signed evaluation needs an even-only enumerator")
    return tuple((-1) ** j * A.coeffs[2 * j] for j in range(A.n // 2 + 1))


def signed_eval(A: Enumerator, rbar2) -> Fraction:
    """A(1, i rbar) = sum_j A_{2j} (-rbar^2)^j, exact in rbar^2."""
    return poly_eval(signed_poly(A), rbar2 if isinstance(rbar2, (int, Fraction)) else Q(rbar2))

