"""Randomized corpora shared by the property and acceptance suites, and the
plain references that the exact kernels are checked against: Fraction
Horner for the evaluators, the invariant blocks by their definition in y
and their Fraction combination for the invariant expansions."""

import random
from fractions import Fraction as Q
from math import lcm

from gf4msd.enumerators import Enumerator
from gf4msd.exact import poly_mul
from gf4msd.gf4 import (
    random_maximal_self_orthogonal_code,
    random_self_orthogonal_code,
)
from gf4msd.invariants import InvariantParams, num_cprime, num_dprime


def fraction_horner(p, x):
    """p(x) by Horner in Fractions: a reference kept apart from
    exact.poly_eval and its integer kernel."""
    acc = Q(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_pow(p, e):
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


# y-degree coefficient vectors (x = 1) of fhat = x^2 + 3y^2, ghat =
# y^2 (x^2 - y^2)^2 and the wedge y^2 (x^2 - y^2)
FHAT = (1, 0, 3)
GHAT = (0, 0, 1, 0, -2, 0, 1)
WEDGE = (0, 0, 1, 0, -1)


def reference_block(fpow, gpow, wedge=False):
    """fhat^fpow ghat^gpow, times the wedge if asked, multiplied out in y."""
    block = poly_mul(poly_pow(FHAT, fpow), poly_pow(GHAT, gpow))
    return poly_mul(WEDGE, block) if wedge else block


def reference_blocks(n):
    """The blocks of the length-n family in invariants._blocks order: c'
    (or the self-dual c) by j, then d' by j."""
    parts = [(n // 2, False)] if n % 2 == 0 else [((n - 1) // 2, False), ((n - 5) // 2, True)]
    return [reference_block(top - 3 * j, j, wedge) for top, wedge in parts for j in range(top // 3 + 1)]


def fraction_combination(n, coeffs, blocks):
    """The degree-n enumerator sum_i coeffs[i] blocks[i], accumulated in the
    coefficients' own type."""
    out = [0] * (n + 1)
    for c, block in zip(coeffs, blocks):
        for deg, val in enumerate(block):
            out[deg] += c * val
    return Enumerator(n, tuple(out))


def random_codes(seed=101, count=200, max_n=10):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        code = random_self_orthogonal_code(rng, n)
        out.append(code)
    return out


def random_maximal_codes(seed=77, count=24, lengths=(5, 7, 11)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(list(lengths))
        out.append(random_maximal_self_orthogonal_code(rng, n))
    return out


def random_family_params(seed=303, count=200, max_n=35):
    rng = random.Random(seed)
    out = []
    lengths = [n for n in range(5, max_n + 1, 2)]
    while len(out) < count:
        n = rng.choice(lengths)
        cp = [Q(1)] + [
            Q(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(num_cprime(n) - 1)
        ]
        dp = [Q(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(num_dprime(n))]
        out.append(InvariantParams(n, tuple(cp), tuple(dp)))
    return out


def sampled_negative_point(poly, grid=1000):
    """First eps = i/grid in [0, 1] with poly(eps) < 0, scanning exactly.

    Uses integer Horner on the denominator-cleared polynomial, so each
    sample is an exact sign evaluation.
    """
    if not poly:
        return None
    den = 1
    for c in poly:
        den = lcm(den, Q(c).denominator)
    ints = [int(Q(c) * den) for c in poly]
    d = len(ints) - 1
    mpows = [grid**e for e in range(d + 1)]
    for i in range(grid + 1):
        v = 0
        for j in range(d, -1, -1):
            v = v * i + ints[j] * mpows[d - j]
        if v < 0:
            return Q(i, grid)
    return None
