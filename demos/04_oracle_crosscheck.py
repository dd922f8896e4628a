"""Independent validation of the enumerator formulas by the stabilizer group.

Checks the signed Pauli group of each code directly and compares its
projection probabilities against the signed enumerator evaluation --
exact rational equality, no tolerance.
"""

import math
import random
from fractions import Fraction as Q

from gf4msd import Gf4Code, SignedPauli, build_map, rall_signs, signed_eval, weight_enumerator
from gf4msd.oracle import (
    build_projector,
    commutes_with_m3,
    logical_component,
    projection_prob,
    t_direction,
)

rng = random.Random(1)

pair = Gf4Code(2, ((1, 1),))
print("signed group of the 2-qubit state:", [str(s) for s in rall_signs(pair)])
proj = build_projector(rall_signs(pair), 2, 0)
print("projector onto the singlet; commutes with the transversal cycle:", commutes_with_m3(proj))

five = Gf4Code.from_pauli_strings(["XZZXI", "IXZZX"])
A = weight_enumerator(five)
p5 = build_projector(rall_signs(five), 5, 1)
for _ in range(3):
    rbar = Q(rng.randint(-5, 5), rng.randint(9, 18))
    eta = projection_prob(p5, t_direction(rbar), 5)
    formula = signed_eval(A, rbar * rbar) / 16
    print("rbar=%s: oracle %s == formula %s -> %s" % (rbar, eta, formula, eta == formula))

# one-round output error from the oracle vs the exact rational map
dmap = build_map(A)
logical = SignedPauli.from_word((2,) * 5, -1)
sqrt3 = math.sqrt(3)
eps = 0.12
rbar = Q((1 - 2 * eps) / sqrt3).limit_denominator(10**9)
eta = float(projection_prob(p5, t_direction(rbar), 5))
eta_l = float(logical_component(p5, logical, t_direction(rbar), 5))
oracle_out = 0.5 * (1 - sqrt3 * eta_l / eta)
map_out = float(dmap.eps_out(Q((1 - float(rbar) * sqrt3) / 2).limit_denominator(10**12)))
print("eps_out at eps=%.2f: oracle %.12f map %.12f" % (eps, oracle_out, map_out))
