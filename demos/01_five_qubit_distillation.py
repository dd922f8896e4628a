"""Walk the full pipeline for the classic 5-qubit code.

From two generator rows we brute-force the weight enumerator, apply the
dual transform, derive the exact one-round error map, and isolate its
threshold to twelve digits.
"""

from fractions import Fraction as Q

from gf4msd import (
    Gf4Code,
    build_map,
    macwilliams,
    noise_exponent,
    threshold,
    weight_enumerator,
)

code = Gf4Code.from_pauli_strings(["XZZXI", "IXZZX"])
print("generators:", code.generators)

A = weight_enumerator(code)
print("A(1,y) =", A.pretty())

B = macwilliams(A)
print("B(1,y) =", B.pretty())
print("C(1,y) =", (B - A).pretty())

def poly_str(p):
    terms = []
    for j, c in enumerate(p):
        if c:
            terms.append(str(c) if j == 0 else "%s e^%d" % (c, j))
    return " + ".join(terms).replace("+ -", "- ")


dmap = build_map(A)
num, den = dmap.canonical_fraction()
print("eps_out(eps) = (%s) / (%s)" % (poly_str(num), poly_str(den)))

ne = noise_exponent(dmap)
print("noise suppression: eps_out ~ %s eps^%d" % (ne.leading, ne.nu))

rep = threshold(dmap)
print("threshold = %s (stable: %s)" % (rep.decimal(), rep.stable))
print("exact bracket:", rep.low, "..", rep.high)

for eps in (Q(1, 100), Q(1, 10), Q(1, 6), Q(1, 4)):
    print("eps_out(%s) = %s" % (eps, dmap.eps_out(eps)))
