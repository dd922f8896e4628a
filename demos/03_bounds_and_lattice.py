"""Linear-programming bounds and integral searches.

The free invariant coefficients of each length form a small polytope cut
by nonnegative dual coefficients; quantum consistency (nonnegative success
probability, threshold outside the stabilizer octahedron) cuts further.
"""

from gf4msd import (
    classical_distance_bound_selfdual,
    distillation_family,
    enumerate_vertices_2d,
    lattice_search,
    max_distance_bound,
    max_nu_bound,
)
from gf4msd.bounds import build_polytope, classical_rows

fam = distillation_family(7, pin_trivial=False)
hexagon = build_polytope(fam.dim, fam.names, classical_rows(fam))
print("n=7 classical polytope vertices (c1, d0):")
for v in enumerate_vertices_2d(hexagon):
    print("   ", v)

for n in (5, 7):
    classical, pts, _ = lattice_search(n, use_quantum=False)
    quantum, qpts, _ = lattice_search(n, use_quantum=True)
    print("n=%d integral enumerators: %d classical, %d after quantum cuts" % (n, classical, quantum))
    print("   surviving points:", qpts)

print()
print("noise-suppression bounds (classical LP):")
for n in (5, 7, 11, 13, 17, 19, 23):
    print("  n=%2d  nu <= %d" % (n, max_nu_bound(n, quantum=False)[0]))

print()
print("distance bounds:")
classical, quantum, _, _ = max_distance_bound(11)
print("  n=11 classical:", classical, " with quantum cut:", quantum)
print("  n=23 with quantum cut:", max_distance_bound(23)[1])
classical, quantum, _, _ = classical_distance_bound_selfdual(12)
print("  self-dual n=12 classical:", classical, " with quantum cut:", quantum)
