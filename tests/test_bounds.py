from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf4msd import simplex
from gf4msd.bounds import (
    LatticeSpec,
    LinConstraint,
    Polytope,
    UnboundedRegionError,
    build_polytope,
    classical_distance_bound_selfdual,
    classical_rows,
    count_lattice_points,
    distillation_family,
    enumerate_vertices_2d,
    integral_lattice,
    is_nu_length,
    lattice_search,
    lp_feasible,
    max_distance_bound,
    max_nu_bound,
    numerator_coefficient_rows,
    selfdual_family,
)
from gf4msd.distill import check_success_nonneg
from gf4msd.enumerators import Enumerator
from gf4msd.invariants import selfdual_extremal_enumerator


def unit_square():
    rows = [
        LinConstraint((1, 0), "<=", 1),
        LinConstraint((-1, 0), "<=", 0),
        LinConstraint((0, 1), "<=", 1),
        LinConstraint((0, -1), "<=", 0),
    ]
    return Polytope(2, ("x", "y"), tuple(rows))


def test_unit_square_vertices():
    verts = enumerate_vertices_2d(unit_square())
    assert set(verts) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert len(verts) == 4


def test_unbounded_region_flagged():
    half = Polytope(2, ("x", "y"), (LinConstraint((1, 0), "<=", 1),))
    with pytest.raises(UnboundedRegionError):
        enumerate_vertices_2d(half)
    v = lp_feasible(half, objective=[1, 1], maximize=True)
    assert v.status == "unbounded" and v.certified is True


def test_contradictory_pair_infeasible():
    p = Polytope(1, ("x",), (LinConstraint((1,), ">=", 1), LinConstraint((1,), "<=", 0)))
    v = lp_feasible(p)
    assert v.status == "infeasible" and v.certified is True
    # equalities inconsistent over Q stop before the simplex runs
    eqs = Polytope(2, ("x", "y"), (
        LinConstraint((1, 1), "==", 1),
        LinConstraint((Q(1, 2), 1), ">=", 0),
        LinConstraint((2, 2), "==", Q(5, 2)),
    ))
    v = lp_feasible(eqs)
    assert v.status == "infeasible" and v.certified is True


def test_five_qubit_parameter_interval():
    fam = distillation_family(5, pin_trivial=False)
    p = build_polytope(fam.dim, fam.names, classical_rows(fam))
    lo = lp_feasible(p, objective=[1], maximize=False)
    hi = lp_feasible(p, objective=[1], maximize=True)
    assert (lo.optimum, hi.optimum) == (-6, 9)
    assert lo.certified and hi.certified


def test_n7_hexagon():
    fam = distillation_family(7, pin_trivial=False)
    p = build_polytope(fam.dim, fam.names, classical_rows(fam))
    verts = enumerate_vertices_2d(p)
    assert len(verts) == 6
    # every vertex lies on at least two boundary lines and inside all rows
    for v in verts:
        tight = sum(
            1
            for c in p.constraints
            if sum(a * x for a, x in zip(c.coeffs, v)) == c.rhs
        )
        assert tight >= 2
        assert p.contains(v)
    witness = lp_feasible(p).witness
    assert p.contains(witness)


def test_n12_selfdual_vertex_and_interval():
    fam = selfdual_family(12)
    p = build_polytope(fam.dim, fam.names, classical_rows(fam))
    verts = enumerate_vertices_2d(p)
    assert (-18, -9) in verts  # the extremal distance-6 corner
    fam6 = selfdual_family(6)
    p6 = build_polytope(fam6.dim, fam6.names, classical_rows(fam6))
    lo = lp_feasible(p6, objective=[1], maximize=False)
    hi = lp_feasible(p6, objective=[1], maximize=True)
    assert (lo.optimum, hi.optimum) == (-9, Q(27, 2))


def test_lattice_counts_small():
    c5, pts5, _ = lattice_search(5, use_quantum=False)
    assert c5 == 3 and [p[0] for p in pts5] == [-6, 0, 6]
    c5q, pts5q, _ = lattice_search(5, use_quantum=True)
    assert c5q == 2 and [p[0] for p in pts5q] == [-6, 0]
    c7, _, _ = lattice_search(7, use_quantum=False)
    assert c7 == 18
    c7q, pts7q, _ = lattice_search(7, use_quantum=True)
    assert c7q == 6
    assert (Q(-3), Q(-6)) in pts7q


def test_lattice_counts_n11():
    classical, _, _ = lattice_search(11, use_quantum=False)
    quantum, _, _ = lattice_search(11, use_quantum=True)
    assert (classical, quantum) == (1051, 79)


def test_lattice_moduli_derivation():
    fam5 = distillation_family(5, pin_trivial=False)
    assert integral_lattice(fam5).moduli == (6,)
    fam7 = distillation_family(7, pin_trivial=False)
    assert integral_lattice(fam7).moduli == (3, 6)
    fam12 = selfdual_family(12)
    assert integral_lattice(fam12).moduli == (3, 3)


def test_lattice_points_have_integral_coefficients():
    _, pts, fam = lattice_search(7, use_quantum=False)
    for p in pts:
        _, B, _ = fam.members[0]
        full = fam.enumerator_at(p)
        from gf4msd.enumerators import macwilliams

        Bp = macwilliams(full, full.total())
        assert all(Q(c).denominator == 1 for c in Bp.coeffs)
        assert all(int(c) % 3 == 0 for c in Bp.coeffs[1:])


def test_filter_monotonicity():
    for n in (5, 7):
        classical, _, _ = lattice_search(n, use_quantum=False)
        quantum, _, _ = lattice_search(n, use_quantum=True)
        assert quantum <= classical


def test_count_lattice_points_direct():
    p = unit_square()
    lat = LatticeSpec((1, 1))
    count, pts = count_lattice_points(p, lat, extra_filter=None)
    assert count == 4
    count, pts = count_lattice_points(p, lat, extra_filter=lambda t: t[0] == t[1])
    assert count == 2
    # an == row and fractional coefficients: 4x + 3y = 14 holds the points
    # (2 + 3k, 2 - 4k) for k = -2..2, the same as filtering a larger box
    # with Polytope.contains
    seg = Polytope(2, ("x", "y"), (
        LinConstraint((Q(2, 3), Q(1, 2)), "==", Q(7, 3)),
        LinConstraint((Q(1, 2), Q(-1, 3)), "<=", 6),
        LinConstraint((1, 0), ">=", -5),
    ))
    box = [(Q(s), Q(t)) for s in range(-20, 21) for t in range(-20, 21)]
    expected = sorted(pt for pt in box if seg.contains(pt))
    assert expected == [(2 + 3 * k, 2 - 4 * k) for k in range(-2, 3)]
    count, pts = count_lattice_points(seg, lat)
    assert (count, pts) == (5, expected)
    assert all(type(v) is Q for pt in pts for v in pt)
    count, pts = count_lattice_points(seg, lat, extra_filter=lambda t: t[0] > 0)
    assert (count, pts) == (3, [pt for pt in expected if pt[0] > 0])
    # a coarser lattice keeps the multiples: x in 2Z, y in 2Z
    assert count_lattice_points(seg, LatticeSpec((2, 2)))[1] == [(-4, 10), (2, 2), (8, -6)]


def test_nu_bounds_small():
    assert max_nu_bound(5, quantum=False)[0] == 2
    assert max_nu_bound(7, quantum=False)[0] == 1
    assert max_nu_bound(11, quantum=False)[0] == 2
    assert max_nu_bound(13, quantum=False)[0] == 1
    assert max_nu_bound(17, quantum=False)[0] == 5
    with pytest.raises(ValueError):
        max_nu_bound(9)


def test_nu_bounds_quantum_unchanged_small():
    for n in (5, 7, 11, 13):
        classical, quantum, _, _ = max_nu_bound(n)
        assert quantum == classical


def test_distance_bounds():
    assert max_distance_bound(11)[:2] == (5, 3)
    assert max_distance_bound(23)[1] == 7
    assert max_distance_bound(13, quantum=False)[0] == 5


def test_distance_bound_sweep():
    # classical values follow 2m+1 (n = 6m+1, 6m+3) and 2m+3 (n = 6m+5);
    # the quantum cut improves exactly the n = 11 mod 12 lengths to
    # 4*floor(m/2) + 3
    expected = {
        5: (3, 3), 7: (3, 3), 9: (3, 3), 11: (5, 3), 13: (5, 5), 15: (5, 5),
        17: (7, 7), 23: (9, 7), 29: (11, 11), 35: (13, 11),
    }
    for n, (classical, quantum) in expected.items():
        assert max_distance_bound(n)[:2] == (classical, quantum), n


def test_selfdual_distance_bounds():
    assert classical_distance_bound_selfdual(12)[:2] == (6, 4)
    assert classical_distance_bound_selfdual(6, quantum=False)[0] == 4


def _level_rows(driver, fam, bound):
    """The equality rows of the level whose bound is `bound`."""
    if driver is max_nu_bound:
        return numerator_coefficient_rows(fam, 1 if fam.n % 6 == 5 else -1, bound)
    if driver is max_distance_bound:  # C_1, C_3, ..., C_{bound-2}
        return [fam.row(lambda A, B, C, j=j: C.coeffs[j], "==") for j in range(1, bound - 1, 2)]
    # A_2, A_4, ..., A_{bound-2}
    return [fam.row(lambda A, B, C, j=j: A.coeffs[j], "==") for j in range(2, bound - 1, 2)]


@pytest.mark.parametrize(
    "driver,lengths",
    [
        (max_nu_bound, [n for n in range(5, 20) if is_nu_length(n)]),
        (max_distance_bound, range(5, 16, 2)),
        (classical_distance_bound_selfdual, range(6, 21, 2)),
    ],
)
def test_driver_bounds_and_witness(driver, lengths):
    # the quantum rows only add cuts, and the witness is a point of the
    # classical rows plus the equality rows of the reported level
    for n in lengths:
        classical, quantum, witness, fam = driver(n)
        assert quantum <= classical, n
        rows = classical_rows(fam) + _level_rows(driver, fam, classical)
        assert build_polytope(fam.dim, fam.names, rows).contains(witness), n


def test_selfdual_quantum_filter():
    assert not check_success_nonneg(selfdual_extremal_enumerator(12))[0]
    hexa = Enumerator.from_pairs(6, {0: 1, 4: 45, 6: 18})
    assert check_success_nonneg(hexa) == (True, None)


def test_trivial_rows_dropped_and_false_rows_flag():
    rows = [
        LinConstraint((0, 0), "<=", 5),   # trivially true
        LinConstraint((1, 0), "<=", 1),
    ]
    p = build_polytope(2, ("x", "y"), rows)
    assert len(p.constraints) == 1
    bad = build_polytope(2, ("x", "y"), [LinConstraint((0, 0), "<=", -1)])
    v = lp_feasible(bad)
    assert v.status == "infeasible" and v.certified is True
    for false_row in (LinConstraint((0, 0), ">=", Q(1, 3)), LinConstraint((0, 0), "==", -2)):
        v = lp_feasible(Polytope(2, ("x", "y"), (LinConstraint((1, 0), "<=", 1), false_row)))
        assert v.status == "infeasible" and v.certified is True


def test_lattice_dim_guard():
    p = Polytope(4, tuple("abcd"), (LinConstraint((1, 0, 0, 0), "<=", 1),))
    with pytest.raises(ValueError):
        count_lattice_points(p, LatticeSpec((1, 1, 1, 1)))


_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _holds(v, sense, rhs):
    return {"<=": v <= rhs, ">=": v >= rhs, "==": v == rhs}[sense]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_RATIONAL, min_size=1, max_size=3).flatmap(
        lambda coeffs: st.tuples(
            st.just(coeffs),
            _RATIONAL,
            st.sampled_from(["<=", ">=", "=="]),
            st.lists(st.lists(_RATIONAL, min_size=len(coeffs), max_size=len(coeffs)), max_size=8),
        )
    )
)
def test_lin_constraint_normalization_keeps_satisfied(case):
    coeffs, rhs, sense, points = case
    row = LinConstraint(coeffs, sense, rhs)
    assert all(type(v) is int for v in (*row.coeffs, row.rhs))
    # a point on the hyperplane, so that == is also met
    on_plane = [Q(0)] * len(coeffs)
    if coeffs[-1]:
        on_plane[-1] = rhs / coeffs[-1]
    for pt in points + [on_plane]:
        assert row.satisfied(pt) == _holds(sum(c * x for c, x in zip(coeffs, pt)), sense, rhs)
    assert row.is_trivial() == (None if any(coeffs) else _holds(0, sense, rhs))


def test_lp_with_equality_and_objective():
    # x = 4 - 2y - 2z on (1/2)x + y + z = 2; 3x + 2y + z = 12 - 4y - 5z
    p = Polytope(3, ("x", "y", "z"), (
        LinConstraint((Q(1, 2), 1, 1), "==", 2),
        LinConstraint((1, 0, 0), "<=", 3),
        LinConstraint((1, 0, 0), ">=", 0),
        LinConstraint((0, 1, 0), ">=", 0),
        LinConstraint((0, 0, 1), ">=", 0),
    ))
    hi = lp_feasible(p, objective=[3, 2, 1], maximize=True)
    assert (hi.status, hi.optimum, hi.witness, hi.certified) == ("feasible", 10, (3, Q(1, 2), 0), True)
    lo = lp_feasible(p, objective=[3, 2, 1])
    assert (lo.status, lo.optimum, lo.witness, lo.certified) == ("feasible", 2, (0, 0, 2), True)
    assert all(type(v) is Q for v in hi.witness + lo.witness)
    # with x >= 0 and z >= 0 dropped, z falls without bound along the line
    ray_only = Polytope(3, ("x", "y", "z"), p.constraints[:2] + p.constraints[3:4])
    v = lp_feasible(ray_only, objective=[0, 0, 1])
    assert v.status == "unbounded" and v.certified is True
    dx, dy, dz = v.ray
    assert dz < 0 and dx / 2 + dy + dz == 0 and dx <= 0 and dy >= 0


@pytest.mark.parametrize("check", ["certify_optimum", "certify_infeasible"])
def test_uncertified_verdict_raises(monkeypatch, check):
    monkeypatch.setattr(simplex, check, lambda *args: False)
    with pytest.raises(RuntimeError, match="certificate"):
        max_distance_bound(11)
