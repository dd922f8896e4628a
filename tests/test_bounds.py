import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import family_enumerator_at, family_members, family_row

from gf4msd import bounds, simplex
from gf4msd.bounds import (
    AffineFamily,
    LatticeSpec,
    LinConstraint,
    Polytope,
    UnboundedRegionError,
    _bernstein_forms,
    _eliminate,
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
    quantum_filter_selfdual,
    reduce_equalities,
    selfdual_family,
)
from gf4msd.distill import check_success_nonneg
from gf4msd.enumerators import Enumerator, is_map_length, signed_eval, signed_poly
from gf4msd.exact import integer_row, poly_add, poly_mul
from gf4msd.invariants import selfdual_extremal_enumerator
from gf4msd.roots import poly_nonneg_on


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
    assert v.status == "unbounded"


def test_contradictory_pair_infeasible():
    p = Polytope(1, ("x",), (LinConstraint((1,), ">=", 1), LinConstraint((1,), "<=", 0)))
    v = lp_feasible(p)
    assert v.status == "infeasible"
    # equalities inconsistent over Q stop before the simplex runs
    eqs = Polytope(2, ("x", "y"), (
        LinConstraint((1, 1), "==", 1),
        LinConstraint((Q(1, 2), 1), ">=", 0),
        LinConstraint((2, 2), "==", Q(5, 2)),
    ))
    v = lp_feasible(eqs)
    assert v.status == "infeasible"


# rational points of the unit circle, ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)):
# distinct t give the vertices of a convex polygon
_CIRCLE = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6), min_size=3, max_size=9, unique=True)


@settings(max_examples=200, deadline=None)
@given(_CIRCLE, st.fractions(min_value=1, max_value=5, max_denominator=4), st.integers(-3, 3), st.randoms())
def test_ccw_sorted_turns_left_at_every_vertex(ts, scale, shift, rng):
    pts = [(shift + scale * (1 - t * t) / (1 + t * t), shift + scale * 2 * t / (1 + t * t)) for t in ts]
    rng.shuffle(pts)
    out = bounds._ccw_sorted(pts)
    assert sorted(out) == sorted(pts)
    for (ax, ay), (bx, by), (cx, cy) in zip(out, out[1:] + out[:1], out[2:] + out[:2]):
        assert (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0


def test_five_qubit_parameter_interval():
    fam = distillation_family(5, pin_trivial=False)
    p = build_polytope(fam.dim, fam.names, classical_rows(fam))
    lo = lp_feasible(p, objective=[1], maximize=False)
    hi = lp_feasible(p, objective=[1], maximize=True)
    assert (lo.optimum, hi.optimum) == (-6, 9)


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
        full = family_enumerator_at(fam, p)
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
    assert all(type(v) is int for pt in pts for v in pt)
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
        return [family_row(fam, lambda A, B, C, j=j: C.coeffs[j], "==") for j in range(1, bound - 1, 2)]
    # A_2, A_4, ..., A_{bound-2}
    return [family_row(fam, lambda A, B, C, j=j: A.coeffs[j], "==") for j in range(2, bound - 1, 2)]


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


BOUND_CASES = [
    *((max_nu_bound, n, q) for n in range(5, 44) if is_nu_length(n) for q in (True, False)),
    *((max_distance_bound, n, q) for n in range(5, 36, 2) for q in (True, False)),
    *((classical_distance_bound_selfdual, n, q) for n in range(6, 41, 2) for q in (True, False)),
    # n = 13 and 15 have four parameters, more than lattice_search takes,
    # and the quantum filter of odd n needs a distillation map
    *(
        (lattice_search, n, q)
        for n in (*range(5, 13), 14, 16)
        for q in (True, False)
        if n % 2 == 0 or is_map_length(n) or not q
    ),
]


def test_slack_start_keeps_every_bound_result(monkeypatch):
    # the verdict LPs start from the slacks and only the reported witness
    # from the artificials; every search returns what all-artificial LPs give
    slack = [search(n, q) for search, n, q in BOUND_CASES]
    real = bounds.lp_feasible
    monkeypatch.setattr(bounds, "lp_feasible", lambda *args, slack_start=False, **kw: real(*args, **kw))
    for (search, n, q), got in zip(BOUND_CASES, slack):
        assert got == search(n, q), (search.__name__, n, q)


def test_witness_meeting_the_cuts_skips_the_quantum_search(monkeypatch):
    calls = []
    real = bounds.lp_feasible

    def spy(poly, **kw):
        calls.append((poly, kw.get("slack_start", False)))
        return real(poly, **kw)

    monkeypatch.setattr(bounds, "lp_feasible", spy)
    classical, quantum, witness, fam = max_distance_bound(15)
    cut = family_row(fam, lambda A, B, C: signed_eval(A, Q(1, 3)), ">=")
    assert classical == quantum == 5 and cut.satisfied(witness)
    with_cuts, calls[:] = list(calls), []
    # the same LPs as without the cut: the bisection probes from the slack
    # start, then the settled level from the artificials for the witness
    assert max_distance_bound(15, quantum=False)[:3] == (classical, None, witness)
    assert with_cuts == calls
    assert [start for _, start in calls] == [True, True, True, False]


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
    assert v.status == "infeasible"
    for false_row in (LinConstraint((0, 0), ">=", Q(1, 3)), LinConstraint((0, 0), "==", -2)):
        v = lp_feasible(Polytope(2, ("x", "y"), (LinConstraint((1, 0), "<=", 1), false_row)))
        assert v.status == "infeasible"


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
    assert (hi.status, hi.optimum, hi.witness) == ("feasible", 10, (3, Q(1, 2), 0))
    lo = lp_feasible(p, objective=[3, 2, 1])
    assert (lo.status, lo.optimum, lo.witness) == ("feasible", 2, (0, 0, 2))
    assert all(type(v) is Q for v in hi.witness + lo.witness)
    # with x >= 0 and z >= 0 dropped, z falls without bound along the line
    ray_only = Polytope(3, ("x", "y", "z"), p.constraints[:2] + p.constraints[3:4])
    v = lp_feasible(ray_only, objective=[0, 0, 1])
    assert v.status == "unbounded"
    dx, dy, dz = v.ray
    assert dz < 0 and dx / 2 + dy + dz == 0 and dx <= 0 and dy >= 0


@pytest.mark.parametrize("check", ["certify_optimum", "certify_infeasible"])
def test_uncertified_verdict_raises(monkeypatch, check):
    monkeypatch.setattr(simplex, check, lambda *args: False)
    with pytest.raises(RuntimeError, match="certificate"):
        max_distance_bound(11)


# ---------------------------------------------------------------------------
# lattice points against a brute-force box filter


_SENSE = st.sampled_from(["<=", ">=", "=="])
_FILTERS = [None, lambda p: sum(p) % 2 == 0, lambda p: p[0] >= 0]


@st.composite
def _lattice_cases(draw):
    """A polytope inside |x_i| <= 9 of dim 1-3: non-unit box rows plus up to
    three rows of any sense, moduli 1-3 and an optional filter."""
    dim = draw(st.integers(1, 3))
    rows = []
    for i in range(dim):
        unit = [int(j == i) for j in range(dim)]
        k = draw(st.integers(1, 3))
        rows.append(LinConstraint([k * v for v in unit], "<=", draw(st.integers(-9, 9))))
        rows.append(LinConstraint([-k * v for v in unit], "<=", draw(st.integers(-9, 9))))
    for _ in range(draw(st.integers(0, 3))):
        # zero and non-unit coefficients, the last one included, are frequent
        coeffs = draw(st.lists(st.sampled_from([-3, -2, -1, 0, 0, 1, 2, 3]), min_size=dim, max_size=dim))
        rows.append(LinConstraint(coeffs, draw(_SENSE), draw(st.integers(-6, 6))))
    moduli = tuple(draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim)))
    filt = draw(st.sampled_from(_FILTERS))
    return Polytope(dim, tuple("xyz"[:dim]), tuple(rows)), LatticeSpec(moduli), filt


def _brute_force(poly, lattice, filt):
    box = itertools.product(*(range(-(9 // m) * m, 10, m) for m in lattice.moduli))
    return [
        tuple(Q(v) for v in pt)
        for pt in box
        if poly.contains(pt) and (filt is None or filt(pt))
    ]


def _boxed(dim, *rows):
    box = []
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        box += [LinConstraint(unit, "<=", 4), LinConstraint(unit, ">=", -4)]
    return Polytope(dim, tuple("xyz"[:dim]), tuple(box) + rows)


@settings(max_examples=300, deadline=None)
@given(_lattice_cases())
# an empty polytope
@example((_boxed(2, LinConstraint((1, 1), ">=", 3), LinConstraint((1, 1), "<=", 2)), LatticeSpec((1, 2)), None))
# x + 2y = 3 has no point at even x
@example((_boxed(2, LinConstraint((1, 2), "==", 3)), LatticeSpec((1, 1)), None))
# a row without the last coordinate cuts the box of the first two
@example((_boxed(3, LinConstraint((1, 1, 0), "<=", -2)), LatticeSpec((1, 2, 1)), _FILTERS[1]))
def test_count_lattice_points_matches_brute_force(case):
    poly, lattice, filt = case
    expected = _brute_force(poly, lattice, filt)
    count, pts = count_lattice_points(poly, lattice, extra_filter=filt)
    assert (count, pts) == (len(expected), expected)
    assert all(type(v) is int for pt in pts for v in pt)


# ---------------------------------------------------------------------------
# the per-family elimination against reduce_equalities and a Fraction
# reference


def _reference_reduce(polytope):
    """Column-by-column Gauss-Jordan over Q and the substitution of its
    pivots in Fractions: (free columns, reduced polytope), or None when
    the == rows are inconsistent."""
    eqs = [[Q(v) for v in c.coeffs] + [Q(c.rhs)] for c in polytope.constraints if c.sense == "=="]
    dim = polytope.dim
    unused, pivots = list(range(len(eqs))), []
    for col in range(dim):
        sel = next((i for i in unused if eqs[i][col] != 0), None)
        if sel is None:
            continue
        unused.remove(sel)
        prow = eqs[sel] = [v / eqs[sel][col] for v in eqs[sel]]
        for i, row in enumerate(eqs):
            if i != sel and row[col] != 0:
                eqs[i] = [v - row[col] * w for v, w in zip(row, prow)]
        pivots.append((col, sel))
    if any(eqs[i][dim] != 0 for i in unused):
        return None
    free = [c for c in range(dim) if c not in {p for p, _ in pivots}]
    rows = []
    for c in polytope.constraints:
        if c.sense != "==":
            a = [Q(c.coeffs[fc]) for fc in free]
            k = Q(0)
            for p, i in pivots:
                w = c.coeffs[p]
                k += w * eqs[i][dim]
                a = [v - w * eqs[i][fc] for v, fc in zip(a, free)]
            rows.append(LinConstraint(a, c.sense, c.rhs - k))
    return free, build_polytope(len(free), tuple(polytope.names[fc] for fc in free), rows)


_SMALL = st.integers(-3, 3)


@st.composite
def _equality_families(draw):
    """dim 1-4, a box of inequality rows and up to five == rows, some of
    them repeated with another rhs or combined from earlier ones."""
    dim = draw(st.integers(1, 4))
    base = []
    for i in range(dim):
        unit = [int(j == i) for j in range(dim)]
        base.append(LinConstraint(unit, "<=", draw(st.integers(1, 5))))
        base.append(LinConstraint(unit, ">=", draw(st.integers(-5, 0))))
    for _ in range(draw(st.integers(0, 2))):
        base.append(LinConstraint(draw(st.lists(_SMALL, min_size=dim, max_size=dim)), "<=", draw(_SMALL)))
    eqs = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["new", "new", "sum", "shift"])) if eqs else "new"
        if kind == "new":
            eqs.append(LinConstraint(draw(st.lists(_SMALL, min_size=dim, max_size=dim)), "==", draw(_SMALL)))
        else:
            a, b = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
            shift = draw(st.integers(0, 2)) if kind == "shift" else 0
            coeffs = [x + 2 * y for x, y in zip(a.coeffs, b.coeffs)]
            eqs.append(LinConstraint(coeffs, "==", a.rhs + 2 * b.rhs + shift))
    return dim, base, eqs


@settings(max_examples=200, deadline=None)
@given(_equality_families())
def test_family_elimination_matches_reduce_equalities_on_every_prefix(case):
    dim, base, eqs = case
    names = tuple("abcd"[:dim])
    base_poly = build_polytope(dim, names, base)
    levels = _eliminate(dim, eqs)
    assert len(levels) == len(eqs) + 1
    for k, (status, embed) in enumerate(levels):
        prefix = build_polytope(dim, names, base + eqs[:k])
        ref = _reference_reduce(prefix)
        ref_status, reduced, ref_embed = reduce_equalities(prefix)
        if status == "infeasible":
            assert ref is None and ref_status == "infeasible"
            mu = embed
            assert len(mu) == k
            res = simplex.LpResult(simplex.INFEASIBLE, dual_ub=(), dual_eq=mu)
            rows_eq = [c.coeffs for c in eqs[:k]], [c.rhs for c in eqs[:k]]
            assert simplex.certify_infeasible((), (), *rows_eq, res)
            assert lp_feasible(prefix).status == "infeasible"
            continue
        free, ref_poly = ref
        assert ref_status == "ok" and list(embed.free) == free
        level_poly = embed.reduce(base_poly)
        assert level_poly == ref_poly == reduced
        v = lp_feasible(level_poly)
        if v.status == "feasible":
            witness = embed(v.witness)
            assert witness == ref_embed(v.witness)
            assert witness == lp_feasible(prefix).witness
            assert prefix.contains(witness)


# ---------------------------------------------------------------------------
# the Bernstein pre-decision of the success filter against poly_nonneg_on


def _selfdual_members(polys):
    """Even-only enumerators whose signed polynomials are the given ones."""
    n = 2 * (max(len(p) for p in polys) - 1)
    members = []
    for p in polys:
        A = Enumerator.from_pairs(n, {2 * j: (-1) ** j * c for j, c in enumerate(p)})
        assert signed_poly(A)[: len(p)] == tuple(p)
        members.append(A.coeffs)
    # the members over their common denominator s, with B = A and C = 0
    flat, s = integer_row([v for A in members for v in A])
    rows = [tuple(flat[i : i + n + 1]) for i in range(0, len(flat), n + 1)]
    ints = tuple((A, A, (0,) * (n + 1)) for A in rows)
    return AffineFamily(n, tuple("c%d" % i for i in range(1, len(polys))), ints, s)


_ROOT = st.fractions(min_value=0, max_value=Q(1, 3), max_denominator=40)
_FACTOR = st.one_of(
    _ROOT.map(lambda r: poly_mul((-r, 1), (-r, 1))),  # a double root in [0, 1/3]
    st.just((0, 1)),  # a root at 0
    st.just((Q(1, 3), -1)),  # a root at 1/3
    _ROOT.map(lambda r: (-r, 1)),  # a sign change inside
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any).map(tuple),
)


@st.composite
def _filter_polys(draw):
    p = (draw(st.sampled_from([1, 2, -1])),)
    for f in draw(st.lists(_FACTOR, min_size=1, max_size=4)):
        p = poly_mul(p, f)
    return p


@settings(max_examples=300, deadline=None)
@given(_filter_polys(), st.lists(_filter_polys(), max_size=2), st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_bernstein_predecision_matches_poly_nonneg_on(p, steps, point):
    forms = _bernstein_forms([p])[0]
    exact = poly_nonneg_on(p, 0, Q(1, 3))[0]
    if min(forms, default=0) >= 0:
        assert exact  # a pre-decided point is never wrong
    assert quantum_filter_selfdual(_selfdual_members([p]))(()) == exact
    # the forms of a family combine like its members
    point = tuple(point[: len(steps)])
    combined = p
    for k, s in zip(point, steps):
        combined = poly_add(combined, poly_mul((k,), s))
    fam = _selfdual_members([p] + steps)
    assert quantum_filter_selfdual(fam)(point) == poly_nonneg_on(combined, 0, Q(1, 3))[0]


def test_bernstein_predecision_skips_poly_nonneg_on(monkeypatch):
    def refuse(*args):
        raise AssertionError("poly_nonneg_on called")

    # (1/3 - t)(1 + t) has nonnegative Bernstein coefficients on every
    # piece; (t - 1/8)^2 touches 0 inside the piece [1/12, 1/6] and has not
    end_root = quantum_filter_selfdual(_selfdual_members([poly_mul((Q(1, 3), -1), (1, 1))]))
    double_root = quantum_filter_selfdual(_selfdual_members([poly_mul((Q(-1, 8), 1), (Q(-1, 8), 1))]))
    assert double_root(())
    monkeypatch.setattr(bounds, "poly_nonneg_on", refuse)
    assert end_root(())
    with pytest.raises(AssertionError, match="poly_nonneg_on called"):
        double_root(())


# sha256 digests of the family members and rows as built before the
# polynomial kernel was shared (``_family_row_digests`` gives the format)
FAMILY_ROW_DIGESTS = {
    "distill": "34cac8bd4dff7899bbb105d1f6fb0a7e91a3305084382a4b749eea24b7c8107a",
    "selfdual": "ce5a67154974ced595dce1846e394fa3f3c471092c4fa975cc5481c957a0fd2b",
    "numerator": "4640d3cc3f5395263b91554606be9038308521df5e1930c2d41b775aba3e00c0",
    "classical": "3e137bde2a4783fa27bf4a6bb515ccc099e53c3d8ee86532ce1b90dd4ca124ca",
    "quantum": "b8ee46ef3183e7c717334373bc8ac3c9b7a86ffe2bafd1e56363ef58a9fda186",
    "success": "053911c36567a749e65896e125e1901630d15957fd92da450ec975d76200be83",
}


def _family_row_digests():
    """Members (A, B, C) of distillation_family(n, pin) for odd n in 5..61
    and of selfdual_family(n) for even n in 6..60; numerator rows for both
    lambda (count n), classical, quantum and success rows of the pinned
    families for n = +-1 mod 6 up to 61."""
    from hashlib import sha256

    from gf4msd.exact import q_to_str

    def members(fam):
        return ["|".join(",".join(q_to_str(c) for c in E.coeffs) for E in m) for m in family_members(fam)]

    def rows(rs):
        return ["%s %s %s" % (",".join(map(str, r.coeffs)), r.sense, r.rhs) for r in rs]

    lines = {k: [] for k in FAMILY_ROW_DIGESTS}
    for n in range(5, 62, 2):
        for pin in (True, False):
            fam = distillation_family(n, pin)
            lines["distill"] += ["%d %s %s" % (n, pin, ",".join(fam.names))] + members(fam)
            if not pin or n % 6 not in (1, 5):
                continue
            for lam in (1, -1):
                lines["numerator"] += ["%d %d" % (n, lam)] + rows(numerator_coefficient_rows(fam, lam, n))
            lines["classical"] += ["%d" % n] + rows(classical_rows(fam))
            lines["quantum"] += ["%d" % n] + rows(bounds.quantum_rows_distill(fam))
            lines["success"] += ["%d" % n] + rows(bounds.success_rows(fam))
    for n in range(6, 61, 2):
        fam = selfdual_family(n)
        lines["selfdual"] += ["%d %s" % (n, ",".join(fam.names))] + members(fam)
    return {k: sha256("\n".join(v).encode()).hexdigest() for k, v in lines.items()}


def test_family_members_and_rows_pinned():
    assert _family_row_digests() == FAMILY_ROW_DIGESTS
