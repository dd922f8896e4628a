from dataclasses import replace
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from gf4msd import simplex


def certify(c, a_ub, b_ub, a_eq, b_eq):
    res = simplex.solve(c, a_ub, b_ub, a_eq, b_eq)
    assert res.status == simplex.OPTIMAL
    assert simplex.certify_optimum(c, a_ub, b_ub, a_eq, b_eq, res)
    return res


def test_bounded_minimum_with_dual():
    res = certify([-1], [[1]], [3], [], [])
    assert res.x == (3,) and res.objective == -3
    assert res.dual_ub == (1,)


def test_two_variable_corner():
    res = certify([1, 1], [[-1, 0], [0, -1]], [-1, -2], [], [])
    assert res.x == (1, 2) and res.objective == 3


def test_equality_mix():
    res = certify([1, 0], [[0, 1]], [3], [[1, 1]], [5])
    assert res.x == (2, 3) and res.objective == 2


def test_redundant_equalities():
    res = certify([1], [], [], [[1], [1]], [2, 2])
    assert res.x == (2,)


def test_infeasible():
    res = simplex.solve([0], [[-1], [1]], [-1, 0], [], [])
    assert res.status == simplex.INFEASIBLE
    # x >= 1 and x <= 0 add up to 0 <= -1
    assert (res.dual_ub, res.dual_eq) == ((1, 1), ())
    assert simplex.certify_infeasible([[-1], [1]], [-1, 0], [], [], res)
    res.dual_ub = (1, 2)
    assert not simplex.certify_infeasible([[-1], [1]], [-1, 0], [], [], res)


def test_unbounded_with_ray():
    res = simplex.solve([-1], [[-1]], [0], [], [])
    assert res.status == simplex.UNBOUNDED
    # the ray improves the objective while staying feasible
    d = res.ray[0]
    assert d > 0
    assert simplex.certify_ray([-1], [[-1]], [0], [], [], res)
    assert not simplex.certify_ray([1], [[-1]], [0], [], [], res)


def test_fractional_data():
    res = certify([Q(2, 3)], [[-1]], [Q(-1, 7)], [], [])
    assert res.x == (Q(1, 7),)
    assert res.objective == Q(2, 21)


def test_degenerate_objective_zero():
    res = certify([0, 0], [[1, 1], [-1, -1]], [1, 1], [], [])
    assert res.objective == 0


def test_duality_audit_random_instances():
    import random

    rng = random.Random(17)
    for _ in range(25):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        a_ub = [[Q(rng.randint(-4, 4)) for _ in range(nv)] for _ in range(nc)]
        b_ub = [Q(rng.randint(0, 8)) for _ in range(nc)]
        # box to keep things bounded
        for i in range(nv):
            row = [Q(0)] * nv
            row[i] = Q(1)
            a_ub.append(row)
            b_ub.append(Q(10))
            a_ub.append([-v for v in row])
            b_ub.append(Q(10))
        c = [Q(rng.randint(-3, 3)) for _ in range(nv)]
        res = simplex.solve(c, a_ub, b_ub, [], [])
        assert res.status == simplex.OPTIMAL
        assert simplex.certify_optimum(c, a_ub, b_ub, [], [], res)


# ---------------------------------------------------------------------------
# Reference: the Fraction-tableau solver that the integer tableau replaced,
# kept verbatim; on integral data both take the same pivots.


def _ref_pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            f = tab[r][col]
            tab[r] = [a - f * b for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def _ref_simplex(tab, basis, cost, enter_limit):
    nrows = len(tab)
    while True:
        cb = [cost[b] for b in basis]
        entering = -1
        for j in range(enter_limit):
            if j in basis:
                continue
            red = cost[j] - sum(cb[r] * tab[r][j] for r in range(nrows) if tab[r][j])
            if red < 0:
                entering = j
                break
        if entering < 0:
            return simplex.OPTIMAL, None
        ratios = [
            (tab[r][-1] / tab[r][entering], basis[r], r)
            for r in range(nrows)
            if tab[r][entering] > 0
        ]
        if not ratios:
            return simplex.UNBOUNDED, entering
        _, _, row = min(ratios)
        _ref_pivot(tab, basis, row, entering)


def reference_solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    nv = len(c)
    a_ub = [list(map(Q, row)) for row in a_ub]
    b_ub = [Q(v) for v in b_ub]
    a_eq = [list(map(Q, row)) for row in a_eq]
    b_eq = [Q(v) for v in b_eq]
    c = [Q(v) for v in c]

    n_ub, n_eq = len(a_ub), len(a_eq)
    nrows = n_ub + n_eq
    art_start = 2 * nv + n_ub
    ncols = art_start + nrows
    tab = []
    row_sign = []
    for i in range(nrows):
        arow = a_ub[i] if i < n_ub else a_eq[i - n_ub]
        rhs = b_ub[i] if i < n_ub else b_eq[i - n_ub]
        row = arow + [-v for v in arow]
        row += [Q(1) if (i < n_ub and j == i) else Q(0) for j in range(n_ub)]
        sign = 1
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            sign = -1
        row_sign.append(sign)
        row += [Q(1) if j == i else Q(0) for j in range(nrows)]
        tab.append(row + [rhs])

    basis = [art_start + i for i in range(nrows)]

    phase1 = [Q(0)] * art_start + [Q(1)] * nrows
    _ref_simplex(tab, basis, phase1, ncols)
    if sum(phase1[basis[r]] * tab[r][-1] for r in range(nrows)) != 0:
        return simplex.LpResult(simplex.INFEASIBLE)
    for r in range(nrows):
        if basis[r] >= art_start:
            for j in range(art_start):
                if tab[r][j] != 0:
                    _ref_pivot(tab, basis, r, j)
                    break

    cost = c + [-v for v in c] + [Q(0)] * (n_ub + nrows)
    status, entering = _ref_simplex(tab, basis, cost, art_start)
    if status == simplex.UNBOUNDED:
        direction = [Q(0)] * art_start
        direction[entering] = Q(1)
        for r in range(nrows):
            if basis[r] < art_start:
                direction[basis[r]] = -tab[r][entering]
        ray = tuple(direction[j] - direction[nv + j] for j in range(nv))
        return simplex.LpResult(simplex.UNBOUNDED, ray=ray)

    xfull = [Q(0)] * art_start
    for r in range(nrows):
        if basis[r] < art_start:
            xfull[basis[r]] = tab[r][-1]
    x = tuple(xfull[j] - xfull[nv + j] for j in range(nv))
    objective = sum(ci * xi for ci, xi in zip(c, x))

    cb = [cost[basis[r]] for r in range(nrows)]
    y = [
        sum(cb[r] * tab[r][art_start + i] for r in range(nrows))
        for i in range(nrows)
    ]
    lam = tuple(-row_sign[i] * y[i] for i in range(n_ub))
    mu = tuple(-row_sign[n_ub + k] * y[n_ub + k] for k in range(n_eq))
    return simplex.LpResult(simplex.OPTIMAL, x=x, objective=objective, dual_ub=lam, dual_eq=mu)


@st.composite
def unboxed_lps(draw):
    """LPs with <= 4 variables and <= 6 rows, <= and == rows, no box."""
    integral = draw(st.booleans())
    value = st.integers(-4, 4)
    if not integral:
        value = st.one_of(value, st.fractions(-4, 4, max_denominator=6))
    nv = draw(st.integers(1, 4))
    n_ub = draw(st.integers(0, 6))
    n_eq = draw(st.integers(0, 6 - n_ub))

    def rows(k):
        return [draw(st.lists(value, min_size=nv, max_size=nv)) for _ in range(k)]

    def rhs(k):
        return draw(st.lists(value, min_size=k, max_size=k))

    c = draw(st.lists(value, min_size=nv, max_size=nv))
    return integral, c, rows(n_ub), rhs(n_ub), rows(n_eq), rhs(n_eq)


@settings(max_examples=200, deadline=None)
@given(unboxed_lps())
def test_certificates_and_reference_solver(lp):
    integral, c, a_ub, b_ub, a_eq, b_eq = lp
    res = simplex.solve(c, a_ub, b_ub, a_eq, b_eq)
    if res.status == simplex.OPTIMAL:
        assert simplex.certify_optimum(c, a_ub, b_ub, a_eq, b_eq, res)
    elif res.status == simplex.INFEASIBLE:
        assert simplex.certify_infeasible(a_ub, b_ub, a_eq, b_eq, res)
    else:
        assert simplex.certify_ray(c, a_ub, b_ub, a_eq, b_eq, res)
    if integral:
        ref = reference_solve(c, a_ub, b_ub, a_eq, b_eq)
        assert res.status == ref.status
        assert res.ray == ref.ray
        if ref.status == simplex.OPTIMAL:
            assert res == ref


@settings(max_examples=200, deadline=None)
@given(unboxed_lps())
def test_slack_start_matches_reference_verdict(lp):
    """The slack start may end at another vertex, with other duals or
    another ray, but it reaches the same status and optimum, and each of its
    certificates passes its own exact check."""
    integral, c, a_ub, b_ub, a_eq, b_eq = lp
    res = simplex.solve(c, a_ub, b_ub, a_eq, b_eq, slack_start=True)
    if res.status == simplex.OPTIMAL:
        assert simplex.certify_optimum(c, a_ub, b_ub, a_eq, b_eq, res)
    elif res.status == simplex.INFEASIBLE:
        assert simplex.certify_infeasible(a_ub, b_ub, a_eq, b_eq, res)
    else:
        assert simplex.certify_ray(c, a_ub, b_ub, a_eq, b_eq, res)
    if integral:
        ref = reference_solve(c, a_ub, b_ub, a_eq, b_eq)
        assert res.status == ref.status
        assert res.objective == ref.objective


def test_slack_start_skips_phase_one_pivots(monkeypatch):
    """With every row a <= row of rhs >= 0 the slacks are a feasible basis:
    a feasibility LP from the slack start makes no pivot at all."""
    pivots = []
    real = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(args[3]) or real(*args))
    lp = ([0, 0], [[1, 0], [0, 1], [1, 1]], [2, 3, 4], [], [])
    counts = {}
    for slack_start in (False, True):
        pivots.clear()
        res = simplex.solve(*lp, slack_start=slack_start)
        assert res.objective == 0 and simplex.certify_optimum(*lp, res)
        counts[slack_start] = len(pivots)
    assert counts[True] == 0 < counts[False]


def _mutations(a_ub, a_eq, res):
    """Copies of an optimal result that no exact check may accept: each
    dual of a nonzero row moved by 1/7, x moved off a tight row whose dual
    is positive, and the objective moved by 1/7."""
    out = []
    lam, mu = list(res.dual_ub), list(res.dual_eq)
    for duals, rows, key in ((lam, a_ub, "dual_ub"), (mu, a_eq, "dual_eq")):
        for i, row in enumerate(rows):
            if any(row):
                moved = list(duals)
                moved[i] += Q(1, 7)
                out.append(replace(res, **{key: tuple(moved)}))
    for l, row in zip(lam, a_ub):
        if l > 0 and any(row):
            # x - t * row keeps every tight row but this one slack or broken
            out.append(replace(res, x=tuple(x - Q(1, 7) * Q(a) for x, a in zip(res.x, row))))
    out.append(replace(res, objective=res.objective + Q(1, 7)))
    return out


@settings(max_examples=200, deadline=None)
@given(unboxed_lps())
def test_mutated_certificates_rejected(lp):
    _, c, a_ub, b_ub, a_eq, b_eq = lp
    res = simplex.solve(c, a_ub, b_ub, a_eq, b_eq)
    if res.status == simplex.OPTIMAL:
        for bad in _mutations(a_ub, a_eq, res):
            assert not simplex.certify_optimum(c, a_ub, b_ub, a_eq, b_eq, bad), bad
    elif res.status == simplex.INFEASIBLE:
        # a Farkas multiplier of a nonzero row moved by 1/7 breaks G^T lam + E^T mu = 0
        for duals, rows, key in ((res.dual_ub, a_ub, "dual_ub"), (res.dual_eq, a_eq, "dual_eq")):
            for i, row in enumerate(rows):
                if any(row):
                    moved = list(duals)
                    moved[i] += Q(1, 7)
                    bad = replace(res, **{key: tuple(moved)})
                    assert not simplex.certify_infeasible(a_ub, b_ub, a_eq, b_eq, bad)


@st.composite
def tall_lps(draw):
    """Integral LPs of up to 32 rows over at most 6 variables: <= and ==
    rows, negative rhs, and rows that repeat an earlier row times a nonzero
    integer, so that equalities turn redundant and artificials stay basic."""
    nv = draw(st.integers(1, 6))
    value = st.integers(-5, 5)
    rows = []
    for _ in range(draw(st.integers(1, 32))):
        if rows and draw(st.integers(0, 3)) == 0:
            row, rhs, sense = draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3).filter(bool))
            row, rhs = [k * v for v in row], k * rhs
        else:
            row, rhs = draw(st.lists(value, min_size=nv, max_size=nv)), draw(value)
        rows.append((row, rhs, draw(st.sampled_from(("<=", "<=", "==")))))
    c = draw(st.lists(value, min_size=nv, max_size=nv))
    ub = [(r, b) for r, b, s in rows if s == "<="]
    eq = [(r, b) for r, b, s in rows if s == "=="]
    return c, [r for r, _ in ub], [b for _, b in ub], [r for r, _ in eq], [b for _, b in eq]


def _check_against_reference(lp, res):
    """res is the all-artificial solve of lp: certified, and equal field by
    field to the Fraction reference (which gives no Farkas vector)."""
    c, a_ub, b_ub, a_eq, b_eq = lp
    ref = reference_solve(*lp)
    assert res.status == ref.status
    if res.status == simplex.OPTIMAL:
        assert res == ref
        assert simplex.certify_optimum(*lp, res)
    elif res.status == simplex.UNBOUNDED:
        assert res.ray == ref.ray
        assert simplex.certify_ray(*lp, res)
    else:
        assert simplex.certify_infeasible(a_ub, b_ub, a_eq, b_eq, res)


@settings(max_examples=100, deadline=None)
@given(tall_lps())
def test_tall_lps_match_reference_solver(lp):
    _check_against_reference(lp, simplex.solve(*lp))
    res = simplex.solve(*lp, slack_start=True)
    ref = reference_solve(*lp)
    assert res.status == ref.status
    assert res.objective == ref.objective


def _pivot_kinds(monkeypatch):
    """Record, per pivot, whether the entering column's twin leaves (its
    stored column is basic) and whether the pivot is negative."""
    kinds = []
    real = simplex._pivot

    def spy(tab, basis, cols, row, col, d, loc, *rest):
        sc, sg = cols[col]
        kinds.append((loc[sc] < 0, sg * simplex._column(tab, basis, cols, loc, d, sc)[row] < 0))
        return real(tab, basis, cols, row, col, d, loc, *rest)

    monkeypatch.setattr(simplex, "_pivot", spy)
    return kinds


def test_twin_swaps_and_negative_cleanup_pivots(monkeypatch):
    kinds = _pivot_kinds(monkeypatch)
    cases = [
        # 0 x <= 1: phase 1 swaps the artificial for its twin slack
        (([-1], [[0]], [1], [], []), (True, False)),
        # x >= -1 and -x = 1: the cleanup pivots on a negative entry
        (([1], [[-1]], [1], [[-1]], [1]), (False, True)),
        # a row stored negated keeps its artificial at level 0, and the
        # cleanup swaps it for its twin slack with a negative pivot
        (([1], [[1], [-2], [2]], [-1, 2, -1], [], []), (True, True)),
    ]
    for lp, kind in cases:
        kinds.clear()
        _check_against_reference(lp, simplex.solve(*lp))
        assert kind in kinds, lp


def test_bound_driver_lps_match_reference_solver(monkeypatch):
    from gf4msd import bounds

    calls = []
    real = simplex.solve

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((args, kwargs.get("slack_start", False), res))
        return res

    monkeypatch.setattr(simplex, "solve", spy)
    for n in range(5, 20):
        if bounds.is_nu_length(n):
            bounds.max_nu_bound(n)
    bounds.lattice_search(12, True)
    assert {slack_start for _, slack_start, _ in calls} == {False, True}
    for lp, slack_start, res in calls:
        if slack_start:
            ref = reference_solve(*lp)
            assert (res.status, res.objective) == (ref.status, ref.objective)
        else:
            _check_against_reference(lp, res)
