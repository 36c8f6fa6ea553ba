import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from inca import simplex
from inca.simplex import Infeasible, Polytope, Unbounded, maximize, minimize

from oracles import lp_vertices_oracle

F = Fraction


def test_basic_maximization():
    # max 3x + 2y  s.t. x + y <= 4, x <= 2
    value, x = maximize([3, 2], [([1, 1], None, 4), ([1, 0], None, 2)])
    assert value == 10
    assert x == [F(2), F(2)]


def test_basic_minimization():
    # min x + y  s.t. x + 2y >= 4, x >= 1  (x=1, y=3/2)
    value, x = minimize([1, 1], [([1, 2], 4, None), ([1, 0], 1, None)])
    assert value == F(5, 2)
    assert x == [F(1), F(3, 2)]


def test_equality_constraints():
    value, x = maximize([1, 0], [([1, 1], 1, 1)])
    assert value == 1
    assert x == [F(1), F(0)]


def test_exact_fractions_no_rounding():
    value, _ = maximize([F(1, 3)], [([F(1)], None, F(1, 7))])
    assert value == F(1, 21)


def test_infeasible():
    with pytest.raises(Infeasible):
        maximize([1], [([1], 2, None), ([1], None, 1)])
    with pytest.raises(Infeasible):
        Polytope(1, [([1], 2, 1)])
    with pytest.raises(Infeasible):
        Polytope(2, [([1, 0], 1, None), ([0, 1], 1, None), ([1, 1], None, 1)])


def test_unbounded():
    with pytest.raises(Unbounded):
        maximize([1], [([-1], None, 0)])


def test_negative_rhs_is_normalized():
    # x >= 0 and -x >= -3  <=>  x <= 3
    value, _ = maximize([1], [([-1], -3, None)])
    assert value == 3


def test_basic_artificial_leaves_on_a_negative_entry():
    # -x >= 0 pins x at 0; phase 2 must still see it there.
    value, x = maximize([2, 1], [([-1, 0], 0, None), ([1, 1], None, 3)])
    assert value == 3
    assert x == [F(0), F(3)]
    # The artificial of x - y == 0 starts basic at 0 and stays basic through
    # phase 1. y enters first in phase 2, at -1 in that row: the artificial
    # leaves at its bound 0, a degenerate pivot, and x then rises with y.
    (value, x), pivots = _priced(
        simplex.BLAND_AFTER, lambda: maximize([0, 1], [([1, -1], 0, 0), ([1, 1], None, 2)])
    )
    assert (value, x) == (1, [F(1), F(1)])
    assert pivots[0] == (1, True)


def test_redundant_row_keeps_its_zero_artificial():
    # The second row is the first doubled. Its integer coefficients differ,
    # so the two do not merge: its artificial stays basic at 0 on a row with
    # no structural entry left, and bounds nothing in phase 2.
    rows = [([1, 1], 1, 1), ([2, 2], 2, 2), ([1, 0], None, 2)]
    polytope = Polytope(2, rows)
    assert max(polytope._basis) >= polytope._enterable
    assert maximize([1, 0], rows) == (1, [F(1), F(0)])
    assert minimize([1, 0], rows) == (0, [F(0), F(1)])


def test_redundant_and_dependent_rows_match_fresh_solves_and_vertices():
    # Rows that keep a zero artificial as their basic variable after phase
    # 1: an equality and its double, an equality at 0, and the sum of two
    # equalities, among random rows through a seeded point p of the region.
    # One polytope answers every objective.
    rng = random.Random(29)
    for _ in range(40):
        w = F(rng.randint(0, 4), 4)
        p = [w, 1 - w, F(0), F(0)]

        def row(co, below, above):
            at = sum(c * v for c, v in zip(co, p))
            return co, None if below is None else at - below, None if above is None else at + above

        co = [rng.randint(-3, 3) for _ in range(4)]
        rows = [([1, 1, 0, 0], 1, 1), ([2, 2, 0, 0], 2, 2), ([0, 0, 1, 1], 0, 0),
                row(co, 0, 0), row([1 + co[0], 1 + co[1], *co[2:]], 0, 0),
                ([1, 1, 1, 1], None, 5)]
        rows += [
            row([rng.randint(-3, 3) for _ in range(4)],
                *rng.choice([(None, rng.randint(0, 2)), (rng.randint(0, 2), None),
                             (rng.randint(0, 2), rng.randint(0, 2))]))
            for _ in range(rng.randint(0, 3))
        ]
        rng.shuffle(rows)
        vertices = lp_vertices_oracle(4, rows)
        polytope = Polytope(4, rows)
        assert max(polytope._basis) >= polytope._enterable
        for _ in range(4):
            c = [rng.randint(-3, 3) for _ in range(4)]
            values = [sum(ci * xi for ci, xi in zip(c, v)) for v in vertices]
            top, bottom = polytope.maximize(c), polytope.minimize(c)
            assert top == maximize(c, rows) and bottom == minimize(c, rows)
            assert top[0] == max(values) and bottom[0] == min(values)
            assert tuple(top[1]) in vertices and tuple(bottom[1]) in vertices


def test_degenerate_program_terminates():
    # Multiple redundant constraints force degenerate pivots; Bland's rule
    # must still terminate with the right optimum.
    rows = [
        ([1, 1], None, 1),
        ([1, 1], None, 1),
        ([1, 0], None, 1),
        ([0, 1], None, 1),
        ([1, 1], 0, None),
    ]
    value, _ = maximize([1, 1], rows)
    assert value == 1


def test_input_validation():
    with pytest.raises(ValueError):
        maximize([1, 2], [([1], None, 1)])
    with pytest.raises(ValueError):
        Polytope(2, [([1, 1], None, 1)]).maximize([1, 2, 3])
    # A relation string is no end: the (coefficients, relation, rhs) form
    # is refused, not misread.
    with pytest.raises(ValueError):
        maximize([1], [([1], "<=", 1)])
    with pytest.raises(ValueError):
        maximize([1], [([1], 1)])


def test_floats_are_rejected():
    # Fraction(0.1) is the binary expansion 3602879701896397/36028797018963968,
    # not 1/10: a float is refused wherever it enters.
    with pytest.raises(ValueError):
        maximize([1], [([0.5], None, 1)])
    with pytest.raises(ValueError):
        maximize([1], [([1], None, 0.1)])
    with pytest.raises(ValueError):
        maximize([1], [([1], 0.1, None)])
    with pytest.raises(ValueError):
        maximize([1], [([1], 0.5, 0.5)])
    with pytest.raises(ValueError):
        maximize([0.1], [([1], None, 1)])
    with pytest.raises(ValueError):
        Polytope(1, [([1], None, 1)]).minimize([0.1])


def test_ranged_rows(monkeypatch):
    # -2 <= -x - y <= -1: both ends below zero.
    below = [([-1, -1], -2, -1), ([0, 1], None, F(1, 2))]
    assert maximize([1, 0], below) == (2, [F(2), F(0)])
    assert minimize([1, 2], below) == (1, [F(1), F(0)])
    # -1 <= x - y <= 2 straddles 0, so the origin is feasible.
    straddle = [([1, -1], -1, 2), ([1, 1], None, 4)]
    assert maximize([1, 0], straddle) == (3, [F(3), F(1)])
    assert maximize([0, 1], straddle) == (F(5, 2), [F(3, 2), F(5, 2)])
    for rows in (below, straddle):
        vertices = lp_vertices_oracle(2, rows)
        for c in ([1, 0], [0, 1], [1, 1], [-1, 2]):
            values = [sum(ci * xi for ci, xi in zip(c, v)) for v in vertices]
            assert maximize(c, rows)[0] == max(values)
            assert minimize(c, rows)[0] == min(values)
    # 1 <= x <= 3: phase 1 leaves x = 1 with the slack x - 1 nonbasic, and
    # maximizing x raises that slack to its bound 2, a flip without a pivot.
    flips = []
    complement = simplex._complement
    monkeypatch.setattr(
        simplex, "_complement", lambda *a: flips.append(a[2]) or complement(*a)
    )
    assert maximize([1], [([1], 1, 3)]) == (3, [F(3)])
    assert flips


def test_slack_leaves_at_its_bound_through_one_complement(monkeypatch):
    # From a seeded search: in phase 2 the slack of 2 <= x + 3y <= 4 (column
    # 2) enters, then leaves at its bound 2 on a step that is not degenerate.
    # It is complemented while basic, so the pivot on its row meets a
    # negative entry, which _pivot negates.
    rows = [([1, 3], 2, 4), ([1, 1], None, 3)]
    negative = []
    pivot = simplex._pivot
    monkeypatch.setattr(
        simplex, "_pivot",
        lambda tableau, z, basis, d, r, c: negative.append(tableau[r][c] < 0)
        or pivot(tableau, z, basis, d, r, c),
    )
    at_bound = []
    (value, x), pivots = _priced(
        simplex.BLAND_AFTER, lambda: maximize([2, 3], rows), at_bound
    )
    assert (value, x) == (F(13, 2), [F(5, 2), F(1, 2)])
    vertices = lp_vertices_oracle(2, rows)
    assert tuple(x) in vertices
    assert value == max(2 * a + 3 * b for a, b in vertices)
    assert at_bound == [(2, 3)]
    assert pivots[3] == (1, False)
    assert negative == [False, False, False, True]


def test_rows_with_equal_coefficients_merge_wherever_they_sit():
    # Their ranges intersect into one row; a row of fractions merges by its
    # integer coefficients (1/2, 1/2 are 1, 1), and a row with neither end is
    # no row at all.
    rows = [([1, 1], F(1, 4), None), ([1, 0], None, 1), ([0, 0], None, None),
            ([F(1, 2), F(1, 2)], None, F(3, 8)), ([1, 1], 0, 1)]
    polytope = Polytope(2, rows)
    assert len(polytope._tableau) == 2
    assert polytope.maximize([1, 1]) == (F(3, 4), [F(3, 4), F(0)])
    assert polytope.minimize([1, 1]) == (F(1, 4), [F(1, 4), F(0)])
    # The intersection of 3/2 <= x + y and x + y <= 1 is empty.
    with pytest.raises(Infeasible):
        Polytope(2, [([1, 1], F(3, 2), None), ([1, 0], None, 1), ([1, 1], None, 1)])


def test_beale_cycling_program_terminates():
    # Beale (1955): the textbook pivoting rules cycle on this program;
    # Bland's rule, with bounds in the ratio test, must not.
    rows = [
        ([F(1, 4), -60, F(-1, 25), 9], None, 0),
        ([F(1, 2), -90, F(-1, 50), 3], None, 0),
        ([0, 0, 1, 0], None, 1),
    ]
    value, x = maximize([F(3, 4), -150, F(1, 50), -6], rows)
    assert value == F(1, 20)
    assert x == [F(1, 25), F(0), F(1), F(0)]


def _priced(bland_after, solve, at_bound=None):
    """solve() under BLAND_AFTER = bland_after, asserting that every entering
    column is Dantzig's pick (largest reduced cost, lowest index on ties),
    or Bland's (lowest index with a positive reduced cost) once bland_after
    degenerate pivots have passed in a row since the run began or the
    objective last rose. Only the columns that the run may enter are priced,
    and no other column is pivoted in or flipped to its bound. A column
    that is basic when it is complemented leaves at its bound: the next
    pivot must be on its row. Each such complement is appended to at_bound,
    when given, as (column, index of that pivot in the pivots returned).
    Returns what solve() returns and, for each pivot, (entering column,
    degenerate)."""
    pivots = []
    streak = enterable = 0
    run_basis = leaving = None
    pivot, complement, run = simplex._pivot, simplex._complement, simplex._run

    def checked_pivot(tableau, z, basis, d, r, c):
        nonlocal streak, leaving
        assert leaving in (None, r)
        leaving = None
        costs = z[:enterable]
        if streak >= bland_after:
            assert c == next(j for j, v in enumerate(costs) if v > 0)
        else:
            assert c == costs.index(max(costs))
        # The leaving row's right-hand side is 0 exactly when the step is.
        degenerate = tableau[r][-1] == 0
        streak = streak + 1 if degenerate else 0
        pivots.append((c, degenerate))
        return pivot(tableau, z, basis, d, r, c)

    def checked_complement(tableau, z, c, bound):
        nonlocal streak, leaving
        if c in run_basis:
            leaving = run_basis.index(c)
            if at_bound is not None:
                at_bound.append((c, len(pivots)))
        else:
            assert c < enterable
            streak = 0
        return complement(tableau, z, c, bound)

    def checked_run(tableau, basis, crow, d, bounds, enter_below, **kwargs):
        nonlocal streak, enterable, run_basis
        streak, enterable, run_basis = 0, enter_below, basis
        return run(tableau, basis, crow, d, bounds, enter_below, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "BLAND_AFTER", bland_after)
        patch.setattr(simplex, "_pivot", checked_pivot)
        patch.setattr(simplex, "_complement", checked_complement)
        patch.setattr(simplex, "_run", checked_run)
        return solve(), pivots


def test_degenerate_run_falls_back_to_blands_rule():
    # From a seeded search over random programs: Dantzig's rule makes more
    # than BLAND_AFTER degenerate pivots in a row at the origin, so the
    # fallback prices the next pivot, and picks another column than Dantzig's
    # rule would. All three settings reach the same optimal vertex.
    objective = [7, -9, 8, 9, -2, 5, 5]
    rows = [
        ([2, -2, 4, -6, 9, 3, -7], None, 0),
        ([0, -1, -2, 1, 1, -9, -5], None, 0),
        ([8, -6, 2, -7, 5, 5, -4], None, 0),
        ([1, 6, 0, 8, -5, -6, -4], None, 0),
        ([-9, -6, 1, 1, -4, 1, 4], None, 0),
        ([4, -2, -8, 1, 6, -5, -8], None, 0),
        ([3, -5, -9, 9, 5, 2, 3], None, 0),
        ([1, 1, 1, 1, 1, 1, 1], None, 1),
    ]
    optimum = (F(4661, 669), [F(44, 223), F(0), F(76, 223), F(92, 669),
                              F(0), F(0), F(217, 669)])
    default = simplex.BLAND_AFTER
    answers = {}
    runs = {}
    for name, bland_after in (("fallback", default), ("dantzig", 10**9), ("bland", 0)):
        answers[name], runs[name] = _priced(bland_after, lambda: maximize(objective, rows))
    assert answers == dict.fromkeys(runs, optimum)
    fallback, dantzig, bland = runs["fallback"], runs["dantzig"], runs["bland"]
    assert all(degenerate for _, degenerate in fallback[:default + 1])
    assert dantzig[:default] == fallback[:default]
    assert dantzig[default] != fallback[default]
    assert len(dantzig) < len(fallback) < len(bland)


def test_phase_one_stops_when_the_artificials_are_zero():
    # The artificial of x + y == 0 starts at 0, the most phase 1 can reach,
    # so phase 1 prices nothing and pivots nothing; the artificial stays
    # basic at 0.
    polytope, pivots = _priced(
        simplex.BLAND_AFTER, lambda: Polytope(2, [([1, 1], 0, 0), ([1, -1], None, 3)])
    )
    assert pivots == []
    assert polytope.maximize([1, 2]) == (0, [F(0), F(0)])


def test_zero_objective_feasibility_probe():
    value, x = maximize([0, 0], [([1, 1], 1, 1)])
    assert value == 0
    assert sum(x) == 1


_small = st.integers(min_value=0, max_value=4)


@given(
    st.lists(_small, min_size=2, max_size=4),
    st.lists(st.tuples(st.lists(_small, min_size=2, max_size=4), _small), max_size=4),
)
def test_solution_is_feasible_and_optimal_on_box(objective, raw_rows):
    """Against <=-only rows the reported solution must satisfy every row,
    and the value must dominate the obvious vertex candidates."""
    n = len(objective)
    rows = [([F(c) for c in (co + [0] * n)[:n]], None, F(rhs)) for co, rhs in raw_rows]
    rows.append(([F(1)] * n, None, F(10)))  # keep it bounded
    value, x = maximize(objective, rows)
    assert len(x) == n
    assert all(v >= 0 for v in x)
    for coeffs, _, rhs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) <= rhs
    assert value == sum(F(c) * v for c, v in zip(objective, x))
    assert value >= 0  # x = 0 is always feasible here


_coefficient = st.integers(min_value=-3, max_value=3)


@st.composite
def _rows(draw, width, ends):
    """A row (coefficients, lo, hi): an inequality, an equality, or a range
    with two drawn ends, which is empty when lo > hi."""
    co, lo, hi = draw(width), draw(ends), draw(ends)
    return draw(st.sampled_from([(co, None, hi), (co, lo, None), (co, lo, lo), (co, lo, hi)]))


@st.composite
def _programs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    width = st.lists(_coefficient, min_size=n, max_size=n)
    rows = draw(st.lists(_rows(width, st.integers(-4, 4)), max_size=4))
    rows.append(([1] * n, None, 10))  # keep it bounded
    objectives = draw(st.lists(width, min_size=1, max_size=4))
    return n, rows, objectives


@given(_programs())
def test_polytope_reused_across_objectives_matches_fresh_solves(program):
    """Phase 2 on one shared feasible basis must give every objective the
    same optimum and vertex as a solve from scratch, whatever objectives
    it answered before."""
    n, rows, objectives = program
    try:
        fresh = [(maximize(c, rows), minimize(c, rows)) for c in objectives]
    except Infeasible:
        with pytest.raises(Infeasible):
            Polytope(n, rows)
        return
    polytope = Polytope(n, rows)
    assert [(polytope.maximize(c), polytope.minimize(c)) for c in objectives] == fresh


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _rational_programs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    width = st.lists(_rational, min_size=n, max_size=n)
    # Zero ends make degenerate vertices, where artificials stay basic at 0
    # after phase 1 and into phase 2.
    ends = st.one_of(st.just(F(0)), _rational)
    rows = draw(st.lists(_rows(width, ends), min_size=1, max_size=4))
    # Rows with equal coefficients, wherever they sit, merge into the
    # intersection of their ranges, which may be empty.
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(draw(_rows(st.just(list(rows[i][0])), ends)))
    # Redundant rows: copies of a row scaled by a nonzero rational (a
    # negative factor swaps the ends) and sums of two equalities.
    for i, k in draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), _rational.filter(bool)),
        max_size=2,
    )):
        co, lo, hi = rows[i]
        lo, hi = (None if e is None else k * e for e in ((lo, hi) if k > 0 else (hi, lo)))
        rows.append(([k * v for v in co], lo, hi))
    equalities = [r for r in rows if r[1] is not None and r[1] == r[2]]
    if len(equalities) >= 2 and draw(st.booleans()):
        (c1, b1, _), (c2, b2, _) = equalities[:2]
        rows.append(([u + v for u, v in zip(c1, c2)], b1 + b2, b1 + b2))
    rows.append(([1] * n, None, draw(st.fractions(1, 9, max_denominator=6))))
    objectives = draw(st.lists(width, min_size=1, max_size=3))
    return n, rows, objectives


@given(_rational_programs())
def test_rational_programs_match_vertex_enumeration(program):
    """On bounded programs with fractional coefficients, negative right-hand
    sides, equalities and redundant rows, each optimum is the best vertex
    of an independent enumeration, reached at one of those vertices."""
    _check_against_vertices(program)


# Pure Bland and pure Dantzig; the test above runs the default fallback.
@pytest.mark.parametrize("bland_after", [0, 10**9])
@given(program=_rational_programs())
def test_rational_programs_match_vertex_enumeration_under_one_rule(bland_after, program):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "BLAND_AFTER", bland_after)
        _check_against_vertices(program)


@pytest.mark.parametrize("bland_after", [0, 1, simplex.BLAND_AFTER, 10**9])
def test_pricing_returns_to_dantzig_once_the_objective_rises(bland_after):
    # With BLAND_AFTER = 1, a degenerate pivot hands the next one to Bland's
    # rule, but here the first pivot raises the objective, so Dantzig's rule
    # prices the second and enters x3 where Bland's rule would enter x2.
    objective = [4, 1, -1, -3]
    rows = [([2, 0, -3, 1], None, 2), ([1, -2, 2, 0], None, 1), ([1, 1, 1, 1], None, 3)]
    (value, x), _ = _priced(bland_after, lambda: maximize(objective, rows))
    vertices = lp_vertices_oracle(4, rows)
    assert tuple(x) in vertices
    assert value == max(sum(c * v for c, v in zip(objective, p)) for p in vertices)


@pytest.mark.parametrize("bland_after", [0, 1, 2, simplex.BLAND_AFTER])
@settings(max_examples=60)
@given(program=_rational_programs())
def test_pricing_follows_the_rule(bland_after, program):
    n, rows, objectives = program

    def solve():
        try:
            polytope = Polytope(n, rows)
        except Infeasible:
            return
        for c in objectives:
            polytope.maximize(c)
            polytope.minimize(c)

    _priced(bland_after, solve)


def _check_against_vertices(program):
    n, rows, objectives = program
    vertices = lp_vertices_oracle(n, rows)
    if not vertices:
        with pytest.raises(Infeasible):
            Polytope(n, rows)
        return
    polytope = Polytope(n, rows)
    for c in objectives:
        values = [sum(ci * xi for ci, xi in zip(c, v)) for v in vertices]
        for solve, best in ((polytope.maximize, max), (polytope.minimize, min)):
            value, x = solve(c)
            assert value == best(values)
            assert tuple(x) in vertices
            assert value == sum(ci * xi for ci, xi in zip(c, x))
