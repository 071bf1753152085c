from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsrank import ratlp
from fdsrank.errors import SizeLimitExceeded


def test_basic_maximization():
    # max x+y st x+2y <= 4, 3x+y <= 6
    res = ratlp.solve_exact([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], maximize=True)
    assert res.status == ratlp.OPTIMAL
    assert res.value == Fraction(14, 5)


def test_equality_and_phase_one():
    # min x+y st x+y >= 3, x = 1
    res = ratlp.solve_exact(
        [1, 1], [[1, 1], [1, 0]], [">=", "="], [3, 1], maximize=False
    )
    assert res.status == ratlp.OPTIMAL
    assert res.value == 3
    assert res.x[0] == 1 and res.x[1] == 2


def test_infeasible():
    res = ratlp.solve_exact([1], [[1], [1]], ["<=", ">="], [1, 2], maximize=False)
    assert res.status == ratlp.INFEASIBLE


def test_unbounded():
    res = ratlp.solve_exact([1], [[-1]], ["<="], [0], maximize=True)
    assert res.status == ratlp.UNBOUNDED


def test_sparse_rows():
    # middle variable only hurts the objective, so it stays at zero
    res = ratlp.solve_exact([1, -1, 1], [{0: 1, 2: 1}], ["<="], [2], maximize=True)
    assert res.status == ratlp.OPTIMAL
    assert res.value == 2


def test_degenerate_does_not_cycle():
    # classic degeneracy: duplicated constraints at the optimum
    res = ratlp.solve_exact(
        [3, 2],
        [[1, 1], [1, 1], [2, 1]],
        ["<=", "<=", "<="],
        [4, 4, 6],
        maximize=True,
    )
    assert res.status == ratlp.OPTIMAL
    assert res.value == 10


def test_negative_rhs_normalization():
    # x >= 2 expressed as -x <= -2
    res = ratlp.solve_exact([1], [[-1]], ["<="], [-2], maximize=False)
    assert res.status == ratlp.OPTIMAL
    assert res.value == 2


def test_fractional_optimum_is_exact():
    # optimum at x = y = 1/3
    res = ratlp.solve_exact(
        [1, 1], [[2, 1], [1, 2]], ["<=", "<="], [1, 1], maximize=True
    )
    assert res.value == Fraction(2, 3)
    assert res.x == [Fraction(1, 3), Fraction(1, 3)]


# --- the certificate ------------------------------------------------------------

@st.composite
def programs(draw):
    """Small LPs: up to 4 variables and 5 rows of mixed sense, small integers."""
    nvar = draw(st.integers(1, 4))
    coef = st.integers(-3, 3)
    c = draw(st.lists(coef, min_size=nvar, max_size=nvar))
    m = draw(st.integers(0, 5))
    rows = [draw(st.lists(coef, min_size=nvar, max_size=nvar)) for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    rhs = [draw(st.integers(-5, 5)) for _ in range(m)]
    return c, rows, senses, rhs, draw(st.booleans())


@given(programs())
@settings(max_examples=300, deadline=None)
def test_certified_answer_matches_the_tableau(program):
    c, rows, senses, rhs, maximize = program
    got = ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize)
    want = ratlp.solve_tableau(c, rows, senses, rhs, maximize=maximize)
    assert (got.status, got.value) == (want.status, want.value)
    if got.status == ratlp.OPTIMAL:
        assert all(v >= 0 for v in got.x)
        assert sum(a * v for a, v in zip(c, got.x)) == got.value
        for row, s, b in zip(rows, senses, rhs):
            ax = sum(a * v for a, v in zip(row, got.x))
            assert {"<=": ax <= b, ">=": ax >= b, "=": ax == b}[s]


@pytest.fixture
def tableau_calls(monkeypatch):
    calls = []
    real = ratlp.solve_tableau

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ratlp, "solve_tableau", counted)
    return calls


def edit_highs(monkeypatch, edit):
    """Make HiGHS hand back its own answer after ``edit(result)``."""
    from scipy import optimize

    real = optimize.linprog

    def edited(*args, **kwargs):
        res = real(*args, **kwargs)
        edit(res)
        return res

    monkeypatch.setattr(optimize, "linprog", edited)


def set_x(values):
    def edit(res):
        res.x = np.array(values, dtype=float)
    return edit


def set_duals(block, values):
    def edit(res):
        res[block].marginals = np.array(values, dtype=float)
    return edit


# Each wrong answer breaks exactly one clause of the certificate and keeps
# the others, so dropping any one clause lets one of these through. HiGHS
# minimizes: a maximized objective reaches it negated, and its <= duals
# are <= 0.
WRONG_ANSWERS = {
    # max x+y st x+y <= 1: x = (-1, 2) meets the row and the optimum
    "x below zero": (([1, 1], [[1, 1]], ["<="], [1], True), set_x([-1, 2]), 1),
    # max x st x <= 1, x+y <= 3: x = (1, 5) is off the second row
    "x over a <= row": (([1, 0], [[1, 0], [1, 1]], ["<=", "<="], [1, 3], True), set_x([1, 5]), 1),
    # min x st x+y = 2: x = (0, 5) is off the equation
    "x off an equation": (([1, 0], [[1, 1]], ["="], [2], False), set_x([0, 5]), 0),
    # min x st x >= 1, x+y >= 3: x = (1, 0) is under the second row
    "x under a >= row": (([1, 0], [[1, 0], [1, 1]], [">=", ">="], [1, 3], False), set_x([1, 0]), 1),
    # max x st x <= 1, x >= 0: a negative dual on the >= row (entered negated)
    "y of the wrong sign on a >= row": (
        ([1], [[1], [1]], ["<=", ">="], [1, 0], True),
        set_duals("ineqlin", [-1, 0.5]),
        1,
    ),
    # min x st x >= 1, -x <= 0: a positive dual on the <= row
    "y of the wrong sign on a <= row": (
        ([1], [[1], [-1]], [">=", "<="], [1, 0], False),
        set_duals("ineqlin", [-1, 0.5]),
        1,
    ),
    # max x+y st x <= 1, y <= 1: y = (2, 0) prices x over its cost
    "y off a dual row": (
        ([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1], True),
        set_duals("ineqlin", [-2, 0]),
        2,
    ),
    # same program: x = 0 is feasible but short of the dual bound
    "a duality gap": (([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1], True), set_x([0, 0]), 2),
}


@pytest.mark.parametrize("case", sorted(WRONG_ANSWERS))
def test_certificate_rejects_a_wrong_answer(monkeypatch, tableau_calls, case):
    (c, rows, senses, rhs, maximize), edit, optimum = WRONG_ANSWERS[case]
    assert ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize).value == optimum
    assert tableau_calls == []
    edit_highs(monkeypatch, edit)
    res = ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize)
    assert (res.status, res.value) == (ratlp.OPTIMAL, optimum)
    assert len(tableau_calls) == 1


@pytest.mark.parametrize("status", [1, 2, 3, 4])
def test_highs_without_an_optimum_leaves_the_verdict_to_the_tableau(
    monkeypatch, tableau_calls, status
):
    # iteration limit, infeasible, unbounded, numerical trouble: none is
    # passed through, so a feasible bounded program still gets its optimum
    from scipy import optimize

    def no_optimum(*args, **kwargs):
        return optimize.OptimizeResult(status=status, success=False, message="patched")

    monkeypatch.setattr(optimize, "linprog", no_optimum)
    res = ratlp.solve_exact([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], maximize=True)
    assert (res.status, res.value) == (ratlp.OPTIMAL, Fraction(14, 5))
    assert len(tableau_calls) == 1


def test_infeasible_and_unbounded_verdicts_come_from_the_tableau(tableau_calls):
    assert ratlp.solve_exact([1], [[1], [1]], ["<=", ">="], [1, 2]).status == ratlp.INFEASIBLE
    assert ratlp.solve_exact([1], [[-1]], ["<="], [0], maximize=True).status == ratlp.UNBOUNDED
    assert len(tableau_calls) == 2


def test_coefficients_past_the_float_range_go_to_the_tableau(tableau_calls):
    res = ratlp.solve_exact([1], [[10 ** 400]], ["<="], [10 ** 400], maximize=True)
    assert (res.status, res.value) == (ratlp.OPTIMAL, 1)
    assert len(tableau_calls) == 1


def test_fractional_rows_are_scaled_not_rounded():
    # max x st x/3 + y/7 <= 1/2, x <= 5/4: the optimum is x = 5/4
    res = ratlp.solve_exact(
        [1, 0],
        [[Fraction(1, 3), Fraction(1, 7)], [1, 0]],
        ["<=", "<="],
        [Fraction(1, 2), Fraction(5, 4)],
        maximize=True,
    )
    assert res.value == Fraction(5, 4)


def path_program(m):
    """max sum x st x_i + x_(i+1) <= 1: m rows, m + 1 variables, one slack a row."""
    rows = [{i: 1, i + 1: 1} for i in range(m)]
    return [1] * (m + 1), rows, ["<="] * m, [1] * m, m * ((m + 1) + m + 1)


def test_tableau_over_the_cell_cap_is_refused_before_it_pivots(monkeypatch, tableau_calls):
    m = 1
    while path_program(m)[-1] <= ratlp.TABLEAU_CELL_CAP:
        m += 1
    *program, cells = path_program(m)
    # HiGHS certifies it: the cap only bounds the fallback
    assert ratlp.solve_exact(*program, maximize=True).value == (m + 2) // 2
    assert tableau_calls == []
    with pytest.raises(SizeLimitExceeded) as err:
        ratlp.solve_tableau(*program, maximize=True)
    assert err.value.projected == cells
    # a wrong HiGHS answer fails the certificate and reaches the guard
    edit_highs(monkeypatch, set_x([-1] * (m + 1)))
    with pytest.raises(SizeLimitExceeded) as err:
        ratlp.solve_exact(*program, maximize=True)
    assert err.value.projected == cells
    assert len(tableau_calls) == 2
