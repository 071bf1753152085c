from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fdsrank import ratlp
from fdsrank.errors import SizeLimitExceeded


def refusal(program, maximize):
    """The ``SizeLimitExceeded`` that ``solve_exact`` raises on ``program``."""
    c, rows, senses, rhs = program
    with pytest.raises(SizeLimitExceeded) as err:
        ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize)
    assert err.value.projected == len(rows) * len(c)
    return err.value


def test_basic_maximization():
    # max x+y st x+2y <= 4, 3x+y <= 6
    res = ratlp.solve_exact([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], maximize=True)
    assert res.value == Fraction(14, 5)


def test_equality_and_phase_one():
    # min x+y st x+y >= 3, x = 1
    res = ratlp.solve_exact(
        [1, 1], [[1, 1], [1, 0]], [">=", "="], [3, 1], maximize=False
    )
    assert res.value == 3
    assert res.x[0] == 1 and res.x[1] == 2


def test_infeasible():
    program = [1], [[1], [1]], ["<=", ">="], [1, 2]
    assert oracles.brute_lp_optimum(*program, maximize=False) is None
    assert "status 2" in str(refusal(program, maximize=False))


def test_unbounded():
    program = [1], [[-1]], ["<="], [0]
    assert oracles.brute_lp_optimum(*program, maximize=True) is None
    assert "status 3" in str(refusal(program, maximize=True))


def test_sparse_rows():
    # middle variable only hurts the objective, so it stays at zero
    res = ratlp.solve_exact([1, -1, 1], [{0: 1, 2: 1}], ["<="], [2], maximize=True)
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
    assert res.value == 10


def test_negative_rhs_normalization():
    # x >= 2 expressed as -x <= -2
    res = ratlp.solve_exact([1], [[-1]], ["<="], [-2], maximize=False)
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
def test_certified_answer_matches_the_oracle(program):
    c, rows, senses, rhs, maximize = program
    want = oracles.brute_lp_optimum(c, rows, senses, rhs, maximize)
    if want is None:
        refusal((c, rows, senses, rhs), maximize)
        return
    got = ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize)
    assert got.value == want
    assert all(v >= 0 for v in got.x)
    assert sum(a * v for a, v in zip(c, got.x)) == got.value
    for row, s, b in zip(rows, senses, rhs):
        ax = sum(a * v for a, v in zip(row, got.x))
        assert {"<=": ax <= b, ">=": ax >= b, "=": ax == b}[s]


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
def test_certificate_rejects_a_wrong_answer(monkeypatch, case):
    (c, rows, senses, rhs, maximize), edit, optimum = WRONG_ANSWERS[case]
    assert ratlp.solve_exact(c, rows, senses, rhs, maximize=maximize).value == optimum
    edit_highs(monkeypatch, edit)
    assert "certificate failed" in str(refusal((c, rows, senses, rhs), maximize))


@pytest.mark.parametrize("status", [1, 2, 3, 4])
def test_highs_without_an_optimum_is_refused(monkeypatch, status):
    # iteration limit, infeasible, unbounded, numerical trouble: none is
    # passed through as a verdict, even on a feasible bounded program
    from scipy import optimize

    def no_optimum(*args, **kwargs):
        return optimize.OptimizeResult(status=status, success=False, message="patched")

    monkeypatch.setattr(optimize, "linprog", no_optimum)
    program = [1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6]
    assert f"status {status}" in str(refusal(program, maximize=True))


def test_coefficients_past_the_float_range_are_refused():
    program = [1], [[10 ** 400]], ["<="], [10 ** 400]
    assert "float range" in str(refusal(program, maximize=True))


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
