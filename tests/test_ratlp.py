from fractions import Fraction

from fdsrank import ratlp


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


def test_float_path_matches_exact():
    c = [5, 4, 3]
    rows = [[2, 3, 1], [4, 1, 2], [3, 4, 2]]
    senses = ["<="] * 3
    rhs = [5, 11, 8]
    exact = ratlp.solve_exact(c, rows, senses, rhs, maximize=True)
    fl = ratlp.solve_float(c, rows, senses, rhs, maximize=True)
    assert exact.status == fl.status == ratlp.OPTIMAL
    assert abs(float(exact.value) - fl.value) < 1e-9
    assert exact.value == 13


def test_fractional_optimum_is_exact():
    # optimum at x = y = 1/3
    res = ratlp.solve_exact(
        [1, 1], [[2, 1], [1, 2]], ["<=", "<="], [1, 1], maximize=True
    )
    assert res.value == Fraction(2, 3)
    assert res.x == [Fraction(1, 3), Fraction(1, 3)]


def test_float_solver_stopping_early_is_not_infeasible(monkeypatch):
    from scipy import optimize

    def iteration_limit(*args, **kwargs):
        return optimize.OptimizeResult(status=1, success=False, message="iteration limit")

    monkeypatch.setattr(optimize, "linprog", iteration_limit)
    res = ratlp.solve_float([1], [[1]], ["<="], [1], maximize=True)
    assert res.status == ratlp.FAILED != ratlp.INFEASIBLE
