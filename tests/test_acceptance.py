"""End-to-end value checks, one per headline claim, with wall-clock budgets.

Each test prints the same pass/fail line the ``fdsrank verify`` command
emits, then asserts it. The module-scoped suite shares enumeration caches
between checks, so each family is swept exactly once per run.
"""

import time

import pytest

from fdsrank.verify import VerifySuite


@pytest.fixture(scope="module")
def suite():
    return VerifySuite(quick=False)


def run_check(suite, method, budget=None):
    t0 = time.perf_counter()
    name, ok, expected, actual = getattr(suite, method)()
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok else "FAIL"
    print(f"{name}: expected {expected}; actual {actual}: {verdict} ({elapsed:.2f}s)")
    assert ok, f"{name}: expected {expected}, got {actual}"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_01_two_level_fixture_values(suite):
    run_check(suite, "check_figure_values", budget=1.0)


def test_02_star_theorem_values(suite):
    run_check(suite, "check_star_theorem", budget=5.0)


def test_03_classification_sweep(suite):
    run_check(suite, "check_classification_sweep", budget=600.0)


def test_04_canonical_invariance(suite):
    run_check(suite, "check_canonical_invariance")


def test_05_average_fixed_points(suite):
    run_check(suite, "check_average_fixed_points")


def test_06_min_fixed_points(suite):
    run_check(suite, "check_min_fixed_points")


def test_07_max_rank_and_periodic_rank(suite):
    run_check(suite, "check_max_rank_periodic")


def test_08_loopfull_formula(suite):
    run_check(suite, "check_loopfull_formula")


def test_09_entropy_values(suite):
    run_check(suite, "check_entropy_values", budget=30.0)


def test_10_bounds_sandwich(suite):
    run_check(suite, "check_bounds_sandwich")


def test_11_fractional_realization(suite):
    run_check(suite, "check_fractional_realization")


def test_12_univariate_baselines(suite):
    run_check(suite, "check_univariate")


def test_13_nilpotency(suite):
    run_check(suite, "check_nilpotency")


def test_14_witness_conformance(suite):
    run_check(suite, "check_witness_conformance")


def test_15_alphabet_monotonicity(suite):
    run_check(suite, "check_alphabet_monotonicity", budget=30.0)


def test_16_nilpotent_sufficiency(suite):
    run_check(suite, "check_nilpotent_sufficiency", budget=5.0)


def test_17_entropy_bracket(suite):
    run_check(suite, "check_entropy_bracket", budget=20.0)
