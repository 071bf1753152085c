import math
import random
from fractions import Fraction

import pytest

import oracles
from conftest import small_digraphs
from fdsrank import fixtures as fx
from fdsrank import ratlp
from fdsrank.bounds import (
    _floor_power,
    entropy_report,
    fix_bounds_report,
    max_code_size,
)
from fdsrank.digraph import Digraph
from fdsrank.enumeration import enumerate_stats, family_size
from fdsrank.errors import SizeLimitExceeded
from fdsrank.invariants import transversal_number


class TestMaxCodeSize:
    def test_even_weight_code(self):
        assert oracles.brute_max_code_size(3, 2, 2) == 4
        assert max_code_size(3, 2, 2) == 4

    def test_repetition_code(self):
        assert max_code_size(3, 2, 3) == 2

    def test_whole_space_at_distance_one(self):
        assert max_code_size(2, 3, 1) == 9

    def test_infinite_distance(self):
        assert max_code_size(3, 2, math.inf) == 1
        assert max_code_size(3, 2, None) == 1

    def test_distance_past_length(self):
        assert max_code_size(2, 2, 5) == 1

    def test_matches_oracle(self):
        # spaces kept small: the oracle enumerates word subsets top down
        for n, q, dist in ((2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 3, 2), (2, 3, 1)):
            assert max_code_size(n, q, dist) == oracles.brute_max_code_size(n, q, dist)

    def test_known_hypercube_value(self):
        # distance-2 codes halve the space; at n=11 a clique search would
        # recurse 2^10 levels deep
        assert max_code_size(5, 2, 2) == 16
        assert max_code_size(11, 2, 2) == 2 ** 10

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            max_code_size(20, 2, 3)


class TestEntropy:
    def test_odd_symmetric_cycle(self):
        rep = entropy_report(fx.C5_SYM)
        assert rep.value == Fraction(5, 2)
        assert not rep.degenerate

    def test_directed_triangle(self):
        assert entropy_report(fx.C3).value == 1

    def test_sources_peel_to_zero(self):
        rep = entropy_report(fx.E3)
        assert rep.value == 0
        assert rep.degenerate and rep.peeled == (1, 2, 3)

    def test_partial_peel(self):
        d = Digraph(3, [(1, 1)])
        rep = entropy_report(d)
        assert rep.value == 1
        assert set(rep.peeled) == {2, 3}

    def test_triangle_with_loops(self):
        assert entropy_report(fx.add_loops(fx.K3)).value == 3

    def test_never_exceeds_feedback_on_fixtures(self):
        for name, d in fx.CATALOG.items():
            h = entropy_report(d).value
            assert float(h) <= transversal_number(d) + 1e-9, name

    def test_elemental_rows_give_the_full_program_value(self):
        # Shannon's cone from its elemental inequalities is the same cone, so
        # the package program and the one with every row have one optimum
        rng = random.Random(11)
        graphs = list(fx.CATALOG.values())
        for _ in range(40):
            n = rng.choice((4, 5))
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
            graphs.append(Digraph(n, [p for p in pairs if rng.random() < 0.4]))
        for d in graphs:
            program = oracles.full_entropy_program(d)
            full = 0 if program is None else ratlp.solve_exact(*program, maximize=True).value
            assert entropy_report(d).value == full, d

    def test_catalog_programs_are_certified_without_the_tableau(self):
        # solve_exact refuses any program it cannot certify, so an answer
        # here is a certified one
        for d in fx.CATALOG.values():
            assert isinstance(entropy_report(d).value, Fraction)

    def test_nine_core_vertices_are_certified_without_the_tableau(self):
        # the largest programs under the cap are certified, not refused
        for d, value in ((fx.directed_cycle(9), 1), (fx.complete(9), 8)):
            rep = entropy_report(d)
            assert (rep.value, rep.method) == (value, "exact-dual")

    def test_cores_past_the_cap_are_refused_with_their_size(self, monkeypatch):
        monkeypatch.setattr(ratlp, "solve_exact", None)  # refused before any solve
        for k in (10, 11, 12):
            with pytest.raises(SizeLimitExceeded) as err:
                entropy_report(fx.symmetric_cycle(k))
            assert err.value.projected == k


class TestFloorPower:
    def test_exact_halves(self):
        assert _floor_power(2, Fraction(5, 2)) == 5
        assert _floor_power(2, Fraction(3)) == 8
        assert _floor_power(3, Fraction(1, 2)) == 1
        assert _floor_power(2, Fraction(0)) == 1


class TestFixBoundsReport:
    def test_directed_triangle_tight_at_two(self):
        rep = fix_bounds_report(fx.C3, 2)
        assert rep.upper["girth"] == 2
        assert rep.upper["feedback"] == 2
        assert rep.lower["packing"] == 2
        assert rep.best_lower == rep.best_upper == 2
        assert rep.consistent

    def test_triangle_tight_at_four(self):
        rep = fix_bounds_report(fx.K3, 2)
        assert rep.lower["clique_cover"] == 4
        assert rep.lower["code"] == 4
        assert rep.upper["feedback"] == 4
        assert rep.best_lower == rep.best_upper == 4

    def test_symmetric_five_cycle(self):
        rep = fix_bounds_report(fx.C5_SYM, 2)
        assert rep.upper["entropy"] == 5  # floor(2^(5/2))
        assert rep.best_lower == 4

    def test_sandwich_on_all_two_vertex_graphs(self):
        for d in small_digraphs(2):
            rep = fix_bounds_report(d, 2)
            maxfix = enumerate_stats(d, 2, strict=False).fixed_points.maximum
            assert rep.best_lower <= maxfix <= rep.best_upper, d

    def test_loopfull_lower_is_exact_for_looped_graphs(self):
        d = fx.add_loops(fx.P1)
        rep = fix_bounds_report(d, 2)
        assert rep.lower["loopfull"] == 3
        maxfix = enumerate_stats(d, 2, strict=True).fixed_points.maximum
        assert maxfix == 3

    def test_strict_ghost_bound(self):
        rep = fix_bounds_report(fx.K3, 3, strict=True)
        assert "ghost" in rep.lower
        assert rep.lower["ghost"] == 4  # loose bracket at q=2

    def test_strict_packing_plus_one(self):
        rep = fix_bounds_report(fx.C3_LOOPED, 2, strict=True)
        assert rep.lower["packing_plus_one"] == 4
        maxfix = enumerate_stats(fx.C3_LOOPED, 2, strict=True).fixed_points.maximum
        assert rep.best_lower <= maxfix <= rep.best_upper

    def test_strict_sandwich_two_vertex(self):
        checked = 0
        for d in small_digraphs(2):
            for q in (2, 3):
                if family_size(d, q, True) > 10 ** 7:
                    continue
                rep = fix_bounds_report(d, q, strict=True)
                maxfix = enumerate_stats(d, q, strict=True).fixed_points.maximum
                assert rep.best_lower <= maxfix <= rep.best_upper, (d, q)
                checked += 1
        assert checked > 25

    def test_sandwich_on_random_four_vertex_graphs(self):
        rng = random.Random(4)
        pairs = [(u, v) for u in range(1, 5) for v in range(1, 5)]
        checked = 0
        for _ in range(100):
            density = rng.choice((0.2, 0.35, 0.5))
            d = Digraph(4, [pair for pair in pairs if rng.random() < density])
            for strict in (False, True):
                if family_size(d, 2, strict) > 10 ** 6:
                    continue
                rep = fix_bounds_report(d, 2, strict=strict)
                maxfix = enumerate_stats(d, 2, strict=strict).fixed_points.maximum
                assert rep.best_lower <= maxfix <= rep.best_upper, (d, strict)
                checked += 1
        assert checked > 100

    def test_json_stable_keys(self):
        import json

        a = json.dumps(fix_bounds_report(fx.K3, 2).to_json_dict(), sort_keys=True)
        b = json.dumps(fix_bounds_report(fx.K3, 2).to_json_dict(), sort_keys=True)
        assert a == b
