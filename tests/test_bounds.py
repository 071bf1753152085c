import math
import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import small_digraphs
from fdsrank import fixtures as fx
from fdsrank import bounds, ratlp
from fdsrank.bounds import (
    _entropy_lp,
    _entropy_program,
    _floor_power,
    _integer_pin,
    _source_core,
    entropy_report,
    fix_bounds_report,
    max_code_size,
)
from fdsrank.digraph import Digraph
from fdsrank.enumeration import enumerate_stats, family_size
from fdsrank.errors import SizeLimitExceeded
from fdsrank.invariants import (
    clique_partition_number,
    cycle_packing_number,
    transversal_number,
)


def _pin_mismatches(graphs):
    """Graphs whose integer pin, or whose report, is not the solved program's optimum."""
    for d in graphs:
        core, _peeled = _source_core(d)
        pin = None if core is None else _integer_pin(core)
        optimum = _entropy_lp(d)
        if pin not in (None, optimum) or entropy_report(d).value != optimum:
            yield d


def _pin_sample():
    """Every digraph with n <= 3, the catalog and seeded random 4-7-vertex graphs."""
    graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)] + list(fx.CATALOG.values())
    rng = random.Random(20)
    for _ in range(80):
        n = rng.randint(4, 7)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        density = rng.choice((0.2, 0.35, 0.5))
        graphs.append(Digraph(n, [p for p in pairs if rng.random() < density]))
    return graphs


def _counting_solves(monkeypatch):
    calls = []
    real = ratlp.solve_exact
    monkeypatch.setattr(ratlp, "solve_exact", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


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
        assert (rep.value, rep.method) == (1, "pinned")  # h(core) is h(1) = 1
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
            assert _entropy_lp(d) == full, d

    def test_catalog_programs_are_certified_without_the_tableau(self):
        # solve_exact refuses any program it cannot certify, so an answer
        # here is a certified one
        for d in fx.CATALOG.values():
            assert isinstance(entropy_report(d).value, Fraction)

    def test_nine_core_vertices_are_certified_without_the_tableau(self, monkeypatch):
        # the largest programs under the cap are solved and certified, not
        # refused (the integer pin would answer both without a solve)
        calls = _counting_solves(monkeypatch)
        for d, value in ((fx.directed_cycle(9), 1), (fx.complete(9), 8)):
            assert _entropy_lp(d) == value
        assert len(calls) == 2

    @pytest.mark.parametrize("d, value", [
        (fx.directed_cycle(10), 1), (fx.complete(11), 10),
        (fx.symmetric_cycle(10), 5), (fx.symmetric_cycle(12), 6),
    ], ids=["C10", "K11", "S10", "S12"])
    def test_cores_past_the_cap_are_pinned_when_the_ends_meet(self, monkeypatch, d, value):
        monkeypatch.setattr(ratlp, "solve_exact", None)  # answered without a solve
        start = time.perf_counter()
        rep = entropy_report(d)
        assert time.perf_counter() - start < 1
        assert (rep.value, rep.method) == (value, "exact-dual")

    def test_cores_past_the_cap_are_refused_with_their_size(self, monkeypatch):
        # the odd symmetric cycle's ends differ: nu = n - kappa = 5 < tau = 6
        monkeypatch.setattr(ratlp, "solve_exact", None)  # refused before any solve
        with pytest.raises(SizeLimitExceeded) as err:
            entropy_report(fx.symmetric_cycle(11))
        assert err.value.projected == 11

    @pytest.mark.parametrize("d, value", [
        (fx.C3, 1), (fx.add_loops(fx.K3), 3), (fx.directed_cycle(7), 1), (fx.complete(6), 5),
    ], ids=["C3", "K3o", "C7", "K6"])
    def test_pinned_cores_never_build_the_program(self, monkeypatch, d, value):
        def unbuilt(core):
            raise AssertionError("program built for a pinned core")

        monkeypatch.setattr(bounds, "_entropy_program", unbuilt)
        assert entropy_report(d).value == value

    def test_pinned_label_is_where_the_program_is_a_constant(self):
        # the join classes decide "pinned" exactly where the whole program
        # would fold to a constant, and with the same value
        for d in [d for n in (1, 2, 3) for d in small_digraphs(n)] + list(fx.CATALOG.values()):
            core, _peeled = _source_core(d)
            if core is None:
                continue
            rep = entropy_report(d)
            assert (rep.method == "pinned") == isinstance(_entropy_program(core), Fraction), d
            assert rep.value == _entropy_lp(d), d

    def test_the_pin_is_the_program_optimum(self):
        assert list(_pin_mismatches(_pin_sample())) == []

    def test_a_pin_past_the_lower_end_is_caught(self, monkeypatch):
        monkeypatch.setattr(bounds, "cycle_packing_number", lambda d: cycle_packing_number(d) + 1)
        assert next(_pin_mismatches(_pin_sample()), None) is not None

    def test_no_solve_where_the_ends_meet(self, monkeypatch):
        calls = _counting_solves(monkeypatch)
        for n in (1, 2, 3):
            for d in small_digraphs(n):
                for strict in (False, True):
                    fix_bounds_report(d, 2, strict=strict)
        assert calls == []
        for strict in (False, True):
            fix_bounds_report(fx.C5_SYM, 2, strict=strict)
        assert len(calls) == 1


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

    def test_transversal_and_clique_numbers_are_computed_once(self):
        # strict at q=3 runs the ghost alphabet's loose report too; both, and
        # the entropy pin, read the graph's memoized tau and kappa
        graphs = [fx.C5_SYM, fx.K3, fx.FIG1, Digraph(4, [(1, 2), (2, 3), (3, 2), (3, 4), (4, 3)])]
        for d in graphs:
            fix_bounds_report(d, 3, strict=True)
        for invariant in (transversal_number, clique_partition_number):
            assert invariant.cache_info().misses == len(graphs), invariant.__name__

    def test_the_cycle_packing_number_is_computed_once(self):
        # the packing bounds, the ghost alphabet's report and the entropy pin
        # read one memoized nu of the graph, at every alphabet; it is the core's too
        graphs = [fx.C2_LOOPED, fx.C3, fx.C3_LOOPED, fx.C5_SYM, fx.STAR3]
        for d in graphs:
            for q, strict in [(2, False), (2, True), (3, True)]:
                fix_bounds_report(d, q, strict=strict)
        assert cycle_packing_number.cache_info().misses == len(graphs)

    def test_the_memo_agrees_with_the_uncached_report(self):
        # a first call fills the memo and a second reads it, refusals
        # included: the symmetric 11-cycle's core is past the cap, and its
        # integer ends do not meet
        def outcome(report, d):
            try:
                rep = report(d)
                return rep.value, rep.peeled, rep.method
            except SizeLimitExceeded as exc:
                return "refused", str(exc), exc.projected

        graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)]
        graphs += list(fx.CATALOG.values()) + [fx.symmetric_cycle(11)]
        for d in graphs:
            uncached = outcome(entropy_report.__wrapped__, d)
            assert outcome(entropy_report, d) == outcome(entropy_report, d) == uncached, d
        assert entropy_report.cache_info().misses == len(set(graphs))

    def test_the_core_pin_reads_the_graphs_ends(self):
        # peeling keeps tau, nu and k - kappa: the pin read off the graph is
        # the pin computed on the core, on every graph with n <= 3 and on
        # random graphs with sources
        rng = random.Random(8)
        graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)]
        for _ in range(300):
            n = rng.randint(4, 6)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(2, n + 1)]
            graphs.append(Digraph(n, [p for p in pairs if rng.random() < 0.4]))

        def ends(g):
            return transversal_number(g), cycle_packing_number(g), g.n - clique_partition_number(g)

        for d in graphs:
            core, _peeled = _source_core(d)
            if core is None:
                continue
            assert ends(d) == ends(core), d
            assert _integer_pin(d) == _integer_pin(core), d

    def test_a_graph_past_the_vertex_cap_reads_its_cores_ends(self):
        # 16 sources feed a directed 10-cycle: the graph's invariants are
        # refused at 26 vertices, its core's answer, and their ends meet at 1
        cycle = [(i, i % 10 + 1) for i in range(1, 11)]
        d = Digraph(26, cycle + [(10 + i, 1 + i % 10) for i in range(1, 17)])
        with pytest.raises(SizeLimitExceeded):
            transversal_number(d)
        rep = entropy_report(d)
        assert (rep.value, rep.method, len(rep.peeled)) == (1, "exact-dual", 16)

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
