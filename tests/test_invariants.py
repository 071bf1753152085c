import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import small_digraphs
from fdsrank import fixtures as fx
from fdsrank import invariants
from fdsrank.digraph import Digraph
from fdsrank.errors import LoopsPresent, NotStronglyConnected, SizeLimitExceeded
from fdsrank.invariants import (
    MAX_ENUMERATED_CYCLES,
    blowup,
    clique_partition_number,
    cycle_cover_certificate,
    cycle_packing_number,
    fractional_clique_cover,
    fractional_cycle_packing,
    in_dominating_profile,
    independent_arc_certificate,
    max_cycle_cover,
    max_independent_arcs,
    maximal_cliques,
    nilpotent_sufficiency,
    simple_cycles,
    transversal_number,
)


def digraphs(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            Digraph,
            st.just(n),
            st.sets(
                st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n
            ),
        )
    )


class TestTransversal:
    def test_cycle(self):
        assert transversal_number(fx.C3) == 1

    def test_complete_triangle(self):
        # frozen from the subset oracle: all 8 subsets checked
        assert oracles.brute_feedback_vertex_number(fx.K3) == 2
        assert transversal_number(fx.K3) == 2

    def test_empty(self):
        assert transversal_number(fx.E3) == 0

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            transversal_number(Digraph(30, []))

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_oracle(self, d):
        assert transversal_number(d) == oracles.brute_feedback_vertex_number(d)

    def test_every_three_vertex_graph_matches_the_subset_oracle(self):
        for d in small_digraphs(3):
            assert transversal_number(d) == oracles.brute_feedback_vertex_number(d), d

    @pytest.mark.parametrize("n", range(12, 21))
    def test_loopless_complete_graph(self, n):
        # every 2-cycle needs a vertex, and one vertex left is acyclic; the
        # branch and bound reaches each removed set once, not once per path
        assert transversal_number(fx.complete(n)) == n - 1


class TestCyclePacking:
    def test_looped_cycle(self):
        assert cycle_packing_number(fx.C3_LOOPED) == 3

    def test_complete_triangle(self):
        assert oracles.brute_cycle_packing(fx.K3) == 1
        assert cycle_packing_number(fx.K3) == 1

    def test_empty(self):
        assert cycle_packing_number(fx.E3) == 0

    def test_looped_complete_four(self):
        # 24 simple cycles; the four loops are the only packing of size 4
        k4 = fx.add_loops(fx.complete(4))
        assert oracles.brute_cycle_packing(k4) == 4
        assert cycle_packing_number(k4) == 4

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, d):
        assert cycle_packing_number(d) == oracles.brute_cycle_packing(d)

    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_at_most_transversal(self, d):
        assert cycle_packing_number(d) <= transversal_number(d)


def outcome(fn, d):
    """``fn(d)``, or the message and projected size of its refusal."""
    try:
        return fn(d)
    except SizeLimitExceeded as exc:
        return "refused", str(exc), exc.projected


class TestMemo:
    @pytest.mark.parametrize("invariant", [transversal_number, clique_partition_number,
                                           cycle_packing_number], ids=lambda f: f.__name__)
    def test_the_memo_agrees_with_the_uncached_invariant(self, invariant):
        # a first call fills the memo and a second reads it; a graph past the
        # vertex cap is refused both times alike
        graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)]
        graphs += list(fx.CATALOG.values()) + [Digraph(25, [])]
        for d in graphs:
            uncached = outcome(invariant.__wrapped__, d)
            assert outcome(invariant, d) == outcome(invariant, d) == uncached, d
        assert invariant.cache_info().misses == len(set(graphs))

    def test_a_refusal_is_kept_and_raised_again_equal(self):
        # nu on the loopless K24 gives up after enumerating 100,001 cycles;
        # the memo raises an equal refusal again without enumerating them
        k24 = fx.complete(24)
        refusals = []
        for _ in range(2):
            with pytest.raises(SizeLimitExceeded) as err:
                cycle_packing_number(k24)
            refusals.append(err.value)
        first, again = refusals
        assert again is not first
        assert again.projected == first.projected == MAX_ENUMERATED_CYCLES + 1
        assert str(again) == str(first) == f"more than {MAX_ENUMERATED_CYCLES} simple cycles"
        assert cycle_packing_number.cache_info()[:2] == (1, 1)  # (hits, misses)


class TestCliquePartition:
    def test_complete_triangle(self):
        assert clique_partition_number(fx.K3) == 1

    def test_empty(self):
        assert clique_partition_number(fx.E3) == 3

    def test_symmetric_five_cycle(self):
        assert oracles.brute_clique_partition(fx.C5_SYM) == 3
        assert clique_partition_number(fx.C5_SYM) == 3

    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, d):
        assert clique_partition_number(d) == oracles.brute_clique_partition(d)


class TestFractional:
    def test_triangle_packing(self):
        assert fractional_cycle_packing(fx.K3) == Fraction(3, 2)

    def test_cycle(self):
        assert fractional_cycle_packing(fx.C3) == 1

    def test_symmetric_five_cycle_packing(self):
        assert fractional_cycle_packing(fx.C5_SYM) == Fraction(5, 2)

    def test_symmetric_five_cycle_cover(self):
        assert fractional_clique_cover(fx.C5_SYM) == Fraction(5, 2)

    def test_cover_triangle(self):
        assert fractional_clique_cover(fx.K3) == 1

    def test_cover_empty(self):
        assert fractional_clique_cover(fx.E3) == 3

    def test_packing_refuses_past_the_column_cap(self, monkeypatch):
        # the triangle's cycles cover four vertex sets: 12, 13, 23 and 123
        monkeypatch.setattr(invariants, "EXACT_LP_COLUMN_CAP", 2)
        with pytest.raises(SizeLimitExceeded) as err:
            fractional_cycle_packing(fx.K3)
        assert err.value.projected == 4

    @given(digraphs(max_n=3))
    @settings(max_examples=30, deadline=None)
    def test_relaxation_brackets(self, d):
        assert fractional_cycle_packing(d) >= cycle_packing_number(d)
        assert fractional_clique_cover(d) <= clique_partition_number(d)


class TestMatchings:
    def test_cycle_arcs_all_independent(self):
        assert max_independent_arcs(fx.C3) == 3

    def test_single_arc(self):
        assert max_independent_arcs(fx.P1) == 1

    def test_star(self):
        assert oracles.brute_max_independent_arcs(fx.STAR3) == 3
        assert max_independent_arcs(fx.STAR3) == 3
        cert = independent_arc_certificate(fx.STAR3)
        assert len(cert) == 3
        assert len({u for u, _ in cert}) == 3 and len({v for _, v in cert}) == 3

    def test_cover_cycle(self):
        assert max_cycle_cover(fx.C3) == 3

    def test_cover_star(self):
        assert max_cycle_cover(fx.STAR3) == 3
        assert cycle_cover_certificate(fx.STAR3) == [(2,), (3,), (4,)]

    def test_cover_empty(self):
        assert max_cycle_cover(fx.E3) == 0

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_independent_arcs_matches_oracle(self, d):
        assert max_independent_arcs(d) == oracles.brute_max_independent_arcs(d)

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_cycle_cover_matches_oracle(self, d):
        assert max_cycle_cover(d) == oracles.brute_max_cycle_cover(d)

    @given(digraphs())
    @settings(max_examples=30, deadline=None)
    def test_certificates_are_valid(self, d):
        cert = independent_arc_certificate(d)
        assert len(cert) == max_independent_arcs(d)
        assert len({u for u, _ in cert}) == len(cert)
        assert len({v for _, v in cert}) == len(cert)
        cycles = cycle_cover_certificate(d)
        covered = [v for c in cycles for v in c]
        assert len(covered) == len(set(covered)) == max_cycle_cover(d)
        for cyc in cycles:
            for i, v in enumerate(cyc):
                assert (cyc[i - 1], v) in d.arcs


class TestBlowup:
    def test_loop_doubles_to_complete(self):
        b = blowup(fx.L1, 2)
        assert b.n == 2 and b.arcs == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

    def test_identity(self):
        assert blowup(fx.C3, 1) == fx.C3

    def test_fractional_realization(self):
        assert cycle_packing_number(blowup(fx.C5_SYM, 2)) == 5

    def test_composition(self):
        assert blowup(blowup(fx.P1, 2), 3) == blowup(fx.P1, 6)


class TestInDominating:
    def test_isolated_vertex(self):
        assert in_dominating_profile(Digraph(1, [])) == (1, 1)

    def test_single_arc(self):
        assert in_dominating_profile(fx.P1) == (0, 2, 1)

    def test_empty_graph_binomials(self):
        assert in_dominating_profile(fx.E3) == (1, 3, 3, 1)

    def test_rejects_loops(self):
        with pytest.raises(LoopsPresent):
            in_dominating_profile(fx.L1)

    @given(digraphs(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, d):
        if not d.is_loopless():
            d = Digraph(d.n, {(u, v) for u, v in d.arcs if u != v})
        profile = in_dominating_profile(d)
        assert profile == oracles.brute_in_dominating_profile(d)
        assert sum(profile) <= 2 ** d.n
        assert profile[d.n] == 1


class TestNilpotentSufficiency:
    def test_loop_condition(self):
        d = Digraph(3, list(fx.C3.arcs) + [(1, 1)])
        assert nilpotent_sufficiency(d) == "loop"

    def test_symmetric_condition(self):
        assert nilpotent_sufficiency(fx.K3) == "symmetric"

    def test_cycle_inconclusive(self):
        assert nilpotent_sufficiency(fx.C3) == "none"

    def test_single_looped_vertex_inconclusive(self):
        assert nilpotent_sufficiency(fx.L1) == "none"

    def test_two_cycle_k2_excluded(self):
        assert nilpotent_sufficiency(Digraph(2, [(1, 2), (2, 1)])) == "none"

    def test_primitive_spanning(self):
        # dropping 3->2 leaves the chorded triangle, which mixes cycle
        # lengths 2 and 3 and stays strongly connected
        d = Digraph(3, [(1, 2), (2, 3), (3, 1), (2, 1), (3, 2)])
        assert nilpotent_sufficiency(d) == "primitive-strict-spanning"

    def test_chorded_triangle_itself_inconclusive(self):
        # primitive itself, but no proper spanning subgraph is
        d = Digraph(3, [(1, 2), (2, 3), (3, 1), (2, 1)])
        assert nilpotent_sufficiency(d) == "none"

    def test_requires_strong(self):
        with pytest.raises(NotStronglyConnected):
            nilpotent_sufficiency(fx.P1)


def test_simple_cycles_match_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        d = Digraph(n, [p for p in pairs if rng.random() < 0.5])
        assert sorted(simple_cycles(d)) == sorted(oracles.brute_simple_cycles(d))


def test_maximal_cliques_cover_vertices():
    cliques = maximal_cliques(fx.C5_SYM)
    covered = 0
    for c in cliques:
        covered |= c
    assert covered == (1 << 5) - 1
