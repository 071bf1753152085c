import dataclasses
import itertools
import math
import random
import time

import oracles
import pytest
from conftest import small_digraphs

from fdsrank import fixtures as fx
from fdsrank.canonical import (
    CONJUNCTIVE_SOURCE_CAP,
    PRODUCT_BOUND_SINK_CAP,
    CanonicalGraph,
    absolute_minrank_bounds,
    canonicalize,
    chain_bound,
    conjunctive_rank_of_canonical,
    format_canonical,
    independent_set_bound,
    minrank_classify,
    product_bound,
    tightness_classify,
)
from fdsrank.digraph import Digraph, parse_digraph
from fdsrank.constructions import conjunctive_rank
from fdsrank.enumeration import enumerate_stats, minrank_exact
from fdsrank.errors import SizeLimitExceeded


def same_canonical_shape(c1, c2):
    """Same source and sink counts, and isomorphic as digraphs."""
    return (len(c1.sources), len(c1.sinks)) == (len(c2.sources), len(c2.sinks)) and \
        oracles.brute_isomorphic(c1.as_digraph(), c2.as_digraph())


def sink_inputs_by_original(c):
    ins = c.sink_inputs()
    return {
        c.provenance[b][0]: frozenset(c.provenance[a][0] for a in ins[b]) for b in c.sinks
    }


class TestCanonicalize:
    def test_cycle_splits_into_arcs(self):
        c = canonicalize(fx.C3)
        assert len(c.sources) == 3 and len(c.sinks) == 3 and len(c.arcs) == 3
        # three disjoint source->sink pairs
        tails = {a for a, _ in c.arcs}
        heads = {b for _, b in c.arcs}
        assert len(tails) == 3 and len(heads) == 3

    def test_star_shape(self):
        c = canonicalize(fx.STAR3)
        assert len(c.sources) == 4 and len(c.sinks) == 3
        by_orig = sink_inputs_by_original(c)
        assert by_orig == {2: frozenset({1, 2}), 3: frozenset({1, 3}), 4: frozenset({1, 4})}

    def test_empty_graph_collapses(self):
        assert canonicalize(fx.E3).is_empty()

    def test_bipartite_fixture_is_already_canonical(self):
        c = canonicalize(fx.FIG1)
        assert oracles.brute_isomorphic(c.as_digraph(), fx.FIG1)

    def test_all_equal_inputs_collapse_to_single_arc(self):
        k3_loops = fx.add_loops(fx.K3)
        c = canonicalize(k3_loops)
        assert len(c.sources) == 1 and len(c.sinks) == 1 and len(c.arcs) == 1

    def test_triple_duplicates_keep_smallest(self):
        d = Digraph(3, [(1, 2), (2, 2), (1, 3), (2, 3), (1, 1), (2, 1)])
        # every vertex has in-neighborhood {1, 2}
        c = canonicalize(d)
        assert len(c.sinks) == 1
        assert c.provenance[c.sinks[0]][0] == 1

    def test_idempotent_on_fixtures(self):
        for name, d in fx.CATALOG.items():
            c = canonicalize(d)
            again = canonicalize(c.as_digraph())
            assert same_canonical_shape(c, again), name

    def test_provenance_covers_all_vertices(self):
        c = canonicalize(fx.STAR3)
        assert set(c.provenance) == set(c.sources) | set(c.sinks)
        assert all(copy in (0, 1) for _, copy in c.provenance.values())

    def test_serialization_carries_provenance(self):
        text = format_canonical(canonicalize(fx.STAR3))
        assert "# provenance" in text
        # round-trips as a plain digraph (provenance lines are comments)
        parse_digraph(text)


class TestSinkBounds:
    def test_independent_set_bound_two_level_fixture(self):
        assert independent_set_bound(canonicalize(fx.FIG1)) == 8

    def test_independent_set_bound_star(self):
        assert independent_set_bound(canonicalize(fx.STAR3)) == 4

    def test_independent_set_bound_empty(self):
        assert independent_set_bound(canonicalize(fx.E3)) == 1

    def test_chain_bound_star(self):
        assert chain_bound(canonicalize(fx.STAR3)) == 4

    def test_chain_bound_two_level_fixture(self):
        assert chain_bound(canonicalize(fx.FIG1)) == 4

    def test_chain_bound_empty(self):
        assert chain_bound(canonicalize(fx.E3)) == 1

    def test_product_bound_two_level_fixture(self):
        assert product_bound(canonicalize(fx.FIG1)) == 6

    def test_product_bound_star(self):
        assert product_bound(canonicalize(fx.STAR3)) == 4

    def test_product_bound_single_arc(self):
        assert product_bound(canonicalize(fx.P1)) == 2

    def test_bounds_against_count_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 3)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
            d = Digraph(n, [p for p in pairs if rng.random() < 0.5])
            c = canonicalize(d)
            ins = c.sink_inputs()
            edges = [
                (b1, b2)
                for b1, b2 in itertools.combinations(c.sinks, 2)
                if ins[b1] & ins[b2]
            ]
            assert independent_set_bound(c) == oracles.brute_independent_set_count(
                c.sinks, edges
            )
            assert chain_bound(c) == oracles.brute_chain_bound(dict(ins))

    def test_product_bound_matches_fixpoint_oracle(self):
        for n in (1, 2, 3):
            for d in small_digraphs(n):
                c = canonicalize(d)
                assert product_bound(c) == oracles.brute_product_bound(c.sink_inputs()), d


class TestBoundChain:
    """chain <= product <= enumerated strict min rank <= both upper bounds.

    The conjunctive rank and the independent-set count are incomparable with
    each other: on {12,21,22,23,31,33} the reduction keeps two conflicting
    sinks (3 independent sets) while the AND network realizes all 4 output
    patterns. Only the minimum rank sits below both.
    """

    def test_on_small_canonical_graphs(self):
        rng = random.Random(23)
        seen = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
            d = Digraph(n, [p for p in pairs if rng.random() < 0.5])
            c = canonicalize(d)
            if len(c.sinks) > 4 or c.is_empty():
                continue
            seen += 1
            lo = chain_bound(c)
            lp = product_bound(c)
            mr = enumerate_stats(c.as_digraph(), 2, strict=True).rank.minimum
            crank = conjunctive_rank_of_canonical(c)
            hi = independent_set_bound(c)
            assert lo <= lp <= mr <= crank, (d, lo, lp, mr, crank)
            assert mr <= hi, (d, mr, hi)
        assert seen > 10

    def test_conjunctive_rank_can_exceed_independent_set_count(self):
        d = Digraph(3, [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)])
        c = canonicalize(d)
        assert conjunctive_rank_of_canonical(c) == 4
        assert independent_set_bound(c) == 3


def random_canonical(rng, max_side=3):
    a, b = rng.randint(0, max_side), rng.randint(0, max_side)
    arcs = [(s, a + t) for s in range(1, a + 1) for t in range(1, b + 1) if rng.random() < 0.5]
    return CanonicalGraph(
        sources=tuple(range(1, a + 1)),
        sinks=tuple(range(a + 1, a + b + 1)),
        arcs=frozenset(arcs),
        provenance={v: (v, int(v > a)) for v in range(1, a + b + 1)},
    )


def test_conjunctive_rank_counts_distinct_unions():
    # the distinct unions of sink in-neighbourhoods, against the walk over
    # every source set, on 2000 seeded canonical graphs of up to 10 a side
    rng = random.Random(2024)
    for _ in range(2000):
        c = random_canonical(rng, max_side=rng.choice((3, 6, 10)))
        expected = oracles.brute_conjunctive_rank(c.sources, c.sink_inputs())
        assert conjunctive_rank_of_canonical(c) == expected, c.arcs
        assert math.prod(p._conjunctive_rank for p in c.pieces) == expected


def disjoint_union(c1, c2):
    """Sources of c1, sources of c2, sinks of c1, sinks of c2, renumbered from 1."""
    order = [(1, v) for v in c1.sources] + [(2, v) for v in c2.sources]
    n_sources = len(order)
    order += [(1, v) for v in c1.sinks] + [(2, v) for v in c2.sinks]
    new = {key: i for i, key in enumerate(order, start=1)}
    return CanonicalGraph(
        sources=tuple(range(1, n_sources + 1)),
        sinks=tuple(range(n_sources + 1, len(order) + 1)),
        arcs=frozenset(
            (new[k, u], new[k, v]) for k, c in ((1, c1), (2, c2)) for u, v in c.arcs
        ),
        provenance={i: (i, int(i > n_sources)) for i in new.values()},
    )


def zigzag(k):
    """Sink i reads sources i and i + 1: one component of k + 1 sources and k sinks."""
    return Digraph(2 * k + 1, [(i + s, k + 1 + i) for i in range(1, k + 1) for s in (0, 1)])


def pairs_and_triples(n_triples):
    """Six sinks; one source per pair of sinks, then ``n_triples`` sources per triple."""
    groups = list(itertools.combinations(range(6), 2))
    groups += list(itertools.combinations(range(6), 3))[:n_triples]
    first_sink = len(groups) + 1
    return Digraph(len(groups) + 6,
                   [(a, first_sink + b) for a, g in enumerate(groups, start=1) for b in g])


class TestComponents:
    """The bounds multiply over weak components, which ``pieces`` splits off."""

    def test_bounds_of_a_disjoint_union_are_products(self):
        rng = random.Random(71)
        for _ in range(300):
            c1, c2 = random_canonical(rng), random_canonical(rng)
            union = disjoint_union(c1, c2)
            for fn in (product_bound, independent_set_bound, conjunctive_rank_of_canonical):
                assert fn(union) == fn(c1) * fn(c2), (fn.__name__, c1.arcs, c2.arcs)
            # a chain runs through the components one after another
            assert chain_bound(union) - 1 == chain_bound(c1) - 1 + chain_bound(c2) - 1

    def test_empty_canonical_graph_has_no_pieces(self):
        c = canonicalize(fx.E3)
        assert c.is_empty() and c.pieces == ()
        assert product_bound(c) == conjunctive_rank_of_canonical(c) == 1

    def test_product_bound_cap_is_per_component(self):
        arcs21 = Digraph(42, [(2 * i + 1, 2 * i + 2) for i in range(21)])
        assert product_bound(canonicalize(arcs21)) == 2 ** 21
        assert chain_bound(canonicalize(arcs21)) == 22
        assert absolute_minrank_bounds(arcs21).lower == 2 ** 21
        chain = zigzag(21)
        for bound in (product_bound, chain_bound):
            with pytest.raises(SizeLimitExceeded) as err:
                bound(canonicalize(chain))
            assert err.value.projected == 21

    def test_product_bound_has_its_own_lower_cap(self):
        # the product bound costs about 3^k in k sinks, the chain bound 2^k:
        # one component one sink past the product cap still has a chain
        k = PRODUCT_BOUND_SINK_CAP + 1
        c = canonicalize(zigzag(k))
        with pytest.raises(SizeLimitExceeded) as err:
            product_bound(c)
        assert err.value.projected == k
        assert chain_bound(c) == k + 1

    def test_conjunctive_rank_is_refused_past_its_source_cap(self):
        # 31 sources in one component: 2^31 patterns, about 45 minutes uncapped
        d = zigzag(30)
        start = time.perf_counter()
        for call in (lambda: conjunctive_rank_of_canonical(canonicalize(d)),
                     lambda: conjunctive_rank(d)):
            with pytest.raises(SizeLimitExceeded) as err:
                call()
            assert err.value.projected == 31
        assert time.perf_counter() - start < 1
        # the cap is per component: two components of 10 sources each answer
        c = canonicalize(zigzag(9))
        assert 2 * len(c.sources) > CONJUNCTIVE_SOURCE_CAP
        assert conjunctive_rank_of_canonical(disjoint_union(c, c)) == \
            conjunctive_rank_of_canonical(c) ** 2

    def test_pieces_partition_the_graph(self):
        rng = random.Random(72)
        for _ in range(100):
            c = disjoint_union(random_canonical(rng), random_canonical(rng))
            pieces = c.pieces
            assert sum(len(p.sources) for p in pieces) == len(c.sources)
            assert sum(len(p.sinks) for p in pieces) == len(c.sinks)
            assert sum(len(p.arcs) for p in pieces) == len(c.arcs)
            assert all(not p.is_empty() for p in pieces)


class TestMemo:
    BOUNDS = (chain_bound, independent_set_bound, product_bound, conjunctive_rank_of_canonical)

    def test_the_memo_agrees_with_the_uncached_reduction(self):
        # the shared canonical graph, and the bounds its pieces hold, equal a
        # fresh reduction's on every digraph with n <= 3 and on the catalog
        graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)] + list(fx.CATALOG.values())
        for d in graphs:
            c, fresh = canonicalize(d), canonicalize.__wrapped__(d)
            assert canonicalize(d) is c and fresh is not c
            assert (c.sources, c.sinks, c.arcs, c.provenance) == \
                (fresh.sources, fresh.sinks, fresh.arcs, fresh.provenance), d
            assert [bound(c) for bound in self.BOUNDS] == [bound(fresh) for bound in self.BOUNDS]
        assert canonicalize.cache_info().misses == len(set(graphs))

    def test_a_shared_canonical_graph_cannot_be_changed(self):
        c = canonicalize(fx.C3)  # three pieces
        assert isinstance(c.pieces, tuple) and len(c.pieces) == 3
        for g in (c, *c.pieces):
            with pytest.raises(TypeError):
                g.provenance[1] = (9, 0)
            for name in ("pieces", "provenance", "_product"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(g, name, None)
        assert dict(c.provenance) == dict(canonicalize.__wrapped__(fx.C3).provenance)


class TestTightness:
    def test_star_is_tight_with_isomorphic_witness(self):
        verdict = tightness_classify(canonicalize(fx.STAR3))
        assert verdict.tight
        assert oracles.brute_isomorphic(verdict.witness, fx.STAR3)

    def test_two_level_fixture_not_tight(self):
        verdict = tightness_classify(canonicalize(fx.FIG1))
        assert not verdict.tight
        assert (verdict.lower, verdict.upper) == (4, 8)

    def test_triangle_not_tight(self):
        verdict = tightness_classify(canonicalize(fx.K3))
        assert not verdict.tight
        assert (verdict.lower, verdict.upper) == (3, 4)

    def test_witness_canonicalizes_back(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(80):
            n = rng.randint(1, 3)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
            d = Digraph(n, [p for p in pairs if rng.random() < 0.5])
            c = canonicalize(d)
            verdict = tightness_classify(c)
            if verdict.tight and verdict.witness is not None and not c.is_empty():
                hits += 1
                assert same_canonical_shape(canonicalize(verdict.witness), c)
        assert hits > 5


class TestClassification:
    def test_examples(self):
        assert minrank_classify(fx.E3) == "one"
        assert minrank_classify(Digraph(3, [(1, 2), (1, 3)])) == "two"
        assert minrank_classify(fx.C3) == "full"
        assert minrank_classify(fx.K3) == "other"

    def test_looped_vertex(self):
        assert minrank_classify(fx.L1) == "two"


class TestAbsoluteBounds:
    def test_star(self):
        b = absolute_minrank_bounds(fx.STAR3)
        assert (b.lower, b.upper, b.exact) == (4, 4, True)
        assert b.stabilization_q == (fx.STAR3.n + 1) * fx.STAR3.m

    def test_two_level_fixture(self):
        b = absolute_minrank_bounds(fx.FIG1)
        assert (b.lower, b.upper, b.exact) == (6, 7, False)
        assert b.stabilization_q == 8 * 6

    def test_empty(self):
        b = absolute_minrank_bounds(fx.E3)
        assert (b.lower, b.upper, b.stabilization_q, b.exact) == (1, 1, 2, True)

    def test_cycle_splits_into_components(self):
        # the canonical double of the 3-cycle is three disjoint source-sink arcs
        b = absolute_minrank_bounds(fx.C3)
        assert (b.lower, b.upper, b.exact) == (8, 8, True)
        assert minrank_exact(fx.C3, 2) == minrank_exact(fx.C3, 3) == 8

    def test_lower_end_falls_back_to_the_chain_bound(self):
        # 17 sinks in one component: the product bound is refused, the chain answers
        c = canonicalize(zigzag(17))
        with pytest.raises(SizeLimitExceeded):
            product_bound(c)
        b = absolute_minrank_bounds(zigzag(17))
        assert b.lower == chain_bound(c) == 18
        # the path's conflict graph has Fibonacci many independent sets
        assert b.upper == independent_set_bound(c) == 4181

    def test_upper_end_uses_the_independent_set_count_past_the_source_cap(self):
        d = pairs_and_triples(CONJUNCTIVE_SOURCE_CAP + 1 - 15)
        c = canonicalize(d)
        assert len(c.sources) == CONJUNCTIVE_SOURCE_CAP + 1 and len(c.pieces) == 1
        with pytest.raises(SizeLimitExceeded):
            conjunctive_rank_of_canonical(c)
        b = absolute_minrank_bounds(d)
        assert (b.lower, b.upper) == (product_bound(c), independent_set_bound(c))

    def test_disjoint_union_multiplies(self):
        a, c = fx.P1, fx.C3
        union = Digraph(a.n + c.n, list(a.arcs) + [(u + a.n, v + a.n) for u, v in c.arcs])
        ba, bc, bu = (absolute_minrank_bounds(d) for d in (a, c, union))
        assert (bu.lower, bu.upper) == (ba.lower * bc.lower, ba.upper * bc.upper)
        assert bu.lower <= minrank_exact(union, 2) <= bu.upper


class TestIsomorphism:
    # the brute-force oracle the tests above compare canonical graphs with
    def test_relabelled_cycle(self):
        d2 = Digraph(3, [(2, 1), (1, 3), (3, 2)])
        assert oracles.brute_isomorphic(fx.C3, d2)

    def test_detects_difference(self):
        assert not oracles.brute_isomorphic(fx.C3, Digraph(3, [(1, 2), (2, 3), (3, 2)]))

    def test_loops_matter(self):
        assert not oracles.brute_isomorphic(fx.L1, Digraph(1, []))

    def test_large_blowups(self):
        from fdsrank.invariants import blowup

        # the same labelled graph: copy i of a vertex under 2 then 3 is copy i under 6
        assert blowup(blowup(fx.P1, 2), 3) == blowup(fx.P1, 6)
