import random

import pytest

import oracles
from fdsrank import fixtures as fx
from fdsrank.canonical import canonicalize, independent_set_bound
from fdsrank.constructions import (
    canonical_upper_witness,
    conjunctive,
    conjunctive_rank,
    extend_alphabet,
    loopfull_maxfix,
    maxper_witness,
    maxrank_witness,
    modular_complete,
    nilpotent_class_two,
    packing_plus_one_witness,
    star_witness,
)
from fdsrank.digraph import Digraph
from fdsrank.errors import AlphabetTooSmall, BadPacking, EvenN, LoopsPresent, ShapeMismatch
from fdsrank.fds import (
    fixed_points,
    interaction_graph,
    make_fds,
    nilpotency_class,
    periodic_rank,
    rank,
)
from fdsrank.invariants import cycle_cover_certificate, max_cycle_cover, max_independent_arcs


def random_digraph(rng, n_max=3):
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, [p for p in pairs if rng.random() < 0.5])


class TestConjunctive:
    def test_empty_graph_constant_one(self):
        f = conjunctive(fx.E3)
        assert rank(f) == 1
        assert fixed_points(f) == [(1, 1, 1)]

    def test_rank_two_level_fixture(self):
        assert rank(conjunctive(fx.FIG1)) == 7
        assert conjunctive_rank(fx.FIG1) == 7

    def test_rank_star(self):
        assert conjunctive_rank(fx.STAR3) == 8

    def test_rank_triangle(self):
        assert conjunctive_rank(fx.K3) == 5

    def test_cycle_is_bijective(self):
        assert conjunctive_rank(fx.C3) == 8

    def test_interaction_graph_exact(self):
        rng = random.Random(17)
        for _ in range(30):
            d = random_digraph(rng)
            assert interaction_graph(conjunctive(d)) == d


class TestExtendAlphabet:
    def test_negation(self):
        from fdsrank.fds import make_fds

        neg = make_fds(1, 2, [[1]], [[1, 0]])
        ext = extend_alphabet(neg)
        assert ext.q == 3
        assert ext.tables[0].tolist() == [1, 0, 0]
        assert rank(ext) == 2
        assert interaction_graph(ext) == fx.L1

    def test_identity(self):
        from fdsrank.fds import make_fds

        ident = make_fds(1, 2, [[1]], [[0, 1]])
        ext = extend_alphabet(ident)
        assert ext.tables[0].tolist() == [0, 1, 1]
        assert rank(ext) == 2

    def test_never_raises_rank_and_keeps_graph(self):
        rng = random.Random(19)
        for _ in range(25):
            d = random_digraph(rng)
            f = conjunctive(d)
            g = extend_alphabet(f)
            assert rank(g) <= rank(f)
            assert interaction_graph(g) == interaction_graph(f)


class TestNilpotentClassTwo:
    def test_cycle(self):
        f = nilpotent_class_two(fx.C3, 3)
        assert periodic_rank(f) == 1
        assert nilpotency_class(f) == (True, 2)
        assert interaction_graph(f) == fx.C3

    def test_single_loop(self):
        f = nilpotent_class_two(fx.L1, 3)
        assert f.tables[0].tolist() == [0, 0, 1]
        assert nilpotency_class(f) == (True, 2)

    def test_empty_graph_constant(self):
        assert nilpotency_class(nilpotent_class_two(fx.E3, 3)) == (True, 1)

    def test_needs_three_letters(self):
        with pytest.raises(AlphabetTooSmall):
            nilpotent_class_two(fx.C3, 2)


class TestCanonicalUpperWitness:
    def test_two_level_fixture(self):
        c = canonicalize(fx.FIG1)
        w = canonical_upper_witness(c)
        assert rank(w) == 8 == independent_set_bound(c)
        assert interaction_graph(w) == c.as_digraph()

    def test_star(self):
        c = canonicalize(fx.STAR3)
        assert rank(canonical_upper_witness(c)) == 4

    def test_single_arc(self):
        c = canonicalize(fx.P1)
        assert rank(canonical_upper_witness(c)) == 2

    def test_rejects_graph_without_sinks(self):
        with pytest.raises(ShapeMismatch):
            canonical_upper_witness(canonicalize(fx.E3))

    def test_matches_bound_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(25):
            d = random_digraph(rng)
            c = canonicalize(d)
            if not c.sinks:
                continue
            w = canonical_upper_witness(c)
            assert rank(w) == independent_set_bound(c)
            assert interaction_graph(w) == c.as_digraph()


class TestStarWitness:
    def test_three_satellites(self):
        w = star_witness(3)
        assert rank(w) == 5
        assert interaction_graph(w) == fx.STAR3

    def test_five_satellites(self):
        assert rank(star_witness(5)) == 11

    def test_closed_form(self):
        for n in (3, 5, 7):
            assert rank(star_witness(n)) == 2 ** ((n + 1) // 2) + 2 ** (n // 2) - 1

    def test_rejects_even(self):
        with pytest.raises(EvenN):
            star_witness(4)


class TestModularComplete:
    def test_fixed_point_counts(self):
        assert len(fixed_points(modular_complete(3, 2))) == 4
        assert len(fixed_points(modular_complete(2, 3))) == 3

    def test_small_case_exact_states(self):
        assert fixed_points(modular_complete(2, 2)) == [(0, 0), (1, 1)]

    def test_power_law(self):
        for n, q in ((2, 2), (3, 2), (2, 4), (3, 3)):
            assert len(fixed_points(modular_complete(n, q))) == q ** (n - 1)

    def test_interaction_graph(self):
        assert interaction_graph(modular_complete(3, 2)) == fx.K3

    def test_rejects_one_vertex(self):
        with pytest.raises(ShapeMismatch):
            modular_complete(1, 2)


class TestMaxPerWitness:
    def test_cycle(self):
        assert periodic_rank(maxper_witness(fx.C3, 2)) == 8

    def test_star(self):
        assert periodic_rank(maxper_witness(fx.STAR3, 3)) == 27

    def test_empty(self):
        assert periodic_rank(maxper_witness(fx.E3, 2)) == 1

    def test_always_hits_cover_power(self):
        rng = random.Random(37)
        for _ in range(25):
            d = random_digraph(rng)
            for q in (2, 3):
                w = maxper_witness(d, q)
                assert periodic_rank(w) == q ** max_cycle_cover(d)
                assert interaction_graph(w).arcs <= d.arcs


class TestMaxRankWitness:
    def test_single_arc(self):
        assert rank(maxrank_witness(fx.P1, 2)) == 2

    def test_cycle(self):
        assert rank(maxrank_witness(fx.C3, 2)) == 8

    def test_star(self):
        assert rank(maxrank_witness(fx.STAR3, 2)) == 8

    def test_always_hits_arc_power(self):
        rng = random.Random(41)
        for _ in range(25):
            d = random_digraph(rng)
            for q in (2, 3):
                w = maxrank_witness(d, q)
                assert rank(w) == q ** max_independent_arcs(d)
                assert interaction_graph(w).arcs <= d.arcs


class TestPackingPlusOne:
    def test_two_looped_vertices(self):
        d = Digraph(2, [(1, 1), (2, 2), (1, 2)])
        w = packing_plus_one_witness(d, [(1,), (2,)])
        assert fixed_points(w) == [(0, 0), (1, 0), (1, 1)]
        assert interaction_graph(w) == d

    def test_single_cycle_degenerates_to_shift(self):
        w = packing_plus_one_witness(fx.C3, [(1, 2, 3)])
        assert len(fixed_points(w)) == 2

    def test_looped_cycle(self):
        w = packing_plus_one_witness(fx.C3_LOOPED, [(1,), (2,), (3,)])
        fixes = fixed_points(w)
        assert len(fixes) >= 4
        assert interaction_graph(w) == fx.C3_LOOPED

    def test_threshold_states_always_fixed(self):
        # ones on the first k cycles and zeros on the rest, for k = 0..3
        packing = [(1,), (2,), (3,)]
        w = packing_plus_one_witness(fx.C3_LOOPED, packing)
        fixes = set(fixed_points(w))
        for k in range(len(packing) + 1):
            ones = {v for cyc in packing[:k] for v in cyc}
            assert tuple(int(v in ones) for v in range(1, 4)) in fixes

    def test_full_cycle_cover_gives_exactly_one_more_fixed_point(self):
        for name in ("L1", "C3", "C3o", "C2o", "K3", "C5sym"):
            d = fx.CATALOG[name]
            cover = cycle_cover_certificate(d)
            assert sum(len(c) for c in cover) == d.n, name
            w = packing_plus_one_witness(d, cover)
            assert len(fixed_points(w)) == len(cover) + 1, name

    def test_same_cycle_chord_kept_in_graph(self):
        d = Digraph(3, [(1, 2), (2, 3), (3, 1), (1, 3)])
        w = packing_plus_one_witness(d, [(1, 2, 3)])
        assert interaction_graph(w) == d
        fixes = set(fixed_points(w))
        assert {(0, 0, 0), (1, 1, 1)} <= fixes

    def test_rejects_overlap(self):
        with pytest.raises(BadPacking):
            packing_plus_one_witness(fx.C3_LOOPED, [(1, 2, 3), (1,)])

    def test_rejects_partial_cover(self):
        with pytest.raises(BadPacking):
            packing_plus_one_witness(fx.C3_LOOPED, [(1,), (2,)])

    def test_rejects_non_arc_steps(self):
        with pytest.raises(BadPacking):
            packing_plus_one_witness(fx.E3, [(1, 2, 3)])

    def test_count_exceeds_packing(self):
        rng = random.Random(43)
        tried = 0
        for _ in range(60):
            d = random_digraph(rng)
            from fdsrank.invariants import cycle_cover_certificate, max_cycle_cover

            if max_cycle_cover(d) != d.n:
                continue
            packing = cycle_cover_certificate(d)
            w = packing_plus_one_witness(d, packing)
            assert len(fixed_points(w)) >= len(packing) + 1
            tried += 1
        assert tried > 5


class TestLoopfullMaxfix:
    def test_isolated_vertex(self):
        assert loopfull_maxfix(Digraph(1, []), 2) == 2

    def test_single_arc(self):
        assert loopfull_maxfix(fx.P1, 2) == 3
        assert loopfull_maxfix(fx.P1, 3) == 8

    def test_rejects_loops(self):
        with pytest.raises(LoopsPresent):
            loopfull_maxfix(fx.L1, 2)


def rule_graphs():
    rng = random.Random(53)
    return list(fx.CATALOG.values()) + [random_digraph(rng, n_max=4) for _ in range(40)]


def assert_tabulates(f, rules):
    """Vertex v reads the inputs of ``rules[v]`` and its table is that rule, cell by cell."""
    assert len(rules) == f.n
    for v, (inputs, rule) in enumerate(rules):
        assert f.inputs[v] == tuple(inputs)
        assert f.tables[v].tolist() == oracles.tabulate(f.q, inputs, rule)


class TestTablesFollowTheirRule:
    """Each witness table against the rule in its docstring, tabulated by the oracle."""

    def test_conjunctive(self):
        for d in rule_graphs():
            ins = d.in_map()
            rules = [(sorted(ins[v]), lambda x: all(x.values())) for v in d.vertices()]
            assert_tabulates(conjunctive(d), rules)

    def test_class_two(self):
        for d in rule_graphs():
            ins = d.in_map()
            rules = [(sorted(ins[v]), lambda x: any(c > 1 for c in x.values()))
                     for v in d.vertices()]
            for q in (3, 4):
                assert_tabulates(nilpotent_class_two(d, q), rules)

    def test_canonical_upper(self):
        for d in rule_graphs():
            c = canonicalize(d)
            if not c.sinks:
                continue
            rules = [([], lambda x: 0)] * (len(c.sources) + len(c.sinks))
            for j, b in enumerate(c.sinks, start=1):
                srcs = sorted(c.sink_inputs()[b])
                rules[b - 1] = (srcs, lambda x, j=j: all(s == j - 1 for s in x.values()))
            f = canonical_upper_witness(c)
            assert f.q == max(len(c.sinks), 2)
            assert_tabulates(f, rules)

    def test_star(self):
        for n in (3, 5, 7):
            high = (n + 1) // 2
            rules = [([], lambda x: 1)]
            for v in range(2, n + 2):
                if v <= high + 1:
                    rules.append(([1, v], lambda x, v=v: x[1] and x[v]))
                else:
                    rules.append(([1, v], lambda x, v=v: not x[1] and x[v]))
            assert_tabulates(star_witness(n), rules)

    def test_modular(self):
        for n in (2, 3, 4):
            for q in (2, 3, 4):
                rules = [([u for u in range(1, n + 1) if u != v],
                          lambda x: -sum(x.values()) % q) for v in range(1, n + 1)]
                assert_tabulates(modular_complete(n, q), rules)

    def test_extend_alphabet(self):
        rng = random.Random(59)
        for d in rule_graphs():
            ins = d.in_map()
            inputs = [sorted(ins[v]) for v in d.vertices()]
            for q in (2, 3):
                f = make_fds(d.n, q, inputs,
                             [[rng.randrange(q) for _ in range(q ** len(i))] for i in inputs])
                rules = [
                    (i, lambda x, i=i, t=f.tables[v]:
                        t[sum(min(x[u], q - 1) * q ** j for j, u in enumerate(i))])
                    for v, i in enumerate(inputs)
                ]
                assert_tabulates(extend_alphabet(f), rules)

    def test_packing_plus_one(self):
        tried = 0
        for d in rule_graphs():
            if max_cycle_cover(d) != d.n:
                continue
            packing = cycle_cover_certificate(d)
            position = {v: i for i, cyc in enumerate(packing) for v in cyc}
            pred = {v: cyc[j - 1] for cyc in packing for j, v in enumerate(cyc)}
            ins = d.in_map()
            rules = []
            for v in d.vertices():
                conj = [u for u in ins[v] if u == pred[v] or position[u] <= position[v]]
                disj = [u for u in ins[v] if u not in conj]
                rules.append((sorted(ins[v]), lambda x, conj=conj, disj=disj:
                              all(x[u] for u in conj) or any(x[u] for u in disj)))
            assert_tabulates(packing_plus_one_witness(d, packing), rules)
            tried += 1
        assert tried > 5
