import itertools
import math
import random

import oracles
import pytest
from conftest import small_digraphs

from fdsrank import fixtures as fx
from fdsrank.digraph import (
    Digraph,
    fingerprint,
    format_digraph,
    girth,
    is_primitive,
    is_strongly_connected,
    parse_digraph,
    shortest_cycle,
    structure_stats,
    twin_classes,
    weak_components,
)
from fdsrank.errors import GraphFormatError


def test_structure_stats_cycle():
    st = structure_stats(fx.C3)
    assert st.girth == 3
    assert st.min_in_degree == 1
    assert not st.acyclic
    assert st.loop_count == 0
    assert st.source_list == () and st.sink_list == ()


def test_structure_stats_empty():
    st = structure_stats(fx.E3)
    assert math.isinf(st.girth)
    assert st.acyclic
    assert st.min_in_degree == 0
    assert st.source_list == (1, 2, 3)


def test_structure_stats_loop():
    st = structure_stats(fx.L1)
    assert st.girth == 1 and st.min_in_degree == 1
    assert st.loop_count == 1


def test_girth_two_cycle_with_longer():
    d = Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
    assert girth(d) == 2


def test_acyclic_iff_infinite_girth():
    st = structure_stats(fx.P1)
    assert st.acyclic and math.isinf(st.girth)


def _check_shortest_cycle(d, cycles, removed):
    lengths = [len(c) for c in cycles if not set(c) & removed]
    got = shortest_cycle(d, removed)
    if not lengths:
        assert got is None, (d, removed)
        return
    k = len(got)
    assert k == min(lengths) and len(set(got)) == k, (d, removed, got)
    assert not set(got) & removed, (d, removed, got)
    assert all((got[i], got[(i + 1) % k]) in d.arcs for i in range(k)), (d, got)


def test_shortest_cycle_and_girth_against_brute_force():
    # every digraph on 1..3 vertices with every removed set, then seeded
    # random 4..6 vertex digraphs (loops rare, so long cycles occur) with
    # every removed set of at most two vertices
    graphs = [(d, d.n) for n in (1, 2, 3) for d in small_digraphs(n)]
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(4, 6)
        p = rng.choice((0.15, 0.25, 0.4))
        pairs = itertools.product(range(1, n + 1), repeat=2)
        d = Digraph(n, [(u, v) for u, v in pairs if rng.random() < (p if u != v else 0.1)])
        graphs.append((d, 2))
    for d, most in graphs:
        cycles = oracles.brute_simple_cycles(d)
        assert girth(d) == min((len(c) for c in cycles), default=math.inf), d
        for k in range(most + 1):
            for removed in itertools.combinations(d.vertices(), k):
                _check_shortest_cycle(d, cycles, frozenset(removed))


def test_arc_validation():
    with pytest.raises(ValueError):
        Digraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Digraph(0, [])


def test_weak_components():
    d = Digraph(5, [(1, 2), (4, 5)])
    assert weak_components(d) == [[1, 2], [3], [4, 5]]


def _blown_up_digraph(rng, n):
    """A random digraph whose vertices fall into random modules, every two
    vertices of one module twins, with one arc sometimes flipped."""
    m = rng.randint(1, n)
    module = [rng.randrange(m) for _ in range(n)]
    loop = [rng.random() < 0.5 for _ in range(m)]
    inner = [rng.random() < 0.5 for _ in range(m)]
    outer = {(a, b) for a in range(m) for b in range(m) if a != b and rng.random() < 0.4}
    arcs = set()
    for u, v in itertools.product(range(n), repeat=2):
        a, b = module[u], module[v]
        if (loop[a] if u == v else inner[a] if a == b else (a, b) in outer):
            arcs.add((u + 1, v + 1))
    if rng.random() < 0.3:
        arcs ^= {(rng.randint(1, n), rng.randint(1, n))}
    return Digraph(n, arcs)


def test_twin_classes_against_brute_force():
    # every digraph on 1..3 vertices, then seeded 4..6 vertex digraphs:
    # plain random ones, and blown-up ones that have twins by construction
    graphs = [d for n in (1, 2, 3) for d in small_digraphs(n)]
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(4, 6)
        pairs = itertools.product(range(1, n + 1), repeat=2)
        graphs.append(Digraph(n, [pr for pr in pairs if rng.random() < 0.4]))
        graphs.append(_blown_up_digraph(rng, n))
    with_twins = 0
    for d in graphs:
        classes = oracles.brute_twins(d)
        assert sum(map(len, classes)) == d.n, d  # twinship is an equivalence
        assert twin_classes(d) == classes, d
        with_twins += d.n > 3 and len(classes) < d.n
    assert with_twins >= 100


def test_twin_classes_of_the_complete_looped_graph_and_its_deletions():
    full = [(u, v) for u in (1, 2, 3) for v in (1, 2, 3)]
    assert twin_classes(Digraph(3, full)) == [[1, 2, 3]]
    assert twin_classes(Digraph(3, [a for a in full if a != (3, 3)])) == [[1, 2], [3]]
    assert twin_classes(Digraph(3, [a for a in full if a != (1, 2)])) == [[1], [2], [3]]


def test_strong_connectivity():
    assert is_strongly_connected(fx.C3)
    assert not is_strongly_connected(fx.P1)
    assert is_strongly_connected(Digraph(1, []))


def test_primitivity():
    assert not is_primitive(fx.C3)  # period 3
    assert is_primitive(fx.L1)
    two_loops = Digraph(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    assert is_primitive(two_loops)


def test_parse_roundtrip():
    text = format_digraph(fx.STAR3, comments=["example"])
    assert parse_digraph(text) == fx.STAR3


def test_parse_rejects_duplicates():
    with pytest.raises(GraphFormatError) as err:
        parse_digraph("n 2\n1 2\n1 2\n")
    assert err.value.line == 3


def test_parse_rejects_bad_header():
    with pytest.raises(GraphFormatError) as err:
        parse_digraph("vertices 3\n")
    assert err.value.line == 1


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphFormatError) as err:
        parse_digraph("n 2\n1 5\n")
    assert err.value.line == 2


def test_parse_comments_and_blank_lines():
    d = parse_digraph("# hello\n\nn 2\n# mid\n1 2\n")
    assert d == fx.P1


def test_fingerprint_stable():
    assert fingerprint(fx.P1) == "n=2;arcs=1>2"
    assert fingerprint(fx.E3) == "n=3;arcs="
