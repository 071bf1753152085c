"""The sweep kernel against a reference that evaluates each system on its own."""

import itertools
import math

import numpy as np
import pytest

from conftest import sweep, unreduced_tensor
from fdsrank import kernels
from fdsrank.digraph import Digraph


def reference_histograms(w, counts, n_states, mult=None):
    """Rank, periodic rank and fixed points of every system, one at a time,
    each counted the product of its rows' multiplicities."""
    hist = np.zeros((3, n_states + 1), dtype=np.int64)
    rows = [[([int(x) for x in w[v, t]], 1 if mult is None else int(mult[v][t]))
             for t in range(int(c))] for v, c in enumerate(counts)]
    for choice in itertools.product(*rows):
        f = [sum(values) for values in zip(*(row for row, _ in choice))]
        times = math.prod(m for _, m in choice)
        periodic = set(range(n_states))
        for _ in range(n_states):
            periodic = {f[x] for x in periodic}
        hist[0, len(set(f))] += times
        hist[1, len(periodic)] += times
        hist[2, sum(f[x] == x for x in range(n_states))] += times
    return hist


def stack(rows, n_states):
    counts = np.array([r.shape[0] for r in rows], dtype=np.int64)
    w = np.zeros((len(rows), int(counts.max()), n_states), dtype=np.int64)
    for v, r in enumerate(rows):
        w[v, : r.shape[0]] = r
    return w, counts


def random_digraph(rng, n, q):
    """In-degrees up to 3 at q=2 and 2 at q=3, so every table list is small."""
    arcs = []
    for v in range(1, n + 1):
        k = rng.integers(0, min(n, 5 - q) + 1)
        arcs += [(int(u), v) for u in rng.choice(np.arange(1, n + 1), size=k, replace=False)]
    return Digraph(n, arcs)


def random_family(rng, n, q, strict, max_systems):
    """Weighted rows of a random digraph's family, each vertex's tables subsampled."""
    w, counts = unreduced_tensor(random_digraph(rng, n, q), q, strict)
    cap = max(2, int(max_systems ** (1 / n)))
    rows = [w[v, np.sort(rng.choice(c, size=min(cap, c), replace=False))]
            for v, c in enumerate(counts)]
    return stack(rows, q ** n)


def assert_matches_reference(w, counts, n_states, mult=None):
    assert np.array_equal(sweep(w, counts, n_states, mult),
                          reference_histograms(w, counts, n_states, mult))


# (vertices, alphabet) for 4, 8, 9, 16, 27, 32, 81 and 128 states: every word
# width of the bitset path and the sorted path above 64 states
SHAPES = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (4, 3), (7, 2)]


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("n,q", SHAPES, ids=[f"{q}^{n}" for n, q in SHAPES])
def test_random_families_match_reference(n, q, strict):
    rng = np.random.default_rng(1000 * n + 10 * q + strict)
    n_states = q ** n
    for _ in range(3):
        w, counts = random_family(rng, n, q, strict, max_systems=max(8, 4096 // n_states))
        assert_matches_reference(w, counts, n_states)


@pytest.mark.parametrize("q", [2, 3], ids=["16", "81"])
def test_family_over_many_blocks(monkeypatch, q):
    # blocks of 24 columns: the innermost lists (3 and 4 tables) make a
    # 12-column product, the boundary list (5 tables) is cut 2 + 2 + 1, and
    # the outermost list (7 tables) adds a prefix column to each slice
    n_states = q ** 4
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 24 * n_states)
    rng = np.random.default_rng(n_states)
    rows = []
    for size in (5, 7, 3, 4):
        rows.append(rng.integers(0, q, size=(size, n_states)) * q ** len(rows))
    w, counts = stack(rows, n_states)
    assert_matches_reference(w, counts, n_states)


@pytest.mark.parametrize("n_states", [8, 27, 32, 64, 65, 81])
def test_longest_transient_is_followed_to_the_end(n_states):
    # the path x -> x-1 reaches its only periodic point after n_states - 1
    # steps; in the same block the identity is stable from the first step
    path = np.maximum(np.arange(n_states) - 1, 0)
    rng = np.random.default_rng(n_states)
    maps = np.vstack([path, np.arange(n_states), rng.integers(0, n_states, (6, n_states))])
    w, counts = stack([maps], n_states)
    rank, periodic, fixed = sweep(w, counts, n_states)
    assert periodic[1] >= 1 and periodic[n_states] == 1
    assert_matches_reference(w, counts, n_states)


def test_narrow_input_rows_give_the_same_histograms():
    rng = np.random.default_rng(5)
    w, counts = random_family(rng, 3, 3, False, max_systems=200)
    assert np.array_equal(sweep(w, counts, 27), sweep(w.astype(np.uint8), counts, 27))


def random_mult(rng, counts, weighted):
    """Multiplicities 1..6 for the rows of the ``weighted`` vertices, one
    shared multiplicity for each of the others."""
    return [rng.integers(1, 7, size=int(c)) if v in weighted
            else np.full(int(c), rng.integers(1, 4)) for v, c in enumerate(counts)]


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (4, 3)], ids=["4", "8", "9", "81"])
def test_weighted_rows_count_their_multiplicity(n, q):
    # weights on every subset of vertices: all rows equal, one vertex, all
    rng = np.random.default_rng(10 * n + q)
    n_states = q ** n
    for weighted in [(), (0,), (n - 1,), tuple(range(n))]:
        w, counts = random_family(rng, n, q, False, max_systems=max(8, 4096 // n_states))
        assert_matches_reference(w, counts, n_states, random_mult(rng, counts, weighted))


@pytest.mark.parametrize("weighted", [(), (1,), (3,), (0, 1), (0, 2, 3)],
                         ids=["none", "outer", "inner", "prefix-boundary", "mixed"])
def test_weighted_family_over_many_blocks(monkeypatch, weighted):
    # 24-column blocks as in test_family_over_many_blocks: weighted vertices
    # land on the prefix, the boundary and the inner product in turn
    n_states = 16
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 24 * n_states)
    rng = np.random.default_rng(len(weighted) + 7 * sum(weighted))
    rows = [rng.integers(0, 2, size=(size, n_states)) * 2 ** v
            for v, size in enumerate((5, 7, 3, 4))]
    w, counts = stack(rows, n_states)
    assert_matches_reference(w, counts, n_states, random_mult(rng, counts, weighted))


@pytest.mark.parametrize("rows", [5, 24, 61])
@pytest.mark.parametrize("weighted", [(), (0,)], ids=["plain", "weighted"])
def test_one_vertex_family_over_many_blocks(monkeypatch, rows, weighted):
    # a piece of one vertex gives heads on one zero inner column: fewer rows
    # than a 24-column block, one block's worth, and rows cut across blocks
    n_states = 8
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 24 * n_states)
    rng = np.random.default_rng(rows + len(weighted))
    w, counts = stack([rng.integers(0, n_states, size=(rows, n_states))], n_states)
    assert_matches_reference(w, counts, n_states, random_mult(rng, counts, weighted))


@pytest.mark.parametrize("k", [3, 17, 41], ids=["8-bit", "16-bit", "32-bit"])
def test_raw_classes_in_every_word_width(k):
    # three vertices of k zero maps, each row its own multiplicity: k^3 raw
    # classes, carried in the narrowest word that holds them
    n_states = 8
    maps = np.random.default_rng(k).integers(0, n_states, size=(5, n_states))
    w, counts = stack([maps] + [np.zeros((k, n_states), dtype=np.int64)] * 3, n_states)
    mult = [np.ones(5, dtype=np.int64)] + [np.arange(1, k + 1)] * 3
    expected = reference_histograms(*stack([maps], n_states), n_states) * (k * (k + 1) // 2) ** 3
    assert np.array_equal(sweep(w, counts, n_states, mult), expected)
