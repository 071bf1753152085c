import itertools
import sys

import numpy as np
import pytest

import fdsrank
from fdsrank import kernels
from fdsrank.digraph import Digraph
from fdsrank.enumeration import _all_tables, _component_memo, _essential_selector, _table_counts
from fdsrank.fds import input_index


@pytest.fixture(autouse=True)
def cold_memos():
    # a value memoized by an earlier test would hide an invariant, a solver,
    # a kernel or a table the test patches: every lru_cache of the package
    # (found by its cache_clear) and the component histograms an earlier
    # sweep kept start empty
    for name, module in list(sys.modules.items()):
        if name == fdsrank.__name__ or name.startswith(fdsrank.__name__ + "."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    _component_memo.clear()


def small_digraphs(n: int):
    """Every labeled digraph on n vertices (loops included)."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def random_digraph(rng, n_max=4, p=0.4):
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, [pr for pr in pairs if rng.random() < p])


def blown_up_digraph(rng, n):
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


def all_tables(q, d):
    return itertools.product(range(q), repeat=q ** d)


def unreduced_tensor(d, q, strict):
    """The whole table product as one padded tensor and live row counts.

    ``w[v, t]`` is table t of vertex v+1 (in code order, essential tables
    only if strict) times q^v: the sweep with no orbit reduction.
    """
    counts = np.array(_table_counts(d, q, strict), dtype=np.int64)
    w = np.zeros((d.n, int(counts.max()), q ** d.n), dtype=np.int64)
    for v in range(d.n):
        inputs = sorted(d.in_neighbors(v + 1))
        tables = _all_tables(q, len(inputs))
        if strict:
            tables = tables[_essential_selector(q, len(inputs))]
        w[v, : counts[v]] = tables[:, input_index(d.n, q, inputs)].astype(np.int64) * q ** v
    return w, counts


def whole_factors(counts):
    """Each vertex a factor of its own: one sub-product, one run over its
    ``counts[v]`` rows at weight 1."""
    return [((v,), [(((0, int(c), 1),),)]) for v, c in enumerate(counts)]


def sweep(w, counts, n_states, mult=None, factors=None):
    """The kernel's histograms over the rows of ``w``, every row flagged.

    Rows count 1 unless ``mult`` is given, and each vertex is a factor of
    its own ``counts`` rows unless ``factors`` are. With every row flagged
    both halves of each histogram are the family's: they are checked equal
    and the first is returned.
    """
    ones = [np.ones(w.shape[1], dtype=np.int64)] * w.shape[0]
    hists = np.array(kernels.family_histograms(
        w, counts, n_states, ones if mult is None else mult,
        whole_factors(counts) if factors is None else factors, ones))
    loose, flagged = hists[:, : n_states + 1], hists[:, n_states + 1 :]
    assert np.array_equal(loose, flagged)
    return loose
