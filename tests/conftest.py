import itertools

import pytest

from fdsrank.bounds import entropy_report
from fdsrank.digraph import Digraph


@pytest.fixture(autouse=True)
def cold_entropy_cache():
    # a report cached by an earlier test would hide a solver the test patches
    entropy_report.cache_clear()


def small_digraphs(n: int):
    """Every labeled digraph on n vertices (loops included)."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def random_digraph(rng, n_max=4, p=0.4):
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return Digraph(n, [pr for pr in pairs if rng.random() < p])


def all_tables(q, d):
    return itertools.product(range(q), repeat=q ** d)
