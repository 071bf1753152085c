"""Explicit witness networks: systems built to hit a bound exactly.

Strict witnesses reproduce their target graph as interaction graph;
loose witnesses (``maxper_witness``, ``maxrank_witness``) only stay inside it.
"""

from __future__ import annotations

import numpy as np

from .canonical import CanonicalGraph, canonicalize, conjunctive_rank_of_canonical
from .digraph import Digraph
from .errors import AlphabetTooSmall, BadPacking, EvenN, IntegrityError, LoopsPresent, ShapeMismatch
from .fds import DEFAULT_MAX_STATES, Fds, digits, make_fds, rank as fds_rank
from .invariants import cycle_cover_certificate, independent_arc_certificate, in_dominating_profile


def conjunctive(d: Digraph) -> Fds:
    """Every vertex is the AND of its in-neighbors; empty conjunctions are 1."""
    ins = d.in_map()
    inputs = [sorted(ins[v]) for v in d.vertices()]
    return make_fds(d.n, 2, inputs, [digits(2, len(i)).all(1) for i in inputs])


def conjunctive_rank(d: Digraph, max_states: int = DEFAULT_MAX_STATES,
                     piece_ranks: list[int | None] | None = None) -> int:
    """Rank of the AND network, computed on the canonical reduction.

    ``piece_ranks``, when given, holds ``canonical.conjunctive_piece_ranks``
    of the canonical graph, already computed. Cross-checked against the
    direct whole-space evaluation whenever the state space permits it.
    """
    c = canonicalize(d)
    value = conjunctive_rank_of_canonical(c, piece_ranks)
    if 2 ** d.n <= max_states:
        direct = fds_rank(conjunctive(d), max_states)
        if direct != value:
            raise IntegrityError(f"canonical rank {value} != direct rank {direct}")
    return value


def extend_alphabet(f: Fds) -> Fds:
    """Same system over alphabet q+1; extra letters behave like q-1."""
    q = f.q
    tables = []
    for v, ins in enumerate(f.inputs):
        d = len(ins)
        old = np.minimum(digits(q + 1, d), q - 1) @ q ** np.arange(d, dtype=np.int64)
        tables.append(f.tables[v][old])
    return make_fds(f.n, q + 1, f.inputs, tables)


def nilpotent_class_two(d: Digraph, q: int) -> Fds:
    """Second iterate constant: outputs 0 on {0,1}-inputs and 1 otherwise."""
    if q < 3:
        raise AlphabetTooSmall(f"construction needs q >= 3, got {q}")
    ins = d.in_map()
    inputs = [sorted(ins[v]) for v in d.vertices()]
    return make_fds(d.n, q, inputs, [(digits(q, len(i)) > 1).any(1) for i in inputs])


def canonical_upper_witness(c: CanonicalGraph) -> Fds:
    """System on a canonical graph whose image enumerates conflict-free sink sets.

    Sink number j fires exactly when all its sources read j-1, so the
    reachable sink patterns are the independent sets of the conflict graph
    and the rank equals the independent-set bound.
    """
    if not c.sinks:
        raise ShapeMismatch("canonical graph has no sinks")
    q = max(len(c.sinks), 2)
    ins = c.sink_inputs()
    n = len(c.sources) + len(c.sinks)
    inputs: list[list[int]] = [[] for _ in range(n)]
    tables: list[list[int]] = [[0] for _ in range(n)]
    for j, b in enumerate(c.sinks, start=1):
        srcs = sorted(ins[b])
        inputs[b - 1] = srcs
        tables[b - 1] = (digits(q, len(srcs)) == j - 1).all(1)
    return make_fds(n, q, inputs, tables)


def star_witness(n: int) -> Fds:
    """Boolean system on the hub-and-looped-satellites graph with minimal rank.

    The hub is constant 1; the first ceil(n/2) satellites keep their value
    only under a high hub, the rest only under a low hub.
    """
    if n < 3 or n % 2 == 0:
        raise EvenN(f"satellite count must be odd and >= 3, got {n}")
    ins: list[list[int]] = [[]]
    tables: list[list[int]] = [[1]]
    high = (n + 1) // 2
    x = digits(2, 2)
    for v in range(2, n + 2):
        ins.append([1, v])
        tables.append(x[:, 1] & (x[:, 0] if v <= high + 1 else 1 - x[:, 0]))
    return make_fds(n + 1, 2, ins, tables)


def modular_complete(n: int, q: int) -> Fds:
    """Negated coordinate sums on the complete graph; fixed points are the
    states with coordinate sum divisible by q."""
    if n < 2:
        raise ShapeMismatch(f"needs at least 2 vertices, got {n}")
    inputs = [[u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)]
    return make_fds(n, q, inputs, [-digits(q, n - 1).sum(1) % q] * n)


def _copy_witness(d: Digraph, q: int, source_of: dict[int, int]) -> Fds:
    """Each vertex in ``source_of`` copies its source; every other vertex is 0."""
    inputs = [[source_of[v]] if v in source_of else [] for v in d.vertices()]
    return make_fds(d.n, q, inputs, [np.arange(q) if i else [0] for i in inputs])


def maxper_witness(d: Digraph, q: int) -> Fds:
    """Shift along a maximum disjoint-cycle cover; uncovered vertices die to 0."""
    pred = {v: cyc[i - 1] for cyc in cycle_cover_certificate(d) for i, v in enumerate(cyc)}
    return _copy_witness(d, q, pred)


def maxrank_witness(d: Digraph, q: int) -> Fds:
    """Copy along a maximum independent arc family; other vertices go to 0."""
    return _copy_witness(d, q, {v: u for u, v in independent_arc_certificate(d)})


def packing_plus_one_witness(d: Digraph, packing) -> Fds:
    """Boolean system over a covering cycle packing whose fixed points are the
    threshold states: all ones up to some cycle, all zeros after.

    In-neighbors from earlier cycles (and same-cycle chords) join the
    conjunction; in-neighbors from later cycles join the disjunction.
    """
    cycles = [tuple(c) for c in packing]
    position: dict[int, int] = {}
    pred: dict[int, int] = {}
    for i, cyc in enumerate(cycles):
        for j, v in enumerate(cyc):
            if v in position:
                raise BadPacking(f"vertex {v} appears in two cycles")
            position[v] = i
            pred[v] = cyc[j - 1]
    if set(position) != set(d.vertices()):
        missing = sorted(set(d.vertices()) - set(position))
        raise BadPacking(f"cycles do not cover vertices {missing}")
    for v, u in pred.items():
        if (u, v) not in d.arcs:
            raise BadPacking(f"cycle step {u}->{v} is not an arc")

    ins = d.in_map()
    inputs = []
    tables = []
    for v in d.vertices():
        srcs = sorted(ins[v])
        later = np.array([u != pred[v] and position[u] > position[v] for u in srcs])
        x = digits(2, len(srcs))
        inputs.append(srcs)
        tables.append(x[:, ~later].all(1) | x[:, later].any(1))
    return make_fds(d.n, 2, inputs, tables)


def loopfull_maxfix(d: Digraph, q: int) -> int:
    """Closed form for the top fixed-point count after adding a loop everywhere."""
    if not d.is_loopless():
        raise LoopsPresent("closed form starts from a loopless graph")
    profile = in_dominating_profile(d)
    return sum((q - 1) ** k * profile[k] for k in range(len(profile)))
