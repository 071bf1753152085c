"""Bipartite source/sink reduction of a digraph and the minimum-rank bounds on it.

The reduction doubles the graph into source copies and sink copies, then
strips redundant sinks and sources until no rule applies. Redundant vertices
are removed one at a time, largest index first, each removal justified
against the current graph; this keeps every removal step rank-preserving
(removing all simultaneously-redundant sinks at once is unsound when three
or more sinks cover each other, e.g. the complete looped triangle).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .digraph import Digraph, format_digraph, weak_components
from .errors import IntegrityError, SizeLimitExceeded

INDEPENDENT_SET_SINK_CAP = 30
# per weak component; the product bound costs about 3^k in k sinks, the chain
# bound 2^k, the conjunctive rank 2^k in k sources (measured tables in
# CHANGES.md)
PRODUCT_BOUND_SINK_CAP = 16
CHAIN_BOUND_SINK_CAP = 20
CONJUNCTIVE_SOURCE_CAP = 18


@dataclass(frozen=True, eq=False)
class CanonicalGraph:
    """Sources feed sinks; ids are 1..|A| for sources, |A|+1..|A|+|B| for sinks.

    ``provenance`` maps each canonical id back to ``(original_vertex, copy)``
    where copy 0 is the source side and copy 1 the sink side.
    """

    sources: tuple[int, ...]
    sinks: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]
    provenance: dict[int, tuple[int, int]]

    def sink_inputs(self) -> dict[int, frozenset[int]]:
        ins: dict[int, set[int]] = {b: set() for b in self.sinks}
        for a, b in self.arcs:
            ins[b].add(a)
        return {b: frozenset(s) for b, s in ins.items()}

    def as_digraph(self) -> Digraph:
        n = len(self.sources) + len(self.sinks)
        return Digraph(max(n, 1), self.arcs)

    def is_empty(self) -> bool:
        return not self.sources and not self.sinks


def canonicalize(d: Digraph) -> CanonicalGraph:
    """Source/sink double of ``d`` with redundant vertices stripped to a fixpoint."""
    ins = d.in_map()
    sink_in = {v: frozenset(ins[v]) for v in d.vertices()}
    alive = set(d.vertices())

    def redundant_sink(v: int) -> bool:
        nv = sink_in[v]
        if not nv:
            return True
        witnesses = [u for u in alive if u != v and sink_in[u] and sink_in[u] <= nv]
        if not witnesses:
            return False
        union = frozenset().union(*(sink_in[u] for u in witnesses))
        if union != nv:
            return False
        return len(witnesses) >= 2 or witnesses[0] < v

    while True:
        removable = [v for v in sorted(alive, reverse=True) if redundant_sink(v)]
        if not removable:
            break
        alive.remove(removable[0])

    sink_list = sorted(alive)
    out_to_alive = {
        u: frozenset(w for w in d.out_neighbors(u) if w in alive) for u in d.vertices()
    }
    source_list = [
        u
        for u in d.vertices()
        if out_to_alive[u]
        and not any(u2 < u and out_to_alive[u2] == out_to_alive[u] for u2 in d.vertices())
    ]

    src_id = {u: i + 1 for i, u in enumerate(source_list)}
    snk_id = {v: len(source_list) + j + 1 for j, v in enumerate(sink_list)}
    arcs = frozenset(
        (src_id[u], snk_id[v]) for u in source_list for v in out_to_alive[u]
    )
    provenance = {src_id[u]: (u, 0) for u in source_list}
    provenance.update({snk_id[v]: (v, 1) for v in sink_list})
    return CanonicalGraph(
        sources=tuple(src_id[u] for u in source_list),
        sinks=tuple(snk_id[v] for v in sink_list),
        arcs=arcs,
        provenance=provenance,
    )


def format_canonical(c: CanonicalGraph) -> str:
    """Graph text format plus a trailing provenance comment block."""
    body = format_digraph(c.as_digraph())
    prov = "".join(
        f"# provenance {cid} {orig} {copy}\n"
        for cid, (orig, copy) in sorted(c.provenance.items())
    )
    return body + prov


# --- bounds on the minimum rank of a canonical graph --------------------------

def _conflict_adjacency(c: CanonicalGraph) -> dict[int, set[int]]:
    ins = c.sink_inputs()
    adj: dict[int, set[int]] = {b: set() for b in c.sinks}
    for b1, b2 in itertools.combinations(c.sinks, 2):
        if ins[b1] & ins[b2]:
            adj[b1].add(b2)
            adj[b2].add(b1)
    return adj


def _count_independent_sets(vertices: frozenset[int], adj, memo) -> int:
    if not vertices:
        return 1
    if vertices in memo:
        return memo[vertices]
    # split off a connected component
    start = next(iter(vertices))
    comp = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in vertices and w not in comp:
                comp.add(w)
                stack.append(w)
    if comp != vertices:
        result = _count_independent_sets(
            frozenset(comp), adj, memo
        ) * _count_independent_sets(vertices - comp, adj, memo)
    else:
        v = max(vertices, key=lambda u: len(adj[u] & vertices))
        if not adj[v] & vertices:
            result = 1 << len(vertices)
        else:
            without = _count_independent_sets(vertices - {v}, adj, memo)
            closed = frozenset(vertices - {v} - adj[v])
            with_v = _count_independent_sets(closed, adj, memo)
            result = without + with_v
    memo[vertices] = result
    return result


def independent_set_bound(c: CanonicalGraph) -> int:
    """Number of independent sets (empty set included) of the sink conflict graph."""
    if len(c.sinks) > INDEPENDENT_SET_SINK_CAP:
        raise SizeLimitExceeded(
            f"independent-set count capped at {INDEPENDENT_SET_SINK_CAP} sinks",
            projected=len(c.sinks),
        )
    adj = _conflict_adjacency(c)
    return _count_independent_sets(frozenset(c.sinks), adj, {})


def _sink_masks(c: CanonicalGraph) -> list[int]:
    """In-neighborhoods of sinks as source bitmasks, in sink order."""
    ins = c.sink_inputs()
    src_pos = {a: i for i, a in enumerate(c.sources)}
    return [sum(1 << src_pos[a] for a in ins[b]) for b in c.sinks]


def _capped_pieces(
    c: CanonicalGraph, what: str, cap: int, side: str = "sinks"
) -> list[CanonicalGraph]:
    """The pieces of ``c``, refused when one has more than ``cap`` sinks (or sources)."""
    pieces = _pieces(c)
    widest = max((len(getattr(p, side)) for p in pieces), default=0)
    if widest > cap:
        raise SizeLimitExceeded(f"{what} capped at {cap} {side} per component", projected=widest)
    return pieces


def chain_bound(c: CanonicalGraph) -> int:
    """Longest sink sequence where each adds an unseen source, plus one.

    Sinks in different weak components share no source, so the longest
    sequences of the components add up.
    """
    pieces = _capped_pieces(c, "chain bound", CHAIN_BOUND_SINK_CAP)
    return 1 + sum(_chain_length(_sink_masks(p)) for p in pieces)


def _chain_length(nin: list[int]) -> int:
    k = len(nin)
    best = 0
    valid = [False] * (1 << k)
    valid[0] = True
    union = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        union[mask] = union[mask ^ low] | nin[low.bit_length() - 1]
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            prev = mask ^ bit
            if valid[prev] and nin[bit.bit_length() - 1] & ~union[prev]:
                valid[mask] = True
                best = max(best, bin(mask).count("1"))
                break
    return best


def product_bound(c: CanonicalGraph) -> int:
    """Least fixpoint of the increment / product / monotonicity raise rules.

    Works per weak component and multiplies, since sinks in different
    components have disjoint in-neighborhoods.
    """
    pieces = _capped_pieces(c, "product bound", PRODUCT_BOUND_SINK_CAP)
    return math.prod(_product_bound_component(_sink_masks(p)) for p in pieces)


def _product_bound_component(nin: list[int]) -> int:
    # every rule raises r[mask] from strict submasks, which come earlier in
    # increasing mask order, so one pass reaches the fixpoint
    k = len(nin)
    full = (1 << k) - 1
    union = [0] * (full + 1)
    r = [1] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        union[mask] = union[mask ^ low] | nin[low.bit_length() - 1]
        best = 1
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            prev = mask ^ bit
            cand = r[prev]
            if nin[bit.bit_length() - 1] & ~union[prev]:
                cand += 1
            if cand > best:
                best = cand
        # products over splits with disjoint source sets
        sub = (mask - 1) & mask
        while sub > mask ^ sub:  # each unordered split once
            rest = mask ^ sub
            if union[sub] & union[rest] == 0:
                cand = r[sub] * r[rest]
                if cand > best:
                    best = cand
            sub = (sub - 1) & mask
        r[mask] = best
    return r[full]


# --- tightness and classification ---------------------------------------------

@dataclass(frozen=True, eq=False)
class TightnessVerdict:
    tight: bool
    lower: int
    upper: int
    witness: Digraph | None = None


def tightness_classify(c: CanonicalGraph) -> TightnessVerdict:
    """Decide whether chain and independent-set bounds meet at |B|+1.

    When they do, reconstruct a witness graph made of looped right-side
    vertices (one per sink) plus helper left-side vertices, whose
    canonicalization reproduces ``c``.
    """
    lower = chain_bound(c)
    upper = independent_set_bound(c)
    n_sinks = len(c.sinks)
    if not (lower == upper == n_sinks + 1):
        return TightnessVerdict(False, lower, upper)
    if n_sinks == 0:
        return TightnessVerdict(True, lower, upper, Digraph(1, []))
    witness = _reconstruct_tight_witness(c)
    return TightnessVerdict(True, lower, upper, witness)


def _reconstruct_tight_witness(c: CanonicalGraph) -> Digraph:
    ins = c.sink_inputs()
    out_deg = {a: sum(1 for b in c.sinks if a in ins[b]) for a in c.sources}
    n = len(c.sinks)

    def build(order: list[int], picks: list[int]) -> Digraph | None:
        leftover = [a for a in c.sources if a not in picks]
        r_of_sink = {b: i + 1 for i, b in enumerate(order)}
        a_owner = {a: i + 1 for i, a in enumerate(picks)}
        arcs = set()
        for b in order:
            j = r_of_sink[b]
            for a in ins[b]:
                if a in a_owner:
                    arcs.add((a_owner[a], j))
                else:
                    arcs.add((n + 1 + leftover.index(a), j))
        h = Digraph(n + len(leftover), arcs)
        # verify: loops on the right side, every right pair linked directly
        # or through a common in-neighbor
        if any((i, i) not in h.arcs for i in range(1, n + 1)):
            return None
        hins = h.in_map()
        for i, j in itertools.combinations(range(1, n + 1), 2):
            if (i, j) in h.arcs or (j, i) in h.arcs:
                continue
            if not hins[i] & hins[j]:
                return None
        return h

    def search(order, picks, covered):
        if len(order) == n:
            return build(order, picks)
        for b in sorted(set(c.sinks) - set(order)):
            fresh = ins[b] - covered
            if not fresh:
                continue
            # prefer low fan-out sources: high fan-out ones serve as shared helpers
            for a in sorted(fresh, key=lambda a: (out_deg[a], a)):
                h = search(order + [b], picks + [a], covered | ins[b])
                if h is not None:
                    return h
        return None

    h = search([], [], frozenset())
    if h is None:
        raise IntegrityError("tight canonical graph without a reconstructible witness")
    return h


def minrank_classify(d: Digraph) -> str:
    """Verdicts ``one``, ``two``, ``full`` or ``other``.

    ``one``: no arcs; ``two``: some set S equals the in-neighborhood of every
    non-source; ``full``: disjoint union of cycles (all degrees exactly one).
    The first three pin the minimum rank at 1, 2 and 2^n respectively.
    """
    if not d.arcs:
        return "one"
    ins = d.in_map()
    non_source = [frozenset(ins[v]) for v in d.vertices() if ins[v]]
    if non_source and all(s == non_source[0] for s in non_source):
        return "two"
    outs = d.out_map()
    if all(len(ins[v]) == 1 and len(outs[v]) == 1 for v in d.vertices()):
        return "full"
    return "other"


@dataclass(frozen=True, eq=False)
class MinrankBounds:
    lower: int
    upper: int
    stabilization_q: int
    exact: bool


def conjunctive_rank_of_canonical(c: CanonicalGraph, piece_ranks=None) -> int:
    """Rank of the all-AND network on a canonical graph, component by component.

    Sources output constant 1; each sink outputs the conjunction of its
    sources, so the rank is the number of distinct sink-indicator patterns,
    multiplied over weak components. A component with more than
    ``CONJUNCTIVE_SOURCE_CAP`` sources is refused. ``piece_ranks``, when
    given, holds each component's rank from :func:`conjunctive_piece_ranks`.
    """
    pieces = _capped_pieces(c, "conjunctive rank", CONJUNCTIVE_SOURCE_CAP, "sources")
    return math.prod(_conjunctive_piece_rank(p) for p in pieces) if piece_ranks is None \
        else math.prod(piece_ranks)


def conjunctive_piece_ranks(c: CanonicalGraph) -> list[int | None]:
    """Each weak component's conjunctive rank, None where it has more than
    ``CONJUNCTIVE_SOURCE_CAP`` sources."""
    return [_conjunctive_piece_rank(p) if len(p.sources) <= CONJUNCTIVE_SOURCE_CAP else None
            for p in _pieces(c)]


def _conjunctive_piece_rank(p: CanonicalGraph) -> int:
    """The distinct sink patterns of one component's AND network.

    The sinks a source set x switches on are those whose in-neighbourhood x
    contains. Two such patterns are equal exactly when the unions of their
    sinks' in-neighbourhoods are, and every union of in-neighbourhoods is
    one, so the patterns are counted as the distinct unions, the empty one
    included, in time proportional to their number times the sinks.
    """
    unions = {0}
    for mask in _sink_masks(p):
        unions |= {u | mask for u in unions}
    return len(unions)


def absolute_minrank_bounds(d: Digraph) -> MinrankBounds:
    """Alphabet-free minimum-rank bracket with its stabilization alphabet.

    The lower bound is the product bound of the canonical graph, or the
    smaller chain bound when the product bound is refused; the upper bound
    multiplies per-component minima of the conjunctive rank and the
    independent-set count, or the count alone where the conjunctive rank is
    refused. The minimum rank provably stops decreasing at alphabet size
    (n+1)*m.
    """
    c = canonicalize(d)
    try:
        product = product_bound(c)
    except SizeLimitExceeded:
        product = None
    return minrank_bracket(d, c, product)


def minrank_bracket(d: Digraph, c: CanonicalGraph, product: int | None,
                    piece_ranks: list[int | None] | None = None) -> MinrankBounds:
    """:func:`absolute_minrank_bounds` from the canonical graph ``c`` of ``d``
    and its product bound, None where that bound was refused.

    ``piece_ranks``, when given, holds :func:`conjunctive_piece_ranks` of ``c``.
    """
    lower = chain_bound(c) if product is None else product
    if piece_ranks is None:
        piece_ranks = conjunctive_piece_ranks(c)
    upper = math.prod(_piece_upper(p, rank) for p, rank in zip(_pieces(c), piece_ranks))
    return MinrankBounds(
        lower=lower,
        upper=upper,
        stabilization_q=max(2, (d.n + 1) * d.m),
        exact=lower == upper,
    )


def _piece_upper(p: CanonicalGraph, rank: int | None) -> int:
    """Least of a piece's independent-set count and, unless refused (None),
    its conjunctive rank."""
    count = independent_set_bound(p)
    return count if rank is None else min(rank, count)


def _pieces(c: CanonicalGraph) -> list[CanonicalGraph]:
    """The weak components of ``c``, each renumbered; an empty graph has none."""
    if c.is_empty():
        return []
    return [_sub_canonical(c, set(comp)) for comp in weak_components(c.as_digraph())]


def _sub_canonical(c: CanonicalGraph, keep: set[int]) -> CanonicalGraph:
    """The part of ``c`` on ``keep``, renumbered to sources 1..|A'| then sinks."""
    kept = [a for a in c.sources if a in keep] + [b for b in c.sinks if b in keep]
    new_id = {old: i for i, old in enumerate(kept, start=1)}
    n_sources = sum(a in keep for a in c.sources)
    return CanonicalGraph(
        sources=tuple(range(1, n_sources + 1)),
        sinks=tuple(range(n_sources + 1, len(kept) + 1)),
        arcs=frozenset((new_id[a], new_id[b]) for a, b in c.arcs if a in keep and b in keep),
        provenance={new_id[v]: c.provenance[v] for v in kept},
    )

