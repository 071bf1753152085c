"""Directed graphs with loops on the vertex set {1..n}, plus structural stats.

The :class:`Digraph` is the interaction-graph object used everywhere else.
Instances are immutable and hashable, so they can be shared freely across
workers and used as cache keys.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import GraphFormatError


@dataclass(frozen=True)
class Digraph:
    """A directed graph on vertices 1..n; loops allowed, duplicates impossible."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        arcset = frozenset((int(u), int(v)) for u, v in arcs)
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        for u, v in arcset:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u},{v}) leaves vertex range 1..{n}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "arcs", arcset)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def in_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for u, w in self.arcs if w == v)

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(w for u, w in self.arcs if u == v)

    def in_map(self) -> dict[int, frozenset[int]]:
        """In-neighborhood of every vertex, computed in one pass."""
        ins: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.arcs:
            ins[v].add(u)
        return {v: frozenset(s) for v, s in ins.items()}

    def out_map(self) -> dict[int, frozenset[int]]:
        outs: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.arcs:
            outs[u].add(v)
        return {v: frozenset(s) for v, s in outs.items()}

    def loops(self) -> frozenset[int]:
        return frozenset(u for u, v in self.arcs if u == v)

    def is_loopless(self) -> bool:
        return not any(u == v for u, v in self.arcs)

    def reverse(self) -> "Digraph":
        return Digraph(self.n, ((v, u) for u, v in self.arcs))

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()})"


@dataclass(frozen=True)
class StructureStats:
    """Shortest-cycle and degree summary of a digraph.

    ``girth`` is ``math.inf`` exactly when the graph is acyclic.
    """

    girth: float
    min_in_degree: int
    acyclic: bool
    loop_count: int
    source_list: tuple[int, ...]
    sink_list: tuple[int, ...]


def shortest_cycle(d: Digraph, removed: frozenset[int] = frozenset()) -> tuple[int, ...] | None:
    """A shortest directed cycle avoiding ``removed``, or None if there is none.

    One BFS runs from each vertex in turn. The cycle lists its vertices in
    arc order, starting at the least vertex that lies on a shortest cycle.
    """
    return cycle_avoiding(d.out_map(), removed)


def cycle_avoiding(outs: dict[int, frozenset[int]],
                   removed: frozenset[int]) -> tuple[int, ...] | None:
    """:func:`shortest_cycle` on a graph given by its ``out_map``, which a
    caller searching many removed sets builds once."""
    live = [v for v in outs if v not in removed]
    for v in live:
        if v in outs[v]:
            return (v,)
    best = None
    for s in live:
        parent = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in outs[u]:
                if w in removed:
                    continue
                if w == s:
                    # reconstruct s -> ... -> u
                    rev = [u]
                    while rev[-1] != s:
                        rev.append(parent[rev[-1]])
                    if best is None or len(rev) < len(best):
                        best = tuple(reversed(rev))
                elif w not in parent:
                    parent[w] = u
                    queue.append(w)
        if best is not None and len(best) == 2:
            return best
    return best


def girth(d: Digraph) -> float:
    """Length of the shortest directed cycle, or infinity if acyclic."""
    cycle = shortest_cycle(d)
    return math.inf if cycle is None else len(cycle)


def structure_stats(d: Digraph) -> StructureStats:
    ins = d.in_map()
    outs = d.out_map()
    g = girth(d)
    return StructureStats(
        girth=g,
        min_in_degree=min(len(ins[v]) for v in d.vertices()),
        acyclic=math.isinf(g),
        loop_count=len(d.loops()),
        source_list=tuple(v for v in d.vertices() if not ins[v]),
        sink_list=tuple(v for v in d.vertices() if not outs[v]),
    )


def weak_components(d: Digraph) -> list[list[int]]:
    """Weakly connected components as sorted vertex lists, in vertex order."""
    parent = list(range(d.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in d.arcs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in d.vertices():
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[r]) for r in sorted(groups)]


def twin_classes(d: Digraph) -> list[list[int]]:
    """Classes of twin vertices as sorted vertex lists, in vertex order.

    u and v are twins when swapping them is an automorphism: equal in- and
    out-neighbourhoods once {u, v} is removed, both looped or neither, and
    both or neither of the arcs (u, v) and (v, u). Since (u w) equals
    (u v)(v w)(u v), twinship is an equivalence, so each vertex is compared
    with the first vertex of each class found so far.
    """
    ins, outs = d.in_map(), d.out_map()

    def twins(u: int, v: int) -> bool:
        pair = {u, v}
        return (ins[u] - pair == ins[v] - pair and outs[u] - pair == outs[v] - pair
                and ((u, u) in d.arcs) == ((v, v) in d.arcs)
                and ((u, v) in d.arcs) == ((v, u) in d.arcs))

    classes: list[list[int]] = []
    for v in d.vertices():
        for cls in classes:
            if twins(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def is_strongly_connected(d: Digraph) -> bool:
    if d.n == 1:
        return True
    for graph in (d, d.reverse()):
        outs = graph.out_map()
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in outs[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != d.n:
            return False
    return True


def cycle_period(d: Digraph) -> int:
    """gcd of all cycle lengths of a strongly connected digraph."""
    outs = d.out_map()
    level = {1: 0}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in outs[u]:
            if w not in level:
                level[w] = level[u] + 1
                queue.append(w)
    g = 0
    for u, v in d.arcs:
        g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def is_primitive(d: Digraph) -> bool:
    return is_strongly_connected(d) and d.m > 0 and cycle_period(d) == 1


# --- text format -----------------------------------------------------------
#
# Optional '#' comment lines, then "n <N>", then one "u v" arc per line,
# 1-based vertices, duplicate arcs rejected.

def parse_digraph(text: str) -> Digraph:
    n = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError(lineno, f"expected 'n <N>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(lineno, f"invalid vertex count {parts[1]!r}")
            if n < 1:
                raise GraphFormatError(lineno, f"vertex count must be positive, got {n}")
            continue
        if len(parts) != 2:
            raise GraphFormatError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(lineno, f"non-integer arc endpoint in {line!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(lineno, f"arc ({u},{v}) leaves vertex range 1..{n}")
        if (u, v) in arcs:
            raise GraphFormatError(lineno, f"duplicate arc ({u},{v})")
        arcs.add((u, v))
    if n is None:
        raise GraphFormatError(1, "missing 'n <N>' header line")
    return Digraph(n, arcs)


def format_digraph(d: Digraph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {d.n}")
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs())
    return "\n".join(lines) + "\n"


def read_digraph(path) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def fingerprint(d: Digraph) -> str:
    """Stable one-line identity of a digraph (used in reports)."""
    arcs = ";".join(f"{u}>{v}" for u, v in d.sorted_arcs())
    return f"n={d.n};arcs={arcs}"
