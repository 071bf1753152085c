"""Exact and fractional graph invariants consumed by the bound machinery.

Everything here is exact. The NP-hard invariants (feedback vertex set,
cycle packing, clique partition) run branch-and-bound searches guarded by
``EXACT_VERTEX_CAP`` and refuse, rather than approximate, beyond it; each
is memoized per graph, refusals included, so every bound reads one answer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import ratlp
from .digraph import Digraph, cycle_avoiding, is_primitive, is_strongly_connected
from .errors import LoopsPresent, NotStronglyConnected, SizeLimitExceeded, memo

EXACT_VERTEX_CAP = 24
MAX_ENUMERATED_CYCLES = 100_000
EXACT_LP_COLUMN_CAP = 10_000


def _check_cap(d: Digraph, what: str) -> None:
    if d.n > EXACT_VERTEX_CAP:
        raise SizeLimitExceeded(
            f"{what} is exact-only and capped at {EXACT_VERTEX_CAP} vertices; graph has {d.n}",
            projected=d.n,
        )


# --- cycles ------------------------------------------------------------------

def simple_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """All simple directed cycles as vertex tuples starting at their minimum vertex."""
    outs = {v: sorted(d.out_neighbors(v)) for v in d.vertices()}
    cycles: list[tuple[int, ...]] = []

    def grow(start: int, path: list[int], onpath: set[int]) -> None:
        for w in outs[path[-1]]:
            if w == start:
                cycles.append(tuple(path))
                if len(cycles) > MAX_ENUMERATED_CYCLES:
                    raise SizeLimitExceeded(
                        f"more than {MAX_ENUMERATED_CYCLES} simple cycles",
                        projected=len(cycles),
                    )
            elif w > start and w not in onpath:
                onpath.add(w)
                path.append(w)
                grow(start, path, onpath)
                path.pop()
                onpath.remove(w)

    for s in d.vertices():
        grow(s, [s], {s})
    return cycles


@memo(maxsize=1024)
def transversal_number(d: Digraph) -> int:
    """Minimum feedback vertex set size, by branch and bound on shortest cycles."""
    _check_cap(d, "transversal number")
    outs = d.out_map()
    best = d.n
    # a removed set sits at depth |removed|, so one met again was already
    # searched under a bound no tighter than now
    seen: set[frozenset[int]] = set()

    def solve(removed: frozenset[int]) -> None:
        nonlocal best
        if len(removed) >= best or removed in seen:
            return
        seen.add(removed)
        cyc = cycle_avoiding(outs, removed)
        if cyc is None:
            best = len(removed)
            return
        for v in cyc:
            solve(removed | {v})

    solve(frozenset())
    return best


def _minimal_cycle_masks(d: Digraph) -> list[int]:
    masks = {sum(1 << (v - 1) for v in cyc) for cyc in simple_cycles(d)}
    out = []
    for m in masks:
        if not any(other != m and other & m == other for other in masks):
            out.append(m)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


@memo(maxsize=1024)
def cycle_packing_number(d: Digraph) -> int:
    """Maximum number of pairwise vertex-disjoint cycles, exact."""
    _check_cap(d, "cycle packing number")
    cands = _minimal_cycle_masks(d)
    if not cands:
        return 0
    min_len = bin(cands[0]).count("1")
    best = 0

    def pack(idx: int, used: int, count: int) -> None:
        nonlocal best
        free = d.n - bin(used).count("1")
        remaining = len(cands) - idx
        if count + min(remaining, free // min_len) <= best:
            return
        if idx == len(cands):
            best = max(best, count)
            return
        c = cands[idx]
        if not c & used:
            pack(idx + 1, used | c, count + 1)
        pack(idx + 1, used, count)

    pack(0, 0, 0)
    return best


def fractional_cycle_packing(d: Digraph):
    """LP relaxation of cycle packing, exact; refused past the column cap or uncertified."""
    _check_cap(d, "fractional cycle packing")
    masks = sorted({sum(1 << (v - 1) for v in cyc) for cyc in simple_cycles(d)})
    if not masks:
        return Fraction(0)
    if len(masks) > EXACT_LP_COLUMN_CAP:
        raise SizeLimitExceeded(
            f"fractional packing capped at {EXACT_LP_COLUMN_CAP} cycle columns",
            projected=len(masks),
        )
    per_vertex = ({j: 1 for j, m in enumerate(masks) if m >> (v - 1) & 1} for v in d.vertices())
    rows = [row for row in per_vertex if row]
    return ratlp.solve_exact([1] * len(masks), rows, ["<="] * len(rows), [1] * len(rows),
                             maximize=True).value


# --- cliques -----------------------------------------------------------------

def _symmetric_adjacency(d: Digraph) -> list[int]:
    """Bitmask adjacency of the simple graph whose edges are bidirectional arc pairs."""
    adj = [0] * (d.n + 1)
    for u, v in d.arcs:
        if u != v and (v, u) in d.arcs:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
    return adj


def maximal_cliques(d: Digraph) -> list[int]:
    """Maximal cliques of the symmetric underlying graph, as vertex bitmasks."""
    adj = _symmetric_adjacency(d)
    nbr = {v: adj[v] for v in d.vertices()}
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_candidates = p | x
        u = (pivot_candidates & -pivot_candidates).bit_length()
        # pick pivot maximizing |P & N(u)|
        best_u, best_cnt = u, -1
        pc = pivot_candidates
        while pc:
            w = (pc & -pc).bit_length()
            pc &= pc - 1
            cnt = bin(p & nbr[w]).count("1")
            if cnt > best_cnt:
                best_u, best_cnt = w, cnt
        cand = p & ~nbr[best_u]
        while cand:
            v = (cand & -cand).bit_length()
            cand &= cand - 1
            vbit = 1 << (v - 1)
            expand(r | vbit, p & nbr[v], x & nbr[v])
            p &= ~vbit
            x |= vbit
    expand(0, (1 << d.n) - 1, 0)
    return sorted(out)


@memo(maxsize=1024)
def clique_partition_number(d: Digraph) -> int:
    """Minimum number of cliques partitioning V; a clique needs both arcs per pair."""
    _check_cap(d, "clique partition number")
    adj = _symmetric_adjacency(d)
    # partition into cliques == proper coloring of the complement graph
    full = (1 << d.n) - 1
    comp = [0] + [(~adj[v]) & full & ~(1 << (v - 1)) for v in d.vertices()]
    order = sorted(d.vertices(), key=lambda v: -bin(comp[v]).count("1"))

    best = d.n
    colors = [0] * (d.n + 1)

    def assign(i: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == len(order):
            best = used
            return
        v = order[i]
        blocked = 0
        cm = comp[v]
        while cm:
            w = (cm & -cm).bit_length()
            cm &= cm - 1
            if colors[w]:
                blocked |= 1 << (colors[w] - 1)
        for c in range(1, used + 2):
            if not blocked & (1 << (c - 1)):
                colors[v] = c
                assign(i + 1, max(used, c))
                colors[v] = 0

    assign(0, 0)
    return best


def fractional_clique_cover(d: Digraph):
    """LP relaxation of clique cover over maximal cliques, exact; refused if uncertified."""
    _check_cap(d, "fractional clique cover")
    cliques = maximal_cliques(d)
    rows = [{j: 1 for j, m in enumerate(cliques) if m >> (v - 1) & 1} for v in d.vertices()]
    # at most 3^(n/3) maximal cliques (Moon & Moser 1965): 6561 under the vertex cap
    return ratlp.solve_exact([1] * len(cliques), rows, [">="] * d.n, [1] * d.n).value


# --- matchings ---------------------------------------------------------------

def _assignment_value(weights: np.ndarray) -> tuple[int, list[tuple[int, int]]]:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(weights, maximize=True)
    total = int(weights[rows, cols].sum())
    return total, list(zip(rows.tolist(), cols.tolist()))


def max_independent_arcs(d: Digraph) -> int:
    """Largest arc set with pairwise distinct tails and distinct heads."""
    w = np.zeros((d.n, d.n), dtype=np.int64)
    for u, v in d.arcs:
        w[u - 1, v - 1] = 1
    total, _ = _assignment_value(w)
    return total


def independent_arc_certificate(d: Digraph) -> list[tuple[int, int]]:
    """Lexicographically least optimal family of pairwise independent arcs."""
    target = max_independent_arcs(d)
    kept: list[tuple[int, int]] = []
    arcs = d.sorted_arcs()
    for i, arc in enumerate(arcs):
        trial = kept + [arc]
        tails = {u for u, _ in trial}
        heads = {v for _, v in trial}
        if len(tails) < len(trial) or len(heads) < len(trial):
            continue
        w = np.zeros((d.n, d.n), dtype=np.int64)
        for u, v in arcs[i + 1:]:
            if u not in tails and v not in heads:
                w[u - 1, v - 1] = 1
        rest, _ = _assignment_value(w)
        if len(trial) + rest == target:
            kept = trial
        if len(kept) == target:
            break
    return kept


def _cycle_cover_weights(d: Digraph, tails: list[int], heads: list[int],
                         arcs) -> np.ndarray:
    """Tail-copy x head-copy weights: 0 pairs a vertex with itself, 1 takes an arc.

    Arcs are written after the self pairs, so a loop weighs 1.
    """
    forbidden = -(4 * d.n + 4)
    ti = {v: i for i, v in enumerate(tails)}
    hi = {v: i for i, v in enumerate(heads)}
    w = np.full((len(tails), len(heads)), forbidden, dtype=np.int64)
    for v in tails:
        if v in hi:
            w[ti[v], hi[v]] = 0
    for u, v in arcs:
        if u in ti and v in hi:
            w[ti[u], hi[v]] = 1
    return w


def max_cycle_cover(d: Digraph) -> int:
    """Maximum number of vertices coverable by vertex-disjoint cycles.

    Solved as a maximum-weight perfect matching between tail and head copies,
    with weight-0 fallback edges pairing each vertex with itself.
    """
    verts = list(d.vertices())
    total, _ = _assignment_value(_cycle_cover_weights(d, verts, verts, d.arcs))
    return max(total, 0)


def cycle_cover_certificate(d: Digraph) -> list[tuple[int, ...]]:
    """Disjoint cycles covering max_cycle_cover(d) vertices, lexicographically least."""
    target = max_cycle_cover(d)
    arcs = d.sorted_arcs()
    kept: list[tuple[int, int]] = []
    used_tails: set[int] = set()
    used_heads: set[int] = set()
    for i, (u, v) in enumerate(arcs):
        if u in used_tails or v in used_heads:
            continue
        trial_tails = used_tails | {u}
        trial_heads = used_heads | {v}
        # reduced problem over the vertices whose tail or head copy is still free
        free_t = [x for x in d.vertices() if x not in trial_tails]
        free_h = [x for x in d.vertices() if x not in trial_heads]
        rest, _ = _assignment_value(_cycle_cover_weights(d, free_t, free_h, arcs[i + 1:]))
        if rest >= 0 and len(kept) + 1 + rest == target:
            kept.append((u, v))
            used_tails = trial_tails
            used_heads = trial_heads
    succ = {u: v for u, v in kept}
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for s in sorted(succ):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        w = succ[s]
        while w != s:
            cyc.append(w)
            seen.add(w)
            w = succ[w]
        start = cyc.index(min(cyc))
        cycles.append(tuple(cyc[start:] + cyc[:start]))
    cycles.sort()
    return cycles


# --- misc constructions ------------------------------------------------------

def blowup(d: Digraph, k: int) -> Digraph:
    """k copies of each vertex; copy (u,i) becomes index (u-1)*k + i."""
    if k < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {k}")
    arcs = [
        ((u - 1) * k + i, (v - 1) * k + j)
        for u, v in d.arcs
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    ]
    return Digraph(d.n * k, arcs)


def in_dominating_profile(d: Digraph) -> tuple[int, ...]:
    """Counts I_0..I_n of in-dominating sets by size, for loopless graphs.

    X is in-dominating when every vertex of positive in-degree is in X or has
    an in-neighbor in X.
    """
    if not d.is_loopless():
        raise LoopsPresent("in-dominating profile requires a loopless graph")
    _check_cap(d, "in-dominating profile")
    ins = d.in_map()
    needs = []
    for v in d.vertices():
        if ins[v]:
            needs.append((1 << (v - 1)) | sum(1 << (u - 1) for u in ins[v]))
    profile = np.zeros(d.n + 1, dtype=np.int64)
    total = 1 << d.n
    chunk = 1 << 20
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ok = np.ones(masks.shape, dtype=bool)
        for need in needs:
            ok &= (masks & need) != 0
        sizes = np.bitwise_count(masks[ok])
        profile += np.bincount(sizes, minlength=d.n + 1)[: d.n + 1]
    return tuple(int(x) for x in profile)


def nilpotent_sufficiency(d: Digraph) -> str:
    """First applicable structural condition guaranteeing a nilpotent Boolean network.

    Returns one of ``loop``, ``symmetric``, ``primitive-strict-spanning`` or
    ``none``; ``none`` only means the test is inconclusive.
    """
    if not is_strongly_connected(d):
        raise NotStronglyConnected("test applies to strongly connected graphs")
    if d.loops() and not (d.n == 1 and d.m == 1):
        return "loop"
    symmetric = all((v, u) in d.arcs for u, v in d.arcs)
    is_k2 = d.n == 2 and d.arcs == frozenset({(1, 2), (2, 1)})
    if symmetric and d.is_loopless() and not is_k2:
        return "symmetric"
    for arc in d.sorted_arcs():
        if is_primitive(Digraph(d.n, d.arcs - {arc})):
            return "primitive-strict-spanning"
    return "none"
