"""Inputs of the three benchmark workloads, drawn from a seed.

Nothing here imports fdsrank: a graph is a pair ``(n, arcs)`` with ``arcs``
a sorted tuple of ``(u, v)`` pairs on vertices 1..n, and every property the
benchmark records about its inputs (isomorphism repeats, weak components,
alphabet orbits of local tables) is computed here, outside the program.

Each pass of a run draws its own graphs from ``random.Random`` seeded with
the workload name, the run seed and the pass index, so the same seed gives
the same inputs. Every pass of a workload has the same composition, so the
work a pass asks for does not depend on the seed (see README.md).
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("sweep-dense-q2", "battery-q3", "bracket")

# battery-q3 draws from the labelled 3-vertex digraphs whose loose q=3 family
# fits the verify battery's 2M budget (127 graphs). The family size depends
# only on the in-degree multiset, so a pass draws a fixed number of graphs
# from each multiset class, roughly in proportion to the class sizes
# (54, 9, 27, 27, 9, 1 graphs).
BATTERY_Q = 3
BATTERY_BUDGET = 2_000_000
BATTERY_PASS = {(2, 1, 0): 4, (2, 0, 0): 1, (1, 1, 1): 2, (1, 1, 0): 2, (1, 0, 0): 1, (0, 0, 0): 1}
BATTERY_TINY = {(1, 1, 1): 1, (1, 1, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1}

# bracket: every fixture, plus one pool graph from each cost stratum. A
# stratum is a run of pool graphs with one vertex count, adjacent in their
# cost at the reference commit (50 strata of 2 graphs on 5 vertices, 10 of 5
# on 4 vertices), so every seed draws the same mix of cheap and expensive
# graphs: 70 graphs a pass. Sixty drawn graphs keep the latency percentiles
# off single graphs: with thirty, the median spread 28% between runs.
BRACKET_STRATA = {5: 50, 4: 10}
BRACKET_TINY_FIXTURES = ("E3", "L1", "P1", "C3")
BRACKET_Q = 2


def graph_key(n: int, arcs) -> str:
    return f"n={n};" + ",".join(f"{u}>{v}" for u, v in sorted(arcs))


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]


def in_degrees(n: int, arcs) -> tuple[int, ...]:
    deg = [0] * n
    for _u, v in arcs:
        deg[v - 1] += 1
    return tuple(sorted(deg, reverse=True))


def loose_family_size(n: int, q: int, arcs) -> int:
    total = 1
    for k in in_degrees(n, arcs):
        total *= q ** (q ** k)
    return total


def weak_component_count(n: int, arcs) -> int:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in arcs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)})


def iso_class(n: int, arcs) -> tuple:
    """Smallest relabelled arc list over all vertex permutations."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        relabelled = tuple(sorted((perm[u - 1], perm[v - 1]) for u, v in arcs))
        if best is None or relabelled < best:
            best = relabelled
    return (n, best)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def battery_graphs() -> list[tuple[int, tuple]]:
    """Labelled 3-vertex digraphs whose loose q=3 family fits the budget."""
    pairs = all_pairs(3)
    out = []
    for bits in range(1 << len(pairs)):
        arcs = tuple(sorted(p for i, p in enumerate(pairs) if bits >> i & 1))
        if loose_family_size(3, BATTERY_Q, arcs) <= BATTERY_BUDGET:
            out.append((3, arcs))
    return out


def dense_graphs(n: int) -> dict[str, list[tuple[int, tuple]]]:
    """The complete looped digraph and its one-arc deletions, by kind."""
    full = all_pairs(n)
    return {
        "complete": [(n, tuple(full))],
        "drop_loop": [(n, tuple(p for p in full if p != (v, v))) for v in range(1, n + 1)],
        "drop_arc": [(n, tuple(p for p in full if p != (u, v))) for u, v in full if u != v],
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pass_inputs(workload: str, seed: int, pass_index: int, tiny: bool, reference=None) -> list[dict]:
    """The graphs of one pass, each a dict with ``n``, ``arcs``, ``q`` and ``label``."""
    rng = _rng(workload, seed, pass_index)
    if workload == "sweep-dense-q2":
        # one graph per kind: three pairwise non-isomorphic families, so a
        # vertex-relabelling memo has nothing to reuse inside a pass
        kinds = dense_graphs(2 if tiny else 3)
        picks = [rng.choice(kinds[k]) for k in ("complete", "drop_loop", "drop_arc")]
        return [{"n": n, "arcs": arcs, "q": 2, "label": graph_key(n, arcs)} for n, arcs in picks]
    if workload == "battery-q3":
        by_class: dict[tuple, list] = {}
        for n, arcs in battery_graphs():
            by_class.setdefault(in_degrees(n, arcs), []).append((n, arcs))
        picks = []
        for cls, count in (BATTERY_TINY if tiny else BATTERY_PASS).items():
            picks += rng.sample(by_class[cls], count)
        rng.shuffle(picks)
        return [{"n": n, "arcs": arcs, "q": BATTERY_Q, "label": graph_key(n, arcs)}
                for n, arcs in picks]
    if workload == "bracket":
        reference = reference if reference is not None else load_reference()
        fixtures = reference["bracket"]["fixtures"]
        names = BRACKET_TINY_FIXTURES if tiny else sorted(fixtures)
        picks = [dict(fixtures[name], label=name) for name in names]
        pool = reference["bracket"]["pool"]
        if tiny:
            drawn = [rng.choice(cost_strata(pool, 4, BRACKET_STRATA[4])[0])]
        else:
            drawn = [rng.choice(stratum) for n, k in BRACKET_STRATA.items()
                     for stratum in cost_strata(pool, n, k)]
            rng.shuffle(drawn)
        return [{"n": g["n"], "arcs": tuple(map(tuple, g["arcs"])), "q": BRACKET_Q,
                 "label": g["label"]} for g in picks + drawn]
    raise ValueError(f"unknown workload {workload!r}")


def cost_strata(pool: dict, n: int, k: int) -> list[list[dict]]:
    """The pool graphs on n vertices in k equal runs of increasing cost."""
    graphs = sorted((entry["cost_s"], key) for key, entry in pool.items() if entry["n"] == n)
    size = len(graphs) // k
    return [[dict(pool[key], label=key) for _cost, key in graphs[i * size:(i + 1) * size]]
            for i in range(k)]


def _essential(table, q: int, k: int) -> bool:
    for j in range(k):
        stride = q ** j
        for idx in range(q ** k):
            if (idx // stride) % q == 0:
                for a in range(1, q):
                    if table[idx] != table[idx + a * stride]:
                        break
                else:
                    continue
                break
        else:
            return False
    return True


def table_orbits(n: int, arcs, q: int, strict: bool) -> dict:
    """Orbits of the outermost vertex's tables under alphabet relabelling.

    The outermost vertex is the one with the most local tables (lowest index
    on ties). Its tables are acted on by independent permutations of the
    alphabet on the vertex itself and on each of its inputs; the orbit count
    is what a Burnside-reduced sweep would enumerate in place of the tables.
    """
    ins = {v: sorted(u for u, w in arcs if w == v) for v in range(1, n + 1)}
    v0 = max(range(1, n + 1), key=lambda v: (len(ins[v]), -v))
    inputs = ins[v0]
    k = len(inputs)
    cells = q ** k
    tables = list(itertools.product(range(q), repeat=cells))
    if strict:
        tables = [t for t in tables if _essential(t, q, k)]
    coords = sorted(set(inputs) | {v0})
    perms = list(itertools.permutations(range(q)))
    digits = [[(idx // q ** j) % q for j in range(k)] for idx in range(cells)]
    seen = set()
    orbits = 0
    for table in tables:
        if table in seen:
            continue
        orbits += 1
        for sigma in itertools.product(perms, repeat=len(coords)):
            s = dict(zip(coords, sigma))
            image = [0] * cells
            for idx in range(cells):
                moved = sum(s[u][digits[idx][j]] * q ** j for j, u in enumerate(inputs))
                image[moved] = s[v0][table[idx]]
            seen.add(tuple(image))
        seen.add(table)
    return {"vertex": v0, "tables": len(tables), "orbits": orbits}


def pass_properties(workload: str, graphs: list[dict]) -> dict:
    """Counts of input properties that later optimizations depend on."""
    if workload == "battery-q3":
        seen = set()
        repeats = 0
        for g in graphs:
            cls = iso_class(g["n"], g["arcs"])
            repeats += cls in seen
            seen.add(cls)
        disconnected = sum(weak_component_count(g["n"], g["arcs"]) > 1 for g in graphs)
        return {"graphs": len(graphs), "iso_repeats": repeats, "disconnected": disconnected}
    if workload == "sweep-dense-q2":
        return {"table_orbits": {
            f"{g['label']}|{'strict' if strict else 'loose'}":
                table_orbits(g["n"], g["arcs"], g["q"], strict)
            for g in graphs for strict in (False, True)}}
    return {"graphs": len(graphs)}
