"""Record reference.json: the digest of every output the benchmark checks.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference; it takes about seven
to ten minutes on 2 vCPUs, most of it in the 127 battery graphs at q=3. It covers
every graph a seed can draw: the dense q=2 graphs on 2 and 3 vertices, the
127 battery graphs, the fixture catalog, and the bracket pool. The pool is
drawn once here: uniform random digraphs (each of the n*n arcs, loops
included, present with probability 1/2), 100 on 5 vertices and 50 on 4.
Each pool graph is timed three times, round-robin over the pool, and its
median kept as its cost; a pass draws one graph from each run of pool
graphs adjacent in that cost (see workloads.BRACKET_STRATA).
A call that raises is recorded as null: the benchmark counts it as failed
and compares nothing for it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run
import worker
import workloads

POOL = {5: 100, 4: 50}
COST_ROUNDS = 3


def record_graph(F, workload, g) -> dict:
    calls = {}
    for name, returned, value in worker.run_graph(F, workload, g):
        if not returned:
            calls[name] = None
            continue
        check = worker.bracket_problems if workload == "bracket" else worker.sweep_problems
        problems, normal = check(F, g, name, value)
        if problems:
            raise SystemExit(f"{g['label']} {name}: reference output breaks an identity: {problems}")
        calls[name] = worker.digest(normal)
    return calls


def pool_costs(F, graphs: dict) -> dict:
    """Median of COST_ROUNDS timings of each graph, taken round-robin so that
    drift in machine speed spreads evenly over the pool."""
    times = {key: [] for key in graphs}
    for _ in range(COST_ROUNDS):
        for key, g in graphs.items():
            t = time.perf_counter()
            worker.run_graph(F, "bracket", g)
            times[key].append(time.perf_counter() - t)
    return {key: statistics.median(v) for key, v in times.items()}


def main() -> int:
    F = worker.import_program()
    worker.OUT.mkdir(exist_ok=True)
    sweeps = {}
    sweep_graphs = [(n, arcs, 2) for n in (2, 3)
                    for kind in workloads.dense_graphs(n).values() for _, arcs in kind]
    sweep_graphs += [(n, arcs, workloads.BATTERY_Q) for n, arcs in workloads.battery_graphs()]
    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmpdir:
        tmp = Path(tmpdir)
        for n, arcs, q in sweep_graphs:
            label = workloads.graph_key(n, arcs)
            g = worker.prepare(F, "sweep", [{"n": n, "arcs": arcs, "q": q, "label": label}], tmp)[0]
            for name, value in record_graph(F, "sweep", g).items():
                sweeps[worker.sweep_key(label, q, name == "strict")] = value

        q = workloads.BRACKET_Q
        fixtures = {}
        for name, d in sorted(F.fixtures.CATALOG.items()):
            arcs = sorted(d.arcs)
            g = worker.prepare(F, "bracket", [{"n": d.n, "arcs": arcs, "q": q, "label": name}], tmp)[0]
            fixtures[name] = {"n": d.n, "arcs": arcs, "calls": record_graph(F, "bracket", g)}

        rng = random.Random("bracket-pool")
        graphs = {}
        for n, size in POOL.items():
            drawn = {}
            while len(drawn) < size:
                arcs = [p for p in workloads.all_pairs(n) if rng.random() < 0.5]
                drawn.setdefault(workloads.graph_key(n, arcs), arcs)
            for key, arcs in drawn.items():
                graphs[key] = worker.prepare(
                    F, "bracket", [{"n": n, "arcs": arcs, "q": q, "label": key}], tmp)[0]
        costs = pool_costs(F, graphs)
        pool = {key: {"n": g["n"], "arcs": g["arcs"], "cost_s": round(costs[key], 4),
                      "calls": record_graph(F, "bracket", g)} for key, g in graphs.items()}

    reference = {
        "recorded_at": {"commit": run.git_commit(), "src_digest": run.src_digest()},
        "sweeps": sweeps,
        "bracket": {"q": q, "fixtures": fixtures, "pool": pool},
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
