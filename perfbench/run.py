"""fdsrank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 10 --trace 0

A run starts one fresh worker process per pass (``worker.py``) and keeps
starting passes until ``--seconds`` have passed, with at least one. With
``--trace 0`` it first starts ``SETUP_RUNS`` set-up-only workers and reports
the end-to-end metrics; with ``--trace 1`` it runs each pass twice, traced
and then untraced on the same inputs, and reports the per-layer metrics.
Each worker runs one thread (the BLAS pools are pinned to one) on the numpy
backend. ``--tiny`` swaps in test-sized inputs.

The second-to-last line of stdout is a detail record (environment, input
properties, failures, latency sample counts); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 2 means the
program source is missing, 3 that a worker failed; neither prints a result.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FDSRANK_NO_NUMBA": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "systems_per_s": "1/s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.calls": "count", "kernels.busy_s": "s", "kernels.systems": "count",
    "kernels.states": "count", "kernels.map_cells": "count", "kernels.bytes_computed": "B",
    "enumeration.busy_s": "s", "enumeration.self_s": "s",
    "enumeration.table_cache_hits": "count", "enumeration.table_cache_misses": "count",
    "enumeration.systems_reported": "count", "enumeration.swept_share": "ratio",
    "ratlp.calls": "count", "ratlp.busy_s": "s", "ratlp.rows": "count",
    "bounds.busy_s": "s", "bounds.self_s": "s", "bounds.entropy_calls": "count",
    "bounds.entropy_busy_s": "s", "bounds.code_busy_s": "s",
    "invariants.calls": "count", "invariants.busy_s": "s",
    "canonical.calls": "count", "canonical.busy_s": "s", "canonical.failed": "count",
    "constructions.busy_s": "s",
    "fds.map_array_calls": "count", "fds.map_array_busy_s": "s",
    "fds.states_mapped": "count", "fds.map_cache_hits": "count",
    "cli.busy_s": "s", "cli.self_s": "s",
    "digraph.busy_s": "s",
    "trace.overhead_s": "s",
}

# Latency percentiles are over graphs, weighted. On the sweeps a graph weighs
# the systems it sweeps, so they give the latency that the median or last
# system waited for. On the bracket each seed-drawn graph weighs 1 and each
# fixture 0: nine of the ten fixtures take milliseconds, and counting them
# would put the median on the edge between cheap and expensive graphs. A
# bracket pass draws 60 graphs, so p83 has at least ten beyond it in every
# run; a sweep pass has 3 or 11 graphs, too few for any tail below the
# maximum.
TAIL_PERCENTILE = {"sweep-dense-q2": 100, "battery-q3": 100, "bracket": 83}


class WorkerFailed(Exception):
    pass


def run_worker(spec: dict) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {spec} ran over {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"worker {spec} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(samples, p: float) -> float:
    """Weighted nearest-rank percentile of (value, weight) samples: the
    smallest value whose samples, with all smaller ones, hold p% of the weight."""
    ordered = sorted(samples)
    total = sum(w for _v, w in ordered)
    reached = 0
    for value, weight in ordered:
        reached += weight
        if reached >= p / 100 * total:
            return value
    return ordered[-1][0]


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment(args, program_caches) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    reference = workloads.load_reference()["recorded_at"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba") if importlib.util.find_spec("numba") else "absent",
        "backend": "numpy (FDSRANK_NO_NUMBA=1)",
        "threads_per_worker": 1,
        "cpu_caches": cpu_caches(),
        "program_caches": program_caches,
        "seed": args.seed,
        "commit": git_commit(),
        "src_digest": src_digest(),
        "reference_recorded_at": reference,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def src_digest() -> str:
    """Digest of the program source, which names the version where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT / "src")).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def merge_properties(workload: str, passes: list[dict]) -> dict:
    props = [p["properties"] for p in passes]
    if workload == "battery-q3":
        total = {k: sum(p[k] for p in props) for k in ("graphs", "iso_repeats", "disconnected")}
        total["iso_repeat_share"] = total["iso_repeats"] / total["graphs"]
        total["disconnected_share"] = total["disconnected"] / total["graphs"]
        return total
    if workload == "sweep-dense-q2":
        return {"table_orbits": {k: v for p in props for k, v in p["table_orbits"].items()}}
    return {"graphs": sum(p["graphs"] for p in props)}


def run(args) -> tuple[dict, dict]:
    base = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny}
    setups = [] if args.trace else [
        run_worker({**base, "mode": "setup", "trace": False, "pass": 0})
        for _ in range(SETUP_RUNS)]
    traced, untraced = [], []
    start = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - start < args.seconds:
        spec = {**base, "mode": "pass", "pass": pass_index}
        if args.trace:
            traced.append(run_worker({**spec, "trace": True}))
        untraced.append(run_worker({**spec, "trace": False}))
        pass_index += 1

    records = [r for p in traced + untraced for r in p["records"]]
    failures = Counter(f"{r['call']}:{r['status']}" for r in records if r["status"] != "ok")
    correct = not any(r["status"] in ("wrong", "regressed") for r in records)
    # tracing must not change what the program returns
    correct = correct and all(t["records"] == u["records"] for t, u in zip(traced, untraced))

    walls = [p["wall_s"] for p in untraced]
    latencies = [(x, w) for p in untraced for x, w in zip(p["latencies_s"], p["weights"])]
    tail_p = TAIL_PERCENTILE[args.workload]
    p50_ms = percentile(latencies, 50) * 1000
    tail_ms = percentile(latencies, tail_p) * 1000
    if args.trace:
        metrics = {name: statistics.fmean(p["per_layer"][name] for p in traced)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(walls))
        units = PER_LAYER
    else:
        metrics = {
            "systems_per_s": sum(p["systems"] for p in untraced) / sum(walls),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": p50_ms,
            "latency_tail_ms": tail_ms,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": len(untraced),
        "pass_wall_s": walls,
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "graph_latencies_ms": [[round(x * 1000, 3) for x in p["latencies_s"]] for p in untraced],
        "setup_runs_s": [s["setup_s"] for s in setups],
        "latency": {"samples": sum(w > 0 for _x, w in latencies),
                    "weighted_by": "drawn graphs" if args.workload == "bracket" else "systems",
                    "p50_ms": p50_ms, "tail_percentile": tail_p, "tail_ms": tail_ms,
                    "beyond_tail": sum(x * 1000 > tail_ms for x, w in latencies if w > 0)},
        "failed_share": result["failed"] / result["attempted"],
        "failures": failures,
        "first_failures": [r for r in records if r["status"] != "ok"][:5],
        "properties": merge_properties(args.workload, untraced),
        "environment": environment(args, untraced[0]["program_caches"]),
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fdsrank" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'fdsrank'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        detail, result = run(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(detail, result=result), indent=1), encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
