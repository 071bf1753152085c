"""One pass of a workload, or one set-up probe, in a fresh process.

    python3 perfbench/worker.py '{"workload": "bracket", "seed": 1, "pass": 0,
                                  "mode": "pass", "trace": false, "tiny": false}'

Prints one JSON object on stdout. ``run.py`` starts one worker per pass, so
no pass reuses what the program cached in an earlier one. A worker imports
the program from ``src/`` of the checkout it sits in, runs the workload's
probe (the set-up: import plus first-call lazy costs), then times the pass
graph by graph and checks every output after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_key(label: str, q: int, strict: bool) -> str:
    return f"{label}|q{q}|{'strict' if strict else 'loose'}"


# --- the work of one graph ----------------------------------------------------

def sweep_calls(F, g):
    return [(("strict" if strict else "loose"),
             lambda strict=strict: F.enumerate_stats(g["digraph"], g["q"], strict=strict))
            for strict in (False, True)]


def bracket_calls(F, g):
    d, path, q = g["digraph"], g["path"], g["q"]
    state = {}

    def canonical():
        c = state["c"] = F.canonicalize(d)
        return {"text": F.format_canonical(c), "chain": F.chain_bound(c),
                "product": F.product_bound(c), "independent_set": F.independent_set_bound(c)}

    def tightness():
        v = F.tightness_classify(state["c"])
        witness = None if v.witness is None else [v.witness.n, sorted(v.witness.arcs)]
        return {"tight": v.tight, "lower": v.lower, "upper": v.upper, "witness": witness}

    def minrank_bounds():
        b = F.absolute_minrank_bounds(d)
        return {"lower": b.lower, "upper": b.upper,
                "stabilization_q": b.stabilization_q, "exact": b.exact}

    def bounds(strict):
        out, err = io.StringIO(), io.StringIO()
        argv = ["bounds", str(path), "--q", str(q)] + (["--strict"] if strict else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = F.cli.main(argv)
        return {"exit": code, "stdout": out.getvalue()}

    def maxrank():
        w = F.maxrank_witness(d, q)
        return {"rank": F.rank(w), "inside": F.interaction_graph(w).arcs <= d.arcs}

    def maxper():
        w = F.maxper_witness(d, q)
        return {"periodic_rank": F.periodic_rank(w), "inside": F.interaction_graph(w).arcs <= d.arcs}

    def class_two():
        w = F.nilpotent_class_two(d, 3)
        return {"periodic_rank": F.periodic_rank(w), "same_graph": F.interaction_graph(w) == d}

    return [
        ("canonical", canonical),
        ("tightness", tightness),
        ("minrank_bounds", minrank_bounds),
        ("classify", lambda: {"verdict": F.minrank_classify(d)}),
        ("conjunctive_rank", lambda: {"rank": F.conjunctive_rank(d)}),
        ("bounds_loose", lambda: bounds(False)),
        ("bounds_strict", lambda: bounds(True)),
        ("maxrank_witness", maxrank),
        ("maxper_witness", maxper),
        ("class_two_witness", class_two),
    ]


def run_graph(F, workload: str, g) -> list[tuple[str, bool, object]]:
    """Every call of one graph: (call name, returned, value or exception name)."""
    calls = bracket_calls(F, g) if workload == "bracket" else sweep_calls(F, g)
    out = []
    for name, fn in calls:
        try:
            out.append((name, True, fn()))
        except Exception as exc:  # a failing call is counted, and the pass goes on
            out.append((name, False, type(exc).__name__))
    return out


# --- checks, made after the timed region ------------------------------------------

def sweep_problems(F, g, name, report) -> tuple[list[str], object]:
    d, q, strict = g["digraph"], g["q"], name == "strict"
    total = F.family_size(d, q, strict)
    problems = []
    if report.function_count != total:
        problems.append(f"function_count {report.function_count} != family_size {total}")
    for qname in ("rank", "periodic_rank", "fixed_points"):
        if sum(getattr(report, qname).histogram.values()) != total:
            problems.append(f"{qname} histogram total != family_size {total}")
    if not strict:
        if report.fixed_points.average != 1:
            problems.append(f"loose average fixed points {report.fixed_points.average} != 1")
        if report.rank.maximum != q ** F.max_independent_arcs(d):
            problems.append("loose max rank != q^max_independent_arcs")
        if report.periodic_rank.maximum != q ** F.max_cycle_cover(d):
            problems.append("loose max periodic rank != q^max_cycle_cover")
    return problems, report.to_json_dict()


def bracket_problems(F, g, name, value) -> tuple[list[str], object]:
    d, q = g["digraph"], g["q"]
    ok = True
    if name == "tightness":
        ok = not value["tight"] or value["lower"] == value["upper"]
    elif name == "minrank_bounds":
        ok = 1 <= value["lower"] <= value["upper"] and value["exact"] == (value["lower"] == value["upper"])
    elif name == "classify":
        ok = value["verdict"] in ("one", "two", "full", "other")
    elif name == "conjunctive_rank":
        ok = value["rank"] >= 1
    elif name.startswith("bounds_"):
        doc = json.loads(value["stdout"]) if value["exit"] == 0 else {}
        ok = bool(doc) and doc["consistent"] and doc["best_lower"] <= doc["best_upper"]
    elif name == "maxrank_witness":
        ok = value["inside"] and value["rank"] == q ** F.max_independent_arcs(d)
    elif name == "maxper_witness":
        ok = value["inside"] and value["periodic_rank"] == q ** F.max_cycle_cover(d)
    elif name == "class_two_witness":
        ok = value["same_graph"] and value["periodic_rank"] == 1
    return ([] if ok else [f"identity of {name} does not hold: {value}"]), value


def expected_digest(reference, workload, g, name):
    """The digest recorded at the reference commit; None where the call raised."""
    if workload == "bracket":
        section = reference["bracket"]
        entry = section["fixtures"].get(g["label"]) or section["pool"][g["label"]]
        return entry["calls"][name]
    return reference["sweeps"][sweep_key(g["label"], g["q"], name == "strict")]


def check_graph(F, reference, workload, g, results) -> list[dict]:
    """One record per call: its digest and status (ok, raised, regressed, wrong)."""
    records = []
    for name, returned, value in results:
        expected = expected_digest(reference, workload, g, name)
        if not returned:
            # a raise the reference also saw is the known defect; any other is a regression
            status = "raised" if expected is None else "regressed"
            records.append({"graph": g["label"], "call": name, "status": status,
                            "digest": None, "error": value})
            continue
        check = bracket_problems if workload == "bracket" else sweep_problems
        problems, normal = check(F, g, name, value)
        got = digest(normal)
        if expected is not None and got != expected:
            problems.append(f"digest {got} != reference {expected}")
        records.append({"graph": g["label"], "call": name, "digest": got,
                        "status": "wrong" if problems else "ok", "problems": problems})
    return records


# --- set-up probes ------------------------------------------------------------------

def prepare(F, workload, graphs, tmp: Path) -> list[dict]:
    """Digraphs for the graphs and, for the bracket, one graph file each."""
    out = []
    for g in graphs:
        d = F.Digraph(g["n"], g["arcs"])
        g = dict(g, digraph=d)
        if workload == "bracket":
            g["path"] = tmp / f"{digest(g['label'])}.graph"
            g["path"].write_text(F.format_digraph(d), encoding="utf-8")
        out.append(g)
    return out


PROBE_GRAPHS = {
    # each sweep's probe has a vertex with each of the sweep's largest table
    # sizes (3 and 2 inputs at q=2, 2 inputs at q=3) on a small family:
    # 8192 and 59049 loose systems
    "sweep-dense-q2": {"n": 3, "arcs": ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)), "q": 2},
    "battery-q3": {"n": 2, "arcs": ((1, 1), (2, 1)), "q": 3},
    "bracket": {"n": 2, "arcs": ((1, 2),), "q": workloads.BRACKET_Q},
}


def probe(F, workload, tmp: Path) -> None:
    """The first call of the workload's kind, so lazy costs are paid in set-up."""
    g = dict(PROBE_GRAPHS[workload], label="probe")
    for _name, returned, value in run_graph(F, workload, prepare(F, workload, [g], tmp)[0]):
        if not returned:
            raise RuntimeError(f"set-up probe of {workload} raised {value}")


def program_caches(F) -> dict:
    sizes = {}
    for layer in spans.LAYERS:
        module = sys.modules[f"{F.__name__}.{layer}"]
        for name, obj in sorted(vars(module).items()):
            if callable(getattr(obj, "cache_parameters", None)):
                sizes[f"{layer}.{name}"] = obj.cache_parameters()["maxsize"]
    return sizes


def import_program():
    sys.path.insert(0, str(SRC))
    import fdsrank
    import fdsrank.cli  # noqa: F401  (the bracket calls the CLI; the tracer wraps it)

    if Path(fdsrank.__file__).resolve().parent != (SRC / "fdsrank").resolve():
        raise SystemExit(f"fdsrank imported from {fdsrank.__file__}, not from {SRC}")
    return fdsrank


# --- one pass -------------------------------------------------------------------------

def run_pass(F, spec, reference, tmp: Path) -> dict:
    workload = spec["workload"]
    graphs = workloads.pass_inputs(workload, spec["seed"], spec["pass"], spec["tiny"], reference)
    prepared = prepare(F, workload, graphs, tmp)
    tracer = spans.Tracer()
    if spec["trace"]:
        tracer.install(F)
        cache_before = tracer.cache_stats("enumeration")
        tracer.active = True
    results, latencies = [], []
    start = time.perf_counter()
    for g in prepared:
        t = time.perf_counter()
        results.append(run_graph(F, workload, g))
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    tracer.active = False

    records = []
    for g, res in zip(prepared, results):
        records += check_graph(F, reference, workload, g, res)
    if workload == "bracket":
        fixtures = reference["bracket"]["fixtures"]
        weights = [0 if g["label"] in fixtures else 1 for g in graphs]
        systems = sum(r["status"] == "ok" for r in records if r["call"].endswith("_witness"))
    else:
        weights = [sum(value.function_count for _n, ok, value in res if ok) for res in results]
        systems = sum(weights)
    out = {
        "wall_s": wall,
        "latencies_s": latencies,
        "weights": weights,
        "systems": systems,
        "records": records,
        "properties": workloads.pass_properties(workload, graphs),
    }
    if spec["trace"]:
        hits, misses = tracer.cache_stats("enumeration")
        out["per_layer"] = spans.layer_metrics(
            tracer.spans, tracer.counters, (hits - cache_before[0], misses - cache_before[1]))
        tracer.write(OUT / f"spans-{workload}-seed{spec['seed']}-pass{spec['pass']}.json")
        tracer.uninstall()
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    reference = workloads.load_reference()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        t0 = time.perf_counter()
        F = import_program()
        probe(F, spec["workload"], tmp)
        result = {"setup_s": time.perf_counter() - t0, "program_caches": program_caches(F)}
        if spec["mode"] == "pass":
            result |= run_pass(F, spec, reference, tmp)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
