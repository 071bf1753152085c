"""Tests of the benchmark itself: tiny runs, tracing, inputs, the contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def known_failures(workload, seed) -> dict:
    """Calls of a tiny pass that raised at the reference commit, by call name."""
    reference = workloads.load_reference()
    out = {}
    for g in workloads.pass_inputs(workload, seed, 0, tiny=True, reference=reference):
        if workload == "bracket":
            entry = reference["bracket"]["fixtures"].get(g["label"]) or \
                reference["bracket"]["pool"][g["label"]]
            for call, value in entry["calls"].items():
                if value is None:
                    out[f"{call}:raised"] = out.get(f"{call}:raised", 0) + 1
    return out


def tiny_run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(capsys, workload):
    detail, result = tiny_run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["environment"]["seed"] == 3
    # failures are counted, not filtered: the tiny bracket holds the directed
    # 3-cycle, on which absolute_minrank_bounds raises (a known defect)
    expected = known_failures(workload, 3)
    assert detail["failures"] == expected
    assert result["failed"] == sum(expected.values())
    if workload == "bracket":
        assert expected["minrank_bounds:raised"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(capsys, workload):
    _detail, result = tiny_run(capsys, workload, trace=1)
    assert result["correct"] is True  # includes: traced outputs equal untraced ones
    assert set(result["metrics"]) == set(run.PER_LAYER)
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "bracket":
        assert layer["kernels.calls"] == 0 and layer["enumeration.systems_reported"] == 0
        assert layer["cli.busy_s"] > 0
        assert layer["canonical.failed"] == known_failures(workload, 3)["minrank_bounds:raised"]
    else:
        assert layer["kernels.systems"] == layer["enumeration.systems_reported"] > 0
        assert layer["enumeration.swept_share"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_check_identical(workload, tmp_path):
    F = worker.import_program()
    reference = workloads.load_reference()
    spec = {"workload": workload, "seed": 5, "pass": 0, "tiny": True}
    plain = worker.run_pass(F, dict(spec, trace=False), reference, tmp_path)
    traced = worker.run_pass(F, dict(spec, trace=True), reference, tmp_path)
    assert plain["records"] == traced["records"]
    assert F.enumerate_stats is not None and not hasattr(F.enumerate_stats, "__wrapped__")


def test_inputs_follow_the_seed():
    for workload in ("sweep-dense-q2", "battery-q3", "bracket"):
        a = workloads.pass_inputs(workload, 11, 0, tiny=False)
        assert a == workloads.pass_inputs(workload, 11, 0, tiny=False)
        draws = {tuple(g["label"] for g in workloads.pass_inputs(workload, s, 0, tiny=False))
                 for s in range(8)}
        assert len(draws) > 1


def test_pass_work_does_not_depend_on_the_seed():
    def work(seed):
        return sorted(workloads.loose_family_size(g["n"], g["q"], g["arcs"])
                      for g in workloads.pass_inputs("battery-q3", seed, 0, tiny=False))
    assert all(work(s) == work(0) for s in range(1, 6))
    sizes = [len(workloads.pass_inputs("bracket", s, 0, tiny=False)) for s in range(6)]
    assert set(sizes) == {70}
    reference = workloads.load_reference()
    for n, k in workloads.BRACKET_STRATA.items():
        strata = workloads.cost_strata(reference["bracket"]["pool"], n, k)
        assert sum(map(len, strata)) == sum(e["n"] == n for e in reference["bracket"]["pool"].values())


def test_table_orbits_of_the_dense_family():
    full = workloads.dense_graphs(3)["complete"][0]
    assert workloads.table_orbits(*full, 2, strict=False) == {"vertex": 1, "tables": 256, "orbits": 46}


def test_latency_percentiles_weigh_each_sample():
    assert run.percentile([(3, 1), (1, 1), (4, 1), (2, 1)], 50) == 2
    assert run.percentile([(3, 1), (1, 1), (4, 1), (2, 1)], 100) == 4
    # a sweep graph weighs the systems it sweeps
    assert run.percentile([(1.0, 1), (20.0, 9)], 50) == 20.0


def test_layer_metrics_self_time_subtracts_children():
    s = [["enumeration.enumerate_stats", 0.0, 10.0, -1, False],
         ["kernels.family_histograms", 1.0, 7.0, 0, False],
         ["digraph.fingerprint", 8.0, 9.0, 0, False],
         ["canonical.absolute_minrank_bounds", 11.0, 12.0, -1, True]]
    m = spans.layer_metrics(s, {}, (0, 0))
    assert m["enumeration.busy_s"] == 10.0
    assert m["enumeration.self_s"] == 3.0
    assert m["kernels.busy_s"] == 6.0 and m["kernels.calls"] == 1
    assert m["canonical.failed"] == 1
    assert set(m) == set(run.PER_LAYER) - {"trace.overhead_s"}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] <= 0.25 for m in spec["end_to_end"] if m is not setup)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bracket",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
