"""Tests of the benchmark itself.  From the repository root:

    python -m pytest bench/tests -q
"""

import contextlib
import copy
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _config():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed_and_match_the_code():
    config = _config()
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {
        n: tracer.metric_unit(n) for n in tracer.METRICS}
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_end_to_end(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["outcomes"]
    assert result["failed"] == 0 and result["attempted"] == len(workloads.TINY[workload])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expected_answer_counts_as_failure():
    bad = copy.deepcopy(workloads.load_expected())
    bad["scan-classify"]["scan-11"] = "0" * 64
    result = run.measure("scan-classify", seed=3, seconds=0, trace=False, expected=bad, tiny=True)
    assert not result["correct"]
    # scan-11 fails, and power-identity still runs and passes.
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)


def _namespaces_snapshot():
    snap = {}
    mods = [importlib.import_module(f"h1loc.{layer}") for layer in tracer.LAYERS]
    for mod in (importlib.import_module("h1loc"), *mods):
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, dict):
                snap[(mod.__name__, attr, "items")] = dict(obj)
    for mod in mods:
        for cls in tracer.defined_classes(mod):
            snap[(mod.__name__, cls.__name__, "class")] = dict(vars(cls))
    return snap


def test_traced_counts_repeat_and_wrappers_are_removed():
    before = _namespaces_snapshot()
    first = run.measure("h1loc-input", seed=3, seconds=0, trace=True, tiny=True)
    second = run.measure("h1loc-input", seed=3, seconds=0, trace=True, tiny=True)
    assert _namespaces_snapshot() == before
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(tracer.METRICS)
    counts = [n for n in tracer.METRICS if tracer.metric_unit(n) == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["cohomology.system.builds"]["value"] > 0
    assert first["metrics"]["zmod.howell.rows_in"]["value"] > 0


def test_layer_self_times_partition_the_traced_time():
    import h1loc.cli

    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert h1loc.cli.main(["power-identity", "--primes", "5", "--seed", "1"]) == 0
    finally:
        t.remove()
    roots = [i for i in range(len(t.start)) if t.parent[i] < 0]
    assert [t.names[t.span_name[i]] for i in roots] == ["cli.main"]
    metrics = t.metrics()
    total = sum(metrics[m] for m in tracer.SELF_METRICS)
    assert total == pytest.approx(t.end[roots[0]] - t.start[roots[0]], abs=1e-6)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
