"""Tests of the benchmark itself: smoke runs, metric names, wrapper removal.

    python3 -m pytest perfbench/tests -q

Each smoke run measures a zero-second window, which still runs one
operation, so the file takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import perlayer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("distill", "explore")
_results: dict = {}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict]:
    key = (workload, trace, seed)
    if key not in _results:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _results[key] = (lines, json.loads(lines[-1]))
    return _results[key]


def test_declared_metrics_match_code():
    s = spec()
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == perlayer.UNITS
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in s["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == declared


def test_end_to_end_metrics_are_positive():
    for workload in WORKLOADS:
        _, result = bench(workload, 0)
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_same_seed_gives_identical_parameters():
    def digest(lines):
        return [line for line in lines if line.strip().startswith("digest ")]

    first = digest(bench("distill", 0)[0])
    _results.pop(("distill", 0, 5))
    assert first and digest(bench("distill", 0)[0]) == first


def test_traced_counts_repeat_across_runs():
    counts = [name for name, (_, kind, _, _) in perlayer.PER_LAYER.items()
              if kind in perlayer.COUNT_KINDS]
    first = bench("explore", 1)[1]["metrics"]
    _results.pop(("explore", 1, 5))
    second = bench("explore", 1)[1]["metrics"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["nn.build_network_calls"]["value"] > 0


def _package_attributes(tracer):
    snapshot = {}
    for short, module in tracer.modules.items():
        for attr, obj in vars(module).items():
            snapshot[(short, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for method, fn in vars(obj).items():
                    snapshot[(short, attr, method)] = fn
    return snapshot


def test_tracer_wrappers_are_fully_removed():
    modules = tracing.package_modules()
    tensor, training = modules["tensor"], modules["training"]
    tracer = tracing.Tracer(modules)
    before = _package_attributes(tracer)
    tracer.install()
    try:
        wrapped = tracer.installed_wrappers()
        assert "generator.quantize_codes" in wrapped and "optim.RAdam.step" in wrapped
        tensor.matmul(tensor.as_matrix([[1.0]]), tensor.as_matrix([[2.0]]))
        with tracing.StepClock(training):
            assert "training.kd_loss" in tracer.installed_wrappers()
    finally:
        tracer.remove()
    assert tracer.installed_wrappers() == []
    after = _package_attributes(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(span[0] == "tensor.matmul" for span in tracer.spans)


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 1.0, -1, 1, 0.0], ["inner", 0.25, 0.75, 0, 1, 2.0]]
    rows = tracing.summarize(spans)[1]
    assert rows["outer"]["self_s"] == pytest.approx(0.5)
    assert rows["outer"]["incl_s"] == pytest.approx(1.0)
    assert rows["inner"]["amount"] == 2.0
