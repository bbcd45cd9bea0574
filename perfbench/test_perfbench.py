"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q

They take about two minutes: the smoke runs execute every
workload for one second, traced and untraced (plus set-up and output
checks).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import common  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

COUNTS = ("xbar.mvm_calls", "xbar.array_reads", "xbar.adc_conversions",
          "xbar.fast_ideal_calls", "xbar.array_programs", "xbar.cell_writes")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
          seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        common.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(common.PER_LAYER)
    for metric in spec["per_layer"]:
        assert metric["unit"] == common.unit_of(metric["name"])
    assert spec["paths"] == ["perfbench"]


def test_self_times_sum_to_no_more_than_wall():
    from repro.api import Simulator, TrainingJob

    sim = Simulator.from_workload("mnist_cnn", seed=3)
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        started = time.perf_counter_ns()
        sim.run(TrainingJob(workload="mnist_cnn", seed=3, epochs=1,
                            batch=8, train_count=16, test_count=8))
        wall = (time.perf_counter_ns() - started) / 1e9
    finally:
        uninstall()
    spans = tracer.spans
    assert {"api.run", "xbar.matmul", "nn.forward", "nn.backward",
            "nn.im2col", "xbar.prepare"} <= {s[0] for s in spans}
    assert all(0 <= s[3] <= s[2] - s[1] for s in spans)
    assert sum(tr.self_times(spans).values()) <= wall
    # Wrappers are gone again: the engine method is the original.
    from repro.xbar.engine import CrossbarEngine
    assert not hasattr(CrossbarEngine.matmul, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = tr.Tracer()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    by_name = {s[0]: s for s in tracer.spans}
    inner_span, outer_span = by_name["inner"], by_name["outer"]
    assert inner_span[5] == outer_span[4]  # parent link
    assert inner_span[6] == outer_span[6]  # same request id
    assert outer_span[3] == (outer_span[2] - outer_span[1]) - (
        inner_span[2] - inner_span[1])


def test_ops_per_s_is_the_median_block_rate():
    window = common.Window()
    now = 0
    # Twelve requests at 10 units/s, then a slow stretch of four at 1/s.
    for seconds in [0.1] * 12 + [1.0] * 4:
        window.stamps.append((now, now + int(seconds * 1e9), 1.0))
        now += int(seconds * 1e9)
    assert window.ops_per_s == pytest.approx(10.0)
    window.stamps = window.stamps[:3]  # fewer requests than blocks
    assert window.ops_per_s == pytest.approx(10.0)


def test_engine_counters_repeat_for_a_fixed_seed():
    first = result(bench("train-inloop", 5, trace=1))["metrics"]
    second = result(bench("train-inloop", 5, trace=1))["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["xbar.array_programs"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_stay_on_their_own_workload(workload):
    done = result(bench(workload, 3, trace=1))
    assert done["correct"]
    metrics = {k: v["value"] for k, v in done["metrics"].items()}
    assert list(metrics) == list(common.PER_LAYER)
    used = [k for k, v in metrics.items() if k.startswith("serve.") and v]
    assert bool(used) == (workload == "serve-mix"), used
    assert metrics["accuracy"] > 0
    assert (metrics["xbar.read_noise_s"] > 0) == (workload == "infer-noisy")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct(workload):
    done = result(bench(workload, 2, trace=0))
    assert done["correct"] and done["failed"] == 0
    metrics = done["metrics"]
    assert set(metrics) == set(common.END_TO_END)
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "infer-noisy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
