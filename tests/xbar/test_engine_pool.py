"""The vectorized backend's strip pool: parallel, yet bit-for-bit serial.

The noisy full path splits each matmul into one task per (slice
plane, block column) strip and runs the strips on a thread pool sized
by the process's CPU affinity.  These tests pin that the worker count
never shows in any output byte, counter or joule; that a forked
process builds its own pool instead of waiting on the parent's dead
threads; and that paths which never reach the pool start no thread.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.arch.components import event_costs
from repro.arch.params import DEFAULT_TECH
from repro.sweep import SweepCell, register_cell_kind, run_sweep
from repro.telemetry import Collector, attribute_energy
from repro.xbar.device import NOISY_DEVICE, PIPELAYER_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

UPSET_DEVICE = replace(PIPELAYER_DEVICE, upset_rate=0.05)
DRIFT_DEVICE = replace(PIPELAYER_DEVICE, drift_nu=0.1)

CONFIGS = {
    "noisy": dict(device=NOISY_DEVICE),
    "upset": dict(device=UPSET_DEVICE),
    "drift": dict(device=DRIFT_DEVICE),
    "lossy-adc": dict(device=NOISY_DEVICE, adc_bits=3),
}

#: More workers than this host has cores, so threads must time-share.
OVERSUBSCRIBED = (os.cpu_count() or 1) + 3

needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method required",
)


def small_config(**overrides):
    defaults = dict(array_rows=16, array_cols=16, fast_ideal=False)
    defaults.update(overrides)
    return CrossbarEngineConfig(**defaults)


def pretend_cpus(monkeypatch, count):
    """Make the affinity lookup report ``count`` usable CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)),
        raising=False,
    )


def run_engine(kwargs, weights, batches):
    """Output bytes of each call, the counter tree and its priced energy."""
    collector = Collector()
    engine = CrossbarEngine(small_config(**kwargs), rng=9, collector=collector)
    engine.prepare(weights)
    outputs = [engine.matmul(batch).tobytes() for batch in batches]
    counters = collector.counters()
    energy = attribute_energy(counters, event_costs(DEFAULT_TECH))
    return engine, {
        "outputs": outputs,
        "counters": json.dumps(counters, sort_keys=True),
        "energy": json.dumps(energy, sort_keys=True),
    }


class TestWorkerCountInvisible:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_one_worker_equals_oversubscribed(self, name, monkeypatch, rng):
        # 40x40 weights on 16x16 arrays: 3 block rows and 3 block
        # columns per plane, so far more strips than cores.
        weights = rng.normal(size=(40, 40))
        batches = [rng.normal(size=(5, 40)) for _ in range(3)]
        pretend_cpus(monkeypatch, 1)
        serial, expected = run_engine(CONFIGS[name], weights, batches)
        assert serial._strips._executor is None
        pretend_cpus(monkeypatch, OVERSUBSCRIBED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled, got = run_engine(CONFIGS[name], weights, batches)
        finally:
            sys.setswitchinterval(interval)
        assert pooled._strips._executor is not None
        assert got == expected

    def test_forked_child_rebuilds_the_pool(self, monkeypatch, rng):
        pretend_cpus(monkeypatch, 2)
        engine = CrossbarEngine(small_config(device=NOISY_DEVICE), rng=0)
        engine.prepare(rng.normal(size=(20, 20)))
        engine.matmul(rng.normal(size=(2, 20)))
        inherited = engine._strips._executor
        assert inherited is not None
        monkeypatch.setattr(os, "getpid", lambda: -1)
        engine.matmul(rng.normal(size=(2, 20)))
        assert engine._strips._executor is not None
        assert engine._strips._executor is not inherited


def noisy_cell(spec, collector):
    engine = CrossbarEngine(
        small_config(device=NOISY_DEVICE), rng=spec["seed"],
        collector=collector,
    )
    data = np.random.default_rng(spec["seed"])
    engine.prepare(data.normal(size=(40, 40)))
    return {"out": engine.matmul(data.normal(size=(4, 40))).tolist()}


register_cell_kind("noisy_pool_cell", noisy_cell)


@needs_fork
def test_fork_after_pool_use_matches_serial(monkeypatch, rng):
    """Sweep workers forked from a process whose engine already ran its
    pool must finish, and match the in-process bytes."""
    pretend_cpus(monkeypatch, 2)
    parent = CrossbarEngine(small_config(device=NOISY_DEVICE), rng=1)
    parent.prepare(rng.normal(size=(40, 40)))
    parent.matmul(rng.normal(size=(3, 40)))
    assert parent._strips._executor is not None
    cells = [
        SweepCell("noisy_pool_cell", {"name": f"n{seed}", "seed": seed})
        for seed in range(4)
    ]
    serial = run_sweep(cells, workers=1)
    done = {}

    def forked():
        done["run"] = run_sweep(cells, workers=2, mp_context="fork")

    runner = threading.Thread(target=forked, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "forked sweep workers hung"
    assert json.dumps(done["run"].payloads, sort_keys=True) == json.dumps(
        serial.payloads, sort_keys=True
    )


def test_fast_paths_start_no_thread():
    """Importing the package and running the fast-ideal or collapsed
    matmul never touches the pool."""
    code = textwrap.dedent(
        """
        import threading
        import numpy as np
        import repro.xbar
        from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

        assert threading.active_count() == 1, threading.enumerate()
        data = np.random.default_rng(0)
        for fast_ideal in (True, False):
            engine = CrossbarEngine(
                CrossbarEngineConfig(
                    array_rows=16, array_cols=16, fast_ideal=fast_ideal
                ),
                rng=0,
            )
            engine.prepare(data.normal(size=(40, 40)))
            engine.matmul(data.normal(size=(3, 40)))
            assert engine._strips._executor is None
            if not fast_ideal:
                assert engine._vector.collapsed is not None
        assert threading.active_count() == 1, threading.enumerate()
        """
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
