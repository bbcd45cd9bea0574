"""The in-process workloads: ``infer-noisy`` and ``train-inloop``.

Each is a class with the same five steps, driven by :func:`drive`:

* ``prepare()`` — untimed fixture: everything the seed decides.
* ``setup()`` — timed: from the first call into the program until a
  request can be timed (``setup_s``).
* ``request(state, index)`` — one request; returns work units, whether
  its output passed the per-request check, and the result.
* ``check(state, window)`` — the output check outside the window.
* ``accuracy(window)`` — classification accuracy on a fixed prefix of
  requests, so it is deterministic per seed (reported by traced runs).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import common
import tracer as tr

from repro.api import InferenceJob, Simulator, TrainingJob
from repro.nn.parameter import flatten_parameters, load_flat_parameters
from repro.xbar import NOISY_DEVICE, CrossbarEngineConfig


def _seeds(seed: int, salt: int, count: int) -> List[int]:
    """``count`` distinct seeds derived from the run seed."""
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.choice(2**31 - 1, size=count,
                                       replace=False)]


class InferNoisy:
    """MNIST-CNN inference on the noisy full analog datapath."""

    name = "infer-noisy"
    workload = "mnist_cnn"
    #: Requests whose correctness makes up ``accuracy``.
    accuracy_requests = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CrossbarEngineConfig(
            device=NOISY_DEVICE, fast_ideal=False, backend="vectorized"
        )
        self.input_seeds = _seeds(seed, 1, 4096)
        self.warm_seed, self.verify_seed = _seeds(seed, 2, 2)

    def prepare(self) -> None:
        # Fixture, not set-up: the seed's network trained briefly on the
        # float path, so accuracy sits well above chance.
        trainer = Simulator.from_workload(
            self.workload, seed=self.seed, deploy=False
        )
        trainer.run(TrainingJob(
            workload=self.workload, seed=self.seed, epochs=1, batch=16,
            train_count=256, test_count=32, learning_rate=0.1,
        ))
        self.weights = flatten_parameters(trainer.network.parameters())

    def _simulator(self, backend: str = "vectorized") -> Simulator:
        sim = Simulator.from_workload(
            self.workload, engine_config=self.config, backend=backend,
            seed=self.seed,
        )
        load_flat_parameters(sim.network.parameters(), self.weights)
        return sim

    def _job(self, input_seed: int) -> InferenceJob:
        return InferenceJob(
            workload=self.workload, seed=self.seed, count=1, batch=1,
            input_seed=input_seed,
        )

    def setup(self) -> Simulator:
        sim = self._simulator()
        sim.run(self._job(self.warm_seed))  # programs every array
        return sim

    def request(self, sim: Simulator, index: int) -> Tuple[float, bool, Any]:
        result = sim.run(self._job(self.input_seeds[index]))
        ok = result.outputs.shape == (1, sim.dataset.classes) and bool(
            np.all(np.isfinite(result.outputs))
        )
        return 1.0, ok, result

    def check(self, sim: Simulator, window: common.Window) -> bool:
        job = self._job(self.verify_seed)
        loop = self._simulator("loop").run(job)
        vectorized = self._simulator("vectorized").run(job)
        return bool(
            np.array_equal(loop.outputs, vectorized.outputs)
            and loop.stats == vectorized.stats
        )

    def accuracy(self, window: common.Window) -> float:
        head = window.results[: self.accuracy_requests]
        return statistics.fmean(r.accuracy for r in head if r is not None)


class TrainInloop:
    """Crossbar-in-the-loop SGD on the default (ideal) engine."""

    name = "train-inloop"
    workload = "mnist_cnn"
    #: ``accuracy`` is the final test accuracy after this many requests.
    accuracy_requests = 8
    train_count = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        (self.warm_seed,) = _seeds(seed, 3, 1)

    def prepare(self) -> None:
        pass

    def _job(self) -> TrainingJob:
        return TrainingJob(
            workload=self.workload, seed=self.seed, epochs=1, batch=16,
            train_count=self.train_count, test_count=64,
        )

    def setup(self) -> Simulator:
        sim = Simulator.from_workload(self.workload, seed=self.seed)
        sim.run(InferenceJob(  # programs every array
            workload=self.workload, seed=self.seed, count=1, batch=1,
            input_seed=self.warm_seed,
        ))
        return sim

    def request(self, sim: Simulator, index: int) -> Tuple[float, bool, Any]:
        result = sim.run(self._job())
        ok = bool(np.all(np.isfinite(result.batch_losses)))
        return float(self.train_count), ok, result

    def check(self, sim: Simulator, window: common.Window) -> bool:
        first = window.results[0]
        if first is None:
            return False
        fresh = self.setup().run(self._job())
        return (
            fresh.batch_losses[-1] == first.batch_losses[-1]
            and fresh.final_accuracy == first.final_accuracy
        )

    def accuracy(self, window: common.Window) -> float:
        last = window.results[self.accuracy_requests - 1]
        return last.final_accuracy if last is not None else 0.0


IN_PROCESS = {cls.name: cls for cls in (InferNoisy, TrainInloop)}


def drive(workload: Any, seconds: float, trace: bool, out_dir: Path
          ) -> Tuple[bool, int, int, Dict[str, float]]:
    """Run one benchmark invocation of an in-process workload.

    A traced run alternates untraced and traced requests in one window,
    installing the layer wrappers around every second request, so both
    kinds see the same simulator, warm-up and host conditions; the
    trace overhead compares their median latencies.
    """
    workload.prepare()
    # The fixture's peak is not the program's.
    common.reset_peak_rss()
    setup_s, state = common.repeated_setup(
        lambda: common.timed(workload.setup))
    if not trace:
        window = common.closed_loop(
            seconds, lambda i: workload.request(state, i))
        # Read before the output check, whose fresh simulators are not
        # part of the timed program.
        rss = common.peak_rss_mb()
    else:
        tracer = tr.Tracer()
        timings: Dict[bool, List[float]] = {False: [], True: []}
        traced: List[Tuple[float, Any]] = []

        def request(index: int) -> Tuple[float, bool, Any]:
            is_traced = index % 2 == 1
            uninstall = tr.install(tracer) if is_traced else None
            try:
                with tracer.request(f"{workload.name}-{index}"):
                    started = time.perf_counter()
                    units, ok, result = workload.request(state, index)
                    timings[is_traced].append(time.perf_counter() - started)
            finally:
                if uninstall is not None:
                    uninstall()
            if is_traced:
                traced.append((units, result))
            return units, ok, result

        # Accuracy needs a fixed prefix of requests, and the overhead
        # one request of each kind.
        window = common.closed_loop(
            seconds, request,
            min_requests=max(workload.accuracy_requests, 2),
        )
    check_ok = workload.check(state, window)
    failed = window.failed if check_ok else window.attempted
    correct = check_ok and window.failed == 0
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": window.ops_per_s,
            "latency_p50_ms": common.quantile(window.latencies, 0.5) * 1e3,
            "ok_frac": (window.attempted - failed) / window.attempted,
            "peak_rss_mb": rss,
        }
        return correct, window.attempted, failed, metrics

    spans = tracer.spans
    tracer.write_chrome_trace(out_dir / f"trace-{workload.name}.json")
    traced_ops = sum(units for units, _ in traced)
    metrics = common.layer_metrics(spans, traced_ops)
    metrics["telemetry.trace_overhead_frac"] = 1.0 - (
        statistics.median(timings[False]) / statistics.median(timings[True])
    )
    metrics["accuracy"] = workload.accuracy(window)
    metrics["latency_p99_ms"] = common.tail_p99_ms(window.latencies)
    return correct, window.attempted, failed, metrics
