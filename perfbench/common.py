"""Measurement helpers shared by every workload.

Host time is read with ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux, so stamps from the server subprocess compare directly with
the benchmark's own).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import tracer as tr

#: Set-ups per run: at least the minimum, then more until the set-up
#: phase has taken the budget in wall time; ``setup_s`` is their median.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 40
SETUP_BUDGET_S = 5.0

#: Every ``--trace 1`` metric, in output order.  Seconds are host self
#: time per work unit inside the traced window; counts are per work
#: unit too, so they do not depend on how many units fit the window.
PER_LAYER = (
    "xbar.matmul_s", "xbar.mvm_calls", "xbar.read_noise_s",
    "xbar.adc_quantize_s", "xbar.host_ns_per_adc_conversion",
    "xbar.dac_quantize_s", "xbar.prepare_s", "xbar.program_s",
    "xbar.map_weights_s", "xbar.array_reads", "xbar.adc_conversions",
    "xbar.fast_ideal_calls", "xbar.array_programs", "xbar.cell_writes",
    "xbar.prepare_skip_frac", "nn.forward_self_s", "nn.backward_s",
    "nn.im2col_s", "nn.optimizer_step_s", "datasets.generate_s",
    "core.deploy_s", "api.simulator_build_s",
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
    "serve.server_e2e_p50_ms", "serve.transport_mean_ms",
    "serve.cache_lookup_p50_ms", "serve.cache_hit_frac",
    "serve.coalesce_batch_mean_jobs", "serve.coalesced_frac",
    "serve.evaluate_s", "serve.lease_s", "load.send_lag_p99_ms",
    "telemetry.trace_overhead_frac", "accuracy", "latency_p99_ms",
)

#: Requests a p99 needs: ten beyond it.
TAIL_SAMPLES = 1000

#: ``--trace 0`` metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Self-time span names that map one-to-one onto a ``*_s`` metric.
_SELF_METRICS = {
    "xbar.matmul": "xbar.matmul_s",
    "xbar.read_noise": "xbar.read_noise_s",
    "xbar.adc_quantize": "xbar.adc_quantize_s",
    "xbar.dac_quantize": "xbar.dac_quantize_s",
    "xbar.prepare": "xbar.prepare_s",
    "xbar.program": "xbar.program_s",
    "xbar.map_weights": "xbar.map_weights_s",
    "nn.forward": "nn.forward_self_s",
    "nn.backward": "nn.backward_s",
    "nn.im2col": "nn.im2col_s",
    "nn.optimizer_step": "nn.optimizer_step_s",
    "datasets.generate": "datasets.generate_s",
    "core.deploy": "core.deploy_s",
    "api.simulator_build": "api.simulator_build_s",
    "serve.lease": "serve.lease_s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns_per_adc_conversion"):
        return "ns"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_frac") or name == "accuracy":
        return "frac"
    if name.endswith("_jobs"):
        return "jobs"
    return "count/op"


#: ``ops_per_s`` of a closed loop is the median throughput of this
#: many consecutive blocks of requests, so a slow phase of the host that
#: covers fewer than half of the blocks does not move it.
OPS_BLOCKS = 8


@dataclass
class Window:
    """What one timed window measured."""

    latencies: List[float] = field(default_factory=list)
    #: ``(start_ns, end_ns, work units)`` of every request, in order.
    stamps: List[Tuple[int, int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    results: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Median over :data:`OPS_BLOCKS` blocks of units per second."""
        count = len(self.stamps)
        blocks = min(OPS_BLOCKS, count)
        rates = []
        for block in range(blocks):
            part = self.stamps[block * count // blocks:
                               (block + 1) * count // blocks]
            seconds = (part[-1][1] - part[0][0]) / 1e9
            rates.append(sum(units for _, _, units in part) / seconds)
        return statistics.median(rates)


def closed_loop(
    seconds: float,
    request: Callable[[int], Tuple[float, bool, object]],
    min_requests: int = 1,
) -> Window:
    """Issue requests back to back for ``seconds`` (at least ``min``).

    ``request(index)`` returns ``(work units, output ok, result)``; an
    exception counts as a failed request, with no units, and leaves
    ``None`` in ``results``.  The window closes after the request that
    crosses the deadline.
    """
    window = Window()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    index = 0
    while time.perf_counter_ns() < deadline or \
            window.attempted < min_requests:
        started = time.perf_counter_ns()
        window.attempted += 1
        try:
            units, ok, result = request(index)
        except Exception:  # a failed request, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            window.failed += 1
            window.results.append(None)
            window.stamps.append((started, time.perf_counter_ns(), 0.0))
        else:
            ended = time.perf_counter_ns()
            window.latencies.append((ended - started) / 1e9)
            window.stamps.append((started, ended, units))
            window.results.append(result)
            if not ok:
                window.failed += 1
        index += 1
    return window


def repeated_setup(
    setup: Callable[[], Tuple[float, object]]
) -> Tuple[float, object]:
    """Median set-up seconds over several set-ups, and the last state.

    ``setup()`` returns its own set-up seconds with its state, so that
    work which is not set-up (a server's interpreter start) stays out.
    """
    times: List[float] = []
    started = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or (
        time.perf_counter() - started < SETUP_BUDGET_S
        and len(times) < SETUP_MAX_REPEATS
    ):
        seconds, state = setup()
        times.append(seconds)
    return statistics.median(times), state


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    """Host seconds ``call()`` took, and what it returned."""
    started = time.perf_counter()
    state = call()
    return time.perf_counter() - started, state


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive ``q``-quantile (``statistics.quantiles`` convention)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    if q == 0.5:
        return statistics.median(ordered)
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def tail_p99_ms(latencies: Sequence[float]) -> float:
    """p99 in ms, or 0 when fewer than 1,000 samples (ten beyond it)."""
    if len(latencies) < TAIL_SAMPLES:
        return 0.0
    return quantile(latencies, 0.99) * 1e3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    return int(status_field("VmHWM", pid)) / 1024.0


def status_field(name: str, pid: Optional[int] = None) -> str:
    """First value of ``name`` in a live process's ``/proc`` status."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(name + ":"):
                return line.split()[1]
    raise RuntimeError(f"no {name} in {path}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def layer_metrics(spans: Sequence[tr.Span], ops: float) -> Dict[str, float]:
    """Per-layer self time and engine counts, per work unit."""
    per_op = 1.0 / ops if ops else 0.0
    selfs = tr.self_times(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in _SELF_METRICS.items():
        metrics[metric] = selfs.get(span_name, 0.0) * per_op
    matmul = tr.counts(spans, "xbar.matmul")
    for key in tr.MATMUL_COUNTERS:
        metrics[f"xbar.{key}"] = matmul.get(key, 0.0) * per_op
    prepare = tr.counts(spans, "xbar.prepare")
    for key in ("array_programs", "cell_writes"):
        metrics[f"xbar.{key}"] = prepare.get(key, 0.0) * per_op
    if prepare.get("calls"):
        metrics["xbar.prepare_skip_frac"] = (
            prepare.get("prepare.skips", 0.0) / prepare["calls"]
        )
    conversions = matmul.get("adc_conversions", 0.0)
    if conversions:
        inclusive = sum(tr.durations(spans, "xbar.matmul"))
        metrics["xbar.host_ns_per_adc_conversion"] = (
            inclusive / conversions * 1e9
        )
    return metrics


def environment() -> dict:
    """Host facts each result records beside its metrics."""
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {k: info.get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    threads = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
    }
    return {
        "nproc": nproc(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thp_enabled": status_field("THP_enabled"),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
