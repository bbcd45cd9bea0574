"""Layer-boundary spans recorded from outside the program.

The benchmark never edits ``src/repro``.  Instead :func:`install` wraps
public functions and methods of ``repro.xbar``, ``repro.nn``,
``repro.datasets``, ``repro.core``, ``repro.api`` and ``repro.serve``
with a thin timer.  Each
call becomes one span: name, start, end, parent span and the id of the
request it belongs to.  Nested calls on one thread nest as spans, so a
layer's *self time* is its duration minus the time its child spans
cover.

Spans live in memory and are written once, at exit, as Chrome-trace
JSON (:meth:`Tracer.chrome_trace`).

Engine wrappers also read the engine's own counter tree
(``engine.telemetry``, the collector every ``CrossbarEngine`` carries)
before and after each call and attach the deltas to the span, so
counts are measured where the work happens.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One finished span: name, start and end (``perf_counter_ns``), self
#: time (ns), span id, parent span id (0 = root), request id, pid,
#: thread id, counter deltas (or ``None``).
Span = Tuple[str, int, int, int, int, int, str, int, int, Optional[dict]]

#: Engine counters read around every ``CrossbarEngine.matmul`` call.
MATMUL_COUNTERS = (
    "mvm_calls",
    "array_reads",
    "adc_conversions",
    "fast_ideal_calls",
)
#: Engine counters read around every ``CrossbarEngine.prepare`` call.
PREPARE_COUNTERS = ("prepare.skips", "array_programs", "cell_writes")


class Tracer:
    """In-memory span recorder shared by every wrapped call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, request_id: str) -> "_Request":
        """Context manager: root spans opened inside carry this id."""
        return _Request(self, request_id)

    def enter(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            parent_id, request_id = parent[3], parent[5]
        else:
            parent_id = 0
            request_id = getattr(self._local, "request_id", None) or (
                f"{self._pid}.{span_id}"
            )
        frame = [name, time.perf_counter_ns(), 0, span_id, parent_id,
                 request_id, None]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        span = (frame[0], frame[1], end, duration - frame[2], frame[3],
                frame[4], frame[5], self._pid, threading.get_ident(),
                frame[6])
        with self._lock:
            self.spans.append(span)

    # -- export ---------------------------------------------------------------
    def chrome_trace(self, spans: Optional[Iterable[Span]] = None) -> dict:
        """Chrome-trace (``chrome://tracing`` / Perfetto) document."""
        events = []
        for span in self.spans if spans is None else spans:
            name, start, end, self_ns, span_id, parent, request, pid, \
                tid, counts = span
            args: Dict[str, Any] = {
                "span_id": span_id,
                "parent": parent,
                "request": request,
                "self_us": self_ns / 1e3,
            }
            if counts:
                args["counts"] = counts
            events.append({
                "name": name, "ph": "X", "ts": start / 1e3,
                "dur": (end - start) / 1e3, "pid": pid, "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")

    def write_spans(self, path: Path) -> None:
        """Raw spans as JSON lines (read back with :func:`load_spans`)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Request:
    def __init__(self, tracer: Tracer, request_id: str) -> None:
        self._tracer = tracer
        self._id = request_id

    def __enter__(self) -> None:
        self._tracer._stack()
        self._tracer._local.request_id = self._id

    def __exit__(self, *exc: object) -> None:
        self._tracer._local.request_id = None


def load_spans(path: Path) -> List[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                spans.append(tuple(json.loads(line)))
    return spans


# -- wrappers -----------------------------------------------------------------
def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _counted(
    tracer: Tracer, name: str, fn: Callable, keys: Tuple[str, ...]
) -> Callable:
    """Like :func:`_timed` for an engine method, plus counter deltas."""

    @functools.wraps(fn)
    def wrapper(engine: Any, *args: Any, **kwargs: Any) -> Any:
        telemetry = engine.telemetry
        before = [telemetry.get(key) for key in keys]
        frame = tracer.enter(name)
        try:
            return fn(engine, *args, **kwargs)
        finally:
            frame[6] = {
                key: telemetry.get(key) - was
                for key, was in zip(keys, before)
            }
            frame[6]["calls"] = 1
            tracer.exit(frame)

    return wrapper


def _subclasses(root: type) -> List[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _patch_function(module: Any, attr: str, wrapper: Callable,
                    undo: list) -> None:
    """Replace ``module.attr`` everywhere ``repro`` imported it by name."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
                undo.append((loaded, key, original))


def _patch_method(cls: type, attr: str, wrapper: Callable,
                  undo: list, kind: Optional[type] = None) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, kind(wrapper) if kind else wrapper)
    undo.append((cls, attr, original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every measured layer boundary; returns the uninstaller."""
    import repro.api as api
    import repro.core.compiler as compiler
    import repro.datasets.synthetic as synthetic
    import repro.nn.layers.base as layers
    import repro.nn.network as network
    import repro.nn.optim as optim
    import repro.serve.batcher as batcher
    import repro.serve.cache as cache
    import repro.xbar.adc as adc
    import repro.xbar.dac as dac
    import repro.xbar.device as device
    import repro.xbar.engine as engine
    import repro.xbar.mapping as mapping
    import repro.xbar.tile as tile

    # ``repro.utils`` re-exports the function under the module's name.
    im2col = sys.modules["repro.utils.im2col"]
    undo: list = []
    functions = [
        (adc, "quantize_levels", "xbar.adc_quantize"),
        (dac, "quantize_activations", "xbar.dac_quantize"),
        (mapping, "map_weights", "xbar.map_weights"),
        (im2col, "im2col", "nn.im2col"),
        (im2col, "col2im", "nn.im2col"),
        (synthetic, "make_classification_images", "datasets.generate"),
        (synthetic, "make_train_test", "datasets.generate"),
        (compiler, "deploy_network", "core.deploy"),
        (batcher, "run_coalesced", "serve.evaluate"),
    ]
    for module, attr, name in functions:
        original = getattr(module, attr)
        _patch_function(module, attr, _timed(tracer, name, original), undo)

    eng = engine.CrossbarEngine
    _patch_method(eng, "matmul", _counted(
        tracer, "xbar.matmul", eng.__dict__["matmul"], MATMUL_COUNTERS
    ), undo)
    _patch_method(eng, "prepare", _counted(
        tracer, "xbar.prepare", eng.__dict__["prepare"], PREPARE_COUNTERS
    ), undo)
    methods = [
        (device.DeviceModel, "read_noise_levels", "xbar.read_noise"),
        (tile.TiledCrossbar, "program", "xbar.program"),
        (network.Sequential, "backward", "nn.backward"),
        (cache.ProgrammedStateCache, "lease", "serve.lease"),
        (api.Simulator, "run", "api.run"),
    ]
    for cls in [layers.Layer] + _subclasses(layers.Layer):
        if "forward" in cls.__dict__:
            methods.append((cls, "forward", "nn.forward"))
    for cls in [optim.Optimizer] + _subclasses(optim.Optimizer):
        if "step" in cls.__dict__:
            methods.append((cls, "step", "nn.optimizer_step"))
    for cls, attr, name in methods:
        _patch_method(
            cls, attr, _timed(tracer, name, cls.__dict__[attr]), undo
        )
    build = api.Simulator.__dict__["from_workload"].__func__
    _patch_method(
        api.Simulator, "from_workload",
        _timed(tracer, "api.simulator_build", build), undo,
        kind=classmethod,
    )

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- reduction ----------------------------------------------------------------
def in_window(spans: Iterable[Span], start_ns: int, end_ns: int
              ) -> List[Span]:
    """Spans that started inside ``[start_ns, end_ns]``."""
    return [s for s in spans if start_ns <= s[1] <= end_ns]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[0]] = totals.get(span[0], 0.0) + span[3] / 1e9
    return totals


def durations(spans: Iterable[Span], name: str) -> List[float]:
    """Whole (not self) seconds of every span called ``name``."""
    return [(s[2] - s[1]) / 1e9 for s in spans if s[0] == name]


def counts(spans: Iterable[Span], name: str) -> Dict[str, float]:
    """Summed counter deltas attached to spans called ``name``."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span[0] == name and span[9]:
            for key, value in span[9].items():
                totals[key] = totals.get(key, 0.0) + value
    return totals

