"""Hierarchical telemetry collector: counters and timing spans.

The accelerator's headline numbers are *counted events* — spike-driver
activations, I&F ADC conversions, crossbar reads and writes, pipeline
cycle occupancy — so observability is a first-class layer here rather
than a logger bolted on after the fact.  One :class:`Collector` holds

* **counters** — deterministic integer/float accumulators keyed by a
  ``/``-separated component path (``engine/fc1/tile[pos,0]/reads``,
  ``pipeline/stage[2].busy_cycles``).  Counters follow the simulation
  exactly: the loop and vectorized crossbar backends must produce
  **identical** counter telemetry under a shared seed (the
  bit-identity contract of :mod:`repro.xbar.engine`, extended to
  observability and enforced by the backend-equivalence tests).
* **spans** — intervals opened with :meth:`span`, recorded only when
  the collector is given a :class:`~repro.telemetry.trace.TraceLog`.
  Each becomes a :class:`~repro.telemetry.trace.TraceSpan` whose ids
  and logical ticks are deterministic; its wall-clock ``duration_s``
  measures the host and is excluded from every equality check.
* **histograms** — fixed-bucket distributions recorded with
  :meth:`observe` (or the :meth:`timed` context manager for wall
  latencies).  Bucket *bounds* are deterministic constants chosen by
  the path's unit suffix (``*_seconds`` gets latency buckets,
  anything else size buckets), so a histogram of deterministic values
  (batch sizes, queue depths) is itself byte-identical across runs,
  while ``*_seconds`` histograms hold host time and follow the span
  rule: excluded from every determinism contract.

Component-path convention
-------------------------
Segments are joined with ``/`` and name the component hierarchy from
the outside in; the leaf may carry a dotted metric name::

    engine/<layer>/mvm_calls              engine-level totals
    engine/<layer>/tile[<plane>,<slice>]/adc.conversions
    pipeline/stage[<s>].busy_cycles       schedule occupancy
    train/epoch[<i>]                      (span) one training epoch
    reliability/scenario[stuck=0.01]/...  campaign sub-trees

Zero overhead when disabled
---------------------------
Every mutator begins with an ``enabled`` check, and the module-level
:data:`NULL_COLLECTOR` is a shared disabled instance: code paths take
an ``Optional[Collector]`` and fall back to it, so uninstrumented runs
execute one predictable-false branch per hook and allocate nothing.
A disabled collector records no counters, records no spans, and never
changes simulation outputs (pinned by tests).  An enabled collector
without a trace log skips spans at the same one-branch cost.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Any,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.telemetry.trace import TraceContext, TraceLog, trace_id_for

Number = Union[int, float]

#: Counter path under which a collector accounts spans its trace log
#: had to drop because the log's ``max_spans`` was reached — the
#: overflow is *visible* in every counter report instead of silently
#: truncating the timeline.
DROPPED_SPANS_COUNTER = "telemetry/dropped_spans"

#: Default bucket upper bounds for ``*_seconds`` histogram paths:
#: 100 µs .. 10 s, roughly logarithmic — wide enough for a cache probe
#: and a full reliability campaign on the same axis.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for everything else (counts, sizes):
#: powers of two up to 1024 — batch sizes, queue depths, byte-ish
#: magnitudes all land usefully.
SIZE_BUCKET_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

_log = logging.getLogger("repro.telemetry")


def default_bucket_bounds(path: str) -> Tuple[float, ...]:
    """The fixed bucket bounds a histogram at ``path`` defaults to.

    Chosen by the path's unit suffix so wall-latency and size/count
    histograms each get sensible resolution without per-site tuning —
    and so the bounds are a pure function of the path (deterministic,
    identical in every process).
    """
    leaf = path.rsplit("/", 1)[-1]
    if leaf.endswith("_seconds"):
        return LATENCY_BUCKET_BOUNDS
    return SIZE_BUCKET_BOUNDS


class Histogram:
    """One fixed-bucket distribution (see the module docstring).

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; an implicit overflow bucket catches
    everything above the last bound, so ``counts`` always has
    ``len(bounds) + 1`` entries.  Bounds are fixed at creation and
    never adapt to data — that is what keeps a histogram of
    deterministic observations byte-identical across runs, worker
    counts, and merge orders.
    """

    __slots__ = ("bounds", "bucket_counts", "total_count", "total_sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(bound) for bound in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram bounds must strictly increase, got {edges}"
            )
        self.bounds: Tuple[float, ...] = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.total_count = 0
        self.total_sum = 0.0

    def observe(self, value: Number) -> None:
        """Record one observation into its bucket."""
        sample = float(value)
        self.bucket_counts[bisect_left(self.bounds, sample)] += 1
        self.total_count += 1
        self.total_sum += sample

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` view into this one.

        Bounds must match exactly — merging histograms with different
        bucket layouts would silently misplace counts.
        """
        bounds = tuple(float(bound) for bound in other["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram with bounds {bounds} into "
                f"bounds {self.bounds}"
            )
        counts = other["counts"]
        if len(counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram counts length {len(counts)} != "
                f"{len(self.bucket_counts)}"
            )
        for index, count in enumerate(counts):
            self.bucket_counts[index] += int(count)
        self.total_count += int(other["count"])
        self.total_sum += float(other["sum"])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (the wire/merge format)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.total_count,
            "sum": self.total_sum,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(buckets={len(self.bounds)}, "
            f"count={self.total_count}, sum={self.total_sum:.6g})"
        )


class Collector:
    """Hierarchical counter + span store (see module docstring).

    Parameters
    ----------
    enabled:
        ``False`` turns every mutator into a no-op — the collector
        records nothing and costs one branch per hook.
    trace:
        The :class:`~repro.telemetry.trace.TraceLog` that :meth:`span`
        records into; ``None`` (the default) keeps counters and
        histograms live but skips spans, so hot engine loops never
        accumulate records nobody asked for.  The log's ``max_spans``
        bounds storage; its drops surface as the
        :data:`DROPPED_SPANS_COUNTER` counter.

    A collector with a trace log is single-threaded: it keeps one
    stack of open spans, so its spans must all be opened and closed
    on one thread.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.enabled = enabled
        self.trace = trace
        self._counters: Dict[str, Number] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._open: List[TraceContext] = []
        self._roots = 0
        self._drop_warned = False

    # -- counters -----------------------------------------------------------
    def count(self, path: str, n: Number = 1) -> None:
        """Add ``n`` to the counter at ``path`` (creating it at 0)."""
        if not self.enabled:
            return
        self._counters[path] = self._counters.get(path, 0) + n

    def set(self, path: str, value: Number) -> None:
        """Set the counter at ``path`` to an absolute value (a gauge)."""
        if not self.enabled:
            return
        self._counters[path] = value

    def get(self, path: str, default: Number = 0) -> Number:
        """Current value of the counter at ``path``."""
        return self._counters.get(path, default)

    def clear(self, path: str) -> None:
        """Drop one counter (no-op if absent)."""
        self._counters.pop(path, None)

    def clear_tree(self, prefix: str) -> None:
        """Drop every counter whose path starts with ``prefix``."""
        for key in [k for k in self._counters if k.startswith(prefix)]:
            del self._counters[key]

    def counters(self) -> Dict[str, Number]:
        """Flat path -> value map, sorted by path (deterministic)."""
        return {path: self._counters[path] for path in sorted(self._counters)}

    def merge_counters(self, counters: Mapping[str, Number]) -> None:
        """Fold another collector's counter map into this one, additively.

        This is how deterministic counters cross a process boundary:
        a sweep cell runs under a private collector in its worker,
        ships :meth:`counters` back inside its payload, and the
        submitting process merges them here — in sorted-path order, so
        the merged state is identical no matter which process computed
        which cell.
        """
        if not self.enabled:
            return
        for path in sorted(counters):
            self._counters[path] = self._counters.get(path, 0) + counters[path]

    def counter_tree(self) -> Dict[str, Any]:
        """Counters nested by ``/`` path segment.

        A path that is both a node and a leaf keeps its leaf value
        under the empty-string key of the node dict.
        """
        tree: Dict[str, Any] = {}
        for path in sorted(self._counters):
            node = tree
            *parents, leaf = path.split("/")
            for segment in parents:
                child = node.get(segment)
                if not isinstance(child, dict):
                    child = {} if child is None else {"": child}
                    node[segment] = child
                node = child
            existing = node.get(leaf)
            if isinstance(existing, dict):
                existing[""] = self._counters[path]
            else:
                node[leaf] = self._counters[path]
        return tree

    # -- histograms ---------------------------------------------------------
    def observe(
        self,
        path: str,
        value: Number,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one observation into the histogram at ``path``.

        The histogram is created on first use with ``bounds`` (or the
        :func:`default_bucket_bounds` for the path); later calls must
        agree — a site passing different explicit bounds for an
        existing histogram raises rather than misbinning.
        """
        if not self.enabled:
            return
        histogram = self._histograms.get(path)
        if histogram is None:
            histogram = Histogram(
                bounds if bounds is not None else
                default_bucket_bounds(path)
            )
            self._histograms[path] = histogram
        elif bounds is not None and tuple(
            float(bound) for bound in bounds
        ) != histogram.bounds:
            raise ValueError(
                f"histogram {path!r} already exists with bounds "
                f"{histogram.bounds}"
            )
        histogram.observe(value)

    @contextmanager
    def timed(self, path: str) -> Iterator[None]:
        """Observe a block's wall-clock duration into ``path``.

        The histogram twin of :meth:`span`: same wall-clock caveat
        (``*_seconds`` histograms are excluded from determinism
        contracts), but aggregated into fixed buckets instead of
        storing one record per call — safe on hot paths.
        """
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(path, time.perf_counter() - start)

    def histogram(self, path: str) -> Optional[Histogram]:
        """The live histogram at ``path``, if one exists."""
        return self._histograms.get(path)

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Flat path -> histogram-dict map, sorted by path."""
        return {
            path: self._histograms[path].to_dict()
            for path in sorted(self._histograms)
        }

    def merge_histograms(
        self, histograms: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Fold another collector's :meth:`histograms` map into this one.

        The histogram counterpart of :meth:`merge_counters`: paths are
        merged in sorted order so cross-process aggregation lands
        identically no matter which process computed what.
        """
        if not self.enabled:
            return
        for path in sorted(histograms):
            view = histograms[path]
            histogram = self._histograms.get(path)
            if histogram is None:
                histogram = Histogram(view["bounds"])
                self._histograms[path] = histogram
            histogram.merge(view)

    # -- spans --------------------------------------------------------------
    @contextmanager
    def span(self, path: str) -> Iterator[None]:
        """Record a block of work as one span at ``path`` in the trace log.

        Span ids are hierarchical (``"0"``, ``"0.1"``, ...): each span's
        parent is the enclosing open span of this collector, so the
        spans of one log form one connected trace.  Without a log (or
        when disabled) this is a no-op.
        """
        log = self.trace
        if not (self.enabled and log is not None):
            yield
            return
        if self._open:
            context = self._open[-1].start(path)
        else:
            context = TraceContext(
                trace_id=trace_id_for(log.proc),
                span_id=str(self._roots),
                parent_id=None,
                name=path,
                log=log,
            )
            self._roots += 1
        self._open.append(context)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            dropped = log.dropped
            context.finish(duration_s=duration)
            if log.dropped > dropped:
                # Surface the overflow instead of discarding silently:
                # mirror the log's drop count as a counter (visible in
                # every report) and warn once per collector.
                self._counters[DROPPED_SPANS_COUNTER] = log.dropped
                if not self._drop_warned:
                    self._drop_warned = True
                    _log.warning(
                        "span buffer full (max_spans=%d): dropping "
                        "further spans; drops are counted under %r",
                        log.max_spans,
                        DROPPED_SPANS_COUNTER,
                    )

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Drop all counters and histograms; re-arm the drop warning.

        Recorded spans belong to the trace log and stay there.
        """
        self._counters.clear()
        self._histograms.clear()
        self._drop_warned = False

    def scope(self, prefix: str) -> "ScopedCollector":
        """A view that prefixes every path with ``prefix + '/'``."""
        return ScopedCollector(self, prefix)

    def __bool__(self) -> bool:
        """Truthy iff enabled — lets hooks guard optional aggregation."""
        return self.enabled

    def __repr__(self) -> str:
        return (
            f"Collector(enabled={self.enabled}, "
            f"counters={len(self._counters)}, trace={self.trace!r})"
        )


class ScopedCollector:
    """A prefixing view onto a base collector.

    Carries the same hook API (``count`` / ``set`` / ``get`` /
    ``clear`` / ``span`` / ``scope``), rewriting every path to
    ``prefix/path`` — this is how one collector threads through nested
    components (simulator -> deployment -> engine -> tile) and ends up
    with one coherent hierarchy.
    """

    def __init__(self, base: Collector, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self._base = base
        self._prefix = prefix.rstrip("/")

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def prefix(self) -> str:
        return self._prefix

    @property
    def base(self) -> Collector:
        """The root collector this view writes into."""
        return self._base

    def _path(self, path: str) -> str:
        return f"{self._prefix}/{path}"

    def count(self, path: str, n: Number = 1) -> None:
        self._base.count(self._path(path), n)

    def set(self, path: str, value: Number) -> None:
        self._base.set(self._path(path), value)

    def get(self, path: str, default: Number = 0) -> Number:
        return self._base.get(self._path(path), default)

    def clear(self, path: str) -> None:
        self._base.clear(self._path(path))

    def clear_tree(self, prefix: str) -> None:
        self._base.clear_tree(self._path(prefix))

    def merge_counters(self, counters: Mapping[str, Number]) -> None:
        """Additively merge a counter map, rewriting paths under the scope."""
        if not self._base.enabled:
            return
        for path in sorted(counters):
            self._base.count(self._path(path), counters[path])

    def observe(
        self,
        path: str,
        value: Number,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self._base.observe(self._path(path), value, bounds=bounds)

    def timed(self, path: str) -> ContextManager[None]:
        return self._base.timed(self._path(path))

    def histogram(self, path: str) -> Optional[Histogram]:
        return self._base.histogram(self._path(path))

    def merge_histograms(
        self, histograms: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Merge a histogram map, rewriting paths under the scope."""
        if not self._base.enabled:
            return
        for path in sorted(histograms):
            view = histograms[path]
            self._base.merge_histograms({self._path(path): view})

    def span(self, path: str) -> ContextManager[None]:
        return self._base.span(self._path(path))

    def scope(self, prefix: str) -> "ScopedCollector":
        return ScopedCollector(self._base, self._path(prefix))

    def __bool__(self) -> bool:
        return self._base.enabled

    def __repr__(self) -> str:
        return f"ScopedCollector({self._prefix!r} -> {self._base!r})"


#: Any object honouring the collector hook API (a :class:`Collector`
#: or a :class:`ScopedCollector` view).
TelemetryLike = Union[Collector, ScopedCollector]

#: Shared disabled collector: the ``collector or NULL_COLLECTOR``
#: fallback that makes every instrumentation hook a cheap no-op when
#: telemetry is off.  Never enable or write through this instance.
NULL_COLLECTOR = Collector(enabled=False)
