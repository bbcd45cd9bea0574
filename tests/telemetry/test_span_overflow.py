"""Span-buffer overflow: drops are counted and warned about once.

Overflowing a trace log's ``max_spans`` must never lose information
silently — the log's drop count surfaces as the
``telemetry/dropped_spans`` counter in every report, and the collector
warns exactly once per lifetime (not per dropped span) through the
``repro.telemetry`` logger.
"""

import logging
from contextlib import contextmanager

from repro.telemetry import (
    DROPPED_SPANS_COUNTER,
    Collector,
    TraceLog,
    profile_report,
)


def _capped(max_spans):
    return Collector(trace=TraceLog(max_spans=max_spans))


def _spin(collector, n):
    for index in range(n):
        with collector.span(f"work[{index}]"):
            pass


@contextmanager
def _capture_warnings():
    """Capture ``repro.telemetry`` records via a direct handler.

    A handler on the logger itself keeps working whether or not the
    CLI has configured the ``repro`` tree (which turns propagation
    off and would blind ``caplog``).
    """
    records = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    logger = logging.getLogger("repro.telemetry")
    handler = _Capture(level=logging.WARNING)
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


class TestSpanOverflow:
    def test_drops_counted_under_telemetry_path(self):
        collector = _capped(3)
        _spin(collector, 10)
        assert len(collector.trace.spans()) == 3
        assert collector.trace.dropped == 7
        assert collector.counters()[DROPPED_SPANS_COUNTER] == 7
        # The report carries both representations.
        report = profile_report(collector, ["x"], 0, 0.1)
        assert report["spans_dropped"] == 7
        assert report["counters"][DROPPED_SPANS_COUNTER] == 7

    def test_no_counter_without_overflow(self):
        collector = _capped(16)
        _spin(collector, 5)
        assert DROPPED_SPANS_COUNTER not in collector.counters()
        assert collector.trace.dropped == 0

    def test_warns_exactly_once(self):
        collector = _capped(1)
        with _capture_warnings() as records:
            _spin(collector, 6)
        warnings = [
            record for record in records
            if "span buffer full" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert warnings[0].name == "repro.telemetry"

    def test_reset_rearms_warning_and_counter(self):
        collector = _capped(1)
        with _capture_warnings() as records:
            _spin(collector, 3)
            collector.reset()
            assert DROPPED_SPANS_COUNTER not in collector.counters()
            _spin(collector, 3)
        warnings = [
            record for record in records
            if "span buffer full" in record.getMessage()
        ]
        assert len(warnings) == 2
        # The counter mirrors the log, which reset() leaves alone.
        assert collector.counters()[DROPPED_SPANS_COUNTER] == 5
        assert collector.trace.dropped == 5

    def test_dropped_spans_counter_is_deterministic_metadata(self):
        """Same workload, same drops: the counter is part of the
        deterministic counter map, not wall-clock state."""
        first, second = _capped(2), _capped(2)
        _spin(first, 9)
        _spin(second, 9)
        assert (
            first.counters()[DROPPED_SPANS_COUNTER]
            == second.counters()[DROPPED_SPANS_COUNTER]
            == 7
        )
