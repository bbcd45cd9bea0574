"""Chrome-trace export round-trip for collector spans.

A collector given a :class:`TraceLog` records one ``TraceSpan`` per
:meth:`Collector.span`; ``trace_chrome_document`` must render one
complete (``X``) event per recorded span, and the nesting between
parent and child spans must be recoverable from the event intervals
(child inside parent) and from the ``parent_id`` annotations.
"""

import json

from repro.telemetry import (
    Collector,
    TraceLog,
    trace_chrome_document,
    validate_trace_chrome_document,
)


def _nested_workload():
    collector = Collector(trace=TraceLog())
    with collector.span("outer"):
        with collector.span("inner_a"):
            pass
        with collector.span("inner_b"):
            with collector.span("leaf"):
                pass
    return collector


def _chrome(collector, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(
        json.dumps(trace_chrome_document(collector.trace.spans()))
    )
    loaded = json.loads(path.read_text())
    validate_trace_chrome_document(loaded)
    return loaded


class TestChromeTraceRoundTrip:
    def test_event_count_matches_span_count(self, tmp_path):
        collector = _nested_workload()
        loaded = _chrome(collector, tmp_path)
        complete = [
            event for event in loaded["traceEvents"]
            if event["ph"] == "X"
        ]
        assert len(complete) == len(collector.trace.spans()) == 4
        assert {event["name"] for event in complete} == {
            "outer", "inner_a", "inner_b", "leaf"
        }

    def test_nesting_recoverable_from_intervals(self, tmp_path):
        loaded = _chrome(_nested_workload(), tmp_path)
        events = {
            event["name"]: event
            for event in loaded["traceEvents"]
            if event["ph"] == "X"
        }

        def contains(parent, child):
            return (
                parent["ts"] < child["ts"]
                and child["ts"] + child["dur"]
                < parent["ts"] + parent["dur"]
            )

        outer = events["outer"]
        for name in ("inner_a", "inner_b", "leaf"):
            assert contains(outer, events[name]), name
        assert contains(events["inner_b"], events["leaf"])
        # Parent annotations mirror the nesting.
        assert events["outer"]["args"]["parent_id"] is None
        for name in ("inner_a", "inner_b"):
            assert events[name]["args"]["parent_id"] == (
                events["outer"]["args"]["span_id"]
            )
        assert events["leaf"]["args"]["parent_id"] == (
            events["inner_b"]["args"]["span_id"]
        )
        # Siblings do not overlap.
        a, b = events["inner_a"], events["inner_b"]
        assert a["ts"] + a["dur"] < b["ts"]

    def test_metadata_event_present(self, tmp_path):
        loaded = _chrome(_nested_workload(), tmp_path)
        metadata = [
            event for event in loaded["traceEvents"]
            if event["ph"] == "M"
        ]
        assert metadata and metadata[0]["name"] == "process_name"

    def test_wall_durations_left_out(self, tmp_path):
        # Logical ticks only: two runs of the same work export the
        # same bytes although their wall-clock durations differ.
        first = _chrome(_nested_workload(), tmp_path)
        second = _chrome(_nested_workload(), tmp_path)
        assert json.dumps(first) == json.dumps(second)
        assert "duration_s" not in json.dumps(first)
