"""Unit tests for the telemetry collector, scoping, and exporters."""

import json

import pytest

# ``bench_document`` is aliased: the repo's pytest config collects
# ``bench_*`` functions (the benchmark harness), and a bare import
# would be picked up as a test.
from repro.telemetry import (
    DEFAULT_MAX_TRACE_SPANS,
    NULL_COLLECTOR,
    SCHEMA_VERSION,
    Collector,
    ScopedCollector,
    TraceLog,
    TraceSpan,
    profile_report,
    trace_chrome_document,
    trace_document,
    validate_bench_document,
    validate_profile_report,
    validate_trace_document,
)
from repro.telemetry import bench_document as make_bench_document


class TestCounters:
    def test_count_accumulates(self):
        collector = Collector()
        collector.count("a/b", 2)
        collector.count("a/b", 3)
        assert collector.get("a/b") == 5

    def test_default_increment_is_one(self):
        collector = Collector()
        collector.count("hits")
        collector.count("hits")
        assert collector.get("hits") == 2

    def test_set_is_a_gauge(self):
        collector = Collector()
        collector.count("makespan", 10)
        collector.set("makespan", 3)
        assert collector.get("makespan") == 3

    def test_get_default(self):
        assert Collector().get("missing", default=-1) == -1

    def test_counters_sorted_by_path(self):
        collector = Collector()
        collector.count("z")
        collector.count("a")
        collector.count("m/x")
        assert list(collector.counters()) == ["a", "m/x", "z"]

    def test_clear_single_and_tree(self):
        collector = Collector()
        collector.count("tile[0]/reads", 1)
        collector.count("tile[1]/reads", 1)
        collector.count("mvm_calls", 1)
        collector.clear("mvm_calls")
        assert collector.get("mvm_calls") == 0
        collector.clear_tree("tile[")
        assert collector.counters() == {}

    def test_counter_tree_nests_by_slash(self):
        collector = Collector()
        collector.count("engine/fc1/reads", 4)
        collector.count("engine/fc1/tile[pos,0]/reads", 2)
        tree = collector.counter_tree()
        assert tree["engine"]["fc1"]["reads"] == 4
        assert tree["engine"]["fc1"]["tile[pos,0]"]["reads"] == 2

    def test_counter_tree_node_and_leaf_conflict(self):
        """A path that is both a leaf and a prefix keeps both values."""
        collector = Collector()
        collector.count("a/b", 1)
        collector.count("a/b/c", 2)
        tree = collector.counter_tree()
        assert tree["a"]["b"][""] == 1
        assert tree["a"]["b"]["c"] == 2

    def test_reset_clears_everything(self):
        collector = Collector(trace=TraceLog())
        collector.count("x", 1)
        collector.observe("h", 1)
        with collector.span("s"):
            pass
        collector.reset()
        assert collector.counters() == {}
        assert collector.histograms() == {}
        # Spans belong to the caller's trace log and stay there.
        assert len(collector.trace.spans()) == 1


class TestMergeCounters:
    def test_merge_is_additive(self):
        collector = Collector()
        collector.count("a/b", 1)
        collector.merge_counters({"a/b": 2, "c": 5})
        assert collector.get("a/b") == 3
        assert collector.get("c") == 5

    def test_merge_order_independent(self):
        one, two = Collector(), Collector()
        one.merge_counters({"x": 1, "y": 2})
        one.merge_counters({"y": 3})
        two.merge_counters({"y": 3})
        two.merge_counters({"y": 2, "x": 1})
        assert one.counters() == two.counters()

    def test_scoped_merge_prefixes(self):
        collector = Collector()
        collector.scope("cell[a]").merge_counters({"work": 2, "n/m": 1})
        assert collector.counters() == {
            "cell[a]/n/m": 1,
            "cell[a]/work": 2,
        }

    def test_disabled_merge_is_noop(self):
        collector = Collector(enabled=False)
        collector.merge_counters({"a": 1})
        collector.scope("s").merge_counters({"a": 1})
        assert collector.counters() == {}


class TestDisabled:
    def test_disabled_mutators_are_noops(self):
        collector = Collector(enabled=False, trace=TraceLog())
        collector.count("x", 5)
        collector.set("y", 7)
        with collector.span("s"):
            pass
        assert collector.counters() == {}
        assert collector.trace.spans() == []
        assert not collector

    def test_null_collector_is_disabled(self):
        assert not NULL_COLLECTOR.enabled
        NULL_COLLECTOR.count("should_not_stick", 1)
        assert NULL_COLLECTOR.counters() == {}

    def test_enabled_collector_is_truthy(self):
        assert Collector()


def _traced():
    return Collector(trace=TraceLog())


class TestSpans:
    def test_span_records_path_and_duration(self):
        collector = _traced()
        with collector.span("work"):
            pass
        (record,) = collector.trace.spans()
        assert isinstance(record, TraceSpan)
        assert record.name == "work"
        assert record.duration_s >= 0.0
        assert record.parent_id is None
        assert record.end > record.start

    def test_nested_spans_track_depth(self):
        collector = _traced()
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        with collector.span("next"):
            pass
        by_name = {span.name: span for span in collector.trace.spans()}
        assert by_name["outer"].span_id == "0"
        assert by_name["inner"].span_id == "0.0"
        assert by_name["inner"].parent_id == "0"
        assert by_name["next"].span_id == "1"
        assert by_name["next"].parent_id is None

    def test_spans_form_one_connected_trace(self):
        collector = _traced()
        with collector.span("a"):
            with collector.span("b"):
                with collector.scope("x").span("c"):
                    pass
        with collector.span("d"):
            pass
        spans = collector.trace.spans()
        (trace_id,) = {span.trace_id for span in spans}
        validate_trace_document(trace_document(trace_id, spans))

    def test_no_trace_log_keeps_counters_only(self):
        collector = Collector()
        with collector.span("s"):
            collector.count("x")
        assert collector.trace is None
        assert collector.get("x") == 1

    def test_max_spans_bounds_storage(self):
        collector = Collector(trace=TraceLog(max_spans=2))
        for _ in range(5):
            with collector.span("s"):
                pass
        assert len(collector.trace.spans()) == 2
        assert collector.trace.dropped == 3

    def test_negative_max_spans_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(max_spans=-1)

    def test_default_max_spans(self):
        assert TraceLog().max_spans == DEFAULT_MAX_TRACE_SPANS

    def test_span_closes_on_exception(self):
        collector = _traced()
        with pytest.raises(RuntimeError):
            with collector.span("failing"):
                raise RuntimeError("boom")
        (record,) = collector.trace.spans()
        assert record.name == "failing"
        # The open-span stack recovered: a new span is top-level again.
        with collector.span("after"):
            pass
        assert collector.trace.spans()[-1].parent_id is None

    def test_duration_kept_out_of_deterministic_dicts(self):
        collector = _traced()
        with collector.span("s"):
            pass
        (record,) = collector.trace.spans()
        assert "duration_s" in record.to_dict()
        assert TraceSpan.from_dict(record.to_dict()) == record
        untimed = TraceSpan("t", "0", None, "s", "main", 1, 2)
        assert "duration_s" not in untimed.to_dict()


class TestScopedCollector:
    def test_scope_prefixes_paths(self):
        collector = Collector()
        scoped = collector.scope("engine/fc1")
        scoped.count("reads", 3)
        assert collector.get("engine/fc1/reads") == 3
        assert scoped.get("reads") == 3

    def test_nested_scope_composes(self):
        collector = Collector()
        tile = collector.scope("engine").scope("tile[0]")
        tile.count("reads", 1)
        assert collector.get("engine/tile[0]/reads") == 1

    def test_scope_spans_land_in_base(self):
        collector = _traced()
        with collector.scope("pipeline").span("stage"):
            pass
        (record,) = collector.trace.spans()
        assert record.name == "pipeline/stage"

    def test_scope_requires_prefix(self):
        with pytest.raises(ValueError):
            ScopedCollector(Collector(), "")

    def test_scope_truthiness_follows_base(self):
        assert not Collector(enabled=False).scope("x")
        assert Collector().scope("x")


class TestExport:
    def _collector(self):
        collector = _traced()
        collector.count("engine/fc1/reads", 8)
        with collector.span("matmul"):
            pass
        return collector

    def test_report_shape(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["counters"] == {"engine/fc1/reads": 8}
        assert document["counter_tree"]["engine"]["fc1"]["reads"] == 8
        (span,) = document["spans"]
        assert span["name"] == "matmul"
        assert span["duration_s"] >= 0
        assert document["spans_dropped"] == 0
        json.dumps(document)

    def test_profile_report_without_trace_log(self):
        document = profile_report(Collector(), ["x"], 0, 0.1)
        validate_profile_report(document)
        assert document["spans"] == []

    def test_profile_validator_rejects_bad_span(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        del document["spans"][0]["span_id"]
        with pytest.raises(ValueError, match="span_id"):
            validate_profile_report(document)

    def test_chrome_trace_events(self):
        trace = trace_chrome_document(self._collector().trace.spans())
        assert trace["displayTimeUnit"] == "ms"
        kinds = [event["ph"] for event in trace["traceEvents"]]
        assert kinds[0] == "M"  # metadata first
        assert "X" in kinds
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["name"] == "matmul"
        assert complete[0]["dur"] >= 0

    def test_profile_report_valid(self):
        document = profile_report(
            self._collector(),
            command=["infer", "--json"],
            exit_code=0,
            wall_time_s=0.5,
            chrome_trace="trace.json",
        )
        validate_profile_report(document)
        assert document["kind"] == "profile"
        assert document["chrome_trace"] == "trace.json"

    def test_profile_validator_rejects_missing_field(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        del document["counters"]
        with pytest.raises(ValueError, match="counters"):
            validate_profile_report(document)

    def test_profile_validator_rejects_wrong_schema_version(self):
        document = profile_report(self._collector(), ["x"], 0, 0.1)
        document["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_profile_report(document)

    def test_bench_document_valid(self):
        document = make_bench_document(
            bench="engine_throughput",
            workload="mlp",
            backend="vectorized",
            wall_time_s=1.25,
            counters={"mvm_calls": 10},
            extra={"batch": 32},
        )
        validate_bench_document(document)
        assert document["batch"] == 32

    def test_bench_validator_rejects_negative_wall_time(self):
        document = make_bench_document("b", "w", "loop", -1.0, {})
        with pytest.raises(ValueError, match="wall_time_s"):
            validate_bench_document(document)


class TestDeterminism:
    def test_counters_byte_identical_across_runs(self):
        """Same instrumented work -> same serialized counter map."""

        def run():
            collector = Collector()
            for index in range(4):
                collector.scope(f"tile[{index}]").count("reads", index * 3)
            collector.count("mvm_calls", 2)
            return json.dumps(collector.counters(), sort_keys=True)

        assert run() == run()
