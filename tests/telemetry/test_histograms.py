"""Histogram support in the collector: buckets, merge, percentiles.

The determinism story: bounds are fixed at creation (chosen by the
path's unit suffix), bucketing is pure ``bisect_left``, and merging is
additive and order-independent — so histograms of deterministic
observations are byte-identical across runs, worker counts, and merge
orders.  Only the *values* of wall-clock ``*_seconds`` histograms sit
outside the contract; their observation counts are still exact.
"""

from __future__ import annotations

import pytest

from repro.telemetry import (
    LATENCY_BUCKET_BOUNDS,
    NULL_COLLECTOR,
    SIZE_BUCKET_BOUNDS,
    Collector,
    Histogram,
    default_bucket_bounds,
    histogram_percentiles,
    histogram_quantile,
    latency_summary,
    profile_report,
)


class TestHistogram:
    def test_observe_bins_with_le_semantics(self):
        histogram = Histogram([1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 4.0, 9.0):
            histogram.observe(value)
        view = histogram.to_dict()
        # Bounds are inclusive upper edges: 1.0 lands in the first
        # bucket, 4.0 in the third, 9.0 in the overflow bucket.
        assert view["counts"] == [2, 1, 1, 1]
        assert view["count"] == 5
        assert view["sum"] == pytest.approx(16.0)

    def test_counts_has_overflow_bucket(self):
        histogram = Histogram([1.0])
        assert len(histogram.to_dict()["counts"]) == 2

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([])

    def test_merge_is_additive_and_checks_bounds(self):
        left = Histogram([1.0, 2.0])
        right = Histogram([1.0, 2.0])
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right.to_dict())
        view = left.to_dict()
        assert view["counts"] == [1, 1, 1]
        assert view["count"] == 3
        with pytest.raises(ValueError):
            left.merge(Histogram([1.0, 3.0]).to_dict())


class TestDefaultBounds:
    def test_seconds_paths_get_latency_buckets(self):
        assert (
            default_bucket_bounds("serve/latency/queue_wait_seconds")
            == LATENCY_BUCKET_BOUNDS
        )

    def test_other_paths_get_size_buckets(self):
        assert (
            default_bucket_bounds("coalesce/batch_size_jobs")
            == SIZE_BUCKET_BOUNDS
        )


class TestCollectorHistograms:
    def test_observe_creates_and_accumulates(self):
        collector = Collector()
        collector.observe("coalesce/batch_size_jobs", 8)
        collector.observe("coalesce/batch_size_jobs", 1)
        view = collector.histograms()["coalesce/batch_size_jobs"]
        assert view["count"] == 2
        assert view["sum"] == pytest.approx(9.0)

    def test_conflicting_explicit_bounds_raise(self):
        collector = Collector()
        collector.observe("batch_jobs", 1, bounds=[1.0, 2.0])
        with pytest.raises(ValueError):
            collector.observe("batch_jobs", 1, bounds=[1.0, 4.0])

    def test_timed_observes_a_duration(self):
        collector = Collector()
        with collector.timed("work/step_seconds"):
            pass
        view = collector.histograms()["work/step_seconds"]
        assert view["count"] == 1
        assert view["sum"] >= 0.0

    def test_scoped_observe_prefixes_paths(self):
        collector = Collector()
        scope = collector.scope("serve")
        scope.observe("latency/e2e_seconds", 0.01)
        assert "serve/latency/e2e_seconds" in collector.histograms()

    def test_merge_histograms_order_independent(self):
        shards = []
        for values in ([1, 8, 64], [2, 2], [512]):
            shard = Collector()
            for value in values:
                shard.observe("batch_size_jobs", value)
            shards.append(shard.histograms())
        forward, backward = Collector(), Collector()
        for view in shards:
            forward.merge_histograms(view)
        for view in reversed(shards):
            backward.merge_histograms(view)
        assert forward.histograms() == backward.histograms()

    def test_null_collector_observe_is_noop(self):
        NULL_COLLECTOR.observe("latency/e2e_seconds", 1.0)
        with NULL_COLLECTOR.timed("latency/e2e_seconds"):
            pass
        assert NULL_COLLECTOR.histograms() == {}

    def test_report_carries_histograms(self):
        collector = Collector()
        collector.observe("batch_size_jobs", 4)
        report = profile_report(collector, ["serve"], 0, 0.1)
        assert report["histograms"]["batch_size_jobs"]["count"] == 1


class TestPercentiles:
    def test_quantile_interpolates_within_bucket(self):
        histogram = Histogram([1.0, 2.0, 4.0])
        for value in (1.5, 1.6, 1.7, 1.8):
            histogram.observe(value)
        view = histogram.to_dict()
        # All mass in (1.0, 2.0]: the median interpolates to the
        # bucket midpoint.
        assert histogram_quantile(view, 0.5) == pytest.approx(1.5)
        assert histogram_quantile(view, 1.0) == pytest.approx(2.0)

    def test_empty_histogram_answers_zero(self):
        view = Histogram([1.0]).to_dict()
        assert histogram_quantile(view, 0.5) == 0.0

    def test_overflow_clamps_to_highest_bound(self):
        histogram = Histogram([1.0, 2.0])
        histogram.observe(100.0)
        assert histogram_quantile(histogram.to_dict(), 0.99) == 2.0

    def test_quantile_range_checked(self):
        view = Histogram([1.0]).to_dict()
        with pytest.raises(ValueError):
            histogram_quantile(view, 1.5)

    def test_percentiles_summary_keys(self):
        histogram = Histogram([1.0, 2.0])
        histogram.observe(0.5)
        assert set(histogram_percentiles(histogram.to_dict())) == {
            "p50", "p95", "p99",
        }

    def test_latency_summary_selects_seconds_paths(self):
        collector = Collector()
        collector.observe("serve/latency/e2e_seconds", 0.25)
        collector.observe("serve/latency/e2e_seconds", 0.75)
        collector.observe("serve/coalesce/batch_size_jobs", 8)
        rows = latency_summary(collector.histograms())
        assert [row["path"] for row in rows] == [
            "serve/latency/e2e_seconds"
        ]
        assert rows[0]["count"] == 2
        assert rows[0]["mean"] == pytest.approx(0.5)
        assert {"p50", "p95", "p99"} <= set(rows[0])
