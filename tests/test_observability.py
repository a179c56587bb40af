"""Observability: histogram bucketing and percentiles, bucket-wise
merging, span tracing (enabled, disabled, slow-span reporting), the
unified registry, and the Prometheus text exporter."""

from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, strategies as st

from repro.system.metrics import CommunicationStats
from repro.system.observability import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    SpanTracer,
    render_prometheus,
)


class TestBucketing:
    def test_sub_microsecond_lands_in_first_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(1e-9)
        histogram.record(1e-6)  # the first bound is inclusive
        histogram.record(0.0)
        assert histogram.counts[0] == 3

    def test_powers_of_two_are_inclusive_upper_bounds(self):
        # bucket i covers (bounds[i-1], bounds[i]]: an observation equal
        # to a bound belongs to that bound's bucket, not the next one
        for index, bound in enumerate(BUCKET_BOUNDS):
            histogram = LatencyHistogram()
            histogram.record(bound)
            assert histogram.counts[index] == 1, (index, bound)

    def test_just_above_a_bound_spills_to_the_next_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(BUCKET_BOUNDS[3] * 1.01)
        assert histogram.counts[4] == 1

    def test_huge_observation_lands_in_overflow(self):
        histogram = LatencyHistogram()
        histogram.record(1e6)  # eleven days
        assert histogram.counts[-1] == 1
        assert histogram.count == 1

    def test_wrong_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(counts=[0, 0, 0])

    @given(st.floats(min_value=1e-9, max_value=1e5))
    def test_property_every_observation_lands_in_exactly_one_bucket(self, value):
        histogram = LatencyHistogram()
        histogram.record(value)
        assert histogram.count == 1
        index = next(i for i, c in enumerate(histogram.counts) if c)
        if index < len(BUCKET_BOUNDS):
            assert value <= BUCKET_BOUNDS[index] * (1 + 1e-12)
        if index > 0:
            assert value > BUCKET_BOUNDS[index - 1] * (1 - 1e-12)


class TestSummaries:
    def test_empty_histogram_reports_zeroes(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.p50 == 0.0
        assert histogram.mean == 0.0

    def test_quantiles_are_conservative_bucket_bounds(self):
        histogram = LatencyHistogram()
        for value in (2e-6, 3e-6, 5e-5, 1e-3):
            histogram.record(value)
        # every quantile is some bucket's upper bound, at or above the
        # true quantile of the recorded values
        assert histogram.p50 in BUCKET_BOUNDS
        assert histogram.p50 >= 3e-6
        assert histogram.p99 >= 1e-3

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_mean_is_exact_not_bucketised(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)
        histogram.record(0.003)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.total_seconds == pytest.approx(0.004)

    def test_summary_digest_fields(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        digest = histogram.summary()
        assert set(digest) == {"count", "p50", "p95", "p99", "mean",
                               "total_seconds"}
        assert digest["count"] == 1


class TestMerging:
    def test_merge_is_bucket_wise_not_integer_add(self):
        left = LatencyHistogram()
        right = LatencyHistogram()
        for _ in range(10):
            left.record(2e-6)  # fast side
        for _ in range(10):
            right.record(0.5)  # slow side
        merged = left.merged_with(right)
        # counts add element by element, preserving the distribution...
        assert merged.counts == [a + b for a, b in zip(left.counts, right.counts)]
        assert merged.count == 20
        # ...so the merged percentiles still see both populations: the
        # median stays fast while the tail reflects the slow half — an
        # integer-add would have collapsed this shape entirely
        assert merged.p50 <= 2e-6 * 2
        assert merged.p99 >= 0.5
        assert merged.total_seconds == pytest.approx(
            left.total_seconds + right.total_seconds
        )

    def test_merge_leaves_inputs_untouched(self):
        left = LatencyHistogram()
        left.record(1e-3)
        before = list(left.counts)
        left.merged_with(left)
        assert left.counts == before


class TestSpanTracer:
    def test_spans_feed_the_stage_histogram(self):
        tracer = SpanTracer()
        with tracer.span("match"):
            pass
        with tracer.span("match"):
            pass
        assert tracer.histograms["match"].count == 2

    def test_nested_spans_contribute_to_both_stages(self):
        tracer = SpanTracer()
        with tracer.span("batch"):
            with tracer.span("construct"):
                pass
        assert tracer.histograms["batch"].count == 1
        assert tracer.histograms["construct"].count == 1

    def test_interleaved_spans_of_one_stage_keep_their_own_clocks(self):
        # two TCP connections can be inside span("drain") at once; each
        # span() call must hand out a fresh object with its own start
        tracer = SpanTracer()
        first = tracer.span("drain")
        second = tracer.span("drain")
        first.__enter__()
        second.__enter__()
        second.__exit__(None, None, None)
        first.__exit__(None, None, None)
        assert tracer.histograms["drain"].count == 2

    def test_slow_handler_fires_at_threshold_only(self, caplog):
        tracer = SpanTracer(slow_threshold=0.01)
        with caplog.at_level(logging.WARNING, "repro.system.observability"):
            with tracer.span("fast"):
                pass
            assert caplog.records == []
            span = tracer.span("slow")
            span.__enter__()
            span._started -= 0.05  # age the span past the threshold
            span.__exit__(None, None, None)
        assert len(caplog.records) == 1
        stage, elapsed, threshold = caplog.records[0].args
        assert stage == "slow"
        assert elapsed >= threshold == 0.01

    def test_default_slow_handler_logs_a_warning(self, caplog):
        tracer = SpanTracer(slow_threshold=0.01)
        span = tracer.span("repair")
        with caplog.at_level(logging.WARNING, "repro.system.observability"):
            span.__enter__()
            span._started -= 0.05
            span.__exit__(None, None, None)
        assert any("repair" in record.message for record in caplog.records)

    def test_summaries_sorted_by_stage(self):
        tracer = SpanTracer()
        for stage in ("ship", "match", "construct"):
            with tracer.span(stage):
                pass
        assert list(tracer.summaries()) == ["construct", "match", "ship"]


class TestMetricsRegistry:
    def test_merge_adds_counters_and_merges_histograms(self):
        left = MetricsRegistry(CommunicationStats(notifications=3))
        right = MetricsRegistry(CommunicationStats(notifications=4))
        with left.span("match"):
            pass
        with right.span("match"):
            pass
        with right.span("ship"):  # only on one side
            pass
        merged = left.merged_with(right)
        assert merged.stats.notifications == 7
        assert merged.tracer.histograms["match"].count == 2
        assert merged.tracer.histograms["ship"].count == 1
        # bucket-wise, not scalar: the counts vectors added element-wise
        expected = [
            a + b
            for a, b in zip(
                left.tracer.histograms["match"].counts,
                right.tracer.histograms["match"].counts,
            )
        ]
        assert merged.tracer.histograms["match"].counts == expected


class TestPrometheusExport:
    def _exposition(self):
        registry = MetricsRegistry()
        registry.stats.notifications = 12
        registry.stats.server_seconds = 0.5
        for value in (2e-6, 1e-3, 80.0):
            registry.tracer.histogram("match").record(value)
        return registry, registry.render_prometheus()

    def test_counters_exported_with_total_suffix(self):
        _, text = self._exposition()
        assert "elaps_notifications_total 12" in text
        assert "# TYPE elaps_notifications_total counter" in text
        assert "bytes_measured" not in text

    def test_high_water_fields_exported_as_gauges(self):
        registry = MetricsRegistry()
        registry.stats.send_queue_high_water = 7
        text = registry.render_prometheus()
        assert "# TYPE elaps_send_queue_high_water gauge" in text
        assert "\nelaps_send_queue_high_water 7" in text
        assert "elaps_send_queue_high_water_total" not in text

    def test_registry_gauges_merge_by_addition_and_render_as_gauges(self):
        """What only some deployments measure (a process fleet's pipe
        bytes) rides the registry without becoming a counter field."""
        left, right = MetricsRegistry(), MetricsRegistry()
        left.gauges["pipe_bytes_received"] = 300
        right.gauges.update(pipe_bytes_received=200, pipe_replies=4)
        merged = left.merged_with(right)
        assert merged.gauges == {"pipe_bytes_received": 500, "pipe_replies": 4}
        assert "pipe_bytes_received" not in merged.stats.as_dict()
        text = merged.render_prometheus()
        assert "# TYPE elaps_pipe_bytes_received gauge" in text
        assert "\nelaps_pipe_bytes_received 500\n" in text
        assert "elaps_pipe_replies_total" not in text
        assert "pipe_" not in MetricsRegistry().render_prometheus()

    def test_every_counter_field_present(self):
        registry, text = self._exposition()
        for name in registry.stats.as_dict():
            if name.endswith("_high_water"):
                metric = f"elaps_{name}"  # gauges: no _total suffix
            else:
                metric = f"elaps_{name}_total"
            assert f"\n{metric} " in f"\n{text}", metric

    def test_no_duplicate_sample_identities(self):
        _, text = self._exposition()
        samples = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        _, text = self._exposition()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('elaps_stage_duration_seconds_bucket{stage="match"')
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 3  # the +Inf bucket sees everything
        assert 'le="+Inf"} 3' in text
        assert 'elaps_stage_duration_seconds_count{stage="match"} 3' in text
        assert 'elaps_stage_duration_seconds_sum{stage="match"}' in text

    def test_module_function_matches_registry_method(self):
        registry, text = self._exposition()
        assert text == render_prometheus(
            registry.stats.as_dict(), registry.tracer.histograms
        )
