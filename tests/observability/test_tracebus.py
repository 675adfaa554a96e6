"""Unit tests for the observability primitives themselves."""

import json

import pytest

from repro.observability import (
    NULL_BUS,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
    Observability,
    Profiler,
    TraceBus,
    get_profiler,
    percentile,
    probe,
    profile_calls,
    profiled,
)


class TestTraceBus:
    def test_emit_records_in_order_with_monotone_seq(self):
        bus = TraceBus()
        bus.emit("a", 1.0, x=1)
        bus.emit("b", 0.5, y=2)
        events = bus.events()
        assert [ev.kind for ev in events] == ["a", "b"]
        assert [ev.seq for ev in events] == [0, 1]
        assert bus.emitted == 2 and bus.dropped == 0

    def test_disabled_bus_records_nothing(self):
        bus = TraceBus(enabled=False)
        bus.emit("a", 1.0)
        assert len(bus) == 0 and bus.emitted == 0

    def test_null_bus_is_disabled(self):
        assert not NULL_BUS.enabled
        NULL_BUS.emit("a", 1.0)
        assert len(NULL_BUS) == 0

    def test_ring_buffer_drops_oldest(self):
        bus = TraceBus(capacity=3)
        for i in range(5):
            bus.emit("tick", float(i), i=i)
        assert bus.emitted == 5
        assert bus.dropped == 2
        assert [ev.data["i"] for ev in bus] == [2, 3, 4]

    def test_clock_offset_shifts_timestamps(self):
        bus = TraceBus()
        bus.clock_offset = 10.0
        bus.emit("tick", 1.5)
        assert bus.events()[0].time == 11.5

    def test_subscribers_see_every_event(self):
        bus = TraceBus()
        seen = []
        bus.subscribe(lambda seq, time, kind, data: seen.append(kind))
        bus.emit("a", 0.0)
        bus.emit("b", 1.0)
        assert seen == ["a", "b"]

    def test_events_filter_by_kind(self):
        bus = TraceBus()
        bus.emit("a", 0.0)
        bus.emit("b", 1.0)
        bus.emit("a", 2.0)
        assert len(bus.events("a")) == 2

    def test_jsonl_round_trip(self):
        bus = TraceBus()
        bus.emit("job.release", 0.25, task="tau1", job=0, offloaded=True)
        bus.emit("job.finish", 1.0, task="tau1", job=0, benefit=3.5)
        text = bus.to_jsonl()
        header = json.loads(text.splitlines()[0])
        assert header == {"schema_version": SCHEMA_VERSION}
        rebuilt = TraceBus.from_jsonl(text)
        assert rebuilt.to_records() == bus.to_records()

    def test_jsonl_rejects_future_schema(self):
        text = json.dumps({"schema_version": SCHEMA_VERSION + 1}) + "\n"
        with pytest.raises(ValueError, match="schema version"):
            TraceBus.from_jsonl(text)


class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_exact_percentiles(self):
        hist = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0
        assert hist.percentile(50) == pytest.approx(2.5)
        snap = hist.snapshot()
        assert snap["count"] == 4 and snap["mean"] == pytest.approx(2.5)

    def test_histogram_rejects_nan_and_empty_percentile(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        with pytest.raises(ValueError):
            hist.percentile(50)

    @pytest.mark.parametrize(
        "values, p, expected",
        [
            ([7.0], 0, 7.0),
            ([7.0], 99, 7.0),
            ([5.0, 1.0, 4.0, 2.0, 3.0], 50, 3.0),    # integral rank 2
            ([5.0, 1.0, 4.0, 2.0, 3.0], 25, 2.0),    # integral rank 1
            ([1.0, 2.0, 3.0, 4.0], 50, 2.5),         # rank 1.5
            ([20.0, 0.0, 10.0], 99, 19.8),           # rank 1.98
            ([3.0, 1.0, 2.0], 100, 3.0),
        ],
    )
    def test_percentile_pins(self, values, p, expected):
        assert percentile(values, p) == expected
        hist = Histogram()
        for v in values:
            hist.observe(v)
        assert hist.percentile(p) == expected

    def test_percentile_empty_and_range(self):
        # reports print 0.0 for an empty sample; a histogram raises
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError, match="empty"):
            Histogram().percentile(50)
        for p in (-1, 101):
            with pytest.raises(ValueError):
                percentile([1.0], p)

    def test_percentile_leaves_input_untouched(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 50) == 2.0
        assert values == [3.0, 1.0, 2.0]

    def test_registry_type_checks_names(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_registry_labels_partition_series(self):
        reg = MetricsRegistry()
        reg.histogram("rt", {"task": "a"}).observe(1.0)
        reg.histogram("rt", {"task": "b"}).observe(9.0)
        assert reg.histogram("rt", {"task": "a"}).count == 1

    def test_csv_and_json_exports(self):
        reg = MetricsRegistry()
        reg.counter("jobs.completed").inc(3)
        reg.histogram("rt", {"task": "a"}).observe(1.0)
        as_json = json.loads(reg.to_json())
        assert {rec["name"] for rec in as_json} == {"jobs.completed", "rt"}
        csv_text = reg.to_csv()
        assert csv_text.splitlines()[0].startswith("name,kind,labels")
        assert "task=a" in csv_text


class TestRecorder:
    def test_folds_bus_events_into_metrics(self):
        bus = TraceBus()
        recorder = MetricsRecorder().attach(bus)
        bus.emit("job.release", 0.0, task="t", job=0)
        bus.emit("offload.send", 0.1, task="t", job=0, budget=0.5)
        bus.emit("offload.receive", 0.4, task="t", job=0,
                 latency=0.3, late=False)
        bus.emit("job.finish", 0.5, task="t", job=0, benefit=2.0,
                 response_time=0.5, compensated=False)
        reg = recorder.registry
        assert reg.counter("jobs.released").value == 1
        assert reg.counter("offload.returned").value == 1
        assert recorder.offload_success_ratio() == 1.0

    def test_late_receive_does_not_count_as_returned(self):
        bus = TraceBus()
        recorder = MetricsRecorder().attach(bus)
        bus.emit("offload.send", 0.0, task="t", job=0, budget=0.1)
        bus.emit("offload.receive", 5.0, task="t", job=0,
                 latency=5.0, late=True)
        assert recorder.registry.counter("offload.returned").value == 0
        assert recorder.offload_success_ratio() == 0.0

    def test_breaker_transitions(self):
        bus = TraceBus()
        recorder = MetricsRecorder().attach(bus)
        bus.emit("breaker.state", 1.0, window=0, old="closed", new="open")
        bus.emit("breaker.state", 2.0, window=1, old="open", new="closed")
        reg = recorder.registry
        assert reg.counter("breaker.trips").value == 1
        assert reg.counter("breaker.recoveries").value == 1
        assert reg.gauge("breaker.state").value == 0


class TestProfiler:
    def test_probe_no_op_without_active_profiler(self):
        assert get_profiler() is None
        with probe("anything"):
            pass  # must not raise nor record anywhere

    def test_profiled_context_collects_and_restores(self):
        with profiled() as prof:
            with probe("section"):
                pass
            assert get_profiler() is prof
        assert get_profiler() is None
        assert prof.to_dict()["section"]["count"] == 1

    def test_profile_calls_decorator(self):
        @profile_calls("fn")
        def fn(x):
            return x * 2

        assert fn(2) == 4  # inactive: plain call
        with profiled() as prof:
            assert fn(3) == 6
        assert prof.to_dict()["fn"]["count"] == 1

    def test_stats_aggregate(self):
        prof = Profiler()
        prof.record("x", 1.0)
        prof.record("x", 3.0)
        snap = prof.to_dict()["x"]
        assert snap["count"] == 2
        assert snap["total_s"] == pytest.approx(4.0)
        assert snap["mean_s"] == pytest.approx(2.0)
        assert snap["min_s"] == 1.0 and snap["max_s"] == 3.0


class TestObservabilityBundle:
    def test_disabled_is_free_default(self):
        obs = Observability.disabled()
        assert not obs.is_enabled
        assert obs.bus is NULL_BUS
        assert obs.profiler is None

    def test_enabled_wires_recorder_to_bus(self):
        obs = Observability.enabled()
        assert obs.is_enabled
        obs.bus.emit("job.release", 0.0, task="t", job=0)
        assert obs.metrics.counter("jobs.released").value == 1
