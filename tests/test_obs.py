"""Observability (`repro.obs`): spans, metrics, chain-health analytics, and
the fully-instrumented pipeline — span trees over a real run, the complete
replayable run log (tracefile v3 estimate records), and the mixing report."""

import json
from pathlib import Path

import pytest

from repro.api import EstimatorSpec, ObserverSpec, Pipeline, RecorderSpec, RunSpec
from repro.fg.mcmc import ChainSiteVisit, ChainTrace
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.events import EventDispatcher, EventLog, SliceCompleted
from repro.fleet.tracefile import (
    TraceWriter,
    chain_trace_file,
    read_trace,
    write_trace,
)
from repro.obs import (
    JsonlSpanExporter,
    MetricsRegistry,
    MixingAccumulator,
    Observer,
    Span,
    Tracer,
    analyze_chain,
    analyze_tracefile,
)

METRICS = ("ipc", "l1d_mpki")


# -- spans --------------------------------------------------------------------


def _traced():
    """A tracer whose finished spans land in an :class:`EventLog`."""
    log = EventLog()
    return Tracer(EventDispatcher([log])), log


class TestSpans:
    def test_nesting_parents_spans_automatically(self):
        tracer, log = _traced()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        inner_span, outer_span = log.snapshot()  # completion order: inner first
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert inner_span.trace_id == outer_span.trace_id

    def test_span_timing_and_otlp_shape(self):
        tracer, _ = _traced()
        with tracer.span("work", batch=4) as span:
            sum(range(1000))
        otlp = span.to_otlp()
        assert otlp["name"] == "work"
        assert otlp["attributes"] == {"batch": 4}
        assert otlp["status"] == "OK"
        assert otlp["end_time_unix_nano"] >= otlp["start_time_unix_nano"]
        assert otlp["duration_ns"] == span.duration_ns
        assert span.ended

    def test_exception_marks_span_error(self):
        tracer, log = _traced()
        with pytest.raises(RuntimeError):
            with tracer.span("explode"):
                raise RuntimeError("boom")
        (span,) = log.snapshot()
        assert span.status == "ERROR"
        assert span.attributes["error.type"] == "RuntimeError"

    def test_out_of_order_end_is_tolerated(self):
        tracer, _ = _traced()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.end(outer)  # abandoned consumer unwinds outermost-first
        assert tracer.current is inner
        tracer.end(inner)
        tracer.end(inner)  # double-end is a no-op
        assert tracer.current is None

    def test_shutdown_ends_leftover_spans(self):
        tracer, log = _traced()
        tracer.start("left-open")
        tracer.shutdown()
        assert [span.name for span in log.snapshot()] == ["left-open"]
        assert log.snapshot()[0].ended

    def test_jsonl_exporter_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlSpanExporter(path)
        dispatcher = EventDispatcher([exporter])
        tracer = Tracer(dispatcher)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        dispatcher.emit(SliceCompleted(host="h0", tick=0))  # not a span: skipped
        tracer.shutdown()
        dispatcher.shutdown()
        assert exporter.exported == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["b", "a"]
        assert lines[0]["parent_span_id"] == lines[1]["span_id"]


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(4)
        assert registry.counter("n").value == 5
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("n").inc(-1)

    def test_gauge_set_and_high_water_mark(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.max(3)
        gauge.max(1)
        assert gauge.value == 3
        gauge.set(0.5)
        assert gauge.value == 0.5

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["buckets"] == {"le_0.1": 1, "le_1": 1, "le_inf": 1}
        assert summary["min"] == 0.05 and summary["max"] == 5.0

    def test_cross_type_name_collision_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="another type"):
            registry.gauge("x")

    def test_export_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.histogram("lat").record(0.01)
        path = registry.export_json(tmp_path / "metrics.json")
        payload = json.loads(Path(path).read_text())
        assert payload["counters"]["hits"] == 2
        assert payload["histograms"]["lat"]["count"] == 1
        assert "hits 2" in registry.render()


# -- chain-health analytics ---------------------------------------------------


def _visit(slice_id, accepted, n_steps=100, windows=(), sequence=0):
    return ChainSiteVisit(
        sequence=sequence,
        slice_id=slice_id,
        tick=0,
        iteration=1,
        site="site",
        site_index=0,
        width=2,
        n_factors=3,
        n_steps=n_steps,
        burn_in=50,
        accepted=accepted,
        step_scale=0.1,
        windows=tuple(windows),
    )


def _fleet_visits(n_slices=10, accepted=35, stuck=()):
    """One healthy visit per slice, with the given slices fully stuck."""
    return [
        _visit(i, 0 if i in stuck else accepted, sequence=i) for i in range(n_slices)
    ]


class TestMixing:
    def test_healthy_fleet_has_no_flags(self):
        report = analyze_chain(_fleet_visits())
        assert report.healthy
        assert report.n_slices == 10
        assert report.median_acceptance == pytest.approx(0.35)

    def test_stuck_chain_is_flagged(self):
        report = analyze_chain(_fleet_visits(stuck={3}))
        reasons = report.flags_by_reason()
        assert reasons["stuck-chain"] == 1
        assert any(
            flag.reason == "stuck-chain" and flag.slice_id == 3
            for flag in report.flags
        )

    def test_stuck_slice_is_also_a_fleet_outlier(self):
        report = analyze_chain(_fleet_visits(stuck={7}))
        assert 7 in report.outlier_slices

    def test_too_few_steps_do_not_count_as_stuck(self):
        report = analyze_chain([_visit(0, 0, n_steps=5)])
        assert "stuck-chain" not in report.flags_by_reason()

    def test_collapsed_acceptance_trajectory(self):
        report = analyze_chain([_visit(0, 10, windows=(18, 9, 0))])
        assert "collapsed-acceptance" in report.flags_by_reason()

    def test_non_monotone_adaptation(self):
        report = analyze_chain([_visit(0, 40, windows=(20, 2, 20, 2))])
        assert "non-monotone-adaptation" in report.flags_by_reason()

    def test_small_fleets_skip_outlier_detection(self):
        report = analyze_chain(_fleet_visits(n_slices=4, stuck={1}))
        assert "fleet-outlier" not in report.flags_by_reason()
        assert "stuck-chain" in report.flags_by_reason()  # per-slice still runs

    def test_accumulator_is_incremental(self):
        accumulator = MixingAccumulator()
        visits = _fleet_visits(stuck={2})
        accumulator.consume(visits[:5])
        accumulator.consume(visits[5:])
        report = accumulator.report()
        assert report.n_visits == 10
        assert 2 in report.outlier_slices
        assert report.to_dict()["healthy"] is False
        assert "stuck-chain" in report.render()

    def test_repeat_visits_flag_once_per_site(self):
        # The same stuck (slice, site) revisited across EP iterations is one
        # pathology, not one flag per iteration.
        accumulator = MixingAccumulator()
        accumulator.consume(
            _visit(3, accepted=0, sequence=seq) for seq in range(6)
        )
        report = accumulator.report()
        assert report.flags_by_reason() == {"stuck-chain": 1}

    def test_analyze_tracefile(self, tmp_path):
        chain = ChainTrace()
        chain.visits.extend(_fleet_visits(stuck={0}))
        path = tmp_path / "chains.jsonl"
        write_trace(path, chain_trace_file(chain, arch="x86"))
        report = analyze_tracefile(path)
        assert report is not None and not report.healthy
        # A chain-free trace yields no report rather than an error.
        write_trace(tmp_path / "plain.jsonl", chain_trace_file(ChainTrace(), arch="x86"))
        assert analyze_tracefile(tmp_path / "plain.jsonl") is None


# -- tracefile v3: the complete run log ---------------------------------------


class TestTracefileV3:
    def test_writer_estimate_records_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TraceWriter(path, arch="x86", events=("A", "B"), estimates=True)
        writer.write_estimate("h1", 0, {"A": 1.0, "B": 2.0}, {"A": 0.1, "B": 0.2})
        writer.write_estimate("h1", 1, {"A": 3.0, "B": 4.0}, {"A": 0.3, "B": 0.4})
        writer.write_estimate("h0", 0, {"A": 5.0, "B": 6.0})
        writer.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == 3
        trace = read_trace(path)
        assert sorted(trace.host_estimates) == ["h0", "h1"]
        assert trace.host_estimates["h1"].estimates == [
            {"A": 1.0, "B": 2.0},
            {"A": 3.0, "B": 4.0},
        ]
        assert trace.host_estimates["h1"].uncertainties[1] == {"A": 0.3, "B": 0.4}
        assert trace.host_estimates["h0"].uncertainties == [{}]
        # Host-keyed records never populate the legacy single-trace slot.
        assert trace.estimates is None

    def test_batch_writer_stamps_v3_only_with_host_estimates(self, tmp_path):
        from repro.pmu.traces import EstimateTrace

        trace = chain_trace_file(ChainTrace(), arch="x86")
        trace.chain = None
        host_log = EstimateTrace(method="bayesperf")
        host_log.append({"A": 1.0})
        trace.host_estimates["h0"] = host_log
        path = write_trace(tmp_path / "v3.jsonl", trace)
        assert json.loads(path.read_text().splitlines()[0])["version"] == 3
        replayed = read_trace(path)
        assert replayed.host_estimates["h0"].values_equal(host_log)

    def test_streamed_chain_only_traces_stay_v2(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        TraceWriter(path, arch="x86").close()
        assert json.loads(path.read_text().splitlines()[0])["version"] == 2


# -- observer and spec wiring -------------------------------------------------


class TestObserver:
    def test_null_helpers_cost_nothing_without_backends(self):
        observer = Observer()
        with observer.span("anything"):
            observer.count("c")
            observer.observe("h", 1.0)
            observer.gauge("g", 2.0)
        observer.close()  # no backends: close is a no-op
        assert observer.metrics is None and observer.tracer is None

    def test_from_options_builds_only_whats_asked(self, tmp_path):
        dispatcher = EventDispatcher()
        observer = Observer.from_options(dispatcher, metrics="console")
        assert observer.tracer is None and observer.metrics is not None
        observer = Observer.from_options(dispatcher, trace=str(tmp_path / "s.jsonl"))
        # The registry always exists (it is the run's one metrics store);
        # without a metrics sink nothing is exported.
        assert observer.tracer is not None and observer.metrics_sink is None
        assert observer.tracer.dispatcher is dispatcher
        dispatcher.shutdown()

    def test_metrics_close_exports_json(self, tmp_path):
        sink = tmp_path / "metrics.json"
        observer = Observer.from_options(EventDispatcher(), metrics=str(sink))
        observer.observe("lat", 0.2)
        observer.close()
        observer.close()  # idempotent
        assert json.loads(sink.read_text())["histograms"]["lat"]["count"] == 1

    def test_console_metrics_sink_prints_summary(self, capsys):
        observer = Observer.from_options(EventDispatcher(), metrics="console")
        observer.count("hits", 3)
        observer.gauge_max("depth", 2)
        observer.close()
        out = capsys.readouterr().out
        assert "hits 3" in out and "depth 2" in out

    def test_estimates_without_sink_is_rejected(self, tmp_path):
        # The spec is rejected before anything is opened: an existing span
        # export keeps its bytes (and no file handle leaks).
        trace = tmp_path / "s.jsonl"
        trace.write_bytes(b'{"name": "earlier-run"}\n')
        spec = RunSpec.fleet(
            1,
            "steady",
            n_ticks=1,
            metrics=METRICS,
            observer=ObserverSpec(trace=str(trace), estimates=True),
        )
        with pytest.raises(ValueError, match="recorder"):
            Pipeline.from_spec(spec)
        assert trace.read_bytes() == b'{"name": "earlier-run"}\n'


# -- the instrumented pipeline (the acceptance run) ---------------------------


class TestInstrumentedPipeline:
    def test_fleet_run_produces_spans_metrics_and_run_log(self, tmp_path):
        """The tentpole acceptance: one observed 64-host run yields (1) a
        span tree reconstructing run -> round -> slice -> kernel, (2) nonzero
        slice-latency histogram counts, and (3) a tracefile whose host-keyed
        estimate records reproduce the run's estimates exactly."""
        span_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.json"
        sink = tmp_path / "run.jsonl"
        spec = RunSpec.fleet(
            64,
            "steady",
            n_ticks=1,
            metrics=METRICS,
            n_workers=4,
            recorder=RecorderSpec(sink=str(sink)),
            observer=ObserverSpec(
                trace=str(span_path), metrics=str(metrics_path), estimates=True
            ),
        )
        result = Pipeline.from_spec(spec).run()
        assert result.n_slices == 64

        # (1) the span JSONL reconstructs the full pipeline tree.
        spans = [json.loads(line) for line in span_path.read_text().splitlines()]
        by_id = {span["span_id"]: span for span in spans}
        assert len({span["trace_id"] for span in spans}) == 1
        roots = [span for span in spans if span["parent_span_id"] is None]
        assert [span["name"] for span in roots] == ["pipeline.run"]
        assert roots[0]["attributes"]["hosts"] == 64

        def parent_name(span):
            return by_id[span["parent_span_id"]]["name"]

        rounds = [span for span in spans if span["name"] == "fleet.round"]
        assert rounds and all(parent_name(span) == "pipeline.run" for span in rounds)
        solves = [span for span in spans if span["name"] == "slice.solve"]
        # One span per engine batch; together they cover all 64 slices.
        assert sum(span["attributes"]["n_records"] for span in solves) == 64
        assert all(parent_name(span) == "fleet.round" for span in solves)
        for kernel_stage in ("kernel.bind", "kernel.solve"):
            stage_spans = [span for span in spans if span["name"] == kernel_stage]
            assert stage_spans
            assert all(parent_name(span) == "slice.solve" for span in stage_spans)

        # (2) the metrics summary has nonzero slice-latency counts.
        metrics = json.loads(metrics_path.read_text())
        assert metrics["histograms"]["slice.latency_seconds"]["count"] == 64
        assert metrics["counters"]["slices.solved"] == 64

        # (3) the tracefile's run log reproduces the estimates exactly.
        trace = read_trace(sink)
        assert len(trace.host_estimates) == 64
        for slice_result in result.slices:
            host_log = trace.host_estimates[slice_result.host]
            assert host_log.estimates[slice_result.tick] == slice_result.values
            assert host_log.uncertainties[slice_result.tick] == slice_result.sigma
        # ... and the report CLI reads it without re-running inference.
        assert fleet_main(["report", str(sink)]) == 0

    def test_mcmc_run_feeds_mixing_report_and_events(self, tmp_path):
        """A live sampled run records chains, analyses them at end of run,
        and surfaces the report on the PipelineResult."""
        sink = tmp_path / "chains.jsonl"
        spec = RunSpec.fleet(
            2,
            "steady",
            n_ticks=1,
            metrics=METRICS,
            estimator=EstimatorSpec("mcmc", samples=10, burn_in=55),
            recorder=RecorderSpec(sink=str(sink)),
            observer=ObserverSpec(
                trace=str(tmp_path / "s.jsonl"), metrics=str(tmp_path / "m.json")
            ),
        )
        pipeline = Pipeline.from_spec(spec)
        log = EventLog(maxlen=None)
        pipeline.service.dispatcher.add(log)
        result = pipeline.run()
        assert result.mixing is not None
        assert result.mixing.n_visits > 0
        assert pipeline.mixing_report is result.mixing
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["histograms"]["chain.acceptance"]["count"] > 0
        # The attached log saw the mixing.report span under the run root.
        spans = {span.span_id: span for span in log.snapshot() if isinstance(span, Span)}
        (root,) = [span for span in spans.values() if span.parent_id is None]
        assert root.name == "pipeline.run"
        (report,) = [span for span in spans.values() if span.name == "mixing.report"]
        assert report.parent_id == root.span_id

    def test_event_log_receives_every_finished_span(self, tmp_path):
        """Spans are events: an EventLog on the run's dispatcher receives
        exactly the spans the exporter wrote, in the same order, with
        ``pipeline.run`` the one root."""
        span_path = tmp_path / "spans.jsonl"
        spec = RunSpec.fleet(
            3,
            "steady",
            n_ticks=2,
            metrics=METRICS,
            observer=ObserverSpec(trace=str(span_path)),
        )
        pipeline = Pipeline.from_spec(spec)
        log = EventLog(maxlen=None)
        pipeline.service.dispatcher.add(log)
        result = pipeline.run()
        spans = [event for event in log.snapshot() if isinstance(event, Span)]
        exported = [json.loads(line) for line in span_path.read_text().splitlines()]
        assert [span.to_otlp() for span in spans] == exported
        assert all(span.ended for span in spans)
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id not in ids]
        assert [span.name for span in roots] == ["pipeline.run"]
        assert roots[0].parent_id is None and spans[-1] is roots[0]
        solves = [span for span in spans if span.name == "slice.solve"]
        assert sum(span.attributes["n_records"] for span in solves) == result.n_slices
        # Fleet events share the stream: one SliceCompleted per slice.
        completed = [e for e in log.snapshot() if isinstance(e, SliceCompleted)]
        assert len(completed) == result.n_slices == 6

    def test_observers_off_leaves_no_artifacts(self, tmp_path):
        spec = RunSpec.fleet(2, "steady", n_ticks=1, metrics=METRICS)
        pipeline = Pipeline.from_spec(spec)
        result = pipeline.run()
        assert pipeline.observer is None
        assert result.mixing is None
        assert list(tmp_path.iterdir()) == []


# -- the report CLI over a pathological fixture -------------------------------


class TestReportCli:
    def test_report_flags_synthetic_stuck_chain(self, tmp_path, capsys):
        chain = ChainTrace()
        chain.visits.extend(_fleet_visits(n_slices=12, stuck={5}))
        path = tmp_path / "pathological.jsonl"
        write_trace(path, chain_trace_file(chain, arch="x86", workload="synthetic"))
        assert fleet_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stuck-chain" in out
        assert "fleet-outlier" in out

    def test_report_degrades_on_chain_free_trace(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        write_trace(path, chain_trace_file(ChainTrace(), arch="x86"))
        assert fleet_main(["report", str(path)]) == 0
        assert "chain records: none" in capsys.readouterr().out
