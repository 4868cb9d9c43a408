"""Tests for the BayesPerf engine, sessions, ring buffer and shim."""

import numpy as np
import pytest

from repro.core import BayesPerfEngine, BayesPerfShim, PerfSession, RingBuffer
from repro.core.posterior import EventEstimate, PosteriorReport
from repro.core.shim import ShimError
from repro.events import catalog_for
from repro.events.profiles import standard_profiling_events
from repro.metrics import trace_error
from repro.pmu import MultiplexedSampler, NoiseModel, PollingReader
from repro.scheduling import overlap_schedule, round_robin_schedule
from repro.uarch import Machine, MachineConfig
from repro.workloads import get_workload, steady_workload


@pytest.fixture(scope="module")
def small_pipeline():
    catalog = catalog_for("x86")
    events = standard_profiling_events(catalog, n_events=16)
    schedule = overlap_schedule(catalog, events)
    trace = Machine(MachineConfig(), get_workload("KMeans"), seed=1).run(50)
    sampled = MultiplexedSampler(catalog, schedule, seed=2).sample(trace)
    polled = PollingReader(catalog, sampled.events, seed=3).read(trace)
    return catalog, events, schedule, sampled, polled


class TestPosteriorTypes:
    def test_event_estimate_interval(self):
        estimate = EventEstimate(event="e", mean=10.0, std=1.0)
        low, high = estimate.interval(0.95)
        assert low < 10.0 < high
        assert estimate.contains(10.5)
        assert estimate.relative_uncertainty == pytest.approx(0.1)

    def test_report_most_uncertain(self):
        report = PosteriorReport(tick=0)
        report.estimates["a"] = EventEstimate("a", 10.0, 5.0)
        report.estimates["b"] = EventEstimate("b", 10.0, 0.1)
        assert report.most_uncertain(1)[0].event == "a"


class TestRingBuffer:
    def test_fifo_semantics(self):
        buffer = RingBuffer(capacity=2)
        assert buffer.push(1) and buffer.push(2)
        assert not buffer.push(3)  # dropped
        assert buffer.dropped == 1
        assert buffer.pop() == 1
        assert buffer.drain() == [2]
        assert buffer.is_empty

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)


class TestBayesPerfEngine:
    def test_validates_arguments(self):
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=8)
        with pytest.raises(ValueError):
            BayesPerfEngine(catalog, events, observation_model="poisson")
        with pytest.raises(ValueError):
            BayesPerfEngine(catalog, events, drift=0.0)

    def test_reports_monitored_events_only(self, small_pipeline):
        catalog, events, _, sampled, _ = small_pipeline
        engine = BayesPerfEngine(catalog, events)
        report = engine.process_record(sampled.records[0])
        assert set(report.estimates) == set(engine.monitored_events)
        assert all(isinstance(e, EventEstimate) for e in report.estimates.values())

    def test_estimates_track_measured_events(self, small_pipeline):
        catalog, events, _, sampled, polled = small_pipeline
        engine = BayesPerfEngine(catalog, events)
        record = sampled.records[0]
        report = engine.process_record(record)
        for event in record.configuration.events:
            measured = record.total(event)
            assert report[event].mean == pytest.approx(measured, rel=0.25)

    def test_correct_beats_linux(self, small_pipeline):
        catalog, events, schedule, sampled, polled = small_pipeline
        from repro.baselines import LinuxScaling

        bayes = BayesPerfEngine(catalog, events).correct(sampled)
        linux = LinuxScaling().correct(sampled)
        warmup = schedule.rotation_ticks
        bayes_error = trace_error(bayes, polled, events=events, skip_ticks=warmup, aggregate_ticks=8)
        linux_error = trace_error(linux, polled, events=events, skip_ticks=warmup, aggregate_ticks=8)
        assert bayes_error.mean_error < linux_error.mean_error

    def test_uncertainty_reported_and_positive(self, small_pipeline):
        catalog, events, _, sampled, _ = small_pipeline
        engine = BayesPerfEngine(catalog, events)
        reports = engine.reports(sampled)
        assert len(reports) == len(sampled)
        assert all(e.std > 0 for e in reports[-1].estimates.values())

    def test_unmeasured_events_have_higher_relative_uncertainty(self, small_pipeline):
        catalog, events, _, sampled, _ = small_pipeline
        engine = BayesPerfEngine(catalog, events)
        engine.process_record(sampled.records[0])
        report = engine.process_record(sampled.records[1])
        measured = set(report.measured_events)
        unmeasured = [e for e in engine.monitored_events if e not in measured]
        measured_unc = np.mean([report[e].relative_uncertainty for e in measured])
        unmeasured_unc = np.mean([report[e].relative_uncertainty for e in unmeasured])
        assert unmeasured_unc > measured_unc

    def test_gaussian_observation_model_also_works(self, small_pipeline):
        catalog, events, _, sampled, _ = small_pipeline
        engine = BayesPerfEngine(catalog, events, observation_model="gaussian")
        report = engine.process_record(sampled.records[0])
        assert report.ep_converged

    def test_reset_clears_state(self, small_pipeline):
        catalog, events, _, sampled, _ = small_pipeline
        engine = BayesPerfEngine(catalog, events)
        engine.process_record(sampled.records[0])
        engine.reset()
        assert np.isnan(engine._prior_mean).all()


class TestPerfSession:
    def test_invalid_method(self):
        with pytest.raises(ValueError):
            PerfSession("x86", method="magic")

    def test_bayesperf_session_runs_and_improves(self):
        # A bursty, phase-rich workload: the regime multiplexing error (and
        # therefore BayesPerf's advantage) comes from.
        events = standard_profiling_events(catalog_for("x86"), n_events=14)
        bayes = PerfSession("x86", method="bayesperf", events=events).run("mux-stress", n_ticks=60, seed=0)
        linux = PerfSession("x86", method="linux", events=events).run("mux-stress", n_ticks=60, seed=0)
        assert bayes.mean_error_percent < linux.mean_error_percent
        assert bayes.schedule.name == "bayesperf-overlap"
        assert linux.schedule.name == "round-robin"

    def test_metrics_selection(self):
        session = PerfSession("x86", method="linux", metrics=["ipc", "llc_miss_rate"])
        assert len(session.events) < 10

    def test_separate_run_reference(self):
        events = standard_profiling_events(catalog_for("x86"), n_events=10)
        session = PerfSession("x86", method="linux", events=events, reference="separate-run")
        result = session.run("steady", n_ticks=30, seed=1)
        assert result.mean_error_percent > 0


class TestShim:
    def test_full_lifecycle(self):
        shim = BayesPerfShim("x86", seed=0)
        fd_miss = shim.perf_event_open("LONGEST_LAT_CACHE.MISS")
        fd_ref = shim.perf_event_open("LONGEST_LAT_CACHE.REFERENCE")
        shim.attach(steady_workload(), n_ticks=12)
        shim.enable()
        processed = shim.step(6)
        assert processed == 6
        estimate = shim.read(fd_miss)
        assert estimate.mean > 0
        assert shim.read_value(fd_ref) > estimate.mean  # references exceed misses
        reports = shim.poll_reports()
        assert len(reports) == 6
        shim.close()

    def test_api_misuse_raises(self):
        shim = BayesPerfShim("x86")
        with pytest.raises(KeyError):
            shim.perf_event_open("NOT_AN_EVENT")
        with pytest.raises(ShimError):
            shim.attach("steady")  # no events registered
        fd = shim.perf_event_open("L2_RQSTS.MISS")
        with pytest.raises(ShimError):
            shim.enable()  # not attached
        shim.attach("steady", n_ticks=5)
        with pytest.raises(ShimError):
            shim.step()  # not enabled
        shim.enable()
        with pytest.raises(ShimError):
            shim.read(fd)  # nothing processed yet
