"""Fleet telemetry: ingestion, workers, trace record/replay, events, and
the fleet runs `Pipeline.from_spec` assembles from them."""

import copy
import logging
from pathlib import Path

import pytest

from repro.api import EstimatorSpec, HostSpec, Pipeline, RunSpec
from repro.core.engine import BayesPerfEngine
from repro.core.session import PerfSession
from repro.events.registry import catalog_for
from repro.fleet.events import (
    BackpressureDetected,
    EstimateReady,
    EventDispatcher,
    EventLog,
    EventProcessor,
    MetricsProcessor,
    SessionCompleted,
    SessionStarted,
    SliceCompleted,
)
from repro.fleet.ingest import FleetIngest, ReplayHostSource, SyntheticHostSource
from repro.fleet.tracefile import (
    TraceFile,
    TraceFormatError,
    read_trace,
    record_session_trace,
    register_trace_workload,
    write_trace,
)
from repro.fleet.wal import engine_state_from_json, engine_state_to_json
from repro.fleet.workers import EngineCache, WorkerPool, engine_key
from repro.obs import MetricsRegistry
from repro.pmu.traces import EstimateTrace
from repro.scheduling.cache import cached_schedule, schedule_cache_stats
from repro.workloads.registry import (
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)

#: A small but schedulable event selection (3 events, 1 configuration).
METRICS = ("ipc", "l1d_mpki")


def small_fleet(n_hosts=4, *, n_ticks=5, n_workers=2, **kwargs):
    return RunSpec.fleet(
        n_hosts, "mux-stress", n_ticks=n_ticks, metrics=METRICS, n_workers=n_workers, **kwargs
    )


def run_fleet(spec, processors=()):
    """Run *spec* to completion with extra event processors attached."""
    pipeline = Pipeline.from_spec(spec)
    for processor in processors:
        pipeline.service.dispatcher.add(processor)
    return pipeline.run().fleet


def replay_spec(*paths, host_ids=None, **kwargs):
    """A fleet replaying recorded tracefiles, one host per path."""
    ids = host_ids or (None,) * len(paths)
    hosts = tuple(HostSpec(trace=str(path), host_id=i) for path, i in zip(paths, ids))
    return RunSpec(hosts=hosts, **kwargs)


# -- observability event stream --------------------------------------------


def test_dispatcher_is_best_effort(caplog):
    class Exploding(EventProcessor):
        def on_event(self, event):
            raise RuntimeError("boom")

    log = EventLog()
    dispatcher = EventDispatcher([Exploding(), log])
    with caplog.at_level(logging.WARNING):
        dispatcher.emit(SessionStarted(host="h0"))
    # The failing processor is logged; later processors still receive the event.
    assert len(log) == 1
    assert any("Exploding" in record.message for record in caplog.records)


def test_event_log_pull_iteration_drains():
    log = EventLog(maxlen=2)
    for tick in range(3):
        log.on_event(SliceCompleted(host="h0", tick=tick))
    assert log.discarded == 1  # oldest event fell out of the bounded buffer
    ticks = [event.tick for event in log.iter()]
    assert ticks == [1, 2]
    assert len(log) == 0


def test_metrics_processor_aggregates():
    registry = MetricsRegistry()
    metrics = MetricsProcessor(registry)
    metrics.on_event(SessionStarted(host="a"))
    metrics.on_event(SliceCompleted(host="a", tick=0))
    metrics.on_event(SliceCompleted(host="a", tick=1))
    metrics.on_event(BackpressureDetected(host="a", dropped=2, total_dropped=2))
    metrics.on_event(EstimateReady(host="a", first_tick=0, last_tick=1, n_slices=2))
    metrics.on_event(SessionCompleted(host="a", n_slices=2))
    assert registry.summary()["counters"] == {
        "hosts.started": 1,
        "hosts.completed": 1,
        "slices.solved": 2,
        "ingest.backpressure": 1,
    }


# -- ingestion ---------------------------------------------------------------


def _source(host_id="h0", *, n_ticks=6, seed=0):
    catalog = catalog_for("x86")
    events = catalog.events_for_derived(METRICS)
    return SyntheticHostSource(
        host_id, get_workload("steady"), events=events, n_ticks=n_ticks, seed=seed
    )


def test_ingest_pump_and_take():
    ingest = FleetIngest(buffer_capacity=16)
    channel = ingest.add(_source(n_ticks=6))
    stats = channel.pump(4)
    assert stats.accepted == 4 and stats.dropped == 0 and not stats.exhausted
    records = channel.take(2)
    assert [record.tick for record in records] == [0, 1]
    stats = channel.pump(10)
    assert stats.exhausted
    assert not channel.done  # buffered records remain
    channel.take(100)
    assert channel.done


def test_ingest_backpressure_drops_and_emits():
    log = EventLog()
    ingest = FleetIngest(buffer_capacity=2, dispatcher=EventDispatcher([log]))
    channel = ingest.add(_source(n_ticks=8))
    stats = channel.pump(8)
    assert stats.accepted == 2
    assert stats.dropped == 6
    assert channel.dropped == 6
    drops = [e for e in log.iter() if isinstance(e, BackpressureDetected)]
    assert len(drops) == 1
    assert drops[0].total_dropped == 6
    assert drops[0].capacity == 2
    assert ingest.drop_report() == {"h0": 6}


def test_ingest_rejects_duplicate_host():
    ingest = FleetIngest()
    ingest.add(_source("dup"))
    with pytest.raises(ValueError, match="dup"):
        ingest.add(_source("dup"))


def test_ingest_emits_session_started():
    log = EventLog()
    ingest = FleetIngest(dispatcher=EventDispatcher([log]))
    ingest.add(_source("h7"))
    events = list(log.iter())
    assert isinstance(events[0], SessionStarted)
    assert events[0].host == "h7"
    assert events[0].n_events == 3


# -- engine state checkpointing ---------------------------------------------


def test_engine_snapshot_restore_is_exact():
    catalog = catalog_for("x86")
    events = catalog.events_for_derived(METRICS)
    source = _source(n_ticks=6)
    records = list(source.records())

    continuous = BayesPerfEngine(catalog, events)
    continuous.reset()
    expected = [continuous.process_record(record).means() for record in records]

    # Same records, but the engine round-trips through another host's run
    # between the two halves (the worker-pool interleaving pattern).
    shared = BayesPerfEngine(catalog, events)
    shared.reset()
    first = [shared.process_record(record).means() for record in records[:3]]
    state = shared.snapshot()
    shared.reset()
    for record in records[:2]:  # some other host's slices
        shared.process_record(record)
    shared.restore(state)
    second = [shared.process_record(record).means() for record in records[3:]]
    assert first + second == expected


def test_engine_restore_rejects_unknown_events():
    catalog = catalog_for("x86")
    engine = BayesPerfEngine(catalog, catalog.events_for_derived(METRICS))
    payload = engine_state_to_json(engine.snapshot())
    for key in ("prior_mean", "scale"):
        tampered = copy.deepcopy(payload)
        tampered[key]["NOT_AN_EVENT"] = 1.0
        with pytest.raises(ValueError, match="NOT_AN_EVENT"):
            engine.restore(engine_state_from_json(tampered))


# -- shared caches -----------------------------------------------------------


def test_catalog_cache_shares_instances_across_aliases():
    assert catalog_for("x86") is catalog_for("x86_64")
    assert catalog_for("x86") is catalog_for("x86_64-skylake")
    assert catalog_for("ppc64") is catalog_for("power9")
    assert catalog_for("x86") is not catalog_for("ppc64")


def test_schedule_cache_reuses_schedules():
    catalog = catalog_for("x86")
    events = catalog.events_for_derived(METRICS)
    before = schedule_cache_stats()
    first = cached_schedule(catalog, events, kind="overlap")
    second = cached_schedule(catalog, events, kind="overlap")
    assert first is second
    after = schedule_cache_stats()
    assert after["hits"] >= before["hits"] + 1


def test_engine_cache_keys_on_arch_and_events():
    cache = EngineCache()
    catalog = catalog_for("x86")
    events = catalog.events_for_derived(METRICS)
    one = cache.engine_for("x86", events)
    two = cache.engine_for("x86_64-skylake", events)  # alias: same key
    assert one is two
    assert cache.hits == 1 and cache.misses == 1
    other = cache.engine_for("x86", events[:2])
    assert other is not one
    assert engine_key("x86", events) == engine_key("x86_64", events)


def test_engine_cache_survives_host_quarantine():
    """Quarantining one host must not poison its shared engine.

    Hosts with the same (arch, event-set) key share one engine; the
    quarantine path excises the host from batching, and the surviving
    hosts' results through the shared engine stay bit-identical with a
    fleet that never saw the faulty host's quarantine.
    """
    from repro.fleet.chaos import Fault, FaultInjector
    from repro.fleet.faults import FaultPolicySpec

    clean = run_fleet(small_fleet(n_hosts=4, n_ticks=4))
    chaos = FaultInjector([Fault("raise", "host-002", 1, attempts=99)])
    spec = small_fleet(
        n_hosts=4,
        n_ticks=4,
        fault_policy=FaultPolicySpec(
            max_attempts=2, backoff_base=0.0, on_exhausted="quarantine"
        ),
    )
    result = Pipeline.from_spec(spec, chaos=chaos).run().fleet
    assert result.quarantined == ("host-002",)
    # All four hosts share one engine key: it was built once and kept being
    # reused by the survivors after the quarantine.
    assert result.engine_cache["misses"] <= 2
    assert result.engine_cache["hits"] >= 2
    for host in ("host-000", "host-001", "host-003"):
        assert result.estimates[host].values_equal(clean.estimates[host]), host


# -- workload registry -------------------------------------------------------


def test_register_workload_roundtrip():
    marker = object()
    register_workload("fleet-test-workload", lambda: marker)
    try:
        assert "fleet-test-workload" in available_workloads()
        assert get_workload("fleet-test-workload") is marker
        with pytest.raises(ValueError, match="already registered"):
            register_workload("fleet-test-workload", lambda: None)
        register_workload("fleet-test-workload", lambda: 42, overwrite=True)
        assert get_workload("fleet-test-workload") == 42
    finally:
        unregister_workload("fleet-test-workload")
    assert "fleet-test-workload" not in available_workloads()


def test_register_workload_cannot_shadow_builtin():
    with pytest.raises(ValueError, match="built-in"):
        register_workload("steady", lambda: None)


# -- trace files -------------------------------------------------------------


def test_trace_file_roundtrips_all_sections(tmp_path):
    path = tmp_path / "run.jsonl"
    recorded = record_session_trace(
        path, "steady", metrics=METRICS, n_ticks=6, seed=11
    )
    loaded = read_trace(path)
    assert loaded.arch == "x86"
    assert loaded.events == recorded.events
    assert loaded.workload == "steady"
    assert loaded.seed == 11
    assert loaded.n_ticks == 6
    # Sampled records survive exactly (ticks, configurations, float samples).
    for original, parsed in zip(recorded.sampled.records, loaded.sampled.records):
        assert parsed.tick == original.tick
        assert parsed.configuration.events == original.configuration.events
        for event in original.samples:
            assert list(parsed.samples[event]) == list(original.samples[event])
    assert loaded.polled.values == recorded.polled.values
    assert loaded.estimates.values_equal(recorded.estimates)


def test_trace_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(TraceFormatError, match="bad header"):
        read_trace(path)
    path.write_text('{"format": "bayesperf-trace", "version": 99}\n')
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)
    path.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        read_trace(path)


def test_estimate_trace_records_roundtrip():
    trace = EstimateTrace(method="bayesperf")
    trace.append({"A": 1.5, "B": 2.0}, {"A": 0.1, "B": 0.2})
    trace.append({"A": 3.25})
    rebuilt = EstimateTrace.from_records("bayesperf", trace.to_records())
    assert rebuilt.values_equal(trace)


def test_registered_trace_workload_replays_and_is_rejected_by_session(tmp_path):
    path = tmp_path / "replayable.jsonl"
    record_session_trace(path, "steady", metrics=METRICS, n_ticks=5, seed=2)
    register_trace_workload("fleet-test-trace", path)
    try:
        spec = RunSpec(hosts=(HostSpec(workload="fleet-test-trace"),), n_workers=1)
        result = run_fleet(spec)
        assert len(result.estimates["host-000"]) == 5
        # The simulator-facing session API refuses replay-only workloads.
        with pytest.raises(TypeError, match="repro.fleet"):
            PerfSession("x86", metrics=METRICS).run("fleet-test-trace")
    finally:
        unregister_workload("fleet-test-trace")


def test_write_trace_estimates_only(tmp_path):
    estimates = EstimateTrace(method="bayesperf")
    estimates.append({"A": 1.0})
    trace = TraceFile(arch="x86", events=("A",), estimates=estimates)
    path = write_trace(tmp_path / "est.jsonl", trace)
    loaded = read_trace(path)
    assert loaded.sampled is None
    assert loaded.estimates.values_equal(estimates)
    with pytest.raises(ValueError, match="nothing to replay"):
        ReplayHostSource("h0", loaded)


# -- the pipeline-assembled fleet --------------------------------------------


def _assert_pool_matches_sessions(pool, n_ticks, estimator=None):
    """Each pooled host equals a per-host ``PerfSession`` run bit for bit.

    ``small_fleet`` gives host *i* seed *i*, and a session draws its machine
    and sampler streams from the same seeds as a synthetic fleet host.
    """
    session = PerfSession("x86", metrics=METRICS, estimator=estimator)
    assert sorted(pool.estimates) == [f"host-{i:03d}" for i in range(pool.n_hosts)]
    for index in range(pool.n_hosts):
        want = session.run("mux-stress", n_ticks=n_ticks, seed=index).estimates
        assert pool.estimates[f"host-{index:03d}"].values_equal(want), index


def test_pool_and_serial_produce_identical_estimates():
    """The sharded pool equals each host solved on its own engine."""
    n_hosts, n_workers = 5, 3
    pool = run_fleet(
        small_fleet(n_hosts=n_hosts, n_ticks=4, n_workers=n_workers, batch_size=2)
    )
    _assert_pool_matches_sessions(pool, n_ticks=4)
    # Every host completed, nothing was dropped, and the workers shared
    # engines: at most one build per worker, every other lookup a hit.
    assert pool.total_slices == n_hosts * 4
    assert pool.metrics["hosts.completed"] == n_hosts
    assert pool.total_dropped == 0
    assert pool.engine_cache["misses"] <= n_workers
    assert pool.engine_cache["hits"] >= n_hosts - n_workers


def test_recorded_trace_replay_matches_original_estimates(tmp_path):
    """Acceptance: record -> replay reproduces EstimateTrace values exactly."""
    path = tmp_path / "roundtrip.jsonl"
    recorded = record_session_trace(path, "KMeans", metrics=METRICS, n_ticks=8, seed=5)
    result = run_fleet(replay_spec(path, n_workers=2))
    assert result.estimates["host-000"].values_equal(recorded.estimates)


#: Committed golden trace: a small fleet recording whose estimates pin the
#: whole array-native pipeline (summaries, binder, compiled kernel) in place.
GOLDEN_TRACE = Path(__file__).parent / "fixtures" / "golden_fleet_trace.jsonl"


def _assert_traces_match_golden(got, want, rel=1e-9):
    """Near-exact trace comparison for the committed fixture.

    Exact float equality would be BLAS/CPU-build dependent across CI
    runners; a 1e-9 relative tolerance still catches any real numerical
    change while tolerating last-bit LAPACK differences.  (Within-run
    comparisons — pool vs per-host session, record vs replay — stay exact.)
    """
    assert len(got) == len(want)
    for tick in range(len(want)):
        got_values, want_values = got.at(tick), want.at(tick)
        assert got_values.keys() == want_values.keys()
        for event, value in want_values.items():
            assert got_values[event] == pytest.approx(value, rel=rel)


def test_golden_trace_replay_reproduces_committed_estimates():
    """Regression pin: replaying the committed fixture must reproduce the
    estimates stored inside it.  Any numerical change to the
    observation-summary, binding or kernel code paths fails this test."""
    golden = read_trace(GOLDEN_TRACE)
    assert golden.estimates is not None and len(golden.estimates) == 6
    result = run_fleet(replay_spec(GOLDEN_TRACE, arch=golden.arch, n_workers=2))
    host = "host-000"
    _assert_traces_match_golden(result.estimates[host], golden.estimates)
    # Spot-pin one value so a wholesale rewrite of the fixture is also caught.
    assert result.estimates[host].at(0)["INST_RETIRED.ANY"] == pytest.approx(
        2254911.6948, abs=1e-3
    )


def test_golden_trace_batched_replay_matches_serial():
    """The golden fixture replayed through pooled batching equals serial."""
    host_a, host_b = "golden-a", "golden-b"
    result = run_fleet(
        replay_spec(GOLDEN_TRACE, GOLDEN_TRACE, host_ids=(host_a, host_b), n_workers=2)
    )
    # The two replay hosts batch through one shared engine and must agree
    # with each other exactly; agreement with the fixture is near-exact.
    assert result.estimates[host_a].values_equal(result.estimates[host_b])
    golden = read_trace(GOLDEN_TRACE)
    _assert_traces_match_golden(result.estimates[host_a], golden.estimates)


def test_service_runs_sixteen_hosts_end_to_end():
    log = EventLog()
    result = run_fleet(small_fleet(n_hosts=16, n_ticks=3, n_workers=4), (log,))
    assert result.n_hosts == 16
    assert result.total_slices == 48
    assert result.metrics["hosts.completed"] == 16
    assert result.slices_per_second > 0
    assert len(result.estimates) == 16
    assert all(len(trace) == 3 for trace in result.estimates.values())
    kinds = {type(event).__name__ for event in log.iter()}
    assert {"SessionStarted", "SliceCompleted", "EstimateReady", "SessionCompleted"} <= kinds


def test_service_backpressure_is_visible_in_result():
    result = run_fleet(
        small_fleet(n_hosts=2, n_ticks=10, n_workers=1, buffer_capacity=2, pump_records=10)
    )
    assert result.total_dropped > 0
    assert result.metrics["ingest.backpressure"] > 0
    # Dropped slices are simply absent from the host's estimate trace.
    assert all(len(trace) < 10 for trace in result.estimates.values())


def test_service_guards_misuse():
    with pytest.raises(ValueError, match="at least one HostSpec"):
        Pipeline.from_spec(RunSpec(metrics=METRICS))
    pipeline = Pipeline.from_spec(small_fleet(n_hosts=1, n_ticks=2))
    pipeline.run()
    with pytest.raises(RuntimeError, match="runs once"):
        pipeline.run()
    with pytest.raises(RuntimeError, match="runs once"):
        next(pipeline.stream())


def test_long_streams_do_not_drop_by_default():
    """Default pump rate never outruns the drain rate, whatever the length."""
    result = run_fleet(
        small_fleet(n_hosts=1, n_ticks=30, n_workers=1, batch_size=2, buffer_capacity=4)
    )
    assert result.total_dropped == 0
    assert len(result.estimates["host-000"]) == 30


def test_mcmc_pool_matches_serial():
    """RNG state rides along in engine snapshots, so sharing stays exact."""
    estimator = EstimatorSpec("mcmc", samples=25)
    pool = run_fleet(small_fleet(n_hosts=2, n_ticks=3, batch_size=2, estimator=estimator))
    _assert_pool_matches_sessions(pool, n_ticks=3, estimator=estimator)


def test_unassigned_channel_does_not_hang_pool():
    ingest = FleetIngest()
    ingest.add(_source("orphan", n_ticks=3))
    pool = WorkerPool(1, dispatcher=ingest.dispatcher)  # orphan never assigned
    assert pool.run_until_drained(ingest) == 0


def test_trace_host_rejects_synthetic_overrides(tmp_path):
    path = tmp_path / "t.jsonl"
    record_session_trace(path, "steady", metrics=METRICS, n_ticks=3, seed=0)
    register_trace_workload("fleet-test-override", path)
    try:
        spec = RunSpec(hosts=(HostSpec(workload="fleet-test-override", n_ticks=2),))
        with pytest.raises(ValueError, match="n_ticks"):
            Pipeline.from_spec(spec)
    finally:
        unregister_workload("fleet-test-override")


def test_mixed_arch_fleet_resolves_events_per_catalog():
    x86_host, ppc_host = "host-000", "host-001"
    spec = RunSpec(
        metrics=METRICS,
        hosts=(
            HostSpec(workload="steady", seed=0, n_ticks=2),
            HostSpec(workload="steady", seed=1, n_ticks=2, arch="ppc64"),
        ),
        n_workers=2,
    )
    result = run_fleet(spec)
    # Each host monitors its own architecture's counterpart events.
    x86_events = set(result.estimates[x86_host].at(0))
    ppc_events = set(result.estimates[ppc_host].at(0))
    assert x86_events and ppc_events and x86_events != ppc_events
    # Misconfigured hosts fail in from_spec, naming the offending event.
    bad = RunSpec(metrics=METRICS, hosts=(HostSpec(events=("NOT_A_COUNTER",)),))
    with pytest.raises(KeyError, match="NOT_A_COUNTER"):
        Pipeline.from_spec(bad)


def test_worker_pool_shards_round_robin():
    ingest = FleetIngest()
    pool = WorkerPool(3, dispatcher=ingest.dispatcher)
    catalog = catalog_for("x86")
    events = catalog.events_for_derived(METRICS)
    assigned = [
        pool.assign(ingest.add(_source(f"h{i}", n_ticks=2, seed=i)), arch="x86", events=events)
        for i in range(7)
    ]
    assert assigned == [0, 1, 2, 0, 1, 2, 0]
    assert pool.workers[0].hosts == ("h0", "h3", "h6")
