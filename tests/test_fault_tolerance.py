"""Fault tolerance and crash-resume: the recovery paths, exercised on purpose.

Every test here drives a real fleet run through the deterministic
fault-injection harness (:mod:`repro.fleet.chaos`) and audits the outcome
against the injected schedule exactly — retries, skips, quarantines, torn
tails and resumed write-ahead logs are all checked for both *behaviour*
(the run completes, or resumes bit-identically) and *accounting* (every
injected fault shows up in the event stream and metrics).

The module is marked ``chaos``: CI additionally runs it as a dedicated
fault-matrix job (``pytest -m chaos``).
"""

import json
import math

import pytest

from repro.api import (
    CheckpointSpec,
    FaultPolicySpec,
    HostSpec,
    ObserverSpec,
    Pipeline,
    RunSpec,
)
from repro.fleet import (
    EventDispatcher,
    EventLog,
    FleetIngest,
    HostQuarantined,
    MalformedRecordSkipped,
    ReplayHostSource,
    SliceAttemptFailed,
    SliceRetried,
    SliceSkipped,
    WorkerPool,
)
from repro.fleet.chaos import CrashingStream, Fault, FaultInjector, InjectedCrash
from repro.fleet.faults import SliceFailed
from repro.fleet.tracefile import (
    TraceFormatError,
    parse_sample,
    read_trace,
    record_session_trace,
)
from repro.fleet.wal import load_wal, truncate_to_commit

pytestmark = pytest.mark.chaos

METRICS = ("ipc", "l1d_mpki")

#: A policy whose retries are immediate — tests should not sleep.
FAST_RETRY = dict(backoff_base=0.0, jitter=0.0)


def fleet_spec(n_hosts=3, *, n_ticks=5, **kwargs):
    return RunSpec.fleet(
        n_hosts,
        "mux-stress",
        n_ticks=n_ticks,
        metrics=METRICS,
        n_workers=2,
        **kwargs,
    )


def host_ids(n_hosts):
    return ["host-%03d" % index for index in range(n_hosts)]


def run_fleet(spec, chaos=None, processors=()):
    pipeline = Pipeline.from_spec(spec, chaos=chaos)
    for processor in processors:
        pipeline.service.dispatcher.add(processor)
    return pipeline.run().fleet


def assert_estimates_equal(result_a, result_b, *, exclude=()):
    assert set(result_a.estimates) == set(result_b.estimates)
    for host, trace in result_a.estimates.items():
        if host in exclude:
            continue
        assert trace.values_equal(result_b.estimates[host]), host


# -- retry / skip / quarantine / raise dispositions -------------------------


def test_transient_fault_retries_to_bit_identical_result():
    """A retried slice is indistinguishable from one that never failed."""
    clean = run_fleet(fleet_spec())
    chaos = FaultInjector([Fault("raise", "host-001", 2, attempts=2)])
    policy = FaultPolicySpec(max_attempts=3, **FAST_RETRY)
    faulty = run_fleet(fleet_spec(fault_policy=policy), chaos)
    assert chaos.injected["raise"] == 2
    assert faulty.quarantined == ()
    assert_estimates_equal(clean, faulty)


def test_skip_policy_drops_only_the_corrupt_slices():
    """Corrupt records fail every attempt; ``skip`` drops them, nothing else."""
    clean = run_fleet(fleet_spec())
    chaos = FaultInjector(
        [Fault("corrupt", "host-000", 1), Fault("corrupt", "host-002", 3)]
    )
    policy = FaultPolicySpec(max_attempts=2, on_exhausted="skip", **FAST_RETRY)
    faulty = run_fleet(fleet_spec(fault_policy=policy), chaos)
    assert faulty.total_slices == clean.total_slices - 2
    assert faulty.metrics["slice.skips"] == 2
    # Untouched hosts are bit-identical; damaged hosts lose one tick each.
    assert_estimates_equal(clean, faulty, exclude=("host-000", "host-002"))
    assert len(faulty.estimates["host-000"]) == len(clean.estimates["host-000"]) - 1


def test_quarantine_excises_the_host_not_the_fleet():
    clean = run_fleet(fleet_spec())
    chaos = FaultInjector([Fault("raise", "host-001", 0, attempts=99)])
    policy = FaultPolicySpec(max_attempts=2, on_exhausted="quarantine", **FAST_RETRY)
    faulty = run_fleet(fleet_spec(fault_policy=policy), chaos)
    assert faulty.quarantined == ("host-001",)
    assert len(faulty.estimates["host-001"]) == 0
    # The survivors never notice: their estimates are the clean run's.
    assert_estimates_equal(clean, faulty, exclude=("host-001",))


def test_raise_policy_aborts_with_slice_coordinates():
    chaos = FaultInjector([Fault("raise", "host-000", 1, attempts=99)])
    policy = FaultPolicySpec(max_attempts=2, **FAST_RETRY)
    with pytest.raises(SliceFailed) as excinfo:
        run_fleet(fleet_spec(fault_policy=policy), chaos)
    assert excinfo.value.host == "host-000"
    assert excinfo.value.tick == 1
    assert excinfo.value.attempts == 2


def test_timeout_discards_the_hung_attempt_and_retries():
    """A hang past the deadline is flagged; the retry is bit-identical."""
    clean = run_fleet(fleet_spec(n_hosts=2, n_ticks=3))
    chaos = FaultInjector([Fault("hang", "host-000", 1, attempts=1, duration=0.05)])
    policy = FaultPolicySpec(max_attempts=2, timeout_seconds=0.01, **FAST_RETRY)
    faulty = run_fleet(fleet_spec(n_hosts=2, n_ticks=3, fault_policy=policy), chaos)
    assert chaos.injected["hang"] == 1
    assert faulty.metrics["slice.retries"] == 1
    assert_estimates_equal(clean, faulty)


def test_no_policy_means_no_retries_and_fault_propagates():
    """Without a policy the injector's fault aborts the run outright."""
    chaos = FaultInjector([Fault("corrupt", "host-000", 0)])
    with pytest.raises(Exception):
        run_fleet(fleet_spec(), chaos)


# -- accounting: the event stream audits the schedule exactly ----------------


def test_fault_accounting_matches_injected_schedule():
    """retries + skips + quarantines add up to the schedule, event by event."""
    n_hosts, n_ticks = 4, 6
    chaos = FaultInjector.seeded(
        11, host_ids(n_hosts), n_ticks, n_raise=3, n_corrupt=2, attempts=1
    )
    log = EventLog(maxlen=None)
    policy = FaultPolicySpec(max_attempts=2, on_exhausted="skip", **FAST_RETRY)
    result = run_fleet(
        fleet_spec(n_hosts, n_ticks=n_ticks, fault_policy=policy), chaos, (log,)
    )

    events = list(log.iter())
    failures = [e for e in events if isinstance(e, SliceAttemptFailed)]
    retries = [e for e in events if isinstance(e, SliceRetried)]
    skips = [e for e in events if isinstance(e, SliceSkipped)]
    # Each transient raise fails once then succeeds on retry; each corrupt
    # record fails both attempts then is skipped.
    assert len(retries) == len(chaos.solve_faults) + len(chaos.corrupt_faults)
    assert len(skips) == len(chaos.corrupt_faults)
    assert len(failures) == len(chaos.solve_faults) + 2 * len(chaos.corrupt_faults)
    assert result.total_slices == n_hosts * n_ticks - len(skips)
    assert result.metrics["slice.retries"] == len(retries)
    assert result.metrics["slice.skips"] == len(skips)
    # The failed slices' coordinates are exactly the scheduled cells.
    failed_cells = {(e.host, e.tick) for e in failures}
    assert failed_cells == set(chaos.solve_faults) | set(chaos.corrupt_faults)


def test_quarantine_accounting_and_event():
    log = EventLog(maxlen=None)
    chaos = FaultInjector([Fault("raise", "host-001", 2, attempts=99)])
    policy = FaultPolicySpec(max_attempts=2, on_exhausted="quarantine", **FAST_RETRY)
    result = run_fleet(fleet_spec(3, n_ticks=5, fault_policy=policy), chaos, (log,))
    quarantines = [e for e in log.iter() if isinstance(e, HostQuarantined)]
    assert [e.host for e in quarantines] == ["host-001"]
    assert result.quarantined == ("host-001",)
    assert result.metrics["hosts.quarantined"] == 1


@pytest.mark.parametrize("on_exhausted", ["skip", "quarantine"])
def test_metrics_count_each_outcome_once(tmp_path, on_exhausted):
    """One metrics store: the run's counters are the exported ones, and each
    fault outcome is counted exactly once per event."""
    n_hosts, n_ticks = 4, 6
    chaos = FaultInjector.seeded(
        11, host_ids(n_hosts), n_ticks, n_raise=3, n_corrupt=2, attempts=1
    )
    sink = tmp_path / "metrics.json"
    log = EventLog(maxlen=None)
    policy = FaultPolicySpec(max_attempts=2, on_exhausted=on_exhausted, **FAST_RETRY)
    spec = fleet_spec(
        n_hosts,
        n_ticks=n_ticks,
        fault_policy=policy,
        observer=ObserverSpec(metrics=str(sink)),
    )
    result = run_fleet(spec, chaos, (log,))

    assert result.metrics == json.loads(sink.read_text())["counters"]
    events = list(log.iter())
    for name, kind in (
        ("slice.attempt_failures", SliceAttemptFailed),
        ("slice.retries", SliceRetried),
        ("slice.skips", SliceSkipped),
        ("hosts.quarantined", HostQuarantined),
    ):
        assert result.metrics.get(name, 0) == sum(isinstance(e, kind) for e in events)
    assert result.metrics["slice.retries"] > 0
    outcome = "slice.skips" if on_exhausted == "skip" else "hosts.quarantined"
    assert result.metrics[outcome] > 0
    assert result.metrics["slices.solved"] == result.total_slices


def test_backoff_delay_is_deterministic_and_bounded():
    policy = FaultPolicySpec(
        max_attempts=5, backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05
    )
    delays = [policy.backoff_delay("host-007", 3, attempt) for attempt in (1, 2, 3, 4)]
    assert delays == [
        policy.backoff_delay("host-007", 3, attempt) for attempt in (1, 2, 3, 4)
    ]
    # Exponential growth under the cap, jitter stretches by at most 10%.
    assert 0.01 <= delays[0] <= 0.011
    assert 0.02 <= delays[1] <= 0.022
    assert all(delay <= 0.05 * 1.1 for delay in delays)
    # Different coordinates draw different jitter.
    assert policy.backoff_delay("host-008", 3, 1) != delays[0]


# -- write-ahead log: crash, recover, resume ---------------------------------


def wal_spec(path, *, n_hosts=3, n_ticks=8, every=1):
    return fleet_spec(
        n_hosts,
        n_ticks=n_ticks,
        checkpoint=CheckpointSpec(path=str(path), every=every),
        pump_records=2,  # several rounds, so mid-run commits exist
    )


@pytest.mark.parametrize("crash_after_writes", [10, 23, 41])
def test_killed_run_resumes_bit_identical(tmp_path, crash_after_writes):
    """The acceptance gate: kill at round k, resume, estimates identical."""
    ref = run_fleet(wal_spec(tmp_path / "ref.jsonl"))
    crash_path = tmp_path / "crash.jsonl"
    chaos = FaultInjector((), crash_after_writes=crash_after_writes)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(crash_path), chaos)

    resumed = Pipeline.resume(crash_path).run().fleet
    assert_estimates_equal(ref, resumed)
    # The log now holds the complete run: every host, every tick, plus the
    # resume marker — one file tells the whole story.
    trace = read_trace(crash_path)
    assert trace.resumes == 1
    assert sum(len(t) for t in trace.host_estimates.values()) == ref.total_slices
    for host, estimates in ref.estimates.items():
        assert trace.host_estimates[host].values_equal(estimates)


def test_resume_tolerates_torn_tail(tmp_path):
    """A crash mid-line leaves a torn tail; recovery truncates, not raises."""
    crash_path = tmp_path / "crash.jsonl"
    chaos = FaultInjector((), crash_after_writes=15, crash_partial_line=True)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(crash_path), chaos)
    damaged = read_trace(crash_path, strict=False)
    assert damaged.torn_tail
    state = load_wal(crash_path)
    assert state.torn_tail
    assert state.last_commit_round is not None
    discarded = truncate_to_commit(state)
    assert discarded > 0
    # After rollback the file is a clean committed prefix.
    clean = read_trace(crash_path)
    assert not clean.torn_tail
    assert clean.last_commit_round == state.last_commit_round


def test_resume_before_first_commit_restarts_from_scratch(tmp_path):
    """Nothing durable beyond the header: the run restarts, bit-identical."""
    path = tmp_path / "early.jsonl"
    chaos = FaultInjector((), crash_after_writes=1)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(path), chaos)
    resumed = Pipeline.resume(path).run().fleet
    ref = run_fleet(wal_spec(tmp_path / "ref.jsonl"))
    assert_estimates_equal(ref, resumed)
    trace = read_trace(path)
    assert trace.resumes == 1
    assert sum(len(t) for t in trace.host_estimates.values()) == ref.total_slices


def test_resume_requires_a_wal_header(tmp_path):
    path = tmp_path / "v1.jsonl"
    record_session_trace(path, "steady", n_ticks=2)
    with pytest.raises(Exception, match="version|write-ahead"):
        Pipeline.resume(path)


def test_resume_accepts_a_log_with_removed_megabatch_knobs(tmp_path):
    """Logs written before mega-batching became automatic still resume.

    Their header's run spec carries ``estimator.megabatch`` and an
    ``estimator.kernel_exec`` (``null``, a lane-thread count, or a thread
    count plus a ``partition``); all were numerics-free and are dropped.
    """
    crash_path = tmp_path / "crash.jsonl"
    chaos = FaultInjector((), crash_after_writes=23)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(crash_path), chaos)
    lines = crash_path.read_text(encoding="utf-8").splitlines(keepends=True)
    reference = run_fleet(wal_spec(tmp_path / "ref.jsonl"))
    for i, kernel_exec in enumerate(
        (None, {"threads": 4}, {"threads": 1, "partition": "signature"})
    ):
        header = json.loads(lines[0])
        estimator = header["metadata"]["run_spec"]["estimator"]
        estimator["megabatch"] = True
        estimator["kernel_exec"] = kernel_exec
        legacy_path = tmp_path / f"legacy{i}.jsonl"
        legacy_path.write_text(
            json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8"
        )

        resumed = Pipeline.resume(legacy_path).run().fleet
        assert_estimates_equal(reference, resumed)
        assert read_trace(legacy_path).resumes == 1


def test_rejected_resume_leaves_the_log_untouched(tmp_path):
    """A header naming an unregistered estimator fails before any truncation.

    ``batched-mcmc`` was an estimator once; logs that name it must fail
    loudly through the registry and keep every byte, uncommitted suffix
    included, so nothing is lost if the estimator is registered again.
    """
    crash_path = tmp_path / "crash.jsonl"
    chaos = FaultInjector((), crash_after_writes=23)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(crash_path), chaos)
    lines = crash_path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["metadata"]["run_spec"]["estimator"]["name"] = "batched-mcmc"
    lines[0] = json.dumps(header) + "\n"
    crash_path.write_text("".join(lines), encoding="utf-8")
    before = crash_path.read_bytes()
    assert load_wal(crash_path).commit_offset < len(before)

    with pytest.raises(ValueError, match="batched-mcmc"):
        Pipeline.resume(crash_path)
    assert crash_path.read_bytes() == before


def test_checkpoint_cadence_thins_the_commits(tmp_path):
    dense = wal_spec(tmp_path / "dense.jsonl", every=1)
    sparse = wal_spec(tmp_path / "sparse.jsonl", every=3)
    run_fleet(dense)
    run_fleet(sparse)
    dense_trace = read_trace(tmp_path / "dense.jsonl")
    sparse_trace = read_trace(tmp_path / "sparse.jsonl")
    assert 0 < sparse_trace.checkpoints < dense_trace.checkpoints
    # The estimate stream is cadence-independent.
    assert sum(len(t) for t in sparse_trace.host_estimates.values()) == sum(
        len(t) for t in dense_trace.host_estimates.values()
    )


def test_aborted_marker_stamps_dirty_shutdowns(tmp_path):
    """A propagating exception (not a dead stream) leaves an aborted marker."""
    path = tmp_path / "aborted.jsonl"
    spec = fleet_spec(
        2,
        n_ticks=4,
        checkpoint=CheckpointSpec(path=str(path)),
        fault_policy=FaultPolicySpec(max_attempts=1, on_exhausted="raise"),
    )
    chaos = FaultInjector([Fault("raise", "host-001", 2, attempts=99)])
    with pytest.raises(SliceFailed):
        run_fleet(spec, chaos)
    trace = read_trace(path, strict=False)
    assert trace.aborted is not None
    assert "SliceFailed" in trace.aborted
    # The aborted suffix is uncommitted noise: recovery rolls it back and
    # the resumed run still finishes, bit-identical to a clean faultless run.
    resumed = Pipeline.resume(path).run().fleet
    ref = run_fleet(fleet_spec(2, n_ticks=4))
    assert_estimates_equal(ref, resumed)


def test_crashing_stream_hard_mode_validates_but_stays_unarmed():
    with pytest.raises(ValueError, match="after_writes"):
        CrashingStream(None, after_writes=-1)


def test_cli_resume_continues_a_crashed_run(tmp_path, capsys):
    from repro.fleet.__main__ import main as fleet_main

    crash_path = tmp_path / "crash.jsonl"
    chaos = FaultInjector((), crash_after_writes=20)
    with pytest.raises(InjectedCrash):
        run_fleet(wal_spec(crash_path), chaos)
    # The report subcommand surfaces the WAL state of the damaged file.
    assert fleet_main(["report", str(crash_path)]) == 0
    report_out = capsys.readouterr().out
    assert "write-ahead log" in report_out
    assert "torn tail" in report_out
    # The resume subcommand finishes the run from the file alone.
    assert fleet_main(["resume", str(crash_path)]) == 0
    out = capsys.readouterr().out
    assert "Resumed" in out
    ref = run_fleet(wal_spec(tmp_path / "ref.jsonl"))
    trace = read_trace(crash_path)
    assert sum(len(t) for t in trace.host_estimates.values()) == ref.total_slices
    # A plain (non-WAL) trace is refused with a message, not a traceback.
    plain = tmp_path / "plain.jsonl"
    record_session_trace(plain, "steady", n_ticks=2)
    assert fleet_main(["resume", str(plain)]) == 1
    assert "Cannot resume" in capsys.readouterr().out


# -- satellite: replay ingestion tolerates damaged lines ---------------------


@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sub_sample_line_is_malformed(tmp_path, bad, ragged):
    """A NaN/inf sub-sample (valid JSON to ``json.loads``) is a damaged line."""
    path = tmp_path / "host.jsonl"
    record_session_trace(path, "steady", n_ticks=4)
    lines = path.read_text(encoding="utf-8").splitlines()
    index = [i for i, line in enumerate(lines) if '"type": "sample"' in line][1]
    payload = json.loads(lines[index])
    first, *rest = payload["samples"].values()
    first[0] = bad
    if ragged:
        rest[-1].pop()
    lines[index] = json.dumps(payload)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="non-finite"):
        read_trace(path)
    trace = read_trace(path, strict=False)
    assert trace.malformed_lines == (index + 1,)
    assert len(trace.sampled.records) == 3
    # The lenient trace replays with finite posteriors only.
    ingest = FleetIngest(dispatcher=EventDispatcher([]))
    channel = ingest.add(ReplayHostSource("host-000", trace))
    pool = WorkerPool(1, dispatcher=ingest.dispatcher)
    pool.assign(channel, arch=trace.arch, events=trace.events)
    assert sum(pool.rounds(ingest)) == 3
    estimates = pool.estimates()["host-000"]
    for tick in range(len(estimates)):
        assert all(math.isfinite(value) for value in estimates.at(tick).values())
    first[0] = 1.0  # repaired, the line parses (ragged counts included)
    parsed = parse_sample(payload).samples.values()
    assert [len(row) for row in parsed] == [len(row) for row in payload["samples"].values()]


def test_replay_source_tolerates_trailing_garbage(tmp_path):
    path = tmp_path / "host.jsonl"
    record_session_trace(path, "steady", n_ticks=4)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"type": "sample", "tick":')  # torn tail
    log = EventLog(maxlen=None)
    assert read_trace(path).torn_tail  # strict: only the torn tail is tolerated
    spec = RunSpec(hosts=(HostSpec(trace=str(path)),), n_workers=1)
    result = run_fleet(spec, processors=(log,))
    assert len(result.estimates["host-000"]) == 4
    skipped = [e for e in log.iter() if isinstance(e, MalformedRecordSkipped)]
    assert len(skipped) == 1
    assert skipped[0].torn_tail
    assert skipped[0].n_lines == 1


def test_replay_source_accounts_midstream_damage(tmp_path):
    path = tmp_path / "host.jsonl"
    record_session_trace(path, "steady", n_ticks=4)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(2, "%% not json %%")
    lines.insert(4, json.dumps({"type": "martian"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(Exception):
        read_trace(path)  # mid-stream damage is fatal for strict readers
    trace = read_trace(path, strict=False)
    assert len(trace.malformed_lines) == 2
    # A leniently read trace replays through the ingest and worker pool the
    # pipeline assembles, with the damage accounted once on the stream.
    log = EventLog(maxlen=None)
    ingest = FleetIngest(dispatcher=EventDispatcher([log]))
    channel = ingest.add(ReplayHostSource("host-000", trace))
    pool = WorkerPool(1, dispatcher=ingest.dispatcher)
    pool.assign(channel, arch=trace.arch, events=trace.events)
    assert sum(pool.rounds(ingest)) == 4
    assert len(pool.estimates()["host-000"]) == 4
    skipped = [e for e in log.iter() if isinstance(e, MalformedRecordSkipped)]
    assert [e.n_lines for e in skipped] == [2]


# -- satellite: spec serialization round-trips -------------------------------


def test_run_spec_round_trips_through_json():
    spec = RunSpec(
        metrics=METRICS,
        hosts=(HostSpec(workload="mux-stress", seed=3, n_ticks=5),),
        fault_policy=FaultPolicySpec(max_attempts=4, on_exhausted="skip"),
        checkpoint=CheckpointSpec(path="wal.jsonl", every=2, fsync=False),
        engine_overrides={"ep_max_iterations": 7},
    )
    payload = json.loads(json.dumps(spec.to_dict()))
    assert RunSpec.from_dict(payload) == spec
