"""The estimation pipeline: the one way to build and drive a fleet run.

``Pipeline.from_spec(RunSpec(...))`` assembles a run: the engine
configuration (registry-resolved estimator, chain recorder, observer), one
record source per :class:`~repro.api.HostSpec` with its monitored events
resolved against the host's catalog, and the event stream.  Two verbs
execute it:

* :meth:`Pipeline.run` — execute to completion and collect everything
  (per-slice results, fleet statistics, the chain trace) into a
  :class:`PipelineResult`;
* :meth:`Pipeline.stream` — a generator yielding one :class:`SliceResult`
  per completed slice *while the run progresses*, flushing buffered chain
  records to the configured tracefile sink after every inference round, so
  neither results nor chain records accumulate for the whole run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.api.spec import CheckpointSpec, HostSpec, RunSpec
from repro.core.engine import BayesPerfEngine
from repro.events.catalog import EventCatalog
from repro.events.profiles import standard_profiling_events
from repro.events.registry import canonical_arch, catalog_for
from repro.fleet.events import (
    ChainHealthFlagged,
    CheckpointWritten,
    EventDispatcher,
    MetricsProcessor,
)
from repro.fleet.ingest import FleetIngest, ReplayHostSource, SyntheticHostSource
from repro.fleet.tracefile import TraceFile, TraceWorkload, TraceWriter, read_trace
from repro.fleet.wal import (
    WalState,
    checkpoint_host,
    load_wal,
    restore_host,
    truncate_to_commit,
)
from repro.fleet.workers import FleetResult, WorkerPool
from repro.fg.mcmc import ChainTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.mixing import MixingAccumulator, MixingReport
from repro.pmu.traces import EstimateTrace
from repro.workloads import contended_workload, get_workload

if TYPE_CHECKING:
    from repro.api.comparison import ComparisonReport

__all__ = ["Pipeline", "PipelineResult", "SliceResult"]

#: Acceptance-rate histogram buckets (rates live in [0, 1]).
_ACCEPTANCE_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class SliceResult:
    """One completed scheduler slice, as yielded by :meth:`Pipeline.stream`."""

    host: str
    tick: int
    #: Corrected per-event estimates (posterior means).
    values: Dict[str, float]
    #: Per-event posterior standard deviations.
    sigma: Dict[str, float]
    ep_iterations: int = 0
    ep_converged: bool = True


@dataclass
class PipelineResult:
    """Everything :meth:`Pipeline.run` collects."""

    #: Per-slice results in completion order (what ``stream()`` yielded).
    slices: List[SliceResult] = field(default_factory=list)
    #: The fleet summary (throughput, drops, cache stats, ...).
    fleet: Optional[FleetResult] = None
    #: The shared chain recorder (drained if a sink streamed it out).
    chain_trace: Optional[ChainTrace] = None
    #: Tracefile path chain records were flushed to, if any.
    chain_path: Optional[str] = None
    #: End-of-run chain-health analysis (when an observer ran with chains).
    mixing: Optional[MixingReport] = None
    #: BayesPerf-vs-baseline scoring (when ``RunSpec.baselines`` is set).
    comparison: Optional["ComparisonReport"] = None
    #: JSONL file the comparison was exported to (when a recorder sink
    #: anchors the run's tracefile records; ``<sink>.comparison.jsonl``).
    comparison_path: Optional[str] = None

    @property
    def estimates(self) -> Dict[str, EstimateTrace]:
        """Per-host estimate traces (the fleet summary's)."""
        return self.fleet.estimates if self.fleet is not None else {}

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def slices_per_second(self) -> float:
        return self.fleet.slices_per_second if self.fleet is not None else 0.0


#: One assembled host: its record source, arch and monitored events.
_Host = Tuple[object, str, Tuple[str, ...]]


def _monitored_events(
    spec: RunSpec, catalog: EventCatalog, events: Optional[Tuple[str, ...]]
) -> Tuple[str, ...]:
    """Monitored events for one host, resolved against *its* catalog.

    A host's own ``events`` win, then the run's ``events``, then the run's
    derived ``metrics`` (re-derived per catalog, so a host that overrides
    ``arch`` monitors that architecture's counterpart events), then the
    standard profiling set.  Names are validated eagerly, so a
    misconfigured host fails in ``from_spec``, not mid-run.
    """
    if events is not None:
        resolved = events
    elif spec.events is not None:
        resolved = spec.events
    elif spec.metrics is not None:
        resolved = catalog.events_for_derived(spec.metrics)
    else:
        resolved = standard_profiling_events(catalog)
    for name in resolved:
        catalog.get(name)  # raises KeyError naming the offending event
    return resolved


def _replay_host(trace: TraceFile, host_id: str, workload: str, arch: str) -> _Host:
    source = ReplayHostSource(host_id, trace, workload_name=workload)
    return source, source.arch or arch, source.events


def _build_host(spec: RunSpec, host: HostSpec, host_id: str) -> _Host:
    """The record source one :class:`HostSpec` describes."""
    arch = canonical_arch(host.arch if host.arch is not None else spec.arch)
    if host.perf is not None:
        from repro.perfio.source import PerfTraceSource

        source = PerfTraceSource(
            host_id,
            host.perf,
            format=host.format,
            arch=arch,
            events=host.events,
            on_unknown=host.on_unknown,
        )
        return source, arch, source.events
    if host.trace is not None:
        return _replay_host(read_trace(host.trace), host_id, host.workload, arch)
    workload = get_workload(host.workload)
    if isinstance(workload, TraceWorkload):
        if spec.contention is not None:
            raise ValueError(
                f"ContentionSpec cannot throttle non-synthetic workload "
                f"{host.workload!r}"
            )
        overridden = [
            name
            for name in ("seed", "n_ticks", "arch", "events")
            if getattr(host, name) is not None
        ]
        if overridden:
            raise ValueError(
                f"replayed trace workload {workload.name!r} streams its recorded "
                f"records; {', '.join(overridden)} cannot be overridden"
            )
        return _replay_host(workload.trace, host_id, workload.name, arch)
    if spec.contention is not None:
        # Contention changes the machine trace, not the estimator: the
        # PCIe-throttled workload replaces the registered one.
        workload = contended_workload(
            workload,
            background=spec.contention.background,
            size_mb=spec.contention.size_mb,
        )
    events = _monitored_events(spec, catalog_for(arch), host.events)
    source = SyntheticHostSource(
        host_id,
        workload,
        arch=arch,
        events=events,
        n_ticks=host.n_ticks,
        seed=host.seed if host.seed is not None else 0,
        samples_per_tick=spec.samples_per_tick,
    )
    if spec.scheduler is not None:
        source.schedule_policy = spec.scheduler.policy
        source.schedule_seed = spec.scheduler.seed
    return source, arch, events


@dataclass
class _Service:
    """What :attr:`Pipeline.service` exposes: the event stream and ingest.

    Attach extra :class:`~repro.fleet.events.EventProcessor`s with
    ``pipeline.service.dispatcher.add(processor)`` before running.  They
    see every event, ``SessionStarted`` included: the hosts' channels join
    ``ingest`` only when the drive loop starts.  On a traced run (an
    ``ObserverSpec`` with ``trace``) they also see every finished
    :class:`~repro.obs.spans.Span`.
    """

    dispatcher: EventDispatcher
    ingest: FleetIngest


class Pipeline:
    """Executable form of a :class:`~repro.api.RunSpec`; build one with
    :meth:`from_spec`.

    A pipeline instance is single-shot: build one per run.
    ``fleet_result`` becomes available once the drive loop has finished
    (i.e. after ``run()`` returns or ``stream()`` is exhausted).
    """

    def __init__(self, spec: RunSpec, hosts: List[_Host], *, chaos=None) -> None:
        self.spec = spec
        self._hosts = hosts
        #: Fault injector (:class:`~repro.fleet.chaos.FaultInjector`):
        #: wraps the sources, solves and WAL stream; ``None`` outside tests.
        self._chaos = chaos
        self._arch = canonical_arch(spec.arch)
        #: The run-level event set, stamped into tracefile headers.
        self._events = _monitored_events(spec, catalog_for(self._arch), None)
        self._engine_kwargs = spec.engine_kwargs()
        # Workers build their engines at the first solve: build one here so
        # a bad engine setting fails before the run opens a sink or WAL file.
        BayesPerfEngine(catalog_for(self._arch), self._events, **self._engine_kwargs)
        #: Tracefile path chain records stream to (``RecorderSpec.sink``).
        self._chain_sink = spec.recorder.sink if spec.recorder is not None else None
        if spec.recorder is not None:
            self._engine_kwargs.setdefault("chain_recorder", spec.recorder.build())
        #: The recorder every engine shares (an ``engine_overrides`` entry
        #: wins over ``RunSpec.recorder``), or ``None``.
        self.chain_recorder: Optional[ChainTrace] = self._engine_kwargs.get(
            "chain_recorder"
        )
        if (
            spec.observer is not None
            and spec.observer.estimates
            and self._chain_sink is None
        ):
            raise ValueError(
                "ObserverSpec(estimates=True) streams per-slice estimate "
                "records into the trace sink; configure "
                "recorder=RecorderSpec(sink=...) too"
            )
        # One event stream per run: fleet events and finished spans.
        dispatcher = EventDispatcher()
        self._observer = (
            spec.observer.build(dispatcher) if spec.observer is not None else None
        )
        if self._observer is not None:
            # Engines share the same observer instance, so kernel-stage spans
            # and cache counters land in the run's tracer/registry.
            self._engine_kwargs.setdefault("observer", self._observer)
        #: The run's one metrics store: the observer's registry, which the
        #: event counters share, or a private one when unobserved.
        self._registry = (
            self._observer.metrics if self._observer is not None else MetricsRegistry()
        )
        dispatcher.add(MetricsProcessor(self._registry))
        ingest = FleetIngest(buffer_capacity=spec.buffer_capacity, dispatcher=dispatcher)
        self._service = _Service(dispatcher, ingest)
        self._started = False
        self._fleet_result: Optional[FleetResult] = None
        #: End-of-run chain-health analysis (set by the drive loop when the
        #: run carries an observer and chains were recorded).
        self.mixing_report: Optional[MixingReport] = None
        #: Recovery point loaded by :meth:`resume` (``None`` = fresh run).
        self._resume_state: Optional[WalState] = None

    @classmethod
    def from_spec(cls, spec: RunSpec, *, chaos=None) -> "Pipeline":
        """Build the pipeline a :class:`~repro.api.RunSpec` describes.

        Estimator names resolve through the :mod:`repro.fg.registry` (so an
        unknown name fails here, listing the registered estimators), every
        host's source is built and validated here (a bad capture, trace or
        event name fails before anything runs), and a recorder spec's sink
        is wired up for streaming.  *chaos* (a
        :class:`~repro.fleet.chaos.FaultInjector`) is a test-only hook: it
        wraps the run's sources, solves and WAL stream with the injector's
        seeded fault schedule.
        """
        if not spec.hosts:
            raise ValueError("RunSpec needs at least one HostSpec in hosts")
        hosts: Dict[str, _Host] = {}
        for index, host in enumerate(spec.hosts):
            host_id = host.host_id if host.host_id is not None else f"host-{index:03d}"
            if host_id in hosts:
                raise ValueError(f"host {host_id!r} already registered")
            hosts[host_id] = _build_host(spec, host, host_id)
        return cls(spec, list(hosts.values()), chaos=chaos)

    @classmethod
    def resume(cls, trace_path: Union[str, Path], *, chaos=None) -> "Pipeline":
        """Rebuild a crashed run's pipeline from its write-ahead log.

        The log's header carries the full serialized :class:`RunSpec`, so
        the file alone suffices: the spec is rebuilt, the uncommitted
        suffix of the log is rolled back (standard WAL truncation), and the
        returned pipeline — once run — restores every host from the last
        committed checkpoint, re-executes from there, and appends to the
        same log.  Final estimates are bit-identical with an uninterrupted
        run (sources, backoff jitter and engine RNG are all deterministic).
        """
        state = load_wal(trace_path)
        payload = state.run_spec
        if payload is None:
            raise ValueError(
                f"{trace_path}: header carries no run_spec; cannot resume"
            )
        # A crash before the first commit leaves nothing durable beyond the
        # header; the recovery point is then the header itself and the run
        # simply restarts from scratch (still bit-identical: nothing ran).
        spec = RunSpec.from_dict(payload)
        checkpoint = spec.checkpoint or CheckpointSpec(path=str(trace_path))
        # Resume against the file actually given (it may have been moved).
        spec = replace(spec, checkpoint=replace(checkpoint, path=str(trace_path)))
        # Validate before touching the log: a spec the registry rejects
        # must leave the crashed file exactly as it was.
        pipeline = cls.from_spec(spec, chaos=chaos)
        truncate_to_commit(state)
        pipeline._resume_state = state
        return pipeline

    @property
    def service(self) -> _Service:
        """The run's event dispatcher and ingest (see :class:`_Service`)."""
        return self._service

    @property
    def observer(self):
        """The run's :class:`~repro.obs.Observer`, or ``None`` when off."""
        return self._observer

    @property
    def fleet_result(self) -> FleetResult:
        """The run's fleet summary (available once the drive loop finished)."""
        if self._fleet_result is None:
            raise RuntimeError("the pipeline has not finished running yet")
        return self._fleet_result

    # -- the drive loop ------------------------------------------------------

    def _build_pool(self) -> WorkerPool:
        """Mark the pipeline consumed, open every host's channel and shard it.

        Hosts are sharded across the configured workers, which share cached
        engines and schedules per (arch, event-set) key.
        """
        if self._started:
            raise RuntimeError(
                "a Pipeline runs once; build a new one with Pipeline.from_spec"
            )
        self._started = True
        spec, chaos = self.spec, self._chaos
        pool = WorkerPool(
            spec.n_workers,
            dispatcher=self._service.dispatcher,
            batch_size=spec.batch_size,
            engine_kwargs=self._engine_kwargs,
            observer=self._observer,
            fault_policy=spec.fault_policy,
            chaos=chaos,
        )
        ingest = self._service.ingest
        channels = [ingest.add(source) for source, _, _ in self._hosts]
        for channel, (source, arch, events) in zip(channels, self._hosts):
            if chaos is not None:
                # Scheduled record corruption: proxy the source before any
                # iterator is opened.
                channel.source = chaos.wrap_source(source)
            pool.assign(channel, arch=arch, events=events)
        return pool

    def _rounds(self, on_slice=None) -> Iterator[int]:
        """The unified drive loop: pump, solve, flush — one round at a time.

        Yields each round's processed-slice count.  On completion (or
        generator close) the dispatcher is shut down, any chain-sink writer
        is closed, observability is finalised (mixing report, root span,
        exporters flushed), and :attr:`fleet_result` is assembled — so a
        consumer that stops early still leaves a consistent, flushed trace
        file.
        """
        spec = self.spec
        observer = self._observer
        dispatcher = self._service.dispatcher
        pool = self._build_pool()
        n_hosts = len(self._hosts)
        recorder = self.chain_recorder
        writer: Optional[TraceWriter] = None
        if self._chain_sink is not None and recorder is not None:
            writer = TraceWriter(
                self._chain_sink,
                arch=self._arch,
                events=self._events,
                workload="fleet-stream",
                samples_per_tick=spec.samples_per_tick,
                metadata={"hosts": n_hosts},
                chain_params=recorder.params,
                estimates=observer is not None and observer.estimates,
            )
        estimate_writer = (
            writer if observer is not None and observer.estimates else None
        )
        checkpoint = spec.checkpoint
        resume_state = self._resume_state
        wal_writer: Optional[TraceWriter] = None
        if checkpoint is not None:
            chaos = self._chaos
            wal_writer = TraceWriter(
                checkpoint.path,
                arch=self._arch,
                events=self._events,
                workload="fleet-wal",
                samples_per_tick=spec.samples_per_tick,
                metadata={"hosts": n_hosts, "run_spec": spec.to_dict()},
                wal=True,
                mode="a" if resume_state is not None else "w",
                stream_wrapper=chaos.wrap_stream if chaos is not None else None,
            )
        next_round = 0
        if resume_state is not None:
            # Re-materialise every host from the last committed checkpoint
            # before the first pump, then append from the recovery point.
            # (A pre-first-commit crash has no checkpoints: every host — and
            # the round counter — starts fresh, ``resume`` round -1.)
            for host_id, run in pool.runs().items():
                entry = resume_state.checkpoints.get(host_id)
                if entry is None:
                    continue
                restore_host(
                    run,
                    entry.get("state"),
                    entry.get("progress", {}),
                    resume_state.host_estimates.get(host_id, []),
                )
            if estimate_writer is not None:
                # The sink was reopened fresh: refill it with the committed
                # estimate lines, in write order, so its estimate stream
                # matches an uninterrupted run's.  (Chain records from before
                # the crash are not in the WAL and stay lost.)
                for payload in resume_state.estimates:
                    estimate_writer.write_estimate_line(json.dumps(payload) + "\n")
            last_commit = resume_state.last_commit_round
            wal_writer.write_resume(-1 if last_commit is None else last_commit)
            next_round = 0 if last_commit is None else last_commit + 1
        if on_slice is not None or estimate_writer is not None or wal_writer is not None:
            inner = on_slice

            def tap(host_id, record, means, stds, report):
                # The slice's estimate line is serialized once and written
                # to both streams.
                line = None
                if estimate_writer is not None:
                    # The complete run log: every slice's posterior lands in
                    # the same sink as the chain records that produced it.
                    line = estimate_writer.write_estimate(host_id, record.tick, means, stds)
                if wal_writer is not None:
                    # The WAL's redo stream: committed estimates are the
                    # slices a resumed run never re-executes.
                    if line is None:
                        wal_writer.write_estimate(host_id, record.tick, means, stds)
                    else:
                        wal_writer.write_estimate_line(line)
                if inner is not None:
                    inner(host_id, record, means, stds, report)

            pool.set_on_slice(tap)
        mixing = (
            MixingAccumulator() if observer is not None and recorder is not None else None
        )
        root = None
        if observer is not None and observer.tracing:
            root = observer.tracer.start("pipeline.run", hosts=n_hosts)
            # Scenario-grid keys: which cell of the grid this run is.
            root.set_attribute(
                "scenario.scheduler",
                spec.scheduler.policy if spec.scheduler is not None else "overlap",
            )
            root.set_attribute(
                "scenario.contention",
                spec.contention.background if spec.contention is not None else 0,
            )
            root.set_attribute("scenario.baselines", list(spec.baselines))
        if observer is not None and spec.contention is not None:
            observer.gauge("scenario.contention.slowdown", spec.contention.slowdown())
        total = 0
        start = time.perf_counter()
        # Each inference round drains up to batch_size records per host, so a
        # larger default pump rate would overflow any long stream's buffer
        # even when the consumer keeps up.
        pump_records = (
            spec.pump_records if spec.pump_records is not None else spec.batch_size
        )
        rounds_iter = pool.rounds(self._service.ingest, pump_records=pump_records)
        try:
            for processed in rounds_iter:
                total += processed
                if writer is not None:
                    # Bounded memory: hand the round's chain records to the
                    # sink and forget them (the ROADMAP streaming item).
                    self._consume_visits(recorder.drain(), writer, mixing, observer)
                if wal_writer is not None and (next_round + 1) % checkpoint.every == 0:
                    self._write_checkpoint(
                        wal_writer,
                        pool,
                        next_round,
                        fsync=checkpoint.fsync,
                        dispatcher=dispatcher,
                    )
                next_round += 1
                yield processed
        except BaseException as error:
            if wal_writer is not None:
                # Stamp the abort reason into the log (best-effort) so a
                # recovery reader can tell a crash from a clean shutdown.
                wal_writer.__exit__(type(error), error, error.__traceback__)
            raise
        finally:
            # Close the drive generator first so any round span it holds
            # open ends before the mixing/root spans below.
            rounds_iter.close()
            elapsed = time.perf_counter() - start
            if wal_writer is not None:
                wal_writer.close()
            if writer is not None:
                self._consume_visits(recorder.drain(), writer, mixing, observer)
                writer.close()
            elif mixing is not None:
                # In-memory recorder: nothing was drained; analyse in place.
                self._consume_visits(recorder.visits, None, mixing, observer)
            if mixing is not None:
                self.mixing_report = mixing.report()
                self._emit_mixing(self.mixing_report, observer, dispatcher)
            if root is not None:
                root.set_attribute("slices", total)
                observer.tracer.end(root)
            if observer is not None:
                # Leftover spans end while the exporter is still open.
                observer.close()
            dispatcher.shutdown()
            self._fleet_result = FleetResult(
                n_hosts=n_hosts,
                total_slices=total,
                elapsed_seconds=elapsed,
                estimates=pool.estimates(),
                dropped_records=self._service.ingest.drop_report(),
                engine_cache=pool.cache_stats(),
                metrics=self._registry.summary()["counters"],
                quarantined=pool.quarantined_hosts(),
                chain_trace=recorder,
            )

    @staticmethod
    def _write_checkpoint(wal_writer, pool, round_idx, *, fsync, dispatcher) -> None:
        """Checkpoint every host and seal the round with a commit marker."""
        runs = pool.runs()
        for host_id in sorted(runs):
            state, progress = checkpoint_host(runs[host_id])
            wal_writer.write_checkpoint(host_id, state, round_idx, progress=progress)
        wal_writer.commit_checkpoint(round_idx, fsync=fsync)
        dispatcher.emit(
            CheckpointWritten(host="fleet", round_idx=round_idx, n_hosts=len(runs))
        )

    @staticmethod
    def _consume_visits(visits, writer, mixing, observer) -> None:
        """Route one batch of chain records to the sink and health analysis."""
        if writer is not None:
            writer.write_visits(visits)
        if mixing is not None:
            mixing.consume(visits)
            for visit in visits:
                observer.observe(
                    "chain.acceptance",
                    visit.acceptance_rate,
                    buckets=_ACCEPTANCE_BUCKETS,
                )

    @staticmethod
    def _emit_mixing(report: MixingReport, observer, dispatcher) -> None:
        """Publish chain-health findings as events, spans and metrics."""
        with observer.span(
            "mixing.report", flags=len(report.flags), slices=report.n_slices
        ):
            for flag in report.flags:
                with observer.span(
                    "mixing.flag",
                    reason=flag.reason,
                    slice=flag.slice_id,
                    site=flag.site,
                ):
                    dispatcher.emit(
                        ChainHealthFlagged(
                            host="fleet",
                            reason=flag.reason,
                            slice_id=flag.slice_id,
                            site=flag.site,
                            value=flag.value,
                            detail=flag.detail,
                        )
                    )
        observer.gauge("mixing.acceptance.median", report.median_acceptance)

    def stream(self) -> Iterator[SliceResult]:
        """Yield per-slice results incrementally while the run progresses.

        Chain records (when a recorder with a sink is configured) are
        flushed to the tracefile after every inference round, keeping the
        recorder's buffered memory bounded by one round instead of the
        whole run.  Results arrive in completion order: each host's slices
        are in tick order, interleaved across hosts.
        """
        buffer: List[SliceResult] = []

        def tap(host_id, record, means, stds, report):
            buffer.append(
                SliceResult(
                    host=host_id,
                    tick=record.tick,
                    values=means,
                    sigma=stds,
                    ep_iterations=report.ep_iterations,
                    ep_converged=report.ep_converged,
                )
            )

        for _ in self._rounds(on_slice=tap):
            yield from buffer
            buffer.clear()

    def run(self) -> PipelineResult:
        """Execute to completion, collecting every slice (the convenience
        counterpart of :meth:`stream`).

        With ``RunSpec.baselines`` set, the result additionally carries a
        :class:`~repro.api.comparison.ComparisonReport` scoring the engine
        against every listed baseline on reconstructed ground truth; when a
        recorder sink anchors the run's tracefile, the report is exported as
        JSON lines alongside it (``<sink>.comparison.jsonl``).
        """
        slices = list(self.stream())
        comparison = comparison_path = None
        if self.spec.baselines:
            from repro.api.comparison import build_comparison

            comparison = build_comparison(self.spec, self._service, slices)
            if self._chain_sink is not None:
                comparison_path = comparison.write_jsonl(
                    f"{self._chain_sink}.comparison.jsonl"
                )
        return PipelineResult(
            slices=slices,
            fleet=self.fleet_result,
            chain_trace=self.chain_recorder,
            chain_path=self._chain_sink,
            mixing=self.mixing_report,
            comparison=comparison,
            comparison_path=comparison_path,
        )
