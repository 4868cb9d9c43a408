"""Inference workers: shard hosts, batch slices, share engines.

A fleet runs many hosts whose monitoring configuration is frequently
identical — same microarchitecture, same registered event set.  Building a
:class:`~repro.core.engine.BayesPerfEngine` and an overlap-aware schedule per
host repeats identical work, so the pool keys both on ``(arch, event-set,
engine-kwargs)`` and shares one engine per key per worker.  Per-host temporal
state (the previous slice's posterior) is checkpointed with
:meth:`~repro.core.engine.BayesPerfEngine.snapshot` after each batch and
restored before the next, which makes the sharing exact: a host's estimates
are bit-identical to what a dedicated engine would produce (the snapshot
includes the RNG stream, so this holds for MCMC moment estimation too).

Hosts are sharded across workers round-robin; each worker drains its hosts'
ring buffers in batches.  Hosts sharing an engine are then solved *together*:
the worker transposes the per-host batches into per-slot multi-record
batches and hands each one to the engine's vectorized
:meth:`~repro.core.engine.BayesPerfEngine.process_batch`, which executes a
single array-native pass over all of them instead of one solve per host —
a compiled EP-kernel call for the analytic estimator, one
:class:`~repro.fg.mcmc.BatchedSiteMCMC` run for
``engine_kwargs={"moment_estimator": "mcmc"}`` (each record's chains are
seeded from that host's snapshotted RNG stream, so a pooled host's
estimates equal a per-host :class:`~repro.core.session.PerfSession` run bit
for bit under the sampled estimator too).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import BayesPerfEngine, EngineState
from repro.events.registry import canonical_arch, catalog_for
from repro.fleet.events import (
    EstimateReady,
    EventDispatcher,
    HostQuarantined,
    SessionCompleted,
    SliceAttemptFailed,
    SliceCompleted,
    SliceRetried,
    SliceSkipped,
)
from repro.fleet.faults import FaultPolicySpec, SliceFailed, SliceTimeout
from repro.fg.mcmc import ChainTrace
from repro.fleet.ingest import FleetIngest, HostChannel
from repro.pmu.traces import EstimateTrace

#: Cache key: (canonical arch, monitored events, frozen engine kwargs).
EngineKey = Tuple[str, Tuple[str, ...], Tuple[Tuple[str, object], ...]]


def engine_key(
    arch: str, events: Tuple[str, ...], engine_kwargs: Optional[Dict] = None
) -> EngineKey:
    """Normalised cache key for an (arch, event-set, engine-config) triple."""
    frozen = tuple(sorted((engine_kwargs or {}).items()))
    return (canonical_arch(arch), tuple(events), frozen)


class EngineCache:
    """Engines and schedules shared across hosts with the same key."""

    def __init__(self) -> None:
        self._engines: Dict[EngineKey, BayesPerfEngine] = {}
        self.hits = 0
        self.misses = 0

    def engine_for(
        self, arch: str, events: Tuple[str, ...], engine_kwargs: Optional[Dict] = None
    ) -> BayesPerfEngine:
        return self.engine_for_key(engine_key(arch, events, engine_kwargs), engine_kwargs)

    def engine_for_key(
        self, key: EngineKey, engine_kwargs: Optional[Dict] = None
    ) -> BayesPerfEngine:
        """Lookup by a prebuilt key (the worker hot path: one dict get)."""
        engine = self._engines.get(key)
        if engine is not None:
            self.hits += 1
            return engine
        self.misses += 1
        catalog = catalog_for(key[0])
        engine = BayesPerfEngine(catalog, list(key[1]), **(engine_kwargs or {}))
        self._engines[key] = engine
        return engine

    def __len__(self) -> int:
        return len(self._engines)


@dataclass
class HostRun:
    """Per-host inference state owned by exactly one worker."""

    channel: HostChannel
    key: EngineKey
    estimates: EstimateTrace
    #: The host's temporal state (event-order rows; ``None`` until its
    #: first slice is solved), threaded through ``process_batch``.
    engine_state: Optional[EngineState] = None
    slices: int = 0
    completed: bool = False
    #: Slices dropped by an ``on_exhausted="skip"`` fault policy.
    skipped: int = 0
    #: Host excised from the run by an ``on_exhausted="quarantine"`` policy.
    quarantined: bool = False


class InferenceWorker:
    """Runs batched per-slice EP solves for its shard of hosts."""

    def __init__(
        self,
        worker_id: int,
        *,
        dispatcher: EventDispatcher,
        batch_size: int = 8,
        engine_kwargs: Optional[Dict] = None,
        observer=None,
        fault_policy: Optional[FaultPolicySpec] = None,
        chaos=None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.worker_id = worker_id
        self.dispatcher = dispatcher
        self.batch_size = batch_size
        self.engine_kwargs = dict(engine_kwargs) if engine_kwargs else {}
        #: Optional :class:`~repro.obs.Observer`: ``slice.solve`` spans plus
        #: latency/occupancy metrics around every engine call.  ``None`` (the
        #: default) keeps the hot path untouched.
        self.observer = observer
        #: Optional retry/timeout/quarantine policy enforced around every
        #: solve; ``None`` (the default) keeps the hot path byte-identical.
        self.fault_policy = fault_policy
        #: Optional :class:`~repro.fleet.chaos.FaultInjector` (tests/demos).
        self.chaos = chaos
        self.cache = EngineCache()
        #: Optional per-slice hook ``(host_id, record, means, stds, report)``
        #: — the streaming pipeline's tap into the solve loop.  ``None``
        #: (the default) costs the hot path nothing.
        self.on_slice: Optional[Callable] = None
        self._runs: Dict[str, HostRun] = {}

    def assign(self, channel: HostChannel, *, arch: str, events: Tuple[str, ...]) -> None:
        """Give this worker responsibility for one host."""
        key = engine_key(arch, events, self.engine_kwargs)
        self._runs[channel.host_id] = HostRun(
            channel=channel,
            key=key,
            estimates=EstimateTrace(method="bayesperf"),
        )

    @property
    def hosts(self) -> Tuple[str, ...]:
        return tuple(self._runs)

    def process_available(self) -> int:
        """Drain one batch per host; returns the number of slices processed.

        Hosts on the same ``(arch, event-set, config)`` key are solved
        *together*: the i-th pending record of every such
        host forms one multi-record batch handed to
        :meth:`~repro.core.engine.BayesPerfEngine.process_batch`, which runs
        a single vectorized EP-kernel pass instead of one EP solve per host.
        Slot-by-slot batching preserves each host's temporal chain (record
        ``i`` still completes before that host's record ``i+1``), and the
        per-slice results are bit-identical to solving each host on its own.
        """
        taken: Dict[str, List] = {}
        for run in self._runs.values():
            if run.completed:
                continue
            records = run.channel.take(self.batch_size)
            if records:
                taken[run.channel.host_id] = records

        processed = self._process_batched(taken)

        for host_id, records in taken.items():
            self.dispatcher.emit(
                EstimateReady(
                    host=host_id,
                    first_tick=records[0].tick,
                    last_tick=records[-1].tick,
                    n_slices=len(records),
                )
            )
        for run in self._runs.values():
            if run.channel.done and not run.completed:
                run.completed = True
                self.dispatcher.emit(
                    SessionCompleted(host=run.channel.host_id, n_slices=run.slices)
                )
        return processed

    def _record_slice(self, run: HostRun, record, report) -> None:
        means, stds = report.means(), report.stds()
        run.estimates.append(means, stds)
        run.slices += 1
        if self.on_slice is not None:
            self.on_slice(run.channel.host_id, record, means, stds, report)
        self.dispatcher.emit(
            SliceCompleted(
                host=run.channel.host_id,
                tick=record.tick,
                worker=self.worker_id,
                n_measured=len(record.measured_events),
            )
        )

    def _process_batched(self, taken: Dict[str, List]) -> int:
        """One multi-record engine batch per (engine key, slot index)."""
        processed = 0
        guarded = self.fault_policy is not None or self.chaos is not None
        by_key: Dict[EngineKey, List[str]] = {}
        for host_id in taken:
            by_key.setdefault(self._runs[host_id].key, []).append(host_id)

        for key, host_ids in by_key.items():
            # One lookup per host per round, so the hit/miss counters count
            # host lookups that reused (or built) a shared engine.
            for host_id in host_ids:
                engine = self.cache.engine_for_key(key, self.engine_kwargs)
            depth = max(len(taken[host_id]) for host_id in host_ids)
            for slot in range(depth):
                batch_hosts = [h for h in host_ids if slot < len(taken[h])]
                if guarded:
                    processed += self._process_slot_guarded(
                        engine, taken, batch_hosts, slot
                    )
                    continue
                items = [
                    (self._runs[h].engine_state, taken[h][slot]) for h in batch_hosts
                ]
                results = self._solve(engine, items)
                for host_id, (report, state) in zip(batch_hosts, results):
                    run = self._runs[host_id]
                    run.engine_state = state
                    self._record_slice(run, taken[host_id][slot], report)
                    processed += 1
        return processed

    # -- fault-policy enforcement -------------------------------------------

    def _process_slot_guarded(
        self, engine: BayesPerfEngine, taken: Dict[str, List], batch_hosts: List[str], slot: int
    ) -> int:
        """One slot's batch under an active fault policy / fault injector.

        Hosts with a scheduled fault pending (the chaos probe) are excised
        up front so the surviving hosts' batch solves untouched — the
        batch's engine-key signature is not poisoned by a faulty member.
        If the batch still raises (an *unscheduled* fault, e.g. a corrupt
        record), every member is re-solved per-record under the policy:
        ``B=1 == B=N`` bit-identity means the survivors' numbers are
        unchanged and the culprit is isolated to its own retry loop.
        """
        processed = 0
        live = [h for h in batch_hosts if not self._runs[h].quarantined]
        chaos = self.chaos
        direct = [
            h
            for h in live
            if chaos is None or not chaos.pending(h, taken[h][slot].tick, 1)
        ]
        per_record = [h for h in live if h not in direct]
        results = None
        if direct:
            items = [(self._runs[h].engine_state, taken[h][slot]) for h in direct]
            try:
                results = self._solve(engine, items)
            except Exception:
                results = None
        if results is not None:
            for host_id, (report, state) in zip(direct, results):
                run = self._runs[host_id]
                run.engine_state = state
                self._record_slice(run, taken[host_id][slot], report)
                processed += 1
        else:
            per_record = list(live)
        for host_id in per_record:
            run = self._runs[host_id]
            if run.quarantined:
                continue
            result = self._solve_with_policy(run, engine, taken[host_id][slot])
            if result is None:
                continue
            report, state = result
            run.engine_state = state
            self._record_slice(run, taken[host_id][slot], report)
            processed += 1
        return processed

    def _solve_with_policy(self, run: HostRun, engine: BayesPerfEngine, record):
        """One slice through the retry/timeout loop; ``None`` = dropped.

        Every attempt solves functionally from ``run.engine_state`` (the
        pre-attempt snapshot), so a failed or timed-out attempt never leaks
        partial state — a retry that succeeds is bit-identical to a first
        attempt that succeeded.  The per-slice timeout is cooperative: it is
        checked after the solve returns (an in-process solve cannot be
        preempted), and a flagged attempt's outputs are discarded.
        """
        policy = (
            self.fault_policy
            if self.fault_policy is not None
            else FaultPolicySpec(max_attempts=1)
        )
        host = run.channel.host_id
        observer = self.observer
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                start = time.perf_counter()
                if self.chaos is not None:
                    self.chaos.on_attempt(host, record.tick, attempt)
                if observer is None:
                    results = engine.process_batch([(run.engine_state, record)])
                else:
                    with observer.span(
                        "slice.solve", worker=self.worker_id, n_records=1, attempt=attempt
                    ):
                        results = engine.process_batch([(run.engine_state, record)])
                elapsed = time.perf_counter() - start
                if (
                    policy.timeout_seconds is not None
                    and elapsed > policy.timeout_seconds
                ):
                    raise SliceTimeout(
                        f"slice {host}@t{record.tick} attempt {attempt} took "
                        f"{elapsed:.3f}s (limit {policy.timeout_seconds}s)"
                    )
                if observer is not None:
                    self._observe_solve(elapsed, 1)
                return results[0]
            except Exception as error:
                last_error = error
                self.dispatcher.emit(
                    SliceAttemptFailed(
                        host=host,
                        tick=record.tick,
                        attempt=attempt,
                        error=f"{type(error).__name__}: {error}",
                    )
                )
                if attempt < policy.max_attempts:
                    delay = policy.backoff_delay(host, record.tick, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    self.dispatcher.emit(
                        SliceRetried(
                            host=host,
                            tick=record.tick,
                            attempt=attempt + 1,
                            delay_seconds=delay,
                        )
                    )
        return self._exhaust(run, record, policy, last_error)

    def _exhaust(
        self, run: HostRun, record, policy: FaultPolicySpec, error: Optional[Exception]
    ):
        """Terminal disposition for a slice whose attempts ran out."""
        host = run.channel.host_id
        reason = f"{type(error).__name__}: {error}" if error is not None else "unknown"
        if policy.on_exhausted == "skip":
            run.skipped += 1
            self.dispatcher.emit(
                SliceSkipped(
                    host=host,
                    tick=record.tick,
                    attempts=policy.max_attempts,
                    error=reason,
                )
            )
            return None
        if policy.on_exhausted == "quarantine":
            run.quarantined = True
            run.completed = True
            run.channel.abandon()
            self.dispatcher.emit(
                HostQuarantined(
                    host=host,
                    tick=record.tick,
                    attempts=policy.max_attempts,
                    error=reason,
                )
            )
            return None
        raise SliceFailed(host, record.tick, policy.max_attempts, reason) from error

    def _solve(self, engine: BayesPerfEngine, items: List) -> List:
        """One ``process_batch`` call, in a ``slice.solve`` span when observed."""
        observer = self.observer
        if observer is None:
            return engine.process_batch(items)
        with observer.span("slice.solve", worker=self.worker_id, n_records=len(items)):
            start = time.perf_counter()
            results = engine.process_batch(items)
            elapsed = time.perf_counter() - start
        self._observe_solve(elapsed, len(items))
        return results

    def _observe_solve(self, elapsed: float, n_records: int) -> None:
        """Record one engine call's latency and occupancy metrics."""
        observer = self.observer
        per_slice = elapsed / n_records if n_records else 0.0
        for _ in range(n_records):
            observer.observe("slice.latency_seconds", per_slice)
        observer.observe(
            "batch.occupancy", n_records, buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )

    @property
    def all_completed(self) -> bool:
        return all(run.completed for run in self._runs.values())

    def estimates(self) -> Dict[str, EstimateTrace]:
        return {host_id: run.estimates for host_id, run in self._runs.items()}


@dataclass
class FleetResult:
    """Everything one fleet run produces."""

    n_hosts: int
    total_slices: int
    elapsed_seconds: float
    estimates: Dict[str, EstimateTrace] = field(default_factory=dict)
    dropped_records: Dict[str, int] = field(default_factory=dict)
    engine_cache: Dict[str, int] = field(default_factory=dict)
    #: The run's metrics-registry counters, fleet-event counts included
    #: (``slices.solved``, ``slice.retries``, ``hosts.quarantined``, ...).
    metrics: Dict[str, int] = field(default_factory=dict)
    #: Hosts excised mid-run by an ``on_exhausted="quarantine"`` policy.
    quarantined: Tuple[str, ...] = ()
    #: The run's shared chain recorder (populated when the fleet ran a
    #: per-site MCMC estimator with one attached), ``None`` otherwise.
    chain_trace: Optional[ChainTrace] = None

    @property
    def slices_per_second(self) -> float:
        """Inference throughput of the run."""
        return self.total_slices / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped_records.values())


class WorkerPool:
    """Shards fleet hosts across N inference workers and drives them."""

    def __init__(
        self,
        n_workers: int = 4,
        *,
        dispatcher: Optional[EventDispatcher] = None,
        batch_size: int = 8,
        engine_kwargs: Optional[Dict] = None,
        observer=None,
        fault_policy: Optional[FaultPolicySpec] = None,
        chaos=None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.dispatcher = dispatcher if dispatcher is not None else EventDispatcher()
        self.observer = observer
        self.workers: List[InferenceWorker] = [
            InferenceWorker(
                worker_id,
                dispatcher=self.dispatcher,
                batch_size=batch_size,
                engine_kwargs=engine_kwargs,
                observer=observer,
                fault_policy=fault_policy,
                chaos=chaos,
            )
            for worker_id in range(n_workers)
        ]
        self._next = 0

    def assign(self, channel: HostChannel, *, arch: str, events: Tuple[str, ...]) -> int:
        """Shard one host onto a worker (round-robin); returns the worker id."""
        worker = self.workers[self._next % len(self.workers)]
        worker.assign(channel, arch=arch, events=events)
        self._next += 1
        return worker.worker_id

    def set_on_slice(self, callback: Optional[Callable]) -> None:
        """Attach (or clear) the per-slice hook on every worker."""
        for worker in self.workers:
            worker.on_slice = callback

    def rounds(self, ingest: FleetIngest, *, pump_records: int = 16) -> Iterator[int]:
        """Alternate ingestion and inference rounds until the fleet drains.

        Yields the number of slices processed after every round — the
        streaming pipeline's pacing signal: per-slice results (via the
        ``on_slice`` hook) and buffered chain records can be handed off
        between rounds, so nothing has to accumulate for the whole run.

        With an observer attached each round runs inside a ``fleet.round``
        span (the consumer's between-round flush work is part of the round),
        and the ring-buffer high-water mark is tracked per round.
        """
        observer = self.observer
        index = 0
        while True:
            round_cm = (
                observer.span("fleet.round", round=index)
                if observer is not None
                else nullcontext()
            )
            with round_cm as round_span:
                pumped = ingest.pump_all(pump_records)
                round_accepted = sum(stats.accepted for stats in pumped.values())
                if observer is not None:
                    depth = max(
                        (len(channel.buffer) for channel in ingest.channels),
                        default=0,
                    )
                    observer.gauge_max("ring.depth.max", depth)
                    observer.count("rounds")
                round_processed = sum(
                    worker.process_available() for worker in self.workers
                )
                if round_span is not None:
                    round_span.set_attribute("processed", round_processed)
                # The consumer's flush work (estimate/chain records) happens
                # while this generator is suspended, inside the round span.
                yield round_processed
            index += 1
            if ingest.all_done and all(worker.all_completed for worker in self.workers):
                return
            if round_processed == 0 and round_accepted == 0:
                # Nothing moved and nothing can move any more — e.g. a channel
                # was registered with the ingest but never assigned to a
                # worker, so its buffer will never drain.  Bail out instead of
                # spinning.
                return

    def run_until_drained(self, ingest: FleetIngest, *, pump_records: int = 16) -> int:
        """Drive :meth:`rounds` to completion; returns total slices processed."""
        return sum(self.rounds(ingest, pump_records=pump_records))

    def estimates(self) -> Dict[str, EstimateTrace]:
        merged: Dict[str, EstimateTrace] = {}
        for worker in self.workers:
            merged.update(worker.estimates())
        return merged

    def runs(self) -> Dict[str, HostRun]:
        """Every host's run state across all workers (checkpoint/restore)."""
        merged: Dict[str, HostRun] = {}
        for worker in self.workers:
            merged.update(worker._runs)
        return merged

    def quarantined_hosts(self) -> Tuple[str, ...]:
        """Hosts excised from the run by a quarantine policy, sorted."""
        return tuple(
            sorted(host for host, run in self.runs().items() if run.quarantined)
        )

    def cache_stats(self) -> Dict[str, int]:
        """Aggregate engine-cache statistics across workers.

        ``misses`` counts engine constructions; ``hits`` counts reuses.
        """
        return {
            "hits": sum(worker.cache.hits for worker in self.workers),
            "misses": sum(worker.cache.misses for worker in self.workers),
        }
