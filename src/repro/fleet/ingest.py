"""Fleet ingestion: per-host record streams feeding bounded ring buffers.

Each simulated (or replayed) host produces a stream of
:class:`~repro.pmu.sampling.SamplingRecord`s — what the kernel side of the
BayesPerf shim would push over the wire in a real deployment.  The ingestion
layer gives every host a bounded :class:`~repro.core.ringbuffer.RingBuffer`
with explicit backpressure accounting: when inference falls behind, new
records are dropped (never blocking the producer, exactly like the perf mmap
buffer) and a :class:`~repro.fleet.events.BackpressureDetected` event is
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.ringbuffer import RingBuffer
from repro.events.catalog import EventCatalog
from repro.events.registry import canonical_arch, catalog_for
from repro.fleet.events import (
    BackpressureDetected,
    EventDispatcher,
    MalformedRecordSkipped,
    SessionStarted,
)
from repro.fleet.tracefile import TraceFile
from repro.pmu.sampling import MultiplexedSampler, SamplingRecord
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.uarch.profile import WorkloadSpec


class SyntheticHostSource:
    """Record stream for one simulated host.

    The machine trace and the multiplexed sampler are built lazily on first
    iteration, so constructing a large fleet is cheap and the simulation cost
    lands in the ingestion (pump) phase.
    """

    def __init__(
        self,
        host_id: str,
        spec: WorkloadSpec,
        *,
        arch: str = "x86",
        events: Tuple[str, ...],
        n_ticks: Optional[int] = None,
        seed: int = 0,
        samples_per_tick: int = 4,
    ) -> None:
        self.host_id = host_id
        self.spec = spec
        self.arch = canonical_arch(arch)
        self.events = tuple(events)
        self.seed = seed
        self.n_ticks = n_ticks if n_ticks is not None else spec.total_ticks
        self.samples_per_tick = samples_per_tick
        #: Multiplexing policy (a :data:`repro.scheduling.SCHEDULE_KINDS`
        #: name) and its seed.  Set by ``Pipeline.from_spec`` from
        #: ``SchedulerSpec`` — ``records()`` is lazy, so the policy lands
        #: before any record is pumped.
        self.schedule_policy = "overlap"
        self.schedule_seed = 0
        self.workload_name = spec.name

    def records(self) -> Iterator[SamplingRecord]:
        catalog: EventCatalog = catalog_for(self.arch)
        machine = Machine(MachineConfig(name=catalog.name), self.spec, seed=self.seed)
        trace = machine.run(self.n_ticks)
        schedule = cached_schedule(
            catalog, self.events, kind=self.schedule_policy, seed=self.schedule_seed
        )
        sampler = MultiplexedSampler(
            catalog,
            schedule,
            samples_per_tick=self.samples_per_tick,
            seed=self.seed + 1,
        )
        yield from sampler.sample(trace).records


class ReplayHostSource:
    """Record stream backed by a recorded trace file.

    Malformed or partial lines the reader tolerated (a torn tail from a
    killed recorder, or mid-stream damage under ``read_trace(strict=False)``)
    surface as ``skipped_lines``/``torn_tail`` here; the host's channel
    announces them with one
    :class:`~repro.fleet.events.MalformedRecordSkipped` event when the
    stream opens, so a replay accounts for every record it dropped instead
    of raising mid-iteration.
    """

    def __init__(self, host_id: str, trace: TraceFile, *, workload_name: str = "") -> None:
        if trace.sampled is None:
            raise ValueError(
                f"trace for host {host_id!r} holds no sampled records; nothing to replay"
            )
        self.host_id = host_id
        self.trace = trace
        self.arch = canonical_arch(trace.arch) if trace.arch else trace.arch
        self.events = tuple(trace.events)
        self.seed = trace.seed
        self.n_ticks = trace.n_ticks
        self.samples_per_tick = trace.samples_per_tick
        self.workload_name = workload_name or trace.workload or "replay"
        #: Lines the reader skipped as malformed instead of raising.
        self.skipped_lines = len(trace.malformed_lines)
        self.torn_tail = trace.torn_tail

    def records(self) -> Iterator[SamplingRecord]:
        assert self.trace.sampled is not None
        yield from self.trace.sampled.records


@dataclass
class PumpStats:
    """Outcome of one pump round for one host."""

    accepted: int = 0
    dropped: int = 0
    exhausted: bool = False


class HostChannel:
    """One host's ingest state: its source iterator and its ring buffer."""

    def __init__(self, source, *, capacity: int, dispatcher: EventDispatcher) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.source = source
        self.host_id: str = source.host_id
        self.buffer: RingBuffer[SamplingRecord] = RingBuffer(capacity)
        self._dispatcher = dispatcher
        self._iterator: Optional[Iterator[SamplingRecord]] = None
        self._exhausted = False
        #: Records drawn from the source iterator so far (accepted + dropped)
        #: — the source position a WAL checkpoint records, so a resumed run
        #: can fast-forward a fresh iterator to exactly here.
        self.pulled = 0
        #: Set when a fault policy excised this host from the run.
        self.quarantined = False

    @property
    def exhausted(self) -> bool:
        """True when the source has no further records."""
        return self._exhausted

    @property
    def done(self) -> bool:
        """True when the source is exhausted and the buffer fully drained."""
        return self._exhausted and self.buffer.is_empty

    @property
    def dropped(self) -> int:
        """Total records dropped on the floor by backpressure so far."""
        return self.buffer.dropped

    def _open(self) -> Iterator[SamplingRecord]:
        """Open the source stream, announcing any tolerated damage once."""
        iterator = self.source.records()
        skipped = getattr(self.source, "skipped_lines", 0)
        if skipped:
            self._dispatcher.emit(
                MalformedRecordSkipped(
                    host=self.host_id,
                    n_lines=skipped,
                    torn_tail=bool(getattr(self.source, "torn_tail", False)),
                )
            )
        return iterator

    def pump(self, max_records: int) -> PumpStats:
        """Move up to *max_records* records from the source into the buffer.

        Producers never block: when the buffer is full the record is dropped,
        counted, and a backpressure event is emitted for the round.
        """
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        stats = PumpStats()
        if self._exhausted:
            stats.exhausted = True
            return stats
        if self._iterator is None:
            self._iterator = self._open()
        for _ in range(max_records):
            record = next(self._iterator, None)
            if record is None:
                self._exhausted = True
                stats.exhausted = True
                break
            self.pulled += 1
            if self.buffer.push(record):
                stats.accepted += 1
            else:
                stats.dropped += 1
        if stats.dropped:
            self._dispatcher.emit(
                BackpressureDetected(
                    host=self.host_id,
                    dropped=stats.dropped,
                    total_dropped=self.buffer.dropped,
                    buffered=len(self.buffer),
                    capacity=self.buffer.capacity,
                )
            )
        return stats

    def take(self, max_records: int) -> List[SamplingRecord]:
        """Dequeue up to *max_records* buffered records (consumer side)."""
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        records: List[SamplingRecord] = []
        while len(records) < max_records:
            record = self.buffer.pop()
            if record is None:
                break
            records.append(record)
        return records

    def abandon(self) -> None:
        """Excise this host from the run (quarantine).

        The source is marked exhausted and the buffer cleared, so ``done``
        holds and the drive loop's termination conditions see a finished
        host; backpressure totals are preserved for the final report.
        """
        self.quarantined = True
        self._exhausted = True
        self.buffer.drain()

    def restore(
        self,
        *,
        pulled: int,
        buffered: List[SamplingRecord],
        dropped: int = 0,
        exhausted: bool = False,
        quarantined: bool = False,
    ) -> None:
        """Re-materialise this channel from a WAL checkpoint's progress.

        A fresh source iterator is opened and fast-forwarded past the
        *pulled* records the crashed run already consumed (sources are
        deterministic, so the remaining stream is identical), then the
        checkpoint's *buffered* records re-fill the ring buffer and the
        backpressure/exhaustion counters are restored — the channel is
        indistinguishable from the one the crashed run checkpointed.
        """
        if self._iterator is not None or self.pulled:
            raise RuntimeError("restore() must run before the first pump")
        self._iterator = self._open()
        for _ in range(pulled):
            if next(self._iterator, None) is None:
                break
        self.pulled = pulled
        for record in buffered:
            self.buffer.push(record)
        self.buffer.dropped = dropped
        self._exhausted = exhausted
        self.quarantined = quarantined


class FleetIngest:
    """The fleet's front door: N host channels with bounded buffering."""

    def __init__(
        self, *, buffer_capacity: int = 256, dispatcher: Optional[EventDispatcher] = None
    ) -> None:
        self.buffer_capacity = buffer_capacity
        self.dispatcher = dispatcher if dispatcher is not None else EventDispatcher()
        self._channels: Dict[str, HostChannel] = {}

    def __len__(self) -> int:
        return len(self._channels)

    @property
    def channels(self) -> Tuple[HostChannel, ...]:
        return tuple(self._channels.values())

    def channel(self, host_id: str) -> HostChannel:
        return self._channels[host_id]

    def add(self, source) -> HostChannel:
        """Register a host source and announce its session on the stream."""
        if source.host_id in self._channels:
            raise ValueError(f"host {source.host_id!r} already registered")
        channel = HostChannel(
            source, capacity=self.buffer_capacity, dispatcher=self.dispatcher
        )
        self._channels[source.host_id] = channel
        self.dispatcher.emit(
            SessionStarted(
                host=source.host_id,
                arch=getattr(source, "arch", ""),
                workload=getattr(source, "workload_name", ""),
                n_events=len(getattr(source, "events", ())),
            )
        )
        return channel

    def pump_all(self, max_records_per_host: int) -> Dict[str, PumpStats]:
        """One ingestion round: pump every non-exhausted host."""
        return {
            host_id: channel.pump(max_records_per_host)
            for host_id, channel in self._channels.items()
            if not channel.exhausted
        }

    @property
    def all_done(self) -> bool:
        """True once every channel is exhausted and drained."""
        return all(channel.done for channel in self._channels.values())

    def drop_report(self) -> Dict[str, int]:
        """Per-host dropped-record counts (hosts with drops only)."""
        return {
            host_id: channel.dropped
            for host_id, channel in self._channels.items()
            if channel.dropped
        }
