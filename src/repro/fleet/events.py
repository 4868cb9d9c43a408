"""The run's one event stream: fleet events and finished spans.

Events are the primitive; processors consume them.  Every stage of the fleet
pipeline (ingestion, workers, service) emits plain dataclass events into one
:class:`EventDispatcher` per run, and the run's tracer emits each finished
:class:`~repro.obs.spans.Span` into the same dispatcher.  Pluggable
:class:`EventProcessor` instances consume the stream: the
:class:`MetricsProcessor` counts fleet events into the run's one metrics
registry, the span exporter writes spans, an :class:`EventLog` buffers
everything.  Consumption is push-based (implement ``on_event``) or
pull-based (attach an :class:`EventLog` and walk its ``iter()``).

Dispatch is best-effort: a failing processor never breaks the data path.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)


# -- event types ------------------------------------------------------------


@dataclass(frozen=True)
class FleetEvent:
    """Base class: every fleet event names the host it concerns."""

    host: str


@dataclass(frozen=True)
class SessionStarted(FleetEvent):
    """A host joined the fleet and its record stream is open."""

    arch: str = ""
    workload: str = ""
    n_events: int = 0


@dataclass(frozen=True)
class SliceCompleted(FleetEvent):
    """One scheduler time slice of one host went through inference."""

    tick: int = 0
    worker: int = -1
    n_measured: int = 0


@dataclass(frozen=True)
class EstimateReady(FleetEvent):
    """A batch of posterior estimates for a host is available to consumers."""

    first_tick: int = 0
    last_tick: int = 0
    n_slices: int = 0


@dataclass(frozen=True)
class BackpressureDetected(FleetEvent):
    """A host's ingest ring buffer dropped records while full."""

    dropped: int = 0
    total_dropped: int = 0
    buffered: int = 0
    capacity: int = 0


@dataclass(frozen=True)
class SessionCompleted(FleetEvent):
    """A host's record stream is exhausted and fully processed."""

    n_slices: int = 0


@dataclass(frozen=True)
class ChainHealthFlagged(FleetEvent):
    """The end-of-run mixing analysis flagged a chain pathology.

    ``host`` carries the slice's host id when the flag is per-slice, or
    ``"fleet"`` for fleet-wide findings (acceptance-rate outliers).
    """

    reason: str = ""
    slice_id: int = -1
    site: str = ""
    value: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class SliceAttemptFailed(FleetEvent):
    """One solve attempt for one slice failed (raised or timed out)."""

    tick: int = 0
    attempt: int = 0
    error: str = ""


@dataclass(frozen=True)
class SliceRetried(FleetEvent):
    """A failed slice attempt is being retried after its backoff delay."""

    tick: int = 0
    attempt: int = 0
    delay_seconds: float = 0.0


@dataclass(frozen=True)
class SliceSkipped(FleetEvent):
    """A slice exhausted its attempts under an ``on_exhausted="skip"`` policy."""

    tick: int = 0
    attempts: int = 0
    error: str = ""


@dataclass(frozen=True)
class HostQuarantined(FleetEvent):
    """A host was excised from the run after exhausting a slice's attempts."""

    tick: int = 0
    attempts: int = 0
    error: str = ""


@dataclass(frozen=True)
class MalformedRecordSkipped(FleetEvent):
    """A replayed source skipped malformed/partial record lines."""

    n_lines: int = 0
    torn_tail: bool = False


@dataclass(frozen=True)
class CheckpointWritten(FleetEvent):
    """A full round of per-host checkpoints was committed to the WAL.

    ``host`` is ``"fleet"``: the commit marker covers every host.
    """

    round_idx: int = 0
    n_hosts: int = 0


# -- processors -------------------------------------------------------------


class EventProcessor:
    """Base class for push-based event consumers.

    Subclass and override :meth:`on_event`; it receives every event of the
    run, fleet events and finished spans (:class:`~repro.obs.spans.Span`)
    alike, so a processor tests the types it handles and ignores the rest.
    """

    def on_event(self, event: object) -> None:
        """Called for every event.  Override in subclasses."""

    def shutdown(self) -> None:
        """Called once when the run completes.  Override to flush buffers."""


#: Event type -> the registry counter each event of that type increments.
#: Keyed on the class itself, so a rename cannot silently drop a counter.
_EVENT_COUNTERS: Dict[type, str] = {
    SessionStarted: "hosts.started",
    SliceCompleted: "slices.solved",
    BackpressureDetected: "ingest.backpressure",
    SessionCompleted: "hosts.completed",
    ChainHealthFlagged: "mixing.flags",
    SliceAttemptFailed: "slice.attempt_failures",
    SliceRetried: "slice.retries",
    SliceSkipped: "slice.skips",
    HostQuarantined: "hosts.quarantined",
    MalformedRecordSkipped: "records.malformed",
    CheckpointWritten: "wal.commits",
}


class MetricsProcessor(EventProcessor):
    """Counts the event stream into the run's metrics registry.

    Stateless: every count lives in *registry*, under the names of
    ``_EVENT_COUNTERS``.  A chain-health flag counts under
    ``mixing.flags.<reason>``; a malformed-record event adds its ``n_lines``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_event(self, event: object) -> None:
        kind = type(event)
        name = _EVENT_COUNTERS.get(kind)
        if name is None:
            return
        if kind is ChainHealthFlagged:
            self.registry.counter(f"{name}.{event.reason}").inc()
        elif kind is MalformedRecordSkipped:
            self.registry.counter(name).inc(event.n_lines)
        else:
            self.registry.counter(name).inc()


class EventLog(EventProcessor):
    """Bounded buffer over the stream, for pull-based consumption.

    ``iter()`` drains buffered events in arrival order; events arriving while
    iterating are seen by the same iterator.  When the buffer overflows the
    oldest events are discarded (``discarded`` counts them).
    """

    def __init__(self, maxlen: Optional[int] = 65536) -> None:
        self._buffer: Deque[object] = deque(maxlen=maxlen)
        self.discarded = 0

    def on_event(self, event: object) -> None:
        if self._buffer.maxlen is not None and len(self._buffer) == self._buffer.maxlen:
            self.discarded += 1
        self._buffer.append(event)

    def __len__(self) -> int:
        return len(self._buffer)

    def iter(self) -> Iterator[object]:
        """Drain buffered events (pull-based consumption)."""
        while self._buffer:
            yield self._buffer.popleft()

    def snapshot(self) -> Tuple[object, ...]:
        """Buffered events without consuming them."""
        return tuple(self._buffer)


# -- dispatcher -------------------------------------------------------------


class EventDispatcher:
    """Fans events out to registered processors, best-effort.

    A failing processor is logged once (per processor type) and counted
    thereafter, so a processor that throws on every event cannot flood the
    log from the hot path; the suppressed totals are reported at shutdown.
    """

    def __init__(self, processors: Optional[Sequence[EventProcessor]] = None) -> None:
        self._processors: List[EventProcessor] = list(processors) if processors else []
        self._failures: Counter = Counter()

    def add(self, processor: EventProcessor) -> None:
        self._processors.append(processor)

    def emit(self, event: object) -> None:
        """Send *event* to every processor; a failing processor is logged."""
        for processor in self._processors:
            try:
                processor.on_event(event)
            except Exception:
                name = type(processor).__name__
                self._failures[name] += 1
                if self._failures[name] == 1:
                    logger.warning(
                        "EventProcessor %s failed on %s (further failures of "
                        "this processor are counted, not logged)",
                        name,
                        type(event).__name__,
                        exc_info=True,
                    )

    def shutdown(self) -> None:
        """Shut every processor down, best-effort; report suppressed failures."""
        for name, count in self._failures.items():
            if count > 1:
                logger.warning(
                    "EventProcessor %s failed on %d events during the run "
                    "(only the first failure was logged)",
                    name,
                    count,
                )
        for processor in self._processors:
            try:
                processor.shutdown()
            except Exception:
                logger.warning(
                    "EventProcessor %s failed during shutdown",
                    type(processor).__name__,
                    exc_info=True,
                )
