"""Common shapes for real-trace ingestion.

Every parser (:mod:`repro.perfio.parsers`) lowers its input format to a
stream of :class:`CounterSample`s — one raw counter reading with whatever
enabled/running bookkeeping the format carries — and accounts everything it
could *not* lower in an :class:`IngestStats`.  The skip-and-account
contract mirrors the tracefile reader's malformed-record hardening: a
parser never raises on damaged input; it counts the damage and moves on,
and the fleet surfaces the counts through the same
:class:`~repro.fleet.events.MalformedRecordSkipped` accounting as replay
hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["CounterSample", "IngestStats", "PERF_FORMATS"]

#: The ingestion formats the parsers understand ("auto" sniffs among them).
PERF_FORMATS = ("stat-csv", "script", "jsonl")


@dataclass
class CounterSample:
    """One raw counter reading, as parsed from a perf capture.

    ``value`` is ``None`` for readings perf reported as ``<not counted>`` /
    ``<not supported>`` — the event existed in the interval but produced no
    count (it was scheduled off every counter), which is exactly the
    sub-sampling the correction is built to see.  ``enabled`` and
    ``running`` carry the kernel's time-enabled / time-running bookkeeping
    in nanoseconds when the format provides them (``stat-csv`` carries only
    the run time); ``running_pct`` is perf stat's pre-computed percentage
    column.  The multiplexing fraction for a reading is :meth:`fraction`.
    """

    timestamp: float
    event: str
    value: Optional[float]
    enabled: float = 0.0
    running: float = 0.0
    running_pct: Optional[float] = None
    cpu: Optional[int] = None
    lineno: int = 0

    def fraction(self) -> Optional[float]:
        """The fraction of the interval the event was actually counting.

        ``None`` means the format carried no multiplexing bookkeeping for
        this reading (e.g. a ``perf script`` sample line) — the lowering
        then treats the reading as fully counted.
        """
        if self.running_pct is not None:
            return max(0.0, min(1.0, self.running_pct / 100.0))
        if self.enabled > 0.0:
            return max(0.0, min(1.0, self.running / self.enabled))
        return None


@dataclass
class IngestStats:
    """Skip-and-account bookkeeping for one ingested capture.

    ``skipped_lines`` counts malformed input (truncated, interleaved,
    locale-mangled — anything the parser could not lower); ``unknown_events``
    counts readings dropped by the schema mapper's ``on_unknown="skip"``
    policy, per raw event name.  Both feed the same accounting surface as
    the tracefile reader: the host channel announces their sum in one
    :class:`~repro.fleet.events.MalformedRecordSkipped` event at stream
    open.
    """

    path: str = ""
    format: str = ""
    total_lines: int = 0
    comment_lines: int = 0
    parsed_samples: int = 0
    skipped_lines: int = 0
    not_counted: int = 0
    #: Raw event name -> readings dropped under ``on_unknown="skip"``.
    unknown_events: Dict[str, int] = field(default_factory=dict)
    empty_ticks: int = 0
    n_ticks: int = 0
    torn_tail: bool = False

    @property
    def unknown_total(self) -> int:
        """Total readings dropped because their event name did not map."""
        return sum(self.unknown_events.values())

    @property
    def accounted_skips(self) -> int:
        """Everything skipped-and-accounted: malformed plus unknown-event."""
        return self.skipped_lines + self.unknown_total

    def note_unknown(self, raw_event: str) -> None:
        self.unknown_events[raw_event] = self.unknown_events.get(raw_event, 0) + 1

    def summary(self) -> Dict[str, object]:
        """JSON-shaped digest (the CLI preview and tests read this)."""
        return {
            "path": self.path,
            "format": self.format,
            "total_lines": self.total_lines,
            "parsed_samples": self.parsed_samples,
            "skipped_lines": self.skipped_lines,
            "unknown_events": dict(self.unknown_events),
            "not_counted": self.not_counted,
            "empty_ticks": self.empty_ticks,
            "n_ticks": self.n_ticks,
            "torn_tail": self.torn_tail,
        }
