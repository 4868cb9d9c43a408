"""OTel-compatible spans over the estimation pipeline.

The span model mirrors OpenTelemetry's wire shape without depending on the
SDK: a :class:`Span` carries a :class:`SpanContext` (trace id + span id), a
parent link, free-form attributes, and both wall-clock and CPU timing.  A
:class:`Tracer` hands spans out as context managers and maintains the active
span stack, so nested instrumentation (pipeline run → worker round →
per-slice solve → kernel stage) parents itself without any explicit
plumbing.  Spans are events: the tracer emits each finished span into the
run's :class:`~repro.fleet.events.EventDispatcher`, the same stream the
fleet events travel, and :class:`JsonlSpanExporter` is the event processor
that writes them as OTLP-shaped dicts one per line (greppable, ingestable
by collectors).

Everything here is synchronous and single-process, matching the fleet drive
loop; the active-span stack is therefore a plain list, and ``end()`` is
tolerant of out-of-order closure (an abandoned streaming consumer can close
the root before an in-flight round span).
"""

from __future__ import annotations

import itertools
import json
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.fleet.events import EventDispatcher, EventProcessor

__all__ = [
    "JsonlSpanExporter",
    "Span",
    "SpanContext",
    "Tracer",
]


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span: the run's trace id plus the span's own id."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed operation in the pipeline, OTel-shaped.

    Wall-clock timing uses the epoch (``start_unix_nano``/``end_unix_nano``)
    so exported spans line up with external monitoring; ``cpu_ns`` measures
    process CPU time over the same interval, which is what separates "slow
    because computing" from "slow because waiting".
    """

    name: str
    context: SpanContext
    parent_id: Optional[str] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    start_unix_nano: int = 0
    end_unix_nano: int = 0
    cpu_ns: int = 0
    status: str = "OK"
    _start_perf: int = 0
    _start_cpu: int = 0

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def duration_ns(self) -> int:
        return max(self.end_unix_nano - self.start_unix_nano, 0)

    @property
    def ended(self) -> bool:
        return self.end_unix_nano != 0

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def to_otlp(self) -> Dict:
        """The span as an OTLP-shaped JSON-serialisable dict."""
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_span_id": self.parent_id,
            "start_time_unix_nano": int(self.start_unix_nano),
            "end_time_unix_nano": int(self.end_unix_nano),
            "duration_ns": int(self.duration_ns),
            "cpu_time_ns": int(self.cpu_ns),
            "attributes": dict(self.attributes),
            "status": self.status,
        }


class JsonlSpanExporter(EventProcessor):
    """Writes every finished span to a JSONL file, one OTLP dict per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._stream = self.path.open("w", encoding="utf-8")
        self.exported = 0

    def on_event(self, event: object) -> None:
        if isinstance(event, Span):
            self._stream.write(json.dumps(event.to_otlp()) + "\n")
            self.exported += 1

    def shutdown(self) -> None:
        if not self._stream.closed:
            self._stream.close()


class _ActiveSpan:
    """Context-manager wrapper the tracer hands out from :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.status = "ERROR"
            self._span.attributes.setdefault("error.type", exc_type.__name__)
        self._tracer.end(self._span)


class Tracer:
    """Starts spans, tracks the active stack, emits finished spans.

    One tracer per run: every span it starts shares one ``trace_id``, and
    every span it ends goes to *dispatcher* as an event.  The parent of a
    new span is whatever span is currently innermost — callers never pass
    parents explicitly, the call structure *is* the tree.
    """

    def __init__(self, dispatcher: EventDispatcher) -> None:
        self.dispatcher = dispatcher
        self.trace_id = uuid.uuid4().hex
        self._ids = itertools.count(1)
        self._stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        """The innermost active span, if any."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, **attributes) -> Span:
        """Start a span (parented under the current one) and push it active."""
        span = Span(
            name=name,
            context=SpanContext(
                trace_id=self.trace_id, span_id=f"{next(self._ids):016x}"
            ),
            parent_id=self._stack[-1].span_id if self._stack else None,
            attributes=dict(attributes),
            start_unix_nano=time.time_ns(),
            _start_perf=time.perf_counter_ns(),
            _start_cpu=time.process_time_ns(),
        )
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Finish *span* and emit it into the run's event stream.

        Closure is stack-tolerant: ending a span that is not innermost just
        removes it from wherever it sits (an early-terminated consumer may
        unwind out of order), and ending twice is a no-op.
        """
        if span.ended:
            return
        span.end_unix_nano = span.start_unix_nano + max(
            time.perf_counter_ns() - span._start_perf, 0
        )
        span.cpu_ns = max(time.process_time_ns() - span._start_cpu, 0)
        if span in self._stack:
            self._stack.remove(span)
        self.dispatcher.emit(span)

    def span(self, name: str, **attributes) -> _ActiveSpan:
        """Start a span as a context manager: ``with tracer.span("x"): ...``."""
        return _ActiveSpan(self, self.start(name, **attributes))

    def shutdown(self) -> None:
        """End any spans left active, outermost last.

        Call it before the dispatcher's own ``shutdown`` closes the
        exporters, so the leftover spans are still written.
        """
        while self._stack:
            self.end(self._stack[-1])
