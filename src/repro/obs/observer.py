"""The observer: one handle bundling a run's tracer and metrics registry.

Every instrumentation site in the pipeline (engine kernel stages, worker
solves, the drive loop) holds at most an ``Optional[Observer]``; when it is
``None`` — the default everywhere — the hot path pays nothing.  When
present, the observer's null-safe helpers route spans to the
:class:`~repro.obs.spans.Tracer` (which emits each finished span into the
run's event dispatcher) and measurements to the run's one
:class:`~repro.obs.metrics.MetricsRegistry`, the same registry the fleet
events are counted into.

``Observer.from_options`` is the one constructor the spec layer uses:
*trace* names the span JSONL export path (the tracer exists only then),
*metrics* names where the registry's summary goes at close
(``"console"``/``"-"`` prints, anything else is a JSON file path), and
*estimates* asks the pipeline to stream per-slice estimate records into
the recorder's tracefile sink.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence

from repro.fleet.events import EventDispatcher
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import JsonlSpanExporter, Tracer

__all__ = ["Observer"]

_NULL = nullcontext()


class Observer:
    """A run's observability bundle; ``close()`` ends spans and exports."""

    def __init__(
        self,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        estimates: bool = False,
        metrics_sink: Optional[str] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.estimates = estimates
        self.metrics_sink = metrics_sink
        self._closed = False

    @classmethod
    def from_options(
        cls,
        dispatcher: EventDispatcher,
        *,
        trace: Optional[str] = None,
        metrics: Optional[str] = None,
        estimates: bool = False,
    ) -> "Observer":
        """Build an observer from the :class:`~repro.api.ObserverSpec` knobs.

        With *trace* set, the span exporter joins *dispatcher* and the
        tracer emits into it.  The registry always exists; *metrics* only
        names its export.
        """
        tracer = None
        if trace is not None:
            dispatcher.add(JsonlSpanExporter(trace))
            tracer = Tracer(dispatcher)
        return cls(
            tracer=tracer,
            metrics=MetricsRegistry(),
            estimates=estimates,
            metrics_sink=metrics,
        )

    # -- null-safe instrumentation helpers --------------------------------

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def span(self, name: str, **attributes):
        """A span context manager, or a no-op one when tracing is off."""
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name, **attributes)

    def count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def gauge_max(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).max(value)

    def observe(
        self, name: str, value: float, buckets: Optional[Sequence[float]] = None
    ) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, buckets).record(value)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """End leftover spans and export the metrics summary (idempotent).

        Call it before the dispatcher's ``shutdown`` closes the span
        exporter.
        """
        if self._closed:
            return
        self._closed = True
        if self.tracer is not None:
            self.tracer.shutdown()
        if self.metrics is not None and self.metrics_sink is not None:
            if self.metrics_sink in ("console", "-"):
                print(self.metrics.render())
            else:
                self.metrics.export_json(self.metrics_sink)
