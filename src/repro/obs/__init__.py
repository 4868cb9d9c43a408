"""Observability for the estimation pipeline: spans, metrics, chain health.

Three layers, composable and individually optional:

* :mod:`repro.obs.spans` — an OTel-compatible span model and
  :class:`Tracer` instrumenting the whole pipeline (run → worker round →
  per-slice solve → kernel compile/bind/solve).  Finished spans are events:
  they travel the run's :class:`~repro.fleet.events.EventDispatcher` with
  the fleet events, and :class:`JsonlSpanExporter` is the processor that
  writes them as OTLP-shaped JSONL;
* :mod:`repro.obs.metrics` — counters/gauges/histograms behind one
  :class:`MetricsRegistry` per run (slice latency, batch occupancy,
  ring-buffer depth, chain acceptance, plus every
  fleet event counted once by the
  :class:`~repro.fleet.events.MetricsProcessor`), with console and JSON
  exports;
* :mod:`repro.obs.mixing` — fleet-wide chain-health analytics over the
  per-window burn-in acceptance trajectories chain traces carry (stuck
  chains, collapsed acceptance, non-monotone adaptation, robust fleet
  outliers).

An :class:`Observer` bundles a run's tracer and registry behind null-safe
helpers; runs opt in through :class:`repro.api.ObserverSpec` (observers
default off, and a disabled observer costs the hot path nothing).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.mixing import (
    ChainHealthFlag,
    MixingAccumulator,
    MixingReport,
    analyze_chain,
    analyze_tracefile,
)
from repro.obs.observer import Observer
from repro.obs.spans import JsonlSpanExporter, Span, SpanContext, Tracer

__all__ = [
    "ChainHealthFlag",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "MetricsRegistry",
    "MixingAccumulator",
    "MixingReport",
    "Observer",
    "Span",
    "SpanContext",
    "Tracer",
    "analyze_chain",
    "analyze_tracefile",
]
