"""Lower a :class:`CounterSample` stream into engine-ready sampling records.

The correction engine consumes :class:`~repro.pmu.sampling.SamplingRecord`s:
one scheduler quantum, the counter configuration active during it, and the
PMI sub-samples each measured event produced.  This module groups a parsed
capture into those quanta:

* ``perf stat -I`` intervals and JSONL dumps group by *exact* timestamp —
  every row of one interval block carries the same ``ts``;
* ``perf script`` sample lines group into fixed ``tick_seconds`` windows
  (each line is one PMI sub-sample, so a window naturally accumulates
  several sub-samples per event).

Per tick, the multiplexing fraction each reading carried (perf's
``(scaled from X%)`` / enabled-vs-running bookkeeping) lands in
``SamplingRecord.mux_fraction`` — the engine widens that event's
observation noise by ``1/sqrt(fraction)``, so the correction sees the true
sub-sampling instead of trusting perf's linearly-scaled value at full
weight.  Events reported ``<not counted>`` (or with a zero running
fraction) are excluded from the tick's configuration entirely: to the
factor graph they are unmeasured that quantum, exactly like an event
scheduled off the counters, and the correction infers them from the
invariant constraints and the temporal prior.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.perfio.mapping import SchemaMapper
from repro.perfio.model import CounterSample, IngestStats
from repro.pmu.configuration import CounterConfiguration
from repro.pmu.sampling import SamplingRecord

__all__ = ["LoweredCapture", "lower_capture"]


class LoweredCapture:
    """The engine-ready form of one parsed capture."""

    def __init__(
        self,
        records: List[SamplingRecord],
        events: Tuple[str, ...],
        linenos: List[int],
    ) -> None:
        #: Deterministic record stream (tick-renumbered, 0-based).
        self.records = records
        #: Every canonical event observed, in first-seen order.
        self.events = events
        #: Last source line each record consumed (ingest-position mapping).
        self.record_linenos = linenos


def _group_samples(
    samples: Iterable[CounterSample], tick_seconds: Optional[float]
) -> Iterable[List[CounterSample]]:
    """Split the sample stream into per-tick groups.

    With ``tick_seconds`` set, samples bucket into fixed windows anchored
    at the first timestamp; otherwise consecutive equal timestamps form one
    group (the interval-block shape).  Input order is preserved — captures
    are time-ordered, and determinism matters more than resilience to
    out-of-order tails (which real perf output does not produce).
    """
    group: List[CounterSample] = []
    key: Optional[float] = None
    origin: Optional[float] = None
    for sample in samples:
        if tick_seconds is not None:
            if origin is None:
                origin = sample.timestamp
            sample_key = float(int((sample.timestamp - origin) / tick_seconds))
        else:
            sample_key = sample.timestamp
        if key is not None and sample_key != key and group:
            yield group
            group = []
        key = sample_key
        group.append(sample)
    if group:
        yield group


def lower_capture(
    samples: Iterable[CounterSample],
    mapper: SchemaMapper,
    stats: IngestStats,
    *,
    tick_seconds: Optional[float] = None,
    monitored: Optional[Tuple[str, ...]] = None,
) -> LoweredCapture:
    """Group, map and renumber a capture into sampling records.

    *monitored* optionally restricts the stream to a canonical event subset
    (readings outside it are silently irrelevant, not errors — a capture
    may carry more events than a run wants to monitor).  Ticks left with no
    measured event are skipped and accounted (``stats.empty_ticks``).
    """
    records: List[SamplingRecord] = []
    linenos: List[int] = []
    order: List[str] = []
    wanted = frozenset(monitored) if monitored is not None else None
    seen = set(monitored or ())
    order.extend(monitored or ())
    resolve = mapper.resolve
    for group in _group_samples(samples, tick_seconds):
        values: Dict[str, List[float]] = {}
        fractions: Dict[str, List[float]] = {}
        last_lineno = 0
        for sample in group:
            if sample.lineno > last_lineno:
                last_lineno = sample.lineno
            canonical = resolve(sample.event)
            if canonical is None:
                stats.note_unknown(sample.event)
                continue
            if wanted is not None and canonical not in wanted:
                continue
            # Never scheduled onto a counter this quantum (``<not counted>``
            # or a zero running fraction): genuinely unmeasured, so it must
            # not appear in the configuration.
            if sample.value is None:
                continue
            fraction = sample.fraction()
            if fraction is not None and fraction <= 0.0:
                stats.not_counted += 1
                continue
            if canonical not in seen:
                seen.add(canonical)
                order.append(canonical)
            values.setdefault(canonical, []).append(float(sample.value))
            if fraction is not None:
                fractions.setdefault(canonical, []).append(fraction)
        if not values:
            stats.empty_ticks += 1
            continue
        present = tuple(event for event in order if event in values)
        record = SamplingRecord(
            tick=len(records),
            configuration=CounterConfiguration(events=present),
        )
        for event in present:
            record.samples[event] = np.asarray(values[event], dtype=float)
            event_fractions = fractions.get(event)
            if event_fractions:
                # A lone reading (the interval-block shape) is its own mean.
                fraction = (
                    event_fractions[0]
                    if len(event_fractions) == 1
                    else float(np.mean(event_fractions))
                )
                if fraction < 1.0:
                    record.mux_fraction[event] = fraction
        records.append(record)
        linenos.append(last_lineno)
    stats.n_ticks = len(records)
    events = tuple(order) if monitored is None else tuple(monitored)
    return LoweredCapture(records, events, linenos)
