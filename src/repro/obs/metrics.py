"""Pipeline metrics: counters, gauges and histograms behind one registry.

The instruments are deliberately small — the Prometheus vocabulary without
the client library: a :class:`Counter` only goes up, a :class:`Gauge` holds
the last value, a :class:`Histogram` buckets observations against fixed
upper bounds.  A :class:`MetricsRegistry` hands instruments out by name
(get-or-create, so instrumentation sites never coordinate) and renders one
summary for the console or JSON export.

Instrument names are dotted paths (``slice.latency_seconds``,
``slice.retries``) so external tooling can prefix-filter them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Prometheus-style latency buckets (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the high-water mark of everything set through here."""
        self.value = max(self.value, float(value))


class Histogram:
    """Fixed-bucket distribution of observations.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the implicit ``+Inf`` bucket.  Count/sum/min/max are
    tracked exactly regardless of bucketing.
    """

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict:
        labels = [f"le_{bound:g}" for bound in self.buckets] + ["le_inf"]
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(labels, self.bucket_counts)),
        }


class MetricsRegistry:
    """Names instruments and renders them; one per observed run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create instruments ---------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            self._check_free(name, self._counters)
            counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            self._check_free(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
            return gauge

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            self._check_free(name, self._histograms)
            histogram = self._histograms[name] = Histogram(name, buckets)
            return histogram

    def _check_free(self, name: str, own: Dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not own and name in table:
                raise ValueError(f"metric {name!r} already registered with another type")

    # -- export -----------------------------------------------------------

    def summary(self) -> Dict:
        """Everything recorded, as one JSON-serialisable dict."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable one-line-per-instrument summary (the console export)."""
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(f"{name} {gauge.value:g}")
        for name, histogram in sorted(self._histograms.items()):
            lines.append(
                f"{name} count={histogram.count} mean={histogram.mean:.6g} "
                f"min={histogram.min if histogram.min is not None else 'n/a'} "
                f"max={histogram.max if histogram.max is not None else 'n/a'}"
            )
        return "\n".join(lines)

    def export_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`summary` to *path* as JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.summary(), indent=2) + "\n", encoding="utf-8")
        return path
