"""Common interface for correction methods, and the registry-driven builder."""

from __future__ import annotations

import inspect
from typing import Protocol

from repro.events.catalog import EventCatalog
from repro.fg.registry import get_estimator
from repro.pmu.sampling import SampledTrace
from repro.pmu.traces import EstimateTrace


class CorrectionMethod(Protocol):
    """Anything that turns a multiplexed sample trace into per-tick estimates."""

    #: Human-readable method name used in reports.
    name: str

    def correct(self, sampled: SampledTrace) -> EstimateTrace:
        """Produce per-tick estimates for every monitored event."""
        ...


def build_baseline(name: str, catalog: EventCatalog, **options) -> CorrectionMethod:
    """Instantiate the registered baseline *name* for *catalog*.

    Registry-driven: the entry's implementation class gets the catalog and
    each of *options* (e.g. ``read_interval_ticks``) only when its
    ``__init__`` takes a parameter of that name, so ``WeaverPin`` gets the
    catalog, ``LinuxScaling`` the read interval and ``CounterMiner``
    neither.  New baselines join by decorating their class with
    ``@register_estimator(..., baseline=True)``.
    """
    entry = get_estimator(name)
    if not entry.baseline:
        raise ValueError(
            f"{name!r} is a moment estimator, not a baseline correction method"
        )
    parameters = inspect.signature(entry.batched).parameters
    offered = dict(options, catalog=catalog)
    return entry.batched(
        **{key: value for key, value in offered.items() if key in parameters}
    )
