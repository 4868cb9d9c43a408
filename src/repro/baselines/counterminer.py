"""CounterMiner-style outlier dropping (Lv et al., MICRO 2018).

CounterMiner improves multiplexed measurements by discarding outlier samples
(using an extreme-value test) and re-aggregating the remainder.  It was
designed for offline trace cleaning; the paper uses it online as its
strongest baseline, which is reproduced here with a sliding window of recent
quantum totals per event.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

import numpy as np

from repro.fg.registry import register_estimator
from repro.pmu.sampling import SampledTrace
from repro.pmu.traces import EstimateTrace


@register_estimator(
    "counterminer",
    baseline=True,
    description="CounterMiner MAD outlier dropping (baseline correction)",
)
class CounterMiner:
    """Sliding-window outlier rejection over multiplexed samples.

    Parameters
    ----------
    window:
        Number of recent measured quanta retained per event.
    significance:
        Outlier rejection strength: samples further than ``significance``
        median-absolute-deviations from the window median are dropped (the
        role the Gumbel max-test plays in the original system).
    """

    def __init__(self, window: int = 4, significance: float = 2.5, recency: float = 2.0) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        if significance <= 0:
            raise ValueError("significance must be positive")
        if recency < 1.0:
            raise ValueError("recency must be at least 1")
        self.window = window
        self.significance = significance
        self.recency = recency
        self.name = "counterminer"

    def _robust_estimate(self, history: Deque[float]) -> float:
        values = np.array(history, dtype=float)
        if values.size == 1:
            return float(values[0])
        median = float(np.median(values))
        mad = float(np.median(np.abs(values - median)))
        if mad > 0:
            keep = np.abs(values - median) <= self.significance * 1.4826 * mad
        else:
            keep = np.ones(values.size, dtype=bool)
        if not keep.any():
            return median
        # Recency weighting: newer retained samples dominate so that the
        # estimate tracks phase changes instead of lagging a full window.
        weights = self.recency ** np.arange(values.size, dtype=float)
        weights = weights * keep
        return float(np.sum(values * weights) / np.sum(weights))

    def correct(self, sampled: SampledTrace) -> EstimateTrace:
        """Apply sliding-window outlier rejection over a sampled trace."""
        events = sampled.events
        estimates = EstimateTrace(method=self.name)
        history: Dict[str, Deque[float]] = {event: deque(maxlen=self.window) for event in events}

        for record in sampled.records:
            tick_estimates: Dict[str, float] = {}
            for event in events:
                if event in record.samples:
                    history[event].append(record.total(event))
                if history[event]:
                    tick_estimates[event] = self._robust_estimate(history[event])
                else:
                    tick_estimates[event] = 0.0
            estimates.append(tick_estimates)
        return estimates
