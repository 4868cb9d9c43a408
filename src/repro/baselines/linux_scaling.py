"""Linux's built-in multiplexing correction.

The kernel scales each multiplexed count by ``time_total / time_enabled``
(§2 and §4 "Formalism").  A monitoring tool reads the scaled value
periodically (once per *read interval*, which spans several multiplexing
quanta) and differences consecutive reads, so the count attributed to a read
interval is the count observed while the event was scheduled, extrapolated
over the whole interval.  When the event was not scheduled at all during the
interval the previous rate is carried forward.  That extrapolation is the
dominant error source when the workload has phases or bursts, and it gets
worse as more events share the counters (fewer enabled quanta per interval).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fg.registry import register_estimator
from repro.pmu.sampling import SampledTrace
from repro.pmu.traces import EstimateTrace

#: Supported emulation modes.
MODES = ("scaling", "hold", "cumulative")


@register_estimator(
    "linux",
    baseline=True,
    description="Linux t_enabled/t_running scaling (baseline correction)",
)
class LinuxScaling:
    """Per-tick estimates using the kernel's time-based scaling.

    Parameters
    ----------
    mode:
        ``"scaling"`` (default) models a reader that polls the scaled counter
        once per ``read_interval_ticks`` quanta: within an interval the
        estimate is the average rate observed over the quanta in which the
        event was scheduled, and intervals with no enabled quanta carry the
        previous interval's rate forward.
        ``"hold"`` holds the most recently measured quantum total.
        ``"cumulative"`` differences the scaled cumulative count from the
        start of the run (attributing the historical average rate to
        unmeasured quanta).
    read_interval_ticks:
        Number of multiplexing quanta between two userspace reads of the
        scaled counter (only used by ``"scaling"``).
    """

    def __init__(self, mode: str = "scaling", *, read_interval_ticks: int = 8) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if read_interval_ticks <= 0:
            raise ValueError("read_interval_ticks must be positive")
        self.mode = mode
        self.read_interval_ticks = read_interval_ticks
        self.name = "linux"

    # -- mode implementations ---------------------------------------------------

    def _correct_scaling(self, sampled: SampledTrace) -> EstimateTrace:
        events = sampled.events
        estimates = EstimateTrace(method=self.name)
        interval_observed: Dict[str, float] = {event: 0.0 for event in events}
        interval_enabled: Dict[str, int] = {event: 0 for event in events}
        carried_rate: Dict[str, float] = {event: 0.0 for event in events}

        for tick_index, record in enumerate(sampled.records):
            if tick_index % self.read_interval_ticks == 0 and tick_index > 0:
                # A userspace read happened: fold the interval into the carried
                # rate and start a new interval.
                for event in events:
                    if interval_enabled[event] > 0:
                        carried_rate[event] = interval_observed[event] / interval_enabled[event]
                    interval_observed[event] = 0.0
                    interval_enabled[event] = 0

            tick_estimates: Dict[str, float] = {}
            for event in events:
                if event in record.samples:
                    interval_observed[event] += record.total(event)
                    interval_enabled[event] += 1
                if interval_enabled[event] > 0:
                    # Scaling: observed count extrapolated over the interval,
                    # expressed as a per-quantum rate.
                    tick_estimates[event] = interval_observed[event] / interval_enabled[event]
                else:
                    tick_estimates[event] = carried_rate[event]
            estimates.append(tick_estimates)
        return estimates

    def _correct_hold(self, sampled: SampledTrace) -> EstimateTrace:
        events = sampled.events
        estimates = EstimateTrace(method=self.name)
        last_measured: Dict[str, float] = {event: 0.0 for event in events}
        for record in sampled.records:
            tick_estimates: Dict[str, float] = {}
            for event in events:
                if event in record.samples:
                    last_measured[event] = record.total(event)
                tick_estimates[event] = last_measured[event]
            estimates.append(tick_estimates)
        return estimates

    def _correct_cumulative(self, sampled: SampledTrace) -> EstimateTrace:
        events = sampled.events
        estimates = EstimateTrace(method=self.name)
        cumulative: Dict[str, float] = {event: 0.0 for event in events}
        enabled: Dict[str, int] = {event: 0 for event in events}
        previous_scaled: Dict[str, float] = {event: 0.0 for event in events}
        for tick_index, record in enumerate(sampled.records):
            elapsed = tick_index + 1
            tick_estimates: Dict[str, float] = {}
            for event in events:
                if event in record.samples:
                    cumulative[event] += record.total(event)
                    enabled[event] += 1
                scaled = cumulative[event] * elapsed / enabled[event] if enabled[event] else 0.0
                tick_estimates[event] = max(scaled - previous_scaled[event], 0.0)
                previous_scaled[event] = scaled
            estimates.append(tick_estimates)
        return estimates

    # -- public API ----------------------------------------------------------------

    def correct(self, sampled: SampledTrace) -> EstimateTrace:
        """Apply the configured scaling correction over a sampled trace."""
        if self.mode == "scaling":
            return self._correct_scaling(sampled)
        if self.mode == "hold":
            return self._correct_hold(sampled)
        return self._correct_cumulative(sampled)
