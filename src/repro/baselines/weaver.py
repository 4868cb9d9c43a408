"""Weaver & McKee instruction-count correction with Pin ("WM+Pin").

The technique intercepts every dynamic instruction with Pin to obtain exact
instruction counts and uses them to correct core metrics such as IPC.  Two
consequences are modelled, both discussed in §6.2 of the paper:

* only instruction-count events are corrected — every other event keeps the
  plain Linux-scaled estimate; and
* the instrumentation itself perturbs the application (up to ~198x slowdown
  in the paper's benchmarks), which shows up as extra noise on the
  non-instruction events.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.events import semantics as sem
from repro.events.catalog import EventCatalog
from repro.baselines.linux_scaling import LinuxScaling
from repro.fg.registry import register_estimator
from repro.pmu.sampling import SampledTrace
from repro.pmu.traces import EstimateTrace


@register_estimator(
    "wm+pin",
    baseline=True,
    description="Weaver&McKee+Pin instruction-count correction (baseline)",
)
class WeaverPin:
    """Instruction-count-only correction with instrumentation perturbation.

    Parameters
    ----------
    catalog:
        Event catalog, used to find which events measure instruction counts.
    instrumentation_noise:
        Log-normal sigma of the perturbation Pin's instrumentation adds to
        non-instruction events.
    slowdown:
        Modelled application slowdown factor caused by instruction
        interception (the paper reports up to 198.2x); reported as metadata
        by the latency experiment.
    seed:
        Seed of the perturbation noise.
    """

    def __init__(
        self,
        catalog: EventCatalog,
        *,
        instrumentation_noise: float = 0.08,
        slowdown: float = 198.2,
        seed: int = 0,
    ) -> None:
        if instrumentation_noise < 0:
            raise ValueError("instrumentation_noise must be non-negative")
        if slowdown < 1:
            raise ValueError("slowdown must be at least 1x")
        self.catalog = catalog
        self.instrumentation_noise = instrumentation_noise
        self.slowdown = slowdown
        self.name = "wm+pin"
        self._rng = np.random.default_rng(seed)
        self._linux = LinuxScaling()

    def _instruction_events(self, events) -> set:
        names = set()
        for event in events:
            try:
                spec = self.catalog.get(event)
            except KeyError:
                continue
            if spec.semantic == sem.INSTRUCTIONS:
                names.add(event)
        return names

    def correct(self, sampled: SampledTrace, *, true_instruction_series=None) -> EstimateTrace:
        """Correct instruction counts; other events keep perturbed Linux estimates.

        Parameters
        ----------
        sampled:
            The multiplexed sample trace.
        true_instruction_series:
            Optional exact per-tick instruction counts (what Pin's
            interception provides).  When omitted, the best available
            measured totals are used instead.
        """
        linux_estimates = self._linux.correct(sampled)
        instruction_events = self._instruction_events(sampled.events)
        estimates = EstimateTrace(method=self.name)

        for tick, tick_values in enumerate(linux_estimates.estimates):
            corrected: Dict[str, float] = {}
            for event, value in tick_values.items():
                if event in instruction_events:
                    if true_instruction_series is not None:
                        corrected[event] = float(true_instruction_series[tick])
                    else:
                        record = sampled.record(tick)
                        corrected[event] = (
                            record.total(event) if event in record.samples else value
                        )
                else:
                    perturbation = (
                        float(np.exp(self._rng.normal(0.0, self.instrumentation_noise)))
                        if self.instrumentation_noise > 0
                        else 1.0
                    )
                    corrected[event] = value * perturbation
            estimates.append(corrected)
        return estimates
