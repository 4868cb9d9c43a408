"""Counter reading: PMI-driven sampling with multiplexing, and polling.

Two reading modes mirror §2 of the paper:

* **Polling** reads a small set of counters continuously — the paper's
  baseline ("ground truth" up to natural run-to-run variation).
* **Sampling** multiplexes many events over few registers: each scheduler
  quantum only the active configuration's events produce samples, and the
  kernel's ``t_enabled/t_running`` bookkeeping is recorded so that correction
  methods can apply Linux-style scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.events.catalog import EventCatalog
from repro.pmu.configuration import CounterConfiguration
from repro.pmu.counters import PMURegisterFile
from repro.pmu.noise import NoiseModel
from repro.uarch.machine import MachineTrace


@dataclass
class SamplingRecord:
    """Samples collected during one scheduler quantum (one tick)."""

    tick: int
    configuration: CounterConfiguration
    samples: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Fraction of the quantum each event actually spent counting (perf's
    #: ``t_running / t_enabled`` bookkeeping), for events that were
    #: multiplexed *within* the quantum — real-trace ingestion fills this.
    #: Absent entries mean fully counted; the simulator's quantum-level
    #: multiplexing never partially counts, so it leaves the dict empty and
    #: the engine's arithmetic is unchanged for synthetic streams.
    mux_fraction: Dict[str, float] = field(default_factory=dict)

    @property
    def measured_events(self) -> Tuple[str, ...]:
        return tuple(self.samples)

    def total(self, event: str) -> float:
        """Sum of the sub-samples for one event in this quantum."""
        return float(np.sum(self.samples[event]))


@dataclass
class SampledTrace:
    """The full output of a multiplexed sampling run."""

    catalog_name: str
    events: Tuple[str, ...]
    records: List[SamplingRecord] = field(default_factory=list)
    #: Per-event count of quanta in which the event was measured.
    enabled_ticks: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def record(self, tick: int) -> SamplingRecord:
        return self.records[tick]

    def enabled_fraction(self, event: str) -> float:
        """Fraction of quanta during which *event* was scheduled on a counter."""
        if not self.records:
            return 0.0
        return self.enabled_ticks.get(event, 0) / len(self.records)


@dataclass
class PolledTrace:
    """Per-tick polled readings for a set of events."""

    catalog_name: str
    events: Tuple[str, ...]
    values: List[Dict[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)

    def series(self, event: str) -> np.ndarray:
        return np.array([tick_values[event] for tick_values in self.values], dtype=float)

    def at(self, tick: int) -> Dict[str, float]:
        return dict(self.values[tick])


class PollingReader:
    """Reads the true per-tick counts of a set of events with polling noise.

    The paper's error baseline polls four events at a time over many runs;
    the simulator can poll the full set in one run, which plays the same role
    (a reference trace unaffected by multiplexing).
    """

    def __init__(
        self,
        catalog: EventCatalog,
        events: Sequence[str],
        *,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.catalog = catalog
        self.events = tuple(events)
        if not self.events:
            raise ValueError("polling requires at least one event")
        self.noise = noise if noise is not None else NoiseModel()
        self._rng = np.random.default_rng(seed)

    def read(self, trace: MachineTrace) -> PolledTrace:
        """Produce the polled trace for a machine run."""
        polled = PolledTrace(catalog_name=self.catalog.name, events=self.events)
        for tick_values in trace.ticks:
            truth = self.catalog.ground_truth_for(self.events, tick_values)
            polled.values.append(
                {
                    name: self.noise.perturb_polled(value, self._rng)
                    for name, value in truth.items()
                }
            )
        return polled


class MultiplexedSampler:
    """Samples events through a rotating schedule of counter configurations.

    Parameters
    ----------
    catalog:
        Event catalog (provides ground-truth translation and fixed events).
    schedule:
        Any object exposing ``config_at(tick) -> CounterConfiguration`` and an
        ``events`` attribute listing every monitored event
        (:class:`repro.scheduling.Schedule` satisfies this).  Every
        configuration must fit the catalog's programmable counters:
        :meth:`sample` range-checks each distinct one once and raises
        ``ValueError`` for one that does not fit.
    noise:
        Per-sample noise model.
    samples_per_tick:
        Number of PMI-driven sub-samples collected for each measured event in
        one quantum.
    include_fixed:
        Whether the catalog's fixed events are (as on real hardware) measured
        in every quantum regardless of the configuration.
    """

    def __init__(
        self,
        catalog: EventCatalog,
        schedule,
        *,
        noise: Optional[NoiseModel] = None,
        samples_per_tick: int = 4,
        include_fixed: bool = True,
        seed: int = 0,
    ) -> None:
        if samples_per_tick <= 0:
            raise ValueError("samples_per_tick must be positive")
        self.catalog = catalog
        self.schedule = schedule
        self.noise = noise if noise is not None else NoiseModel()
        self.samples_per_tick = samples_per_tick
        self.include_fixed = include_fixed
        self._rng = np.random.default_rng(seed)

    def _sample_event(self, true_value: float) -> np.ndarray:
        """Split a quantum's true count into noisy PMI sub-samples."""
        # PMI thresholds divide the quantum roughly evenly; jitter the split
        # with Dirichlet(50, ..., 50) weights.  For alpha >= 0.1 numpy's
        # ``dirichlet`` is these gamma draws summed left to right and scaled
        # by ``1 / sum``: the same draws and bits, without its per-call cost.
        gammas = self._rng.standard_gamma(50.0, self.samples_per_tick).tolist()
        total = 0.0
        for gamma in gammas:
            total = total + gamma
        inverse = 1.0 / total
        return np.array(
            self.noise.perturb_samples(
                [true_value * (gamma * inverse) for gamma in gammas], self._rng
            ),
            dtype=float,
        )

    def sample(self, trace: MachineTrace) -> SampledTrace:
        """Run the multiplexed sampling process over a machine trace."""
        monitored = tuple(self.schedule.events)
        fixed_names = tuple(spec.name for spec in self.catalog.fixed_events)
        all_events = monitored + tuple(n for n in fixed_names if n not in monitored)
        sampled = SampledTrace(catalog_name=self.catalog.name, events=all_events)
        # Programming a register file range-checks a configuration against
        # the counters; a rotation repeats its configuration objects, so
        # each is checked once (the records keep every one alive, so no id
        # is reused).
        register_file = PMURegisterFile(self.catalog)
        checked = set()
        for tick, tick_values in enumerate(trace.ticks):
            configuration = self.schedule.config_at(tick)
            if id(configuration) not in checked:
                register_file.program(configuration)
                checked.add(id(configuration))
            measured = list(configuration.events)
            if self.include_fixed:
                measured.extend(n for n in fixed_names if n not in measured)
            truth = self.catalog.ground_truth_for(measured, tick_values)
            record = SamplingRecord(tick=tick, configuration=configuration)
            for event in measured:
                record.samples[event] = self._sample_event(truth[event])
                sampled.enabled_ticks[event] = sampled.enabled_ticks.get(event, 0) + 1
            sampled.records.append(record)
        return sampled
