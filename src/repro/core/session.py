"""High-level monitoring sessions.

A :class:`PerfSession` wires together everything a user of the library needs
to evaluate one correction method on one workload: the event catalog, the
schedule (overlap-aware for BayesPerf, round-robin otherwise), the machine
model, the multiplexed sampler, the polled reference, the correction method
and the error metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.baselines import build_baseline
from repro.core.engine import BayesPerfEngine
from repro.fg.mcmc import ChainTrace
from repro.fg.registry import baseline_names
from repro.events.catalog import EventCatalog
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.metrics.error import ErrorReport, trace_error
from repro.pmu.noise import NoiseModel
from repro.pmu.sampling import MultiplexedSampler, PolledTrace, PollingReader, SampledTrace
from repro.pmu.traces import EstimateTrace
from repro.scheduling.cache import cached_schedule
from repro.scheduling.schedule import Schedule
from repro.uarch.machine import Machine, MachineConfig, MachineTrace
from repro.uarch.profile import WorkloadSpec
from repro.workloads.registry import get_workload

#: The engine's method name; every other method is a registered baseline.
_BAYESPERF = "bayesperf"


@dataclass
class SessionResult:
    """Everything produced by one monitoring session run."""

    workload: str
    arch: str
    method: str
    schedule: Schedule
    machine_trace: MachineTrace
    polled: PolledTrace
    sampled: SampledTrace
    estimates: EstimateTrace
    error: ErrorReport
    derived_error: Optional[ErrorReport] = None

    @property
    def mean_error_percent(self) -> float:
        """Aggregate relative error (percent) across evaluated events."""
        return self.error.mean_error_percent


class PerfSession:
    """One configured monitoring pipeline, reusable across workloads.

    Parameters
    ----------
    arch:
        Microarchitecture name understood by :func:`repro.events.catalog_for`.
    method:
        Correction method: ``"bayesperf"``, or a baseline registered in
        :mod:`repro.fg.registry` (``"linux"``, ``"counterminer"``,
        ``"wm+pin"``), which runs on the round-robin schedule.
    metrics:
        Derived metrics to monitor; their input events are collected.  The
        default is the catalog's first ten derived metrics (as in §6.2).
    events:
        Explicit event list overriding ``metrics``.
    machine_config, noise:
        Machine and noise models.
    samples_per_tick:
        PMI sub-samples per measured event per quantum.
    reference:
        ``"same-run"`` polls the reference on the same simulated run
        (isolating multiplexing error); ``"separate-run"`` polls a second run
        with a different seed, as on real hardware.
    read_interval_ticks:
        Number of multiplexing quanta between two userspace reads; errors are
        evaluated at this granularity and the Linux baseline scales its
        counts over the same interval.
    estimator:
        Optional :class:`~repro.api.EstimatorSpec` selecting a registered
        moment estimator and its sampling effort — the preferred way to
        configure BayesPerf tilted-moment computation (estimator names
        resolve through the :mod:`repro.fg.registry`; explicit
        ``engine_kwargs`` entries win).  Its ``use_compiled_kernel=False``
        runs each estimator's reference twin instead of the vectorized array
        path — the A/B ablation the differential tests and benchmarks use.
    recorder:
        Optional :class:`~repro.fg.mcmc.ChainTrace` (or
        :class:`~repro.api.RecorderSpec`) the engine appends one record per
        (slice, EP iteration, site) chain to when the ``"mcmc"`` estimator
        runs — the capture side of the accelerator co-simulation (see
        ``examples/accelerator_cosim.py``).
    engine_kwargs:
        Extra keyword arguments forwarded to :class:`BayesPerfEngine`; an
        entry here wins over the ``estimator`` spec's.
    """

    def __init__(
        self,
        arch: str = "x86",
        *,
        method: str = "bayesperf",
        metrics: Optional[Sequence[str]] = None,
        events: Optional[Sequence[str]] = None,
        machine_config: Optional[MachineConfig] = None,
        noise: Optional[NoiseModel] = None,
        samples_per_tick: int = 4,
        reference: str = "same-run",
        read_interval_ticks: int = 8,
        estimator=None,
        recorder=None,
        engine_kwargs: Optional[Dict] = None,
    ) -> None:
        if method != _BAYESPERF and method not in baseline_names():
            raise ValueError(
                f"unknown method {method!r}; expected {_BAYESPERF!r} or a "
                f"registered baseline: {', '.join(baseline_names())}"
            )
        if reference not in ("same-run", "separate-run"):
            raise ValueError("reference must be 'same-run' or 'separate-run'")
        if read_interval_ticks <= 0:
            raise ValueError("read_interval_ticks must be positive")
        self.read_interval_ticks = read_interval_ticks
        self.arch = arch
        self.catalog: EventCatalog = catalog_for(arch)
        self.method = method
        self.reference = reference
        self.noise = noise if noise is not None else NoiseModel()
        self.samples_per_tick = samples_per_tick
        self.machine_config = machine_config if machine_config is not None else MachineConfig(
            name=self.catalog.name
        )
        self.engine_kwargs = dict(engine_kwargs) if engine_kwargs else {}
        if estimator is not None:
            # An EstimatorSpec (anything exposing engine_kwargs()): resolved
            # through the fg registry; explicit engine_kwargs entries win.
            for key, value in estimator.engine_kwargs().items():
                self.engine_kwargs.setdefault(key, value)
        if recorder is not None:
            if isinstance(recorder, ChainTrace):
                trace = recorder
            else:  # a RecorderSpec
                if recorder.sink is not None:
                    raise ValueError(
                        "PerfSession does not stream chain records; a "
                        "RecorderSpec with a sink needs the streaming "
                        "pipeline (repro.api.Pipeline.stream)"
                    )
                trace = recorder.build()
            self.engine_kwargs.setdefault("chain_recorder", trace)

        if events is not None:
            self.events: Tuple[str, ...] = tuple(events)
        elif metrics is not None:
            self.events = self.catalog.events_for_derived(tuple(metrics))
        else:
            # Default: the standard profiling set (the counters behind the
            # first ten derived metrics plus their relation-completing events).
            self.events = standard_profiling_events(self.catalog)

        self.schedule = self._build_schedule()

    # -- construction -------------------------------------------------------

    def _build_schedule(self) -> Schedule:
        kind = "overlap" if self.method == _BAYESPERF else "round-robin"
        return cached_schedule(self.catalog, self.events, kind=kind)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        workload: Union[str, WorkloadSpec],
        *,
        n_ticks: Optional[int] = None,
        seed: int = 0,
    ) -> SessionResult:
        """Run the full pipeline on one workload and return all artefacts."""
        spec = get_workload(workload) if isinstance(workload, str) else workload
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(
                f"workload {getattr(spec, 'name', spec)!r} is not a simulatable "
                "WorkloadSpec (recorded traces replay through repro.fleet, not "
                "through PerfSession)"
            )
        ticks = n_ticks if n_ticks is not None else spec.total_ticks

        machine = Machine(self.machine_config, spec, seed=seed)
        machine_trace = machine.run(ticks)

        sampler = MultiplexedSampler(
            self.catalog,
            self.schedule,
            noise=self.noise,
            samples_per_tick=self.samples_per_tick,
            seed=seed + 1,
        )
        sampled = sampler.sample(machine_trace)

        if self.reference == "same-run":
            reference_trace = machine_trace
        else:
            reference_machine = Machine(self.machine_config, spec, seed=seed + 9973)
            reference_trace = reference_machine.run(ticks)
        polled_events = tuple(sampled.events)
        reader = PollingReader(self.catalog, polled_events, noise=self.noise, seed=seed + 2)
        polled = reader.read(reference_trace)

        if self.method == _BAYESPERF:
            corrector = BayesPerfEngine(self.catalog, self.events, **self.engine_kwargs)
        else:
            corrector = build_baseline(
                self.method, self.catalog, read_interval_ticks=self.read_interval_ticks
            )
        estimates = corrector.correct(sampled)

        # Every method needs one schedule rotation to see each event at least
        # once; those warm-up ticks are excluded from the comparison.  Errors
        # are evaluated at read-interval granularity (what a monitoring tool
        # actually consumes), per the session's read_interval_ticks.
        warmup = min(self.schedule.rotation_ticks, max(len(estimates) - 1, 0))
        error = trace_error(
            estimates,
            polled,
            events=self.events,
            skip_ticks=warmup,
            aggregate_ticks=self.read_interval_ticks,
        )
        derived_error = self._derived_error(estimates, polled, skip_ticks=warmup)

        return SessionResult(
            workload=spec.name,
            arch=self.arch,
            method=self.method,
            schedule=self.schedule,
            machine_trace=machine_trace,
            polled=polled,
            sampled=sampled,
            estimates=estimates,
            error=error,
            derived_error=derived_error,
        )

    def _derived_error(
        self, estimates: EstimateTrace, polled: PolledTrace, *, skip_ticks: int = 0
    ) -> Optional[ErrorReport]:
        """Error on the derived metrics computable from the monitored events."""
        metric_names = [
            metric.name
            for metric in self.catalog.derived
            if all(event in self.events or event in polled.events for event in metric.inputs)
        ]
        if not metric_names:
            return None
        estimated = EstimateTrace(method=f"{estimates.method}-derived")
        reference = PolledTrace(catalog_name=polled.catalog_name, events=tuple(metric_names))
        n_ticks = min(len(estimates), len(polled))
        for tick in range(n_ticks):
            estimate_values = estimates.at(tick)
            polled_values = polled.at(tick)
            estimated.append(
                {
                    name: self.catalog.derived.get(name).compute(estimate_values)
                    for name in metric_names
                    if all(event in estimate_values for event in self.catalog.derived.get(name).inputs)
                }
            )
            reference.values.append(
                {
                    name: self.catalog.derived.get(name).compute(polled_values)
                    for name in metric_names
                    if all(event in polled_values for event in self.catalog.derived.get(name).inputs)
                }
            )
        # Ratio metrics blow up when a naive method estimates a denominator
        # near zero; cap the per-point error so the summary stays readable.
        report = trace_error(
            estimated, reference, events=metric_names, skip_ticks=skip_ticks, cap=10.0
        )
        return report
