"""Frozen run specifications: declare an estimation run, then execute it.

The specs are plain frozen dataclasses — hashable, comparable, printable —
that describe *what* to run without touching *how*:

* :class:`EstimatorSpec` — which registered moment estimator to use and its
  sampling effort.  Resolved against the :mod:`repro.fg.registry`, so the
  set of valid names is exactly the set of self-registered estimators.
* :class:`RecorderSpec` — chain-trace capture: record every per-site MCMC
  chain, optionally streaming the records to a tracefile sink as the run
  progresses (bounded recorder memory).
* :class:`ObserverSpec` — observability: OTel-style span export, the
  metrics summary export, per-slice estimate records in the trace sink, and
  the end-of-run chain-health (mixing) analysis.  Off by default.
* :class:`HostSpec` — one fleet host: a synthetic workload simulation or a
  recorded trace replay.
* :class:`SchedulerSpec` — the multiplexing policy rotating events across
  the PMU counters (overlap / round-robin / rl / invariant-aware), resolved
  through the :mod:`repro.scheduling` policy table.
* :class:`ContentionSpec` — PCIe interconnect contention applied to every
  synthetic workload (:func:`repro.workloads.contended_workload`).
* :class:`RunSpec` — the whole run: architecture, monitored events, hosts,
  estimator, scheduler, contention, baseline comparators, recorder,
  observer and fleet sizing.

``Pipeline.from_spec(spec)`` (:mod:`repro.api.pipeline`) turns a spec into
an executable pipeline — the one way to build a fleet run.  The single-host
``PerfSession`` consumes :class:`EstimatorSpec` / :class:`RecorderSpec`
too, so estimator resolution has one implementation everywhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.fg.mcmc import ChainTrace
from repro.fg.registry import get_estimator
from repro.fleet.events import EventDispatcher
from repro.fleet.faults import FaultPolicySpec
from repro.obs.observer import Observer

__all__ = [
    "CheckpointSpec",
    "ContentionSpec",
    "EstimatorSpec",
    "FaultPolicySpec",
    "HostSpec",
    "ObserverSpec",
    "RecorderSpec",
    "RunSpec",
    "SchedulerSpec",
]


def _frozen_tuple(spec, name: str) -> None:
    """Normalise a frozen dataclass's sequence field to a tuple in place.

    Mappings become item tuples, so the pair-tuple fields
    (``RecorderSpec.params``, ``RunSpec.engine_overrides``) accept the
    natural dict spelling too.
    """
    value = getattr(spec, name)
    if isinstance(value, Mapping):
        object.__setattr__(spec, name, tuple(value.items()))
    elif value is not None and not isinstance(value, tuple):
        object.__setattr__(spec, name, tuple(value))


@dataclass(frozen=True)
class EstimatorSpec:
    """One registered moment estimator plus its sampling effort.

    ``name`` must be registered in :mod:`repro.fg.registry` ("analytic",
    "mcmc", plus anything downstream code registers); the
    remaining fields default to ``None`` meaning "the engine's default".
    ``use_compiled_kernel=False`` selects the estimator's object-walking
    reference twin — the differential-testing A/B switch.
    The canonical analytic layout needs no field: the engine solves
    every round on it, whatever its signatures (:mod:`repro.fg.megabatch`).
    """

    name: str = "analytic"
    samples: Optional[int] = None
    burn_in: Optional[int] = None
    adapt: Optional[bool] = None
    ep_iterations: Optional[int] = None
    use_compiled_kernel: bool = True

    def engine_kwargs(self) -> Dict:
        """Resolve to :class:`~repro.core.engine.BayesPerfEngine` kwargs.

        Raises ``ValueError`` (listing the registered names) for an unknown
        estimator — validation happens at spec-resolution time, before any
        engine is built.  Baseline correction methods (registry entries with
        ``baseline=True``) are rejected here too: they consume whole sampled
        traces through the scenario-grid comparison (``RunSpec.baselines``),
        not slices through the engine.
        """
        entry = get_estimator(self.name)
        if entry.baseline:
            raise ValueError(
                f"{self.name!r} is a baseline correction method, not a moment "
                f"estimator; list it in RunSpec.baselines to compare it "
                f"against the engine estimator"
            )
        kwargs: Dict = {
            "moment_estimator": self.name,
            "use_compiled_kernel": self.use_compiled_kernel,
        }
        if self.samples is not None:
            kwargs["mcmc_samples"] = self.samples
        if self.burn_in is not None:
            kwargs["mcmc_burn_in"] = self.burn_in
        if self.adapt is not None:
            kwargs["mcmc_adapt"] = self.adapt
        if self.ep_iterations is not None:
            kwargs["ep_max_iterations"] = self.ep_iterations
        return kwargs


@dataclass(frozen=True)
class RecorderSpec:
    """Chain-trace capture for a run.

    A bare ``RecorderSpec()`` collects every per-site chain in memory (the
    historical ``chain_recorder=`` behaviour).  With ``sink`` set, streaming
    executions flush the recorder to that tracefile path after every
    inference round, so the in-memory buffer stays bounded by one round.
    ``params`` is stamped into the trace header's ``chain_params``.
    """

    sink: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.sink is not None and not isinstance(self.sink, str):
            object.__setattr__(self, "sink", str(self.sink))
        _frozen_tuple(self, "params")

    def build(self) -> ChainTrace:
        """Materialise the recorder every engine of the run will share."""
        return ChainTrace(params=dict(self.params))


@dataclass(frozen=True)
class ObserverSpec:
    """Observability for a run; everything defaults off.

    ``trace`` names a JSONL file that receives one OTLP-shaped dict per
    finished span (the run → round → slice → kernel hierarchy).
    ``metrics`` names where the run's metrics summary goes: ``"console"``
    (or ``"-"``) prints it, anything else is a JSON file path.
    ``estimates=True`` streams one ``"estimate"`` record per completed slice
    into the recorder's tracefile sink (requires a :class:`RecorderSpec`
    with ``sink`` set), making the tracefile a complete replayable run log.
    With an observer present and chains recorded, the fleet-wide
    chain-health analysis runs at end of run and emits its findings as
    events and spans.
    """

    trace: Optional[str] = None
    metrics: Optional[str] = None
    estimates: bool = False

    def __post_init__(self) -> None:
        for name in ("trace", "metrics"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                object.__setattr__(self, name, str(value))

    def build(self, dispatcher: EventDispatcher) -> Observer:
        """Materialise the run's :class:`~repro.obs.Observer` on *dispatcher*."""
        return Observer.from_options(
            dispatcher,
            trace=self.trace,
            metrics=self.metrics,
            estimates=self.estimates,
        )


@dataclass(frozen=True)
class CheckpointSpec:
    """Durable write-ahead logging for a run (crash-resume).

    ``path`` names the WAL tracefile (format version 4): every completed
    slice's estimate streams into it, and every ``every`` inference rounds
    each host's engine snapshot + ingest position is checkpointed and sealed
    with a commit marker (fsynced by default — turn ``fsync`` off only for
    benchmarks).  A run killed at any point resumes from the file with
    ``Pipeline.resume(path)`` to final estimates bit-identical with an
    uninterrupted run.
    """

    path: str
    every: int = 1
    fsync: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.path, str):
            object.__setattr__(self, "path", str(self.path))
        if self.every < 1:
            raise ValueError("every must be >= 1")


@dataclass(frozen=True)
class HostSpec:
    """One fleet host: a synthetic workload, a trace replay, or a real
    perf capture.

    ``trace`` (a tracefile path) makes this a replay host, in which case
    the synthetic knobs (``seed``/``n_ticks``/``arch``/``events``) are
    rejected — the recorded stream defines them.

    ``perf`` (a perf capture path) makes this a real-trace host ingested
    through :mod:`repro.perfio`: ``format`` names the capture format
    (``"stat-csv"``/``"script"``/``"jsonl"``, or ``"auto"`` to sniff) and
    ``on_unknown`` the schema mapper's unknown-event policy (``"raise"``
    or ``"skip"``).  The captured stream defines the host, so the
    synthetic knobs (``seed``/``n_ticks``/``workload``) and ``trace`` are
    rejected — mirroring the replay-host rule — while ``arch`` (catalog
    selection for schema mapping) and ``events`` (monitored subset) stay
    meaningful.

    ``n_ticks`` must be positive and ``seed`` non-negative when set; both
    are checked here, before a run opens any file.
    """

    workload: str = "steady"
    seed: Optional[int] = None
    n_ticks: Optional[int] = None
    arch: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None
    host_id: Optional[str] = None
    trace: Optional[str] = None
    perf: Optional[str] = None
    format: str = "auto"
    on_unknown: str = "raise"

    def __post_init__(self) -> None:
        _frozen_tuple(self, "events")
        if self.n_ticks is not None and self.n_ticks < 1:
            raise ValueError(f"n_ticks must be >= 1, got {self.n_ticks!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.trace is not None and not isinstance(self.trace, str):
            object.__setattr__(self, "trace", str(self.trace))
        if self.perf is not None and not isinstance(self.perf, str):
            object.__setattr__(self, "perf", str(self.perf))
        if self.perf is not None:
            from repro.perfio.mapping import UNKNOWN_POLICIES
            from repro.perfio.model import PERF_FORMATS

            if self.trace is not None:
                raise ValueError(
                    "HostSpec.perf and HostSpec.trace are mutually exclusive: "
                    "a host replays either a perf capture or a recorded "
                    "tracefile; drop one of the two fields"
                )
            overridden = [
                name
                for name, value in (
                    ("seed", self.seed),
                    ("n_ticks", self.n_ticks),
                    ("workload", None if self.workload == "steady" else self.workload),
                )
                if value is not None
            ]
            if overridden:
                raise ValueError(
                    f"real-trace host (perf={self.perf!r}) streams its captured "
                    f"records; {', '.join(overridden)} cannot be overridden — "
                    f"drop the field(s), or drop perf= to simulate a synthetic "
                    f"host instead"
                )
            if self.format not in ("auto",) + PERF_FORMATS:
                raise ValueError(
                    f"unknown perf capture format {self.format!r}; expected "
                    f"'auto' or one of {PERF_FORMATS}"
                )
            if self.on_unknown not in UNKNOWN_POLICIES:
                raise ValueError(
                    f"unknown on_unknown policy {self.on_unknown!r}; expected "
                    f"one of {UNKNOWN_POLICIES}"
                )
        else:
            if self.trace is not None:
                overridden = [
                    name
                    for name in ("seed", "n_ticks", "arch", "events")
                    if getattr(self, name) is not None
                ]
                if overridden:
                    raise ValueError(
                        f"replay host (trace={self.trace!r}) streams its "
                        f"recorded records; {', '.join(overridden)} cannot be "
                        f"overridden — drop the field(s), or drop trace= to "
                        f"simulate a synthetic host instead"
                    )
            if self.format != "auto":
                raise ValueError(
                    "HostSpec.format applies to real-trace hosts only; set "
                    "HostSpec.perf to the capture path (or drop format)"
                )
            if self.on_unknown != "raise":
                raise ValueError(
                    "HostSpec.on_unknown applies to real-trace hosts only; "
                    "set HostSpec.perf to the capture path (or drop "
                    "on_unknown)"
                )


@dataclass(frozen=True)
class SchedulerSpec:
    """The multiplexing policy rotating monitored events across counters.

    ``policy`` selects how synthetic hosts group events into counter
    configurations (:data:`repro.scheduling.SCHEDULE_KINDS`):

    * ``"overlap"`` — the paper's overlap-aware scheduler (the default when
      no ``SchedulerSpec`` is given, so existing runs are bit-identical);
    * ``"round-robin"`` — the Linux perf rotation;
    * ``"rl"`` — the :mod:`repro.mlsched` actor-critic policy (trained
      in-process, greedy rollout; deterministic for a fixed ``seed``);
    * ``"invariant-aware"`` — events grouped only along
      :mod:`repro.invariants` relations, so every configuration is jointly
      constrained.

    ``seed`` feeds the ``"rl"`` policy's agent; other policies ignore it.
    """

    policy: str = "overlap"
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.scheduling import SCHEDULE_KINDS

        if self.policy not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown scheduler policy {self.policy!r}; "
                f"expected one of {SCHEDULE_KINDS}"
            )


@dataclass(frozen=True)
class ContentionSpec:
    """PCIe interconnect contention applied to every synthetic workload.

    ``background`` accelerator streams (0-5: the training GPU, then the
    socket-1 worker GPUs) share the monitored host's DMA path through the
    case-study topology (:mod:`repro.interconnect`); the resulting max-min
    fair slowdown throttles each host's workload via
    :func:`repro.workloads.contended_workload` before the machine model
    runs, so contention changes the *trace*, deterministically, not the
    estimator.  ``size_mb`` sizes every transfer (slowdown is
    size-invariant in the fair-share model but recorded for reports).
    """

    background: int = 2
    size_mb: float = 64.0

    def __post_init__(self) -> None:
        from repro.workloads.contention import contention_slowdown

        # Validates the ranges and proves the topology can price this spec.
        contention_slowdown(background=self.background, size_mb=self.size_mb)

    def slowdown(self) -> float:
        """The fractional DMA slowdown this spec resolves to (pure)."""
        from repro.workloads.contention import contention_slowdown

        return contention_slowdown(background=self.background, size_mb=self.size_mb)


@dataclass(frozen=True)
class RunSpec:
    """A complete declarative estimation run.

    The event selection mirrors ``PerfSession``: explicit ``events`` win
    over ``metrics`` (derived-metric selection), and with neither the
    standard profiling set is monitored.  Hosts are sharded across
    ``n_workers`` workers that share one engine per (arch, event-set) key;
    ``n_workers``, ``batch_size``, ``buffer_capacity``, ``pump_records``
    (when set) and ``samples_per_tick`` must be positive, and are checked
    here, before a run opens any file.  ``engine_overrides``
    is the escape hatch for engine kwargs the spec does not model
    (key/value pairs, applied last).  ``fault_policy`` opts the workers
    into retry/timeout/quarantine enforcement
    (:class:`~repro.fleet.faults.FaultPolicySpec`), ``checkpoint`` opts the
    run into durable write-ahead logging (:class:`CheckpointSpec`); both
    default off, leaving the hot path untouched.

    The scenario-grid axes are spec fields too: ``scheduler``
    (:class:`SchedulerSpec`) picks the multiplexing policy for synthetic
    hosts, ``contention`` (:class:`ContentionSpec`) throttles their
    workloads with PCIe contention, and ``baselines`` names registered
    baseline correction methods (``repro.fg.registry`` entries with
    ``baseline=True``, e.g. ``"linux"``/``"counterminer"``/``"wm+pin"``)
    to fan the same sampled streams through — the run then carries a
    :class:`~repro.api.comparison.ComparisonReport` scoring BayesPerf
    against each baseline on ground truth.  All three default to the seed
    behaviour (overlap scheduling, no contention, no comparison).
    """

    arch: str = "x86"
    events: Optional[Tuple[str, ...]] = None
    metrics: Optional[Tuple[str, ...]] = None
    hosts: Tuple[HostSpec, ...] = ()
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    recorder: Optional[RecorderSpec] = None
    observer: Optional[ObserverSpec] = None
    n_workers: int = 4
    batch_size: int = 8
    buffer_capacity: int = 256
    pump_records: Optional[int] = None
    samples_per_tick: int = 4
    engine_overrides: Tuple[Tuple[str, object], ...] = ()
    fault_policy: Optional[FaultPolicySpec] = None
    checkpoint: Optional[CheckpointSpec] = None
    scheduler: Optional[SchedulerSpec] = None
    contention: Optional[ContentionSpec] = None
    baselines: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _frozen_tuple(self, "events")
        _frozen_tuple(self, "metrics")
        _frozen_tuple(self, "hosts")
        _frozen_tuple(self, "engine_overrides")
        _frozen_tuple(self, "baselines")
        for name in (
            "n_workers",
            "batch_size",
            "buffer_capacity",
            "pump_records",
            "samples_per_tick",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.baselines:
            import repro.baselines  # noqa: F401  (registers the baseline entries)
        for name in self.baselines:
            entry = get_estimator(name)
            if not entry.baseline:
                raise ValueError(
                    f"{name!r} is a moment estimator, not a baseline "
                    f"correction method; put it in RunSpec.estimator instead"
                )

    @classmethod
    def fleet(
        cls,
        n_hosts: int,
        workload: str = "steady",
        *,
        n_ticks: Optional[int] = None,
        seed: int = 0,
        **kwargs,
    ) -> "RunSpec":
        """Spec for a uniform synthetic fleet: *n_hosts* hosts of *workload*
        with consecutive seeds starting at *seed*."""
        hosts = tuple(
            HostSpec(workload=workload, seed=seed + index, n_ticks=n_ticks)
            for index in range(n_hosts)
        )
        return cls(hosts=hosts, **kwargs)

    def engine_kwargs(self) -> Dict:
        """The engine configuration this spec resolves to: the estimator's
        kwargs, with ``engine_overrides`` entries winning."""
        kwargs = self.estimator.engine_kwargs()
        kwargs.update(self.engine_overrides)
        return kwargs

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable form of the whole spec.

        The write-ahead log stamps this into its header so a crashed run's
        file alone suffices to rebuild and resume the pipeline
        (``RunSpec.from_dict`` is the exact inverse).  ``engine_overrides``
        values must be JSON-representable — runtime objects (e.g. a shared
        ``ChainTrace``) cannot ride along.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (JSON round-tripped).

        Top-level keys the spec no longer has are ignored, such as the
        ``mode`` of logs written while a serial mode still existed: its
        estimates equal the worker pool's, so such a log resumes on the pool.
        """
        data = dict(payload)
        recorder = None
        if data.get("recorder"):
            fields_ = dict(data["recorder"])
            fields_["params"] = tuple(
                (str(key), value) for key, value in fields_.get("params", ())
            )
            recorder = RecorderSpec(**fields_)
        estimator = dict(data.get("estimator") or {})
        # Logs written before mega-batching became automatic, or while the
        # kernel could split its lanes across threads, carry numerics-free
        # knobs that no longer exist: drop them.
        estimator.pop("megabatch", None)
        estimator.pop("kernel_exec", None)
        # Logs written before spans joined the event stream carry two
        # observer knobs that no longer exist (mixing always runs; spans
        # reach an attached EventLog): drop them too.
        observer = dict(data.get("observer") or {})
        observer.pop("mixing", None)
        observer.pop("spans_in_memory", None)
        return cls(
            arch=data.get("arch", "x86"),
            events=tuple(data["events"]) if data.get("events") is not None else None,
            metrics=tuple(data["metrics"]) if data.get("metrics") is not None else None,
            hosts=tuple(HostSpec(**dict(host)) for host in data.get("hosts", ())),
            estimator=EstimatorSpec(**estimator),
            recorder=recorder,
            observer=ObserverSpec(**observer) if data.get("observer") else None,
            n_workers=int(data.get("n_workers", 4)),
            batch_size=int(data.get("batch_size", 8)),
            buffer_capacity=int(data.get("buffer_capacity", 256)),
            pump_records=(
                int(data["pump_records"])
                if data.get("pump_records") is not None
                else None
            ),
            samples_per_tick=int(data.get("samples_per_tick", 4)),
            engine_overrides=tuple(
                (str(key), value) for key, value in data.get("engine_overrides", ())
            ),
            fault_policy=(
                FaultPolicySpec(**dict(data["fault_policy"]))
                if data.get("fault_policy")
                else None
            ),
            checkpoint=(
                CheckpointSpec(**dict(data["checkpoint"]))
                if data.get("checkpoint")
                else None
            ),
            scheduler=(
                SchedulerSpec(**dict(data["scheduler"]))
                if data.get("scheduler")
                else None
            ),
            contention=(
                ContentionSpec(**dict(data["contention"]))
                if data.get("contention")
                else None
            ),
            baselines=tuple(str(name) for name in data.get("baselines", ())),
        )
