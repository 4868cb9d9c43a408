"""A ``perf_event_open``-style streaming API (the "BayesPerf shim" of §5).

The shim exposes the same open/enable/read life-cycle a Linux perf user
expects, while internally running the whole BayesPerf pipeline: events are
registered, a schedule is built, the kernel side pushes PMI samples into a
ring buffer, the engine consumes them, and the monitoring application polls
posterior estimates from a second ring buffer — never waiting on inference
(the accelerator's role in the paper's design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import BayesPerfEngine
from repro.core.posterior import EventEstimate, PosteriorReport
from repro.core.ringbuffer import RingBuffer
from repro.events.registry import catalog_for
from repro.pmu.noise import NoiseModel
from repro.pmu.sampling import MultiplexedSampler, SamplingRecord
from repro.scheduling.overlap import BayesPerfScheduler
from repro.uarch.machine import Machine, MachineConfig, MachineTrace
from repro.uarch.profile import WorkloadSpec
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class PerfEventHandle:
    """File-descriptor-like handle returned by :meth:`BayesPerfShim.perf_event_open`."""

    fd: int
    event: str


class ShimError(RuntimeError):
    """Raised when the shim API is used out of order."""


class BayesPerfShim:
    """Streaming monitoring interface backed by the BayesPerf engine.

    Typical use::

        shim = BayesPerfShim("x86")
        fd = shim.perf_event_open("LONGEST_LAT_CACHE.MISS")
        shim.attach("KMeans", n_ticks=100)
        shim.enable()
        shim.step(10)
        estimate = shim.read(fd)          # posterior mean + uncertainty

    Parameters
    ----------
    arch:
        Microarchitecture name.
    buffer_capacity:
        Capacity of the kernel-to-shim and shim-to-user ring buffers.
    noise, samples_per_tick, machine_config, seed:
        Forwarded to the underlying PMU and machine models.
    engine_kwargs:
        Extra arguments for :class:`BayesPerfEngine`.
    """

    def __init__(
        self,
        arch: str = "x86",
        *,
        buffer_capacity: int = 4096,
        noise: Optional[NoiseModel] = None,
        samples_per_tick: int = 4,
        machine_config: Optional[MachineConfig] = None,
        seed: int = 0,
        engine_kwargs: Optional[Dict] = None,
    ) -> None:
        self.catalog = catalog_for(arch)
        self.noise = noise if noise is not None else NoiseModel()
        self.samples_per_tick = samples_per_tick
        self.machine_config = machine_config if machine_config is not None else MachineConfig(
            name=self.catalog.name
        )
        self.seed = seed
        self.engine_kwargs = dict(engine_kwargs) if engine_kwargs else {}

        self._handles: Dict[int, PerfEventHandle] = {}
        self._next_fd = 3  # mimic "after stdin/stdout/stderr"
        self._enabled = False
        self._attached = False
        self._tick = 0

        self.kernel_buffer: RingBuffer[SamplingRecord] = RingBuffer(buffer_capacity)
        self.user_buffer: RingBuffer[PosteriorReport] = RingBuffer(buffer_capacity)

        self._machine_trace: Optional[MachineTrace] = None
        self._sampler: Optional[MultiplexedSampler] = None
        self._engine: Optional[BayesPerfEngine] = None
        self._latest: Dict[str, EventEstimate] = {}

    # -- registration -------------------------------------------------------

    def perf_event_open(self, event: str) -> PerfEventHandle:
        """Register interest in one event and return its handle."""
        if self._attached:
            raise ShimError("cannot register events after attach()")
        self.catalog.get(event)  # validates the name
        handle = PerfEventHandle(fd=self._next_fd, event=event)
        self._handles[handle.fd] = handle
        self._next_fd += 1
        return handle

    @property
    def registered_events(self) -> Sequence[str]:
        return tuple(dict.fromkeys(handle.event for handle in self._handles.values()))

    # -- lifecycle ------------------------------------------------------------

    def attach(self, workload: Union[str, WorkloadSpec], *, n_ticks: Optional[int] = None) -> None:
        """Bind the shim to a target workload run."""
        if not self._handles:
            raise ShimError("register at least one event before attach()")
        spec = get_workload(workload) if isinstance(workload, str) else workload
        if not isinstance(spec, WorkloadSpec):
            raise ShimError(
                f"workload {getattr(spec, 'name', spec)!r} is not a simulatable "
                "WorkloadSpec (recorded traces replay through repro.fleet)"
            )
        ticks = n_ticks if n_ticks is not None else spec.total_ticks
        machine = Machine(self.machine_config, spec, seed=self.seed)
        self._machine_trace = machine.run(ticks)

        scheduler = BayesPerfScheduler(self.catalog)
        schedule = scheduler.build(list(self.registered_events))
        self._sampler = MultiplexedSampler(
            self.catalog,
            schedule,
            noise=self.noise,
            samples_per_tick=self.samples_per_tick,
            seed=self.seed + 1,
        )
        self._sampled = self._sampler.sample(self._machine_trace)
        self._engine = BayesPerfEngine(
            self.catalog, list(self.registered_events), **self.engine_kwargs
        )
        self._tick = 0
        self._attached = True

    def enable(self) -> None:
        """Start counting (mirrors ``PERF_EVENT_IOC_ENABLE``)."""
        if not self._attached:
            raise ShimError("attach() must be called before enable()")
        self._enabled = True

    @property
    def remaining_ticks(self) -> int:
        if not self._attached or self._machine_trace is None:
            return 0
        return len(self._machine_trace) - self._tick

    # -- data path ------------------------------------------------------------

    def step(self, ticks: int = 1) -> int:
        """Advance the target by *ticks* quanta, running sampling + inference.

        Returns the number of quanta actually processed (bounded by the end of
        the attached workload run).
        """
        if not self._enabled:
            raise ShimError("enable() must be called before step()")
        if ticks <= 0:
            raise ValueError("ticks must be positive")
        processed = 0
        assert self._engine is not None
        for _ in range(ticks):
            if self._tick >= len(self._sampled.records):
                break
            record = self._sampled.records[self._tick]
            self.kernel_buffer.push(record)
            # The engine (accelerator in the paper) drains the kernel buffer.
            drained = self.kernel_buffer.pop()
            if drained is not None:
                report = self._engine.process_record(drained)
                self.user_buffer.push(report)
                for event, estimate in report.estimates.items():
                    self._latest[event] = estimate
            self._tick += 1
            processed += 1
        return processed

    def read(self, handle: PerfEventHandle) -> EventEstimate:
        """Latest posterior estimate for the handle's event."""
        if handle.fd not in self._handles:
            raise ShimError(f"unknown handle fd={handle.fd}")
        if handle.event not in self._latest:
            raise ShimError("no samples processed yet; call step() first")
        return self._latest[handle.event]

    def read_value(self, handle: PerfEventHandle) -> float:
        """Latest posterior mean (what a plain perf user would read)."""
        return self.read(handle).mean

    def poll_reports(self) -> List[PosteriorReport]:
        """Drain every posterior report currently buffered for the user."""
        return self.user_buffer.drain()

    def close(self) -> None:
        """Release all handles and detach."""
        self._handles.clear()
        self._enabled = False
        self._attached = False
        self._latest.clear()
