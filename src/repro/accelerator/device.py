"""The accelerator device model: EP engines + samplers + NoC + host transport.

Two estimation modes coexist:

* the historical **analytical** mode (:meth:`AcceleratorModel.inference_latency`)
  prices a hypothetical uniform workload from assumed site shapes and sample
  budgets;
* the **trace-driven co-simulation** (:meth:`AcceleratorModel.cosimulate`)
  replays a recorded :class:`~repro.fg.mcmc.ChainTrace` — the per-site chain
  schedule the software sampler actually executed — through the same
  component models, list-scheduling every measured site visit onto the EP
  engines.  Cycle counts, occupancy and downstream energy figures then
  derive from measured site widths, factor counts, chain lengths and
  acceptance rates rather than assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.accelerator.ep_engine import EPEngineUnit, MCMCSamplerIP
from repro.accelerator.noc import ButterflyNoC
from repro.fg.mcmc import ChainTrace

#: Host transport protocols supported by the prototype (§5 / §6.1).
TRANSPORTS = ("capi", "pcie")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Static configuration of the BayesPerf accelerator.

    The defaults follow the prototype: a 250 MHz Virtex UltraScale+ design
    with 4 EP engines and 12 MCMC samplers on a 16-port butterfly NoC,
    attached over CAPI 2.0 on Power9 or PCIe3 x16 + XDMA on x86.
    """

    transport: str = "capi"
    clock_mhz: float = 250.0
    n_ep_engines: int = 4
    n_samplers: int = 12
    noc_ports: int = 16
    dram_channels: int = 4
    dram_channel_gb: int = 16

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.n_ep_engines <= 0 or self.n_samplers <= 0:
            raise ValueError("engine and sampler counts must be positive")
        if self.n_ep_engines + self.n_samplers > self.noc_ports:
            raise ValueError("EP engines plus samplers cannot exceed the NoC port count")

    @property
    def samplers_per_engine(self) -> int:
        return max(1, self.n_samplers // self.n_ep_engines)


#: Host-side transport latencies in host-CPU cycles (order-of-magnitude
#: values for a 2-ish GHz host).  CAPI snoops the ring-buffer cache lines, so
#: the host never initiates DMA; PCIe needs the userspace driver to kick DMA
#: transfers and poll for completion (§5, "Interfacing with the Accelerator").
_TRANSPORT_HOST_CYCLES: Dict[str, float] = {"capi": 35.0, "pcie": 330.0}


@dataclass
class InferenceLatency:
    """Breakdown of one inference pass on the accelerator."""

    compute_cycles: float
    noc_cycles: float
    transport_host_cycles: float
    clock_mhz: float

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.noc_cycles

    @property
    def microseconds(self) -> float:
        return self.total_cycles * (1e3 / self.clock_mhz) / 1e3


@dataclass
class CosimReport:
    """Trace-grounded cycle/occupancy estimates for one recorded workload.

    Every figure is a deterministic function of the chain trace and the
    static configuration — replaying the same trace reproduces the report
    exactly (the round-trip tests rely on this).
    """

    transport: str
    clock_mhz: float
    #: Workload shape, straight from the measured trace.
    n_visits: int
    n_slices: int
    total_chain_steps: int
    mean_acceptance: float
    #: List-scheduled timeline: end-to-end cycles over all EP engines.
    makespan_cycles: float
    #: Summed per-visit compute cycles (the work, ignoring scheduling).
    compute_cycles: float
    noc_cycles: float
    #: Per-engine busy cycles under the greedy schedule.
    engine_busy_cycles: Tuple[float, ...]
    sampler_busy_cycles: float
    #: Burn-in adaptation windows recorded across all visits (0 for traces
    #: captured without per-window acceptance trajectories — such traces are
    #: priced exactly as before the trajectories existed).
    adaptation_windows: int = 0
    #: Busy fraction per component class over the makespan.
    occupancy: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / (self.clock_mhz * 1e6)

    @property
    def microseconds_per_slice(self) -> float:
        if not self.n_slices:
            return 0.0
        return self.makespan_seconds * 1e6 / self.n_slices

    @property
    def slices_per_second(self) -> float:
        seconds = self.makespan_seconds
        return self.n_slices / seconds if seconds > 0 else float("inf")

    @property
    def cycles_per_chain_step(self) -> float:
        if not self.total_chain_steps:
            return 0.0
        return self.compute_cycles / self.total_chain_steps


class AcceleratorModel:
    """Latency/throughput model of the BayesPerf accelerator.

    Parameters
    ----------
    config:
        Static accelerator configuration.
    ep_engine, sampler, noc:
        Component models; defaults mirror the prototype.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        *,
        ep_engine: Optional[EPEngineUnit] = None,
        sampler: Optional[MCMCSamplerIP] = None,
        noc: Optional[ButterflyNoC] = None,
    ) -> None:
        self.config = config if config is not None else AcceleratorConfig()
        self.ep_engine = ep_engine if ep_engine is not None else EPEngineUnit()
        self.sampler = sampler if sampler is not None else MCMCSamplerIP()
        self.noc = noc if noc is not None else ButterflyNoC(self.config.noc_ports)

    def inference_latency(
        self,
        n_sites: int,
        factors_per_site: int,
        variables_per_site: int,
        *,
        mcmc_samples: int = 256,
        ep_iterations: int = 2,
    ) -> InferenceLatency:
        """Latency of one full EP inference pass over *n_sites* sites.

        Sites are distributed across the EP engines and processed in parallel
        waves; each site update also pays NoC traffic between its engine and
        its samplers plus a global-update exchange with the controller.
        """
        if n_sites <= 0 or factors_per_site <= 0 or variables_per_site <= 0:
            raise ValueError("site dimensions must be positive")
        if mcmc_samples <= 0 or ep_iterations <= 0:
            raise ValueError("mcmc_samples and ep_iterations must be positive")

        site_cycles = self.ep_engine.site_update_cycles(
            factors_per_site,
            variables_per_site,
            self.sampler,
            mcmc_samples,
            samplers_per_engine=self.config.samplers_per_engine,
        )
        waves = math.ceil(n_sites / self.config.n_ep_engines)
        compute_cycles = site_cycles * waves * ep_iterations

        # NoC traffic: each site update ships its state to the samplers and
        # the global approximation back to the controller.
        per_site_noc = self.noc.site_update_cycles(variables_per_site)
        noc_cycles = per_site_noc * n_sites * ep_iterations

        return InferenceLatency(
            compute_cycles=compute_cycles,
            noc_cycles=noc_cycles,
            transport_host_cycles=_TRANSPORT_HOST_CYCLES[self.config.transport],
            clock_mhz=self.config.clock_mhz,
        )

    def cosimulate(self, trace: ChainTrace) -> CosimReport:
        """Replay a recorded chain trace through the device model.

        Every :class:`~repro.fg.mcmc.ChainSiteVisit` is priced with the
        *measured* entry points (actual width, factor count, chain steps
        and acceptances) and list-scheduled greedily onto the EP engines in
        emission order, honouring each slice's sequential dependency chain:
        a slice's visits (its sites within an EP iteration, and its
        successive iterations) ran strictly in order in the software
        sampler — each cavity depends on the previous site update — so they
        may not overlap on the device either.  Visits of *different* slices
        are independent and fill the engines in parallel, which is exactly
        the parallelism the batched software sampler exposes.  The returned
        report's latency/occupancy figures are therefore functions of the
        measured site-visit schedule, not of assumed workload shapes.

        Visits carrying a per-window burn-in acceptance trajectory
        (``ChainSiteVisit.windows``, recorded when the software sampler
        adapted its proposal scales) additionally price the adaptation
        hardware — one scale retune per completed window — so burn-in
        adaptation itself shows up in the cycle counts.  Traces recorded
        without trajectories are priced exactly as before.
        """
        if not trace.visits:
            raise ValueError("cannot co-simulate an empty chain trace")
        visits = sorted(trace.visits, key=lambda visit: visit.sequence)
        samplers_per_engine = self.config.samplers_per_engine

        available: List[float] = [0.0] * self.config.n_ep_engines
        busy: List[float] = [0.0] * self.config.n_ep_engines
        #: Completion time of each slice's latest visit (dependency chain).
        slice_ready: Dict[int, float] = {}
        compute_total = 0.0
        noc_total = 0.0
        sampler_busy = 0.0
        for visit in visits:
            compute = self.ep_engine.site_visit_cycles(
                visit, self.sampler, samplers_per_engine=samplers_per_engine
            )
            noc_cycles = self.noc.site_update_cycles(visit.width)
            # Earliest-free engine, lowest index on ties: deterministic, so
            # a replayed trace schedules identically.
            engine = min(range(len(available)), key=lambda i: available[i])
            start = max(available[engine], slice_ready.get(visit.slice_id, 0.0))
            finish = start + compute + noc_cycles
            available[engine] = finish
            slice_ready[visit.slice_id] = finish
            busy[engine] += compute
            compute_total += compute
            noc_total += noc_cycles
            share, accepted_share = self.sampler.chain_share(
                visit, samplers_per_engine
            )
            sampler_busy += samplers_per_engine * self.sampler.chain_cycles(
                share, visit.width, accepted_share
            )

        makespan = max(available)
        occupancy = {
            "ep_engine": sum(busy) / (len(busy) * makespan) if makespan else 0.0,
            "mcmc_sampler": (
                sampler_busy / (self.config.n_samplers * makespan) if makespan else 0.0
            ),
            # Up to one site-update round trip per engine can be in flight
            # at once, so the fabric's capacity over the makespan is one
            # transfer timeline per engine; normalising by it keeps this a
            # genuine busy fraction (each engine's NoC share is a subset of
            # its own timeline).
            "noc": noc_total / (len(busy) * makespan) if makespan else 0.0,
        }
        return CosimReport(
            transport=self.config.transport,
            clock_mhz=self.config.clock_mhz,
            n_visits=len(visits),
            n_slices=trace.n_slices,
            total_chain_steps=trace.total_steps,
            mean_acceptance=trace.acceptance_rate(),
            adaptation_windows=sum(visit.n_adaptations for visit in visits),
            makespan_cycles=makespan,
            compute_cycles=compute_total,
            noc_cycles=noc_total,
            engine_busy_cycles=tuple(busy),
            sampler_busy_cycles=sampler_busy,
            occupancy=occupancy,
        )

    def sustained_inferences_per_second(
        self, n_sites: int, factors_per_site: int, variables_per_site: int, **kwargs
    ) -> float:
        """How many inference passes per second the device sustains."""
        latency = self.inference_latency(n_sites, factors_per_site, variables_per_site, **kwargs)
        seconds = latency.total_cycles / (self.config.clock_mhz * 1e6)
        return 1.0 / seconds if seconds > 0 else float("inf")

    def host_read_overhead_cycles(self) -> float:
        """Host cycles added to a counter read when results are polled.

        Because results are written into host memory ring buffers ahead of
        time (CAPI) or via completed DMA (PCIe), the monitoring application
        only pays a small polling cost — this is what keeps the accelerated
        read within ~2% of a native read (Fig. 3).
        """
        return _TRANSPORT_HOST_CYCLES[self.config.transport]
