"""The synthetic machine: workload execution as a semantic ground-truth trace."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.uarch.profile import WorkloadSpec
from repro.uarch.synthesis import synthesize_semantics


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated machine.

    Only a handful of parameters influence ground-truth generation; the
    remaining fields (cores, sockets, TDP) are used by the accelerator model
    and the experiment harness when reporting system-level numbers.
    """

    name: str = "x86_64-skylake"
    cores_per_socket: int = 18
    sockets: int = 2
    smt_threads: int = 2
    frequency_ghz: float = 2.1
    tdp_watts: float = 100.0
    tick_seconds: float = 1e-3
    #: Standard deviation of the run-to-run intensity offset (log scale);
    #: models cross-run nondeterminism such as memory layout and OS activity.
    run_variation: float = 0.02
    #: Standard deviation of the per-tick jitter applied to phase rate
    #: parameters (miss ratios etc.), independent of the common-mode burst.
    rate_jitter: float = 0.03

    def __post_init__(self) -> None:
        if self.cores_per_socket <= 0 or self.sockets <= 0 or self.smt_threads <= 0:
            raise ValueError("core/socket/thread counts must be positive")
        if self.frequency_ghz <= 0 or self.tick_seconds <= 0:
            raise ValueError("frequency and tick duration must be positive")
        for name in ("frequency_ghz", "tdp_watts", "tick_seconds", "run_variation", "rate_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.run_variation < 0 or self.rate_jitter < 0:
            raise ValueError("variation parameters must be non-negative")


#: Profile rate fields that receive independent per-tick jitter.
_JITTERED_RATES: Tuple[str, ...] = (
    "branch_mispredict_rate",
    "l1d_miss_rate",
    "l1i_miss_rate",
    "l2_miss_rate",
    "llc_miss_rate",
    "writeback_fraction",
    "dtlb_miss_rate",
    "itlb_miss_rate",
    "uop_cancel_rate",
    "core_stall_per_instruction",
    "dma_transactions_per_tick",
)


@dataclass
class MachineTrace:
    """Ground-truth semantic values for every tick of one run."""

    workload: str
    config: MachineConfig
    ticks: List[Dict[str, float]] = field(default_factory=list)
    intensities: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ticks)

    def __getitem__(self, tick: int) -> Dict[str, float]:
        return self.ticks[tick]

    def semantic_series(self, semantic: str) -> np.ndarray:
        """Time series of one semantic quantity across the trace."""
        return np.array([values[semantic] for values in self.ticks], dtype=float)

    def totals(self) -> Dict[str, float]:
        """Sum of every semantic quantity over the whole trace."""
        if not self.ticks:
            return {}
        totals: Dict[str, float] = {key: 0.0 for key in self.ticks[0]}
        for values in self.ticks:
            for key, value in values.items():
                totals[key] += value
        return totals

    def window_totals(self, start: int, stop: int) -> Dict[str, float]:
        """Sum of every semantic quantity over ``[start, stop)``."""
        if not 0 <= start < stop <= len(self.ticks):
            raise ValueError(f"invalid window [{start}, {stop}) for trace of length {len(self)}")
        totals: Dict[str, float] = {key: 0.0 for key in self.ticks[start]}
        for values in self.ticks[start:stop]:
            for key, value in values.items():
                totals[key] += value
        return totals


class Machine:
    """Executes a workload specification into a ground-truth trace.

    Parameters
    ----------
    config:
        Machine description.
    workload:
        Phase-based workload specification.
    seed:
        Seed controlling both the run-to-run offset and per-tick randomness;
        two machines with different seeds model two runs of the same
        application.
    """

    def __init__(self, config: MachineConfig, workload: WorkloadSpec, seed: int = 0) -> None:
        self.config = config
        self.workload = workload
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # Run-level offset: the whole run is slightly faster/slower than nominal.
        self._run_offset = float(
            np.exp(self._rng.normal(0.0, config.run_variation)) if config.run_variation > 0 else 1.0
        )

    def run(self, n_ticks: int) -> MachineTrace:
        """Generate a ground-truth trace of *n_ticks* scheduler ticks."""
        if n_ticks <= 0:
            raise ValueError("n_ticks must be positive")
        trace = MachineTrace(workload=self.workload.name, config=self.config)
        rng = self._rng
        exp = np.exp
        rate_jitter = self.config.rate_jitter
        n_jittered = len(_JITTERED_RATES)
        log_intensity = 0.0
        for tick in range(n_ticks):
            profile = self.workload.profile_at(tick)
            sigma = profile.burstiness
            phi = profile.burst_correlation
            if sigma > 0:
                innovation_scale = sigma * math.sqrt(max(1.0 - phi * phi, 1e-12))
                log_intensity = phi * log_intensity + rng.normal(0.0, innovation_scale)
            else:
                log_intensity = 0.0
            intensity = float(exp(log_intensity)) * self._run_offset

            jitter = {}
            if rate_jitter > 0:
                # One call draws the same normals, in the same order, as one
                # scalar call per rate; ``exp`` stays scalar per value.
                draws = rng.normal(0.0, rate_jitter, n_jittered).tolist()
                jitter = {
                    name: float(exp(draw)) for name, draw in zip(_JITTERED_RATES, draws)
                }
            values = synthesize_semantics(profile, intensity=intensity, rate_jitter=jitter)
            trace.ticks.append(values)
            trace.intensities.append(intensity)
        return trace

    def run_workload(self) -> MachineTrace:
        """Generate a trace covering exactly one pass of the workload's phases."""
        return self.run(self.workload.total_ticks)
