"""PCIe-contention workload modifier (the interconnect axis of the grid).

:func:`contended_workload` takes any synthetic :class:`WorkloadSpec` and
returns a copy whose per-phase progress rates are throttled by the
:mod:`repro.interconnect` max-min fair bandwidth model: a probe DMA transfer
for the monitored host shares the case-study PCIe topology with a configurable
number of background accelerator streams, and the resulting fractional
slowdown scales every phase via :meth:`PhaseProfile.scaled`.  The function is
pure — the same ``(spec, contention parameters)`` always yields the same
modified spec — which keeps contended runs exactly as replayable and
WAL-resumable as uncontended ones.

``repro.api`` exposes this through ``ContentionSpec`` on ``RunSpec``:
``Pipeline.from_spec`` builds every synthetic host's source from the
modified spec, so contention changes the trace, not the estimator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.interconnect import ContentionModel, Transfer, build_case_study_topology
from repro.uarch.profile import Phase, WorkloadSpec

__all__ = ["contention_slowdown", "contended_workload"]

#: Background DMA initiators in the case-study topology, in the order they
#: are enlisted as ``background`` grows: the training GPU first (same switch
#: as the probe's NIC), then the socket-1 worker GPUs.  Each streams results
#: out through ``nic0``, so every stream shares the probe's bottleneck
#: ``switch0a-nic0`` link and the slowdown grows monotonically with count.
_BACKGROUND_DEVICES = ("train_gpu", "gpu0", "gpu1", "gpu2", "gpu3")


def _transfers(background: int, size_bytes: int) -> Tuple[Transfer, Tuple[Transfer, ...]]:
    probe = Transfer("host-dma", source="mem0", destination="nic0", size_bytes=size_bytes)
    streams = tuple(
        Transfer(f"bg-{device}", source=device, destination="nic0", size_bytes=size_bytes)
        for device in _BACKGROUND_DEVICES[:background]
    )
    return probe, streams


def contention_slowdown(*, background: int = 2, size_mb: float = 64.0) -> float:
    """Fractional slowdown of the host's DMA path under *background* streams.

    ``0.0`` means no contention (``background=0``); ``1.0`` means the probe
    transfer takes twice as long as in isolation.  Deterministic: the
    topology is fixed and the allocation is max-min fair.
    """
    if background < 0 or background > len(_BACKGROUND_DEVICES):
        raise ValueError(
            f"background must be between 0 and {len(_BACKGROUND_DEVICES)}"
        )
    if size_mb <= 0:
        raise ValueError("size_mb must be positive")
    if background == 0:
        return 0.0
    size_bytes = int(size_mb * 1e6)
    probe, streams = _transfers(background, size_bytes)
    model = ContentionModel(build_case_study_topology())
    return model.slowdown(probe, streams)


def contended_workload(
    spec: WorkloadSpec, *, background: int = 2, size_mb: float = 64.0
) -> WorkloadSpec:
    """Return *spec* throttled by PCIe contention from *background* streams.

    Every phase profile is scaled by ``1 / (1 + slowdown)`` — instruction
    and DMA progress per tick drop together, exactly what a host stalling on
    a contended interconnect looks like to the PMU.  The returned spec is
    renamed ``<name>@pcie-bg<background>`` so traces and reports show which
    grid cell produced them.
    """
    slowdown = contention_slowdown(background=background, size_mb=size_mb)
    if slowdown == 0.0:
        return spec
    intensity = 1.0 / (1.0 + slowdown)
    phases = tuple(
        Phase(
            profile=phase.profile.scaled(intensity),
            duration_ticks=phase.duration_ticks,
            name=phase.name,
        )
        for phase in spec.phases
    )
    return replace(spec, name=f"{spec.name}@pcie-bg{background}", phases=phases)
