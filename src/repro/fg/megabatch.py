"""Cross-signature mega-batching and multicore execution of the EP kernel.

Batched EP (:meth:`~repro.fg.compiled.CompiledEPKernel.run_stacked`) solves
``B`` records in one vectorized pass — but only records sharing one graph
*structure*, i.e. one measured-event signature.  A heterogeneous fleet
round fragments into many small per-signature batches (one per schedule
rotation position), and each fragment pays the kernel's fixed per-call
cost: Python dispatch over ~10² numpy ops per EP sweep dwarfs the
per-record arithmetic when ``B`` is 2–4.

This module removes the fragmentation with **shape canonicalization**.
Within one engine the variable set is fixed (every monitored + latent
event) and the constraint topology is signature-invariant — only the
observation site's width varies with the signature.  So every signature
embeds into one *canonical* structure-of-arrays layout whose observation
site spans the full variable width:

* measured lanes scatter each record's projected observation moments into
  their canonical slots — the same ``1/σ²`` / ``μ/σ²`` values the
  per-signature binder produces, landing on the same global matrix entries;
* padded lanes carry **exact zeros** (precision ``1/∞ = 0``, shift
  ``0/∞ = 0``), which makes them no-ops through the whole kernel: damping
  of zero is zero, the scatter-add contributes ``+0.0``, and the
  ``max(|·|)`` convergence reductions are insensitive to extra zero lanes.

The one step where a padded block is *not* automatically a no-op is the
kernel's positive-definiteness repair: a diagonal with zero entries fails
the Cholesky probe and the eigenvalue fallback would bump *every* lane.
Mega-batch eligibility therefore certifies the observation block up front
(:func:`observation_certified`: every measured lane's precision finite and
strictly positive — exactly the condition under which the per-signature
stack passes its Cholesky probe untouched) and the kernel skips the probe
for the certified site (``certified_sites``).  Together this makes the
mega-batched solve **bit-identical** to the per-signature batched solves
it replaces; ``tests/test_megabatch.py`` pins the equivalence on
hypothesis-randomized heterogeneous fleets.  The engine therefore merges
automatically: :meth:`~repro.core.engine.BayesPerfEngine.process_batch`
takes this path whenever the compiled analytic estimator sees two or more
certified signatures in one batch.

**Multicore execution** rides on the same per-record independence.
:class:`KernelExecSpec` selects a thread count, and the batch axis is split
into fixed contiguous chunks (:func:`lane_chunks` — a pure function of
``(batch, threads)``), each solved by the serial kernel on a thread pool.
numpy's LAPACK gufuncs release the GIL, every kernel op is element-wise or
per-record, and the chunk boundaries never depend on timing — so results
are bit-identical for any thread count, including 1.

Nothing here imports an engine: the canonicalization is expressed against
the compiled binder/kernel layer so any caller with per-signature arrays
can mega-batch.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fg.compiled import CompiledEPKernel, CompiledEPResult

__all__ = [
    "KernelExecSpec",
    "THREADS_ENV_VAR",
    "bind_bucketed_observation",
    "concat_results",
    "kernel_exec_from_env",
    "lane_chunks",
    "observation_certified",
    "padding_slots",
    "run_lane_partitioned",
]

#: Environment variable giving the default ``KernelExecSpec.threads`` when a
#: run does not set one explicitly — CI uses it to sweep the whole tier-1
#: suite under ``threads=4`` on one matrix leg.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"


@dataclass(frozen=True)
class KernelExecSpec:
    """How the batched EP kernel spreads work across threads.

    ``threads=1`` (the default) is the serial kernel; ``threads=N`` chunks
    the batch (record) axis of each kernel call into at most ``N`` lanes.
    The chunks are a fixed function of the batch size, so results are
    bit-identical regardless of thread count — threads change wall-clock
    only, never numerics.

    Frozen and hashable: the spec participates in engine-cache keys and
    round-trips through ``RunSpec.to_dict()``/``from_dict()``.
    """

    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


def kernel_exec_from_env() -> Optional[KernelExecSpec]:
    """Default exec spec from ``REPRO_KERNEL_THREADS``, or ``None``."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return KernelExecSpec(threads=int(raw))
    except ValueError:
        raise ValueError(
            f"{THREADS_ENV_VAR}={raw!r} is not a thread count (expected an integer >= 1)"
        ) from None


# -- shape canonicalization ----------------------------------------------------


def observation_certified(variance: np.ndarray) -> bool:
    """Whether an observation block may skip the kernel's PD probe.

    ``variance`` holds a signature group's projected observation variances
    (any shape; the measured lanes only).  When every entry is finite and
    strictly positive, the per-signature observation block is a diagonal
    with strictly positive entries — its Cholesky probe succeeds and the
    PD repair passes it through untouched.  Only then may the canonical
    (padded) block skip the probe and remain bit-identical.
    """
    values = np.asarray(variance)
    if values.size == 0:
        return False
    return bool(np.isfinite(values).all() and (values > 0).all())


def padding_slots(width: int, slots: np.ndarray, n_variables: int) -> np.ndarray:
    """Distinct global slots for a signature's padded lanes.

    A bucketed observation block of width ``width`` holding a signature
    with ``len(slots)`` measured events needs ``width - len(slots)``
    padding lanes, and each lane needs its *own* global slot (the kernel's
    fancy-indexed scatter must see distinct indices per record).  The
    padded contributions are exact zeros, so *which* unmeasured slots they
    land on is irrelevant — the smallest unmeasured slot ids are chosen
    for determinism.  Always enough exist: the bucket is never wider than
    the variable count.
    """
    pad = width - len(slots)
    if pad == 0:
        return np.empty(0, dtype=np.intp)
    measured = set(int(s) for s in slots)
    free = [slot for slot in range(n_variables) if slot not in measured]
    if pad > len(free):
        raise ValueError(
            f"bucket width {width} exceeds the variable count {n_variables}"
        )
    return np.array(free[:pad], dtype=np.intp)


def bind_bucketed_observation(
    width: int,
    batch: int,
    blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical bucketed observation site for a mega-batch.

    ``blocks`` carries one ``(rows, slots, pad_slots, mean, variance)``
    tuple per signature group — ``rows`` are the group's record indices in
    the mega-batch, ``slots`` the global variable slots of its measured
    events (in record order), ``pad_slots`` the distinct unmeasured slots
    absorbing its padded lanes (:func:`padding_slots`), and ``mean`` /
    ``variance`` its ``(G, E)`` projected moments.  ``width`` is the
    bucket's canonical width — the widest merged signature.

    Returns ``(precision, shift, slot_table)``: a ``(B, width, width)``
    diagonal precision block and ``(B, width)`` shift whose populated lanes
    hold the very same ``1/σ²`` / ``μ/σ²`` floats the per-signature binder
    produces and whose padded lanes are exact zeros, plus the per-record
    ``(B, width)`` global-slot table to pass as the site's
    ``site_index_overrides`` entry.  Padded lanes scatter ``+0.0`` onto
    unmeasured slots — no-ops — so the mega-batched solve is bit-identical
    to the per-signature solves it merges.
    """
    precision = np.zeros((batch, width, width))
    shift = np.zeros((batch, width))
    slot_table = np.zeros((batch, width), dtype=np.intp)
    for rows, slots, pad_slots, mean, variance in blocks:
        lanes = np.arange(len(slots))
        precision[rows[:, None], lanes[None, :], lanes[None, :]] = 1.0 / variance
        shift[rows[:, None], lanes[None, :]] = mean / variance
        slot_table[rows[:, None], lanes[None, :]] = slots
        if len(slots) < width:
            pad_lanes = np.arange(len(slots), width)
            slot_table[rows[:, None], pad_lanes[None, :]] = pad_slots
    return precision, shift, slot_table


# -- multicore execution -------------------------------------------------------


def lane_chunks(batch: int, threads: int) -> List[Tuple[int, int]]:
    """Fixed contiguous partition of the batch axis into ``<= threads`` chunks.

    A pure function of ``(batch, threads)`` — never of timing — so the
    partition (and with it the numerics, which are per-record anyway) is
    deterministic.  Chunk sizes differ by at most one record.
    """
    chunks = min(threads, batch)
    base, extra = divmod(batch, chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def concat_results(results: Sequence[CompiledEPResult]) -> CompiledEPResult:
    """Concatenate per-chunk kernel results back into one batch result."""
    if len(results) == 1:
        return results[0]
    return CompiledEPResult(
        variables=results[0].variables,
        posterior_precision=np.concatenate([r.posterior_precision for r in results]),
        posterior_shift=np.concatenate([r.posterior_shift for r in results]),
        means=np.concatenate([r.means for r in results]),
        variances=np.concatenate([r.variances for r in results]),
        iterations=np.concatenate([r.iterations for r in results]),
        converged=np.concatenate([r.converged for r in results]),
        max_delta=np.concatenate([r.max_delta for r in results]),
    )


def run_lane_partitioned(
    kernel: CompiledEPKernel,
    stacked: Sequence[Tuple[np.ndarray, np.ndarray]],
    prior_precision: np.ndarray,
    prior_shift: np.ndarray,
    certified_sites: Sequence[int],
    pool: ThreadPoolExecutor,
    threads: int,
    site_index_overrides: Optional[dict] = None,
    repair_groups: Optional[Sequence[np.ndarray]] = None,
) -> CompiledEPResult:
    """``run_stacked`` with the batch axis chunked across a thread pool.

    The PD repair runs *before* the split, on the full batch: its Cholesky
    probe is all-or-nothing per call, so chunk-local probes could repair a
    record differently than the serial call would — the one kernel step
    whose outcome depends on batch composition.  With repaired targets in
    hand every remaining kernel op is element-wise or a per-record linalg
    gufunc, so each chunk computes exactly the lanes it would inside the
    full batch — concatenating the chunk results is bit-identical to the
    serial call whatever ``threads`` is.  Chunks are submitted over
    *views* of the repaired arrays (no copies); numpy releases the GIL
    inside the LAPACK calls, which is where the parallelism comes from.
    """
    batch = prior_shift.shape[0]
    targets = kernel._repaired_targets(stacked, certified_sites, repair_groups)
    # Chunks must not re-probe: every site is already repaired.
    all_certified = range(len(targets))
    bounds = lane_chunks(batch, threads)
    if len(bounds) == 1:
        return kernel.run_stacked(
            targets,
            prior_precision,
            prior_shift,
            all_certified,
            site_index_overrides,
        )
    futures = [
        pool.submit(
            kernel.run_stacked,
            [(precision[a:b], shift[a:b]) for precision, shift in targets],
            prior_precision[a:b],
            prior_shift[a:b],
            all_certified,
            None
            if site_index_overrides is None
            else {k: table[a:b] for k, table in site_index_overrides.items()},
        )
        for a, b in bounds
    ]
    return concat_results([future.result() for future in futures])
