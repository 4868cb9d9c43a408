"""The per-signature analytic solve: the canonical solve's test twin.

Under the compiled analytic estimator the engine solves every certified
signature group on one canonical full-width structure
(:meth:`~repro.core.engine.BayesPerfEngine._solve_canonical`).  The twin
compiles one structure per measured-event signature and solves each group
in its own kernel call: ``engine._compiled_kernel`` (the per-signature
structure the ``"mcmc"`` estimator runs on) → ``CompiledBinder.bind_batch``
→ ``CompiledEPKernel.run_stacked``.  No engine path solves analytically
this way.  The canonical solve's padded lanes are exact no-ops, so it must
reproduce this twin bit for bit.
"""

import numpy as np


def solve_group(engine, batch, group):
    """One signature group's per-signature solve: ``(means, variances,
    iterations, converged)``, ``(G, n)`` and ``(G,)`` in normalised space."""
    kernel, binder = engine._compiled_kernel(batch, group)
    stacked = binder.bind_batch(group.obs_mean, group.obs_variance, batch.scale[group.rows])
    prior_precision, prior_shift = engine._prior_system(batch, group.rows)
    result = kernel.run_stacked(stacked, prior_precision, prior_shift)
    return result.means, result.variances, result.iterations, result.converged


def solve_by_signature(engine, batch):
    """A prepared batch solved one signature group at a time, as ``(B, n)`` rows."""
    size = len(batch.records)
    solved = (
        np.empty(batch.scale.shape),
        np.empty(batch.scale.shape),
        np.empty(size, dtype=int),
        np.empty(size, dtype=bool),
    )
    for group in batch.groups:
        for out, values in zip(solved, solve_group(engine, batch, group)):
            out[group.rows] = values
    return solved


def process_batch_by_signature(engine, items):
    """``engine.process_batch(items)`` with the per-signature solve in place
    of the canonical one: each slice's report and successor state."""
    batch = engine._prepare_batch(items)
    return engine._finalize(batch, solve_by_signature(engine, batch))
