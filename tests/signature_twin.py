"""The per-signature solves: the canonical solves' test twins.

The engine solves every group that measured an event on its one canonical
full-width structure (:meth:`~repro.core.engine.BayesPerfEngine._solve_canonical`
for certified analytic groups, :meth:`~repro.core.engine.BayesPerfEngine._solve_group`
for the rest).  The twins compile one structure per measured-event
signature (:func:`compile_signature`, through the engine's own ``_compile``)
and solve each group in its own call on it: ``CompiledBinder.bind_batch`` →
``CompiledEPKernel.run_stacked`` (:func:`solve_group`) or
``BatchedSiteMCMC.run`` (:func:`sample_group`).  No engine path solves this
way.  The canonical layout scatters each group's lanes onto the same global
entries and its padded lanes are exact no-ops, so the engine must reproduce
these twins bit for bit.
"""

import weakref

import numpy as np

from repro.fg import StudentTTail

#: Per-engine memo of the signatures compiled so far, so a warm engine
#: compiles each signature once, as a per-signature engine would.
_COMPILED = weakref.WeakKeyDictionary()


def compile_signature(engine, batch, group):
    """The kernel + binder of *group*'s own per-signature structure (``None``
    when it does not compile)."""
    row = int(group.rows[0])
    return engine._compile(batch.summaries[row], engine._scale_view(batch, row))


def _compiled(engine, batch, group):
    compiled = _COMPILED.setdefault(engine, {})
    if group.signature not in compiled:
        compiled[group.signature] = compile_signature(engine, batch, group)
    return compiled[group.signature]


def _bound(engine, batch, group):
    """*group* bound on its own structure: ``(kernel, binder, stacked,
    prior_precision, prior_shift)``."""
    kernel, binder = _compiled(engine, batch, group)
    stacked = binder.bind_batch(group.obs_mean, group.obs_variance, batch.scale[group.rows])
    return (kernel, binder, stacked, *engine._prior_system(batch, group.rows))


def solve_group(engine, batch, group):
    """One signature group's per-signature analytic solve: ``(means,
    variances, iterations, converged)``, ``(G, n)`` and ``(G,)`` in
    normalised space."""
    kernel, _, stacked, prior_precision, prior_shift = _bound(engine, batch, group)
    result = kernel.run_stacked(stacked, prior_precision, prior_shift)
    return result.means, result.variances, result.iterations, result.converged


def sample_group(engine, batch, group):
    """One signature group's per-signature ``"mcmc"`` solve, as
    :func:`solve_group` returns it."""
    kernel, binder, stacked, prior_precision, prior_shift = _bound(engine, batch, group)
    site_tails = {}
    if engine.observation_model == "student_t" and group.signature:
        site_tails[binder.observation.site] = StudentTTail(
            slots=binder.observation.slots,
            loc=group.obs_mean,
            scale=group.obs_scale,
            df=group.df,
            variance=group.obs_variance,
        )
    sampler = engine._estimator.batched(
        kernel,
        n_samples=engine.mcmc_samples,
        burn_in=engine.mcmc_burn_in,
        adapt=engine.mcmc_adapt,
        recorder=engine.chain_recorder,
    )
    result = sampler.run(
        stacked,
        prior_precision,
        prior_shift,
        seeds=[batch.mcmc_seeds[row] for row in group.rows],
        site_tails=site_tails,
        ticks=[batch.records[row].tick for row in group.rows],
    )
    return result.means, result.variances, result.iterations, result.converged


def solve_by_signature(engine, batch):
    """A prepared batch solved one signature group at a time, as ``(B, n)``
    rows, under the engine's estimator."""
    solve = sample_group if engine.moment_estimator == "mcmc" else solve_group
    size = len(batch.records)
    solved = (
        np.empty(batch.scale.shape),
        np.empty(batch.scale.shape),
        np.empty(size, dtype=int),
        np.empty(size, dtype=bool),
    )
    for group in batch.groups:
        for out, values in zip(solved, solve(engine, batch, group)):
            out[group.rows] = values
    return solved


def process_batch_by_signature(engine, items):
    """``engine.process_batch(items)`` with the per-signature solves in place
    of the canonical ones: each slice's report and successor state."""
    batch = engine._prepare_batch(items)
    return engine._finalize(batch, solve_by_signature(engine, batch))
