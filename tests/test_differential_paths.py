"""Differential test harness: every fast path against its reference twin.

The repository's contract (README, "Differential testing") is that each
compiled/vectorized path has an object-walking reference twin and a test
pinning the pair together:

* analytic EP:    ``CompiledEPKernel``  <->  ``ExpectationPropagation``
* per-site MCMC:  ``BatchedSiteMCMC``   <->  ``ReferenceSiteMCMC``
* binding:        ``CompiledBinder``    <->  ``CompiledGraph.bind`` (objects)
* synthetic sampling: ``MultiplexedSampler``/``Machine``  <->  their scalar
  per-draw loops (numpy's ``dirichlet``, one ``rng.normal`` per value)

On randomized graphs reference EP and compiled EP must agree within 1e-6,
and the array-native binding/summary code paths must be bit-identical
between B=1 and B=N.  The synthetic sampling stream is bit-identical to its
twin, draw for draw.
"""

import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import HostSpec, Pipeline, RunSpec
from repro.core.engine import BayesPerfEngine
from repro.core.posterior import EventEstimate, PosteriorReport
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fg import (
    BatchedSiteMCMC,
    ChainTrace,
    CompiledEPKernel,
    EPResult,
    ExpectationPropagation,
    FactorGraph,
    GaussianDensity,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    ReferenceSiteMCMC,
    StudentT,
    StudentTObservation,
    StudentTTail,
    compile_factor_graph,
    site_factor_lists,
    student_t_moment_variance,
)
from repro.fg.ep import EPSite
from repro.fleet.tracefile import read_trace
from repro.pmu.noise import NoiseModel
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import _JITTERED_RATES, Machine, MachineConfig, MachineTrace
from repro.uarch.synthesis import synthesize_semantics
from repro.workloads.registry import get_workload
from signature_twin import process_batch_by_signature

TOLERANCE = 1e-6


def _gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _max_moment_gap(mean_a, var_a, mean_b, var_b):
    gap = 0.0
    for name in mean_a:
        gap = max(gap, _gap(mean_a[name], mean_b[name]), _gap(var_a[name], var_b[name]))
    return gap


def _dense_constraint_bind(binder, scales):
    """Dense twin of :meth:`ConstraintSiteBinder.bind`.

    Adds every relation's full ``(w, w)`` outer product in relation order;
    the sparse plan must reproduce it bit for bit.
    """
    scaled = np.ascontiguousarray(binder.coefficients[None, :, :] * scales[:, None, :])
    magnitude = np.abs(scaled).sum(axis=-1)
    sigma = np.maximum(binder.tolerances[None, :] * magnitude, 1e-9)
    rows = scaled / sigma[..., None]
    precision = np.zeros((scaled.shape[0], binder.width, binder.width))
    for relation in range(rows.shape[1]):
        row = rows[:, relation, :]
        precision += row[:, :, None] * row[:, None, :]
    return precision, np.zeros((scaled.shape[0], binder.width))


@pytest.fixture(scope="module")
def x86_engine():
    """One engine over the default x86 event set."""
    catalog = catalog_for("x86")
    return BayesPerfEngine(catalog, standard_profiling_events(catalog))


def _solve_two_ways(graph, sites, prior):
    """(reference EP, compiled EP) posteriors for one graph.

    Undamped EP converges to the exact factor-product fixed point on both
    paths, so on purely Gaussian graphs they must coincide to
    floating-point accuracy.
    """
    reference = ExpectationPropagation(graph, sites, prior, damping=1.0).run()
    structure = compile_factor_graph(graph, sites, prior.variables)
    assert structure is not None
    kernel = CompiledEPKernel(structure, damping=1.0)
    binding = structure.bind(site_factor_lists(graph, sites))
    return reference, kernel.run([binding], [prior])


@st.composite
def _random_gaussian_problem(draw):
    """Randomized all-Gaussian graphs: observations + constraints + priors."""
    n = draw(st.integers(min_value=2, max_value=6))
    variables = [f"v{i}" for i in range(n)]
    value = st.floats(min_value=-4.0, max_value=4.0)
    spread = st.floats(min_value=0.05, max_value=8.0)
    prior = GaussianDensity.diagonal(
        {v: draw(value) for v in variables}, {v: draw(spread) for v in variables}
    )
    graph = FactorGraph(variables=variables)
    n_observed = draw(st.integers(min_value=1, max_value=n))
    observation_names = []
    for v in variables[:n_observed]:
        name = f"obs_{v}"
        graph.add_factor(GaussianObservation(name, v, observed=draw(value), sigma=draw(spread)))
        observation_names.append(name)
    if draw(st.booleans()):
        name = f"prior_{variables[-1]}"
        graph.add_factor(
            GaussianPriorFactor(name, {variables[-1]: draw(value)}, {variables[-1]: draw(spread)})
        )
        observation_names.append(name)
    sites = [EPSite("observations", tuple(observation_names))]
    n_constraints = draw(st.integers(min_value=0, max_value=2))
    constraint_names = []
    for index in range(n_constraints):
        size = draw(st.integers(min_value=2, max_value=n))
        coefficient = st.floats(min_value=0.25, max_value=2.0)
        sign = st.sampled_from([-1.0, 1.0])
        coefficients = {v: draw(sign) * draw(coefficient) for v in variables[:size]}
        name = f"rel_{index}"
        graph.add_factor(LinearConstraintFactor(name, coefficients, sigma=draw(spread)))
        constraint_names.append(name)
    if constraint_names:
        sites.append(EPSite("constraints", tuple(constraint_names)))
    return graph, sites, prior


@st.composite
def _random_student_t_problem(draw):
    """Randomized graphs whose observations are genuinely non-Gaussian."""
    n = draw(st.integers(min_value=2, max_value=5))
    variables = [f"v{i}" for i in range(n)]
    value = st.floats(min_value=-3.0, max_value=3.0)
    spread = st.floats(min_value=0.1, max_value=4.0)
    prior = GaussianDensity.diagonal(
        {v: draw(value) for v in variables}, {v: draw(spread) for v in variables}
    )
    graph = FactorGraph(variables=variables)
    observed = []
    for v in variables[: draw(st.integers(min_value=1, max_value=n))]:
        distribution = StudentT(
            loc=draw(value),
            scale=draw(st.floats(min_value=0.1, max_value=2.0)),
            df=draw(st.floats(min_value=1.5, max_value=9.0)),
        )
        graph.add_factor(StudentTObservation(f"obs_{v}", v, distribution))
        observed.append(v)
    sites = [EPSite("observations", tuple(f"obs_{v}" for v in observed))]
    coefficients = {v: 1.0 for v in variables[:2]}
    graph.add_factor(LinearConstraintFactor("rel_0", coefficients, sigma=draw(spread)))
    sites.append(EPSite("constraints", ("rel_0",)))
    return graph, sites, prior, observed


class TestEPPosteriorAgreement:
    """Reference EP vs compiled EP, randomized graphs."""

    @given(problem=_random_gaussian_problem())
    @settings(max_examples=25, deadline=None)
    def test_reference_and_compiled_ep_agree_within_tolerance(self, problem):
        graph, sites, prior = problem
        reference, compiled = _solve_two_ways(graph, sites, prior)
        ref_mean, ref_var = reference.posterior.mean(), reference.posterior.variance()
        com_mean, com_var = compiled.mean_dict(0), compiled.variance_dict(0)
        assert _max_moment_gap(ref_mean, ref_var, com_mean, com_var) < TOLERANCE


class TestThreeWayPosteriorAgreement:
    """Reference EP vs compiled EP vs per-site MCMC on one Gaussian graph."""

    def test_mcmc_chains_actually_run(self):
        """The Gaussian-case exactness is a coupling property, not a skip."""
        graph = FactorGraph(variables=["a", "b"])
        graph.add_factor(GaussianObservation("obs_a", "a", observed=2.0, sigma=0.5))
        graph.add_factor(LinearConstraintFactor("sum", {"a": 1.0, "b": -1.0}, sigma=0.1))
        sites = [EPSite("obs", ("obs_a",)), EPSite("rel", ("sum",))]
        prior = GaussianDensity.diagonal({"a": 0.0, "b": 0.0}, {"a": 9.0, "b": 9.0})
        reference, compiled = _solve_two_ways(graph, sites, prior)
        structure = compile_factor_graph(graph, sites, prior.variables)
        kernel = CompiledEPKernel(structure, damping=1.0)
        binding = structure.bind(site_factor_lists(graph, sites))
        stacked = [(p[None, ...], s[None, ...]) for p, s in binding]
        sampler = BatchedSiteMCMC(kernel, n_samples=200, burn_in=100)
        sampled = sampler.run(
            stacked, prior.precision[None, ...], prior.shift[None, ...], seeds=[0]
        )
        assert 0.05 < float(sampled.acceptance_rates[0]) < 0.95
        assert np.array_equal(sampled.means, compiled.means)
        assert np.array_equal(sampled.variances, compiled.variances)
        ref_mean, ref_var = reference.posterior.mean(), reference.posterior.variance()
        mc_mean, mc_var = sampled.mean_dict(0), sampled.variance_dict(0)
        assert _max_moment_gap(ref_mean, ref_var, mc_mean, mc_var) < TOLERANCE


class TestBatchBitIdentity:
    """B=1 vs B=N bit-identity of the binding paths."""

    @pytest.fixture(scope="class")
    def engine_and_records(self):
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=16)
        schedule = cached_schedule(catalog, events, kind="overlap")
        trace = Machine(MachineConfig(), get_workload("KMeans"), seed=3).run(8)
        sampled = MultiplexedSampler(catalog, schedule, seed=4).sample(trace)
        return catalog, events, sampled

    def test_binder_blocks_bit_identical_across_batch_sizes(self, engine_and_records):
        catalog, events, sampled = engine_and_records
        engine = BayesPerfEngine(catalog, events)
        base = engine._prepare_batch([(None, sampled.records[0])])
        (group,) = base.groups
        kernel, binder = engine._compiled_kernel(base, group)
        batched = binder.bind_batch(
            np.repeat(group.obs_mean, 5, axis=0),
            np.repeat(group.obs_variance, 5, axis=0),
            np.repeat(base.scale, 5, axis=0),
        )
        single = binder.bind_batch(group.obs_mean, group.obs_variance, base.scale)
        for (bp, bs), (sp, ss) in zip(batched, single):
            for b in range(5):
                assert np.array_equal(bp[b], sp[0])
                assert np.array_equal(bs[b], ss[0])

    def test_array_binding_matches_object_binding(self, engine_and_records):
        """CompiledBinder (arrays) vs CompiledGraph.bind (factor objects)."""
        catalog, events, sampled = engine_and_records
        engine = BayesPerfEngine(catalog, events)
        for record in sampled.records[:4]:
            prepared = engine._prepare_batch([(None, record)])
            (group,) = prepared.groups
            kernel, binder = engine._compiled_kernel(prepared, group)
            arrays = binder.bind_batch(group.obs_mean, group.obs_variance, prepared.scale)
            observation_factors, constraint_groups = engine._build_factors(
                prepared.summaries[0], engine._scale_view(prepared, 0)
            )
            site_lists = engine._site_factor_lists(observation_factors, constraint_groups)
            objects = kernel.structure.bind([factors for _, factors in site_lists])
            for (ap, ash), (op, osh) in zip(arrays, objects):
                np.testing.assert_allclose(ap[0], op, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(ash[0], osh, rtol=1e-12, atol=1e-12)


class TestSparseConstraintBinding:
    """Sparse ``ConstraintSiteBinder.bind`` against its dense ``A^T A`` twin."""

    def test_default_engine_groups_are_covered(self, x86_engine):
        _, binder = x86_engine._canonical_structure()
        widths = sorted(constraint.width for constraint in binder.constraints)
        assert widths == [3, 3, 43]
        wide = max(binder.constraints, key=lambda constraint: constraint.width)
        assert wide.coefficients.shape[0] == 29
        assert len(wide.plan.layers) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        group=st.integers(min_value=0, max_value=2),
        batch=st.sampled_from([1, 2, 16]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        low=st.floats(min_value=math.log2(1e-9), max_value=48.0),
        span=st.floats(min_value=0.0, max_value=78.0),
        pins=st.lists(
            st.tuples(st.integers(min_value=0), st.sampled_from([1e-9, 2.0**48])),
            max_size=6,
        ),
    )
    def test_sparse_bind_is_bit_identical_to_dense(
        self, x86_engine, group, batch, seed, low, span, pins
    ):
        """Scales from the 1e-9 floor up to 2**48, B=1 and B=N."""
        _, binder = x86_engine._canonical_structure()
        constraint = binder.constraints[group]
        shape = (batch, constraint.width)
        high = min(low + span, 48.0)
        scales = np.exp2(np.random.default_rng(seed).uniform(low, high, size=shape))
        for index, value in pins:
            scales.flat[index % scales.size] = value
        precision, shift = constraint.bind(scales)
        dense_precision, dense_shift = _dense_constraint_bind(constraint, scales)
        assert precision.tobytes() == dense_precision.tobytes()
        assert shift.tobytes() == dense_shift.tobytes()
        for b in range(batch):
            alone, _ = constraint.bind(scales[b : b + 1])
            assert alone[0].tobytes() == precision[b].tobytes()

    def test_signatures_share_one_binder_per_group(self, x86_engine):
        """Every signature's constraint site reuses the group's one plan."""
        _, mega = x86_engine._canonical_structure()
        plans = {tuple(id(constraint.plan) for constraint in mega.constraints)}
        for record in _x86_records(x86_engine, "KMeans", seed=1, ticks=4):
            batch = x86_engine._prepare_batch([(None, record)])
            (group,) = batch.groups
            _, binder = x86_engine._compiled_kernel(batch, group)
            plans.add(tuple(id(constraint.plan) for constraint in binder.constraints))
        assert len(plans) == 1


def _x86_records(engine, workload, *, seed, ticks):
    """*ticks* sampled records of one host over the engine's events."""
    catalog = engine.catalog
    schedule = cached_schedule(catalog, standard_profiling_events(catalog), kind="overlap")
    trace = Machine(MachineConfig(), get_workload(workload), seed=seed).run(ticks)
    return MultiplexedSampler(catalog, schedule, seed=seed + 9).sample(trace).records


def _loop_repaired_targets(kernel, stacked, certified_sites=(), repair_groups=None):
    """Pre-change PD repair: a full-batch Cholesky probe, then one per group."""
    certified = frozenset(certified_sites)
    repaired = []
    for k, (precision, shift) in enumerate(stacked):
        if k in certified:
            repaired.append((precision, shift))
            continue
        try:
            np.linalg.cholesky(precision)
            repaired.append((precision, shift))
            continue
        except np.linalg.LinAlgError:
            pass
        eye = np.eye(precision.shape[-1])
        if repair_groups is None:
            symmetric = 0.5 * (precision + np.swapaxes(precision, -1, -2))
            smallest = np.linalg.eigvalsh(symmetric)[..., 0]
            bump = np.where(smallest <= 0, np.abs(smallest) + 1e-9, 0.0)
            repaired.append((precision + bump[:, None, None] * eye, shift))
            continue
        out = precision.copy()
        failing = []
        for rows in repair_groups:
            try:
                np.linalg.cholesky(precision[rows])
            except np.linalg.LinAlgError:
                failing.append(rows)
        if failing:
            rows = np.concatenate(failing)
            block = precision[rows]
            symmetric = 0.5 * (block + np.swapaxes(block, -1, -2))
            smallest = np.linalg.eigvalsh(symmetric)[..., 0]
            bump = np.where(smallest <= 0, np.abs(smallest) + 1e-9, 0.0)
            out[rows] = block + bump[:, None, None] * eye
        repaired.append((out, shift))
    return repaired


def _loop_run_stacked(
    kernel,
    stacked,
    prior_precision,
    prior_shift,
    certified_sites=(),
    site_index_overrides=None,
    repair_groups=None,
):
    """Pre-change :meth:`CompiledEPKernel.run_stacked`: every sweep, sweep 1
    and the no-op sweep 2 included, damps, diffs and scatters in full."""
    sites = kernel.structure.sites
    batch = prior_shift.shape[0]
    overrides = site_index_overrides or {}
    targets = _loop_repaired_targets(kernel, stacked, certified_sites, repair_groups)
    global_precision = prior_precision.copy()
    global_shift = prior_shift.copy()
    site_precision = [np.zeros_like(t[0]) for t in targets]
    site_shift = [np.zeros_like(t[1]) for t in targets]
    eta = kernel.damping
    active = np.ones(batch, dtype=bool)
    converged = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=np.intp)
    max_delta = np.full(batch, np.inf)
    records = np.arange(batch)[:, None, None]
    for iteration in range(1, kernel.max_iterations + 1):
        iteration_delta = np.zeros(batch)
        for k, site in enumerate(sites):
            old_precision, old_shift = site_precision[k], site_shift[k]
            target_precision, target_shift = targets[k]
            damped_precision = (1 - eta) * old_precision + eta * target_precision
            damped_shift = (1 - eta) * old_shift + eta * target_shift
            old_pmax = np.abs(old_precision).max(axis=(-2, -1))
            new_pmax = np.abs(damped_precision).max(axis=(-2, -1))
            scale_p = np.maximum(np.maximum(old_pmax, new_pmax), 1.0)
            delta_p = np.abs(old_precision - damped_precision).max(axis=(-2, -1)) / scale_p
            old_smax = np.abs(old_shift).max(axis=-1)
            new_smax = np.abs(damped_shift).max(axis=-1)
            scale_s = np.maximum(np.maximum(old_smax, new_smax), 1.0)
            delta_s = np.abs(old_shift - damped_shift).max(axis=-1) / scale_s
            iteration_delta = np.maximum(iteration_delta, np.maximum(delta_p, delta_s))
            diff_precision = np.where(
                active[:, None, None], damped_precision - old_precision, 0.0
            )
            diff_shift = np.where(active[:, None], damped_shift - old_shift, 0.0)
            site_precision[k] = old_precision + diff_precision
            site_shift[k] = old_shift + diff_shift
            table = overrides.get(k)
            if table is None:
                global_precision[:, site.index[:, None], site.index[None, :]] += diff_precision
                global_shift[:, site.index] += diff_shift
            else:
                global_precision[records, table[:, :, None], table[:, None, :]] += diff_precision
                global_shift[records[:, :, 0], table] += diff_shift
        iterations = np.where(active, iteration, iterations)
        max_delta = np.where(active, iteration_delta, max_delta)
        newly_converged = active & (iteration_delta < kernel.tolerance)
        converged |= newly_converged
        active &= ~newly_converged
        if not active.any():
            break
    means, variances = kernel.read_out(global_precision, global_shift)
    return SimpleNamespace(
        posterior_precision=global_precision,
        posterior_shift=global_shift,
        means=means,
        variances=variances,
        iterations=iterations,
        converged=converged,
        max_delta=max_delta,
    )


def _assert_kernel_results_identical(got, want):
    for name in ("means", "variances", "posterior_precision", "posterior_shift", "max_delta"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.iterations.dtype == want.iterations.dtype
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.converged, want.converged)


def _run_stacked_calls(solve):
    """The ``(kernel, args)`` of every ``run_stacked`` call ``solve()`` makes."""
    calls = []
    original = CompiledEPKernel.run_stacked

    def spy(kernel, *args):
        calls.append((kernel, args))
        return original(kernel, *args)

    CompiledEPKernel.run_stacked = spy
    try:
        solve()
    finally:
        CompiledEPKernel.run_stacked = original
    return calls


def dephased_kernel_calls(hosts=16, rotations=7, rounds=2):
    """A warm dephased x86 round's kernel calls, as ``(kernel, run_stacked args)``.

    Host ``h`` starts at rotation offset ``h % rotations``, so one round
    holds ``rotations`` measured-event signatures.  Returns ``"canonical"``,
    the round's one ``process_batch`` call (certified observation site,
    per-record slot table and one repair group per signature);
    ``"canonical-one-signature"``, the ``process_batch`` call for the hosts
    at offset 0 alone; and ``"signature"``, the per-signature twin's call
    for those hosts (``tests/signature_twin.py``).
    """
    catalog = catalog_for("x86")
    engine = BayesPerfEngine(catalog, standard_profiling_events(catalog))
    records = [
        _x86_records(engine, "WordCount", seed=h, ticks=h % rotations + rounds)
        for h in range(hosts)
    ]
    states = [None] * hosts
    for step in range(rounds - 1):
        items = [(states[h], records[h][h % rotations + step]) for h in range(hosts)]
        states = [state for _, state in engine.process_batch(items)]
    last = [(states[h], records[h][h % rotations + rounds - 1]) for h in range(hosts)]
    one_signature = last[::rotations]
    (canonical,) = _run_stacked_calls(lambda: engine.process_batch(last))
    (canonical_one,) = _run_stacked_calls(lambda: engine.process_batch(one_signature))
    (signature,) = _run_stacked_calls(
        lambda: process_batch_by_signature(engine, one_signature)
    )
    return {
        "canonical": canonical,
        "canonical-one-signature": canonical_one,
        "signature": signature,
    }


@pytest.fixture(scope="module")
def kernel_calls():
    return dephased_kernel_calls()


class TestOneSweepKernel:
    """``run_stacked`` (closed-form sweep 1, proven no-op sweep 2, one-call
    PD probe) against the pre-change loop, bit for bit."""

    def test_calls_have_the_production_shapes(self, kernel_calls):
        """Every analytic batch, one signature or seven, is one canonical call."""
        kernel, (_, prior_precision, _, certified, overrides, groups) = kernel_calls[
            "canonical"
        ]
        assert prior_precision.shape[0] == 16 and len(groups) == 7
        assert certified and set(overrides) == set(certified)
        one, (_, prior_precision, _, certified, overrides, groups) = kernel_calls[
            "canonical-one-signature"
        ]
        assert one is kernel
        assert prior_precision.shape[0] == 3 and len(groups) == 1
        assert certified and set(overrides) == set(certified)
        twin, args = kernel_calls["signature"]
        assert twin is not kernel and len(args) == 3

    @settings(max_examples=120, deadline=None)
    @given(
        call=st.sampled_from(["canonical", "canonical-one-signature", "signature"]),
        eta=st.sampled_from([1.0, 0.7, 0.3]),
        max_iterations=st.sampled_from([1, 2, 8]),
        tolerance=st.sampled_from([1e-6, 0.0]),
        lane=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
        small=st.booleans(),
        poison=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        poison_at=st.tuples(st.integers(0, 3), st.integers(0, 15), st.booleans()),
        negative_zero=st.booleans(),
    )
    def test_run_stacked_matches_loop_twin(
        self, kernel_calls, call, eta, max_iterations, tolerance, lane, small, poison,
        poison_at, negative_zero,
    ):
        compiled, args = kernel_calls[call]
        stacked, prior_precision, prior_shift = args[:3]
        certified, overrides, groups = args[3:] or ((), None, None)
        stacked = [(p.copy(), s.copy()) for p, s in stacked]
        prior_precision, prior_shift = prior_precision.copy(), prior_shift.copy()
        if lane is not None:  # B=1
            pick = slice(lane % prior_shift.shape[0], lane % prior_shift.shape[0] + 1)
            stacked = [(p[pick], s[pick]) for p, s in stacked]
            prior_precision, prior_shift = prior_precision[pick], prior_shift[pick]
            if overrides is not None:
                overrides = {k: table[pick] for k, table in overrides.items()}
            if groups is not None:
                groups = [np.array([0])]
        if small:  # every lane converges in sweep 1
            stacked = [(p * 2.0**-60, s * 2.0**-60) for p, s in stacked]
        if poison is not None:
            site, record, in_shift = poison_at
            precision, shift = stacked[site % len(stacked)]
            record %= prior_shift.shape[0]
            if in_shift:
                shift[record, 0] = poison
            else:
                precision[record, 0, 0] = poison
        if negative_zero:  # in the priors and the targets
            for array in (prior_precision, prior_shift, *(a for block in stacked for a in block)):
                array[array == 0.0] = -0.0
        kernel = CompiledEPKernel(
            compiled.structure, damping=eta, max_iterations=max_iterations, tolerance=tolerance
        )
        args = (stacked, prior_precision, prior_shift, certified, overrides, groups)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                want = _loop_run_stacked(kernel, *args)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    kernel.run_stacked(*args)
                return
            got = kernel.run_stacked(*args)
        _assert_kernel_results_identical(got, want)
        if small and poison is None and tolerance > 0:
            assert (got.iterations == 1).all() and got.converged.all()

    def test_default_engine_settings_stop_after_the_no_op_sweep(self, kernel_calls):
        """Damping 1 at the engine defaults: two sweeps, converged, delta 0."""
        kernel, args = kernel_calls["canonical"]
        got = kernel.run_stacked(*args)
        _assert_kernel_results_identical(got, _loop_run_stacked(kernel, *args))
        assert (got.iterations == 2).all() and got.converged.all()
        assert (got.max_delta == 0.0).all()

    def test_uncovered_negative_zero_survives(self, kernel_calls):
        """The no-op sweep must not normalise prior -0.0 entries no site
        touches.  Only a per-signature structure leaves variables uncovered
        (the canonical observation site spans every variable), so the twin's
        call carries this pin."""
        kernel, (stacked, prior_precision, prior_shift, *rest) = kernel_calls["signature"]
        zero = prior_precision == 0.0
        prior_precision = np.where(zero, -0.0, prior_precision)
        untouched = zero.copy()
        for site in kernel.structure.sites:
            untouched[:, site.index[:, None], site.index[None, :]] = False
        assert untouched.any()
        got = kernel.run_stacked(stacked, prior_precision, prior_shift, *rest)
        assert np.signbit(got.posterior_precision[untouched]).all()


class TestRowBackedReports:
    """Row-backed ``PosteriorReport`` against an eagerly built one."""

    def test_reads_match_an_eager_report(self, x86_engine):
        hosts = [_x86_records(x86_engine, "WordCount", seed=h, ticks=3) for h in range(4)]
        states = [None] * len(hosts)
        for slot in range(3):
            items = [(states[h], records[slot]) for h, records in enumerate(hosts)]
            for h, (report, state) in enumerate(x86_engine.process_batch(items)):
                states[h] = state
                events, means, stds = report._rows
                assert events == x86_engine.monitored_events
                eager = PosteriorReport(
                    report.tick,
                    {e: EventEstimate(e, m, s) for e, m, s in zip(events, means, stds)},
                    report.measured_events,
                    report.ep_iterations,
                    report.ep_converged,
                )
                # Row reads first, while no EventEstimate exists yet.
                assert report.means() == eager.means()
                assert report.stds() == eager.stds()
                assert all(event in report for event in events)
                assert "NOT.AN_EVENT" not in report and "NOT.AN_EVENT" not in eager
                assert report._estimates is None
                assert report.most_uncertain(7) == eager.most_uncertain(7)
                assert report.estimates == eager.estimates
                for event in events:
                    assert report[event].interval(0.9) == eager[event].interval(0.9)
                assert report == eager
                assert report.means() == eager.means()

    def test_negative_sigma_row_is_rejected(self, x86_engine):
        (record,) = _x86_records(x86_engine, "KMeans", seed=1, ticks=1)
        batch = x86_engine._prepare_batch([(None, record), (None, record)])
        shape = batch.scale.shape
        solved = (np.ones(shape), np.ones(shape), np.ones(2, int), np.ones(2, bool))
        batch.scale[1, 0] = -1.0
        with pytest.raises(ValueError, match="std must be non-negative"):
            x86_engine._finalize(batch, solved)

    def test_default_report_accepts_assignment(self):
        report = PosteriorReport(tick=0)
        assert "a" not in report and report.means() == {}
        report.estimates["a"] = EventEstimate("a", 10.0, 5.0)
        report.estimates["b"] = EventEstimate("b", 10.0, 0.1)
        assert "a" in report
        assert report.means() == {"a": 10.0, "b": 10.0}
        assert report.stds() == {"a": 5.0, "b": 0.1}
        assert report.most_uncertain(1)[0].event == "a"


class TestSiteMCMCTwin:
    """Batched per-site tilted MCMC against its object-walking twin."""

    def _student_t_problem(self):
        graph = FactorGraph(variables=["a", "b"])
        d1 = StudentT(loc=1.2, scale=0.4, df=3.0)
        d2 = StudentT(loc=-0.5, scale=0.7, df=2.2)
        graph.add_factor(StudentTObservation("obs_a", "a", d1))
        graph.add_factor(StudentTObservation("obs_b", "b", d2))
        graph.add_factor(LinearConstraintFactor("rel", {"a": 1.0, "b": 1.0}, sigma=0.3))
        sites = [EPSite("obs", ("obs_a", "obs_b")), EPSite("rel", ("rel",))]
        prior = GaussianDensity.diagonal({"a": 0.0, "b": 0.0}, {"a": 4.0, "b": 4.0})
        tail = StudentTTail(
            slots=np.array([0, 1], dtype=np.intp),
            loc=np.array([[d1.loc, d2.loc]]),
            scale=np.array([[d1.scale, d2.scale]]),
            df=np.array([[d1.df, d2.df]]),
            variance=np.array([[d1.variance, d2.variance]]),
        )
        return graph, sites, prior, tail

    def _batched(self, graph, sites, prior, tail, seed, *, adapt=True, recorder=None):
        structure = compile_factor_graph(graph, sites, prior.variables)
        kernel = CompiledEPKernel(structure, damping=1.0, max_iterations=4)
        binding = structure.bind(site_factor_lists(graph, sites))
        stacked = [(p[None, ...], s[None, ...]) for p, s in binding]
        sampler = BatchedSiteMCMC(
            kernel, n_samples=60, burn_in=60, adapt=adapt, recorder=recorder
        )
        return sampler.run(
            stacked,
            prior.precision[None, ...],
            prior.shift[None, ...],
            seeds=[seed],
            site_tails={0: tail},
        )

    def _twin(self, graph, sites, prior, *, adapt=True, recorder=None):
        site_lists = [
            (site.name, [graph.factor(name) for name in site.factor_names])
            for site in sites
        ]
        return ReferenceSiteMCMC(
            site_lists,
            prior,
            n_samples=60,
            burn_in=60,
            adapt=adapt,
            damping=1.0,
            max_iterations=4,
        )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_student_t_twin_agreement(self, seed):
        graph, sites, prior, tail = self._student_t_problem()
        fast = self._batched(graph, sites, prior, tail, seed)
        moments = self._twin(graph, sites, prior).run(rng=np.random.default_rng(seed))
        for i in range(len(prior.variables)):
            assert _gap(fast.means[0, i], moments.means[i]) < TOLERANCE
            assert _gap(fast.variances[0, i], moments.variances[i]) < TOLERANCE
        assert int(fast.iterations[0]) == moments.iterations
        assert bool(fast.converged[0]) == moments.converged

    @given(
        problem=_random_student_t_problem(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_graph_twin_agreement(self, problem, seed):
        graph, sites, prior, observed = problem
        distributions = [graph.factor(f"obs_{v}").distribution for v in observed]
        # Site-local slots: the observation site's variables, in order.
        tail = StudentTTail(
            slots=np.arange(len(observed), dtype=np.intp),
            loc=np.array([[d.loc for d in distributions]]),
            scale=np.array([[d.scale for d in distributions]]),
            df=np.array([[d.df for d in distributions]]),
            variance=np.array([[d.variance for d in distributions]]),
        )
        fast = self._batched(graph, sites, prior, tail, seed)
        moments = self._twin(graph, sites, prior).run(rng=np.random.default_rng(seed))
        for i in range(len(prior.variables)):
            assert _gap(fast.means[0, i], moments.means[i]) < TOLERANCE
            assert _gap(fast.variances[0, i], moments.variances[i]) < TOLERANCE

    def test_gaussian_sites_solved_exactly(self):
        """Zero sampled correction => the analytic kernel's posterior, exactly."""
        graph = FactorGraph(variables=["a", "b", "c"])
        graph.add_factor(GaussianObservation("obs_a", "a", observed=2.0, sigma=0.5))
        graph.add_factor(GaussianObservation("obs_b", "b", observed=1.0, sigma=0.8))
        graph.add_factor(
            LinearConstraintFactor("sum", {"a": 1.0, "b": 1.0, "c": -1.0}, sigma=0.1)
        )
        sites = [EPSite("obs", ("obs_a", "obs_b")), EPSite("rel", ("sum",))]
        prior = GaussianDensity.diagonal(
            {"a": 0.0, "b": 0.0, "c": 0.0}, {"a": 9.0, "b": 9.0, "c": 9.0}
        )
        structure = compile_factor_graph(graph, sites, prior.variables)
        kernel = CompiledEPKernel(structure, damping=1.0, max_iterations=6)
        binding = structure.bind(site_factor_lists(graph, sites))
        stacked = [(p[None, ...], s[None, ...]) for p, s in binding]
        sampler = BatchedSiteMCMC(kernel, n_samples=40, burn_in=30)
        sampled = sampler.run(
            stacked, prior.precision[None, ...], prior.shift[None, ...], seeds=[7]
        )
        analytic = kernel.run([binding], [prior])
        assert np.array_equal(sampled.means, analytic.means)
        assert np.array_equal(sampled.variances, analytic.variances)
        # The exactness is a coupling property, not a skip: the chains ran.
        assert 0.05 < float(sampled.acceptance_rates[0]) < 0.95

    def test_student_t_correction_is_engaged(self):
        """Non-Gaussian sites must move the posterior off the projection."""
        graph = FactorGraph(variables=["a"])
        graph.add_factor(
            StudentTObservation("obs_a", "a", StudentT(loc=1.0, scale=0.5, df=2.5))
        )
        sites = [EPSite("obs", ("obs_a",))]
        prior = GaussianDensity.diagonal({"a": 0.0}, {"a": 4.0})
        structure = compile_factor_graph(graph, sites, prior.variables)
        kernel = CompiledEPKernel(structure, damping=1.0, max_iterations=4)
        binding = structure.bind(site_factor_lists(graph, sites))
        tail = StudentTTail(
            slots=np.array([0], dtype=np.intp),
            loc=np.array([[1.0]]),
            scale=np.array([[0.5]]),
            df=np.array([[2.5]]),
            variance=np.array([[float(student_t_moment_variance(0.5, 2.5))]]),
        )
        result = BatchedSiteMCMC(kernel, n_samples=300, burn_in=150).run(
            [(p[None, ...], s[None, ...]) for p, s in binding],
            prior.precision[None, ...],
            prior.shift[None, ...],
            seeds=[11],
            site_tails={0: tail},
        )
        analytic = kernel.run([binding], [prior])
        assert not np.array_equal(result.variances, analytic.variances)
        assert np.all(np.isfinite(result.means)) and np.all(result.variances > 0)

    def test_adaptation_changes_numerics_and_twin_follows(self):
        graph, sites, prior, tail = self._student_t_problem()
        adapted = self._batched(graph, sites, prior, tail, 11, adapt=True)
        fixed = self._batched(graph, sites, prior, tail, 11, adapt=False)
        assert not np.array_equal(adapted.means, fixed.means)
        twin_fixed = self._twin(graph, sites, prior, adapt=False).run(
            rng=np.random.default_rng(11)
        )
        for i in range(len(prior.variables)):
            assert _gap(fixed.means[0, i], twin_fixed.means[i]) < TOLERANCE

    def test_chain_trace_recorded_on_both_paths(self):
        """Both twins capture the same measured site-visit schedule."""
        graph, sites, prior, tail = self._student_t_problem()
        fast_trace, twin_trace = ChainTrace(), ChainTrace()
        self._batched(graph, sites, prior, tail, 3, recorder=fast_trace)
        twin = self._twin(graph, sites, prior)
        twin.recorder = twin_trace
        twin.run(rng=np.random.default_rng(3))
        assert fast_trace.n_visits == twin_trace.n_visits > 0
        for fast, slow in zip(fast_trace.visits, twin_trace.visits):
            assert (fast.site, fast.iteration, fast.width, fast.n_factors) == (
                slow.site,
                slow.iteration,
                slow.width,
                slow.n_factors,
            )
            assert fast.n_steps == slow.n_steps == 120
            assert fast.accepted == slow.accepted
            # The per-window burn-in acceptance trajectory is coupled too
            # (burn_in=60 spans one 50-step adaptation window).
            assert fast.windows == slow.windows
            assert len(fast.windows) == 1

    def _seeded_twin(self):
        graph, sites, prior, _ = self._student_t_problem()
        return self._twin(graph, sites, prior)

    # -- seed handling: ``run`` derives everything from its rng argument --

    def test_explicit_rng_is_reproducible_across_runs(self):
        twin = self._seeded_twin()
        first = twin.run(rng=np.random.default_rng(42))
        second = twin.run(rng=np.random.default_rng(42))
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.variances, second.variances)
        assert first.acceptance_rate == second.acceptance_rate

    def test_constructor_seed_is_reproducible_without_rng(self):
        twin = self._seeded_twin()
        assert np.array_equal(twin.run().means, twin.run().means)

    def test_different_seeds_differ(self):
        twin = self._seeded_twin()
        first = twin.run(rng=np.random.default_rng(1))
        second = twin.run(rng=np.random.default_rng(2))
        assert not np.array_equal(first.means, second.means)

    def test_rejects_non_anchor_free_factors(self):
        class Anchored(GaussianObservation):
            @property
            def anchor_free(self):
                return False

        prior = GaussianDensity.diagonal({"a": 0.0}, {"a": 1.0})
        with pytest.raises(ValueError, match="anchor-free"):
            ReferenceSiteMCMC([("obs", [Anchored("obs", "a", 0.0, 1.0)])], prior)

    def test_engine_batch_equals_looped_site_mcmc(self):
        """B=1 == B=N bit-identity for the per-site sampler inside the engine."""
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=16)
        schedule = cached_schedule(catalog, events, kind="overlap")
        trace = Machine(MachineConfig(), get_workload("KMeans"), seed=3).run(4)
        sampled = MultiplexedSampler(catalog, schedule, seed=4).sample(trace)
        engine = BayesPerfEngine(
            catalog, events, moment_estimator="mcmc",
            mcmc_samples=25, mcmc_burn_in=15, ep_max_iterations=2,
        )
        hosts, depth = 3, 2
        states = [None] * hosts
        batched = [[] for _ in range(hosts)]
        for slot in range(depth):
            items = [(states[h], sampled.records[slot]) for h in range(hosts)]
            for h, (report, state) in enumerate(engine.process_batch(items)):
                states[h] = state
                batched[h].append(report)
        for h in range(hosts):
            state = None
            for slot in range(depth):
                engine.restore(state) if state is not None else engine.reset()
                report = engine.process_record(sampled.records[slot])
                state = engine.snapshot()
                assert report.means() == batched[h][slot].means()
                assert report.stds() == batched[h][slot].stds()


class TestEngineDifferential:
    """Engine-level: each estimator's fast path against its reference twin."""

    @pytest.fixture(scope="class")
    def workload(self):
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=16)
        schedule = cached_schedule(catalog, events, kind="overlap")
        trace = Machine(MachineConfig(), get_workload("KMeans"), seed=5).run(6)
        return catalog, events, MultiplexedSampler(catalog, schedule, seed=6).sample(trace)

    def _max_trace_gap(self, a, b):
        gap = 0.0
        for tick in range(len(a)):
            want, got = a.at(tick), b.at(tick)
            for event in want:
                gap = max(gap, _gap(got[event], want[event]))
        return gap

    def test_site_mcmc_fast_path_matches_object_twin(self, workload):
        catalog, events, sampled = workload
        kwargs = dict(
            moment_estimator="mcmc", mcmc_samples=30, mcmc_burn_in=20,
            ep_max_iterations=2,
        )
        fast = BayesPerfEngine(catalog, events, **kwargs).correct(sampled)
        twin = BayesPerfEngine(
            catalog, events, use_compiled_kernel=False, **kwargs
        ).correct(sampled)
        assert self._max_trace_gap(fast, twin) < TOLERANCE

    def test_site_mcmc_tracks_analytic_on_gaussian_model(self, workload):
        """With exact Gaussian observations the per-site chains cannot drift."""
        catalog, events, sampled = workload
        analytic = BayesPerfEngine(
            catalog, events, observation_model="gaussian", ep_max_iterations=2,
        ).correct(sampled)
        sampled_estimates = BayesPerfEngine(
            catalog, events, observation_model="gaussian",
            moment_estimator="mcmc", mcmc_samples=30, mcmc_burn_in=20,
            ep_max_iterations=2,
        ).correct(sampled)
        assert self._max_trace_gap(analytic, sampled_estimates) < TOLERANCE

    def test_unknown_estimator_rejected(self, workload):
        catalog, events, _ = workload
        with pytest.raises(ValueError, match="moment estimator"):
            BayesPerfEngine(catalog, events, moment_estimator="turbo")

    def test_empty_sample_array_fails_loudly(self, workload):
        """Zero sub-samples for a measured event must raise, not emit NaNs."""
        catalog, events, sampled = workload
        engine = BayesPerfEngine(catalog, events)
        record = sampled.records[0]
        broken = type(record)(
            tick=record.tick,
            configuration=record.configuration,
            samples={**record.samples, next(iter(record.samples)): np.empty(0)},
        )
        with pytest.raises(ValueError, match="no samples"):
            engine.process_record(broken)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sub_sample_fails_loudly(self, workload, bad):
        """One NaN/inf sub-sample must raise, naming the tick and event."""
        catalog, events, sampled = workload
        engine = BayesPerfEngine(catalog, events)
        record = sampled.records[0]
        event = next(iter(record.samples))
        samples = np.array(record.samples[event], dtype=float)
        samples[0] = bad
        broken = type(record)(
            tick=record.tick,
            configuration=record.configuration,
            samples={**record.samples, event: samples},
        )
        match = f"tick {record.tick} has non-finite samples .*{event}"
        # Rejected before any arithmetic touches the samples: no numpy
        # RuntimeWarning on the way to the ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                engine.process_record(broken)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ragged_sub_sample_fails_loudly(self, workload, bad):
        """The ragged (per-event) summary path rejects it the same way."""
        catalog, events, sampled = workload
        engine = BayesPerfEngine(catalog, events)
        record = sampled.records[0]
        first, second = list(record.samples)[:2]
        samples = np.append(np.array(record.samples[second], dtype=float), 1.0)
        samples[0] = bad
        broken = type(record)(
            tick=record.tick,
            configuration=record.configuration,
            samples={**record.samples, second: samples},
        )
        assert len(broken.samples[first]) != len(samples)
        match = f"tick {record.tick} has non-finite samples .*{second}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                engine.process_record(broken)

    def test_group_summaries_match_per_record_summaries(self, workload):
        """A batch's group summaries are bit-identical to batches of one.

        Mixed sub-sample counts put the group on the per-event (ragged)
        path while each record alone takes the stacked path.
        """
        catalog, events, sampled = workload
        engine = BayesPerfEngine(catalog, events)
        records = list(sampled.records)
        short = records[0]
        records.append(
            type(short)(
                tick=short.tick,
                configuration=short.configuration,
                samples={event: np.asarray(v)[:-1] for event, v in short.samples.items()},
            )
        )
        for batch in (records, records[:-1]):
            for rows, group in engine._observation_summaries(batch):
                for g, row in enumerate(rows.tolist()):
                    ((_, alone),) = engine._observation_summaries([batch[row]])
                    assert alone.events == group.events
                    for got, want in (
                        (group.loc[g], alone.loc[0]),
                        (group.scale[g], alone.scale[0]),
                        (group.df[g], alone.df[0]),
                    ):
                        assert got.tobytes() == want.tobytes()


#: Committed golden traces.  The homogeneous one (a single-host session
#: recording, pinned in ``test_fleet.py``) replays here through the fleet
#: pipeline; the heterogeneous one is a 32-host mixed-signature fleet run log
#: (version-3 host-keyed estimates) whose generation recipe is re-executed
#: below and compared host-by-host.
GOLDEN_TRACE = Path(__file__).parent / "fixtures" / "golden_fleet_trace.jsonl"
GOLDEN_HETERO_TRACE = Path(__file__).parent / "fixtures" / "golden_hetero_trace.jsonl"


class TestGoldenHeteroFleet:
    """Replay pin for the committed heterogeneous 32-host fleet run log.

    Host ``h`` monitors a seeded random subset (4-12 events) of the
    12-event x86 profiling union, phase-shifted ``h mod R`` into its
    schedule rotation, so one fleet round spans ~37 distinct measured-event
    signatures.  The fixture stores every host's per-tick estimates from
    the per-signature batched solve; re-running the recipe (which now
    solves every round on the canonical structure) must reproduce them, and
    must match the per-signature twin (``tests/signature_twin.py``)
    **exactly**, with or without kernel threads.

    Comparison against the committed file uses the same 1e-9 relative
    tolerance as the homogeneous golden pin (exact float equality would be
    BLAS/CPU-build dependent across CI runners); within-run cross-path
    comparisons stay exact.
    """

    N_HOSTS = 32
    TICKS = 2
    SEED_BASE = 2000

    @pytest.fixture(scope="class")
    def fleet(self):
        catalog = catalog_for("x86")
        union = standard_profiling_events(catalog, n_events=12)
        spec = get_workload("steady")
        hosts = []
        for host in range(self.N_HOSTS):
            rng = np.random.default_rng(self.SEED_BASE + host)
            size = int(rng.integers(4, 13))
            subset = tuple(
                union[i]
                for i in sorted(rng.choice(len(union), size=size, replace=False))
            )
            schedule = cached_schedule(catalog, subset)
            offset = host % len(schedule.configurations)
            trace = Machine(MachineConfig(), spec, seed=host).run(offset + self.TICKS)
            sampled = MultiplexedSampler(
                catalog, schedule, seed=host + 1, samples_per_tick=4
            )
            hosts.append(sampled.sample(trace).records[offset : offset + self.TICKS])
        return catalog, union, hosts

    def _run_fleet(self, catalog, union, hosts, by_signature=False):
        """One fleet round per tick through ``process_batch`` (the recipe).

        ``by_signature`` runs each round through the per-signature twin
        instead: one structure and one kernel call per signature group.
        """
        engine = BayesPerfEngine(catalog, union)
        process = process_batch_by_signature if by_signature else BayesPerfEngine.process_batch
        states = [None] * len(hosts)
        outputs = [[] for _ in hosts]
        for tick in range(self.TICKS):
            items = [(states[h], records[tick]) for h, records in enumerate(hosts)]
            results = process(engine, items)
            for h, (report, state) in enumerate(results):
                states[h] = state
                outputs[h].append((report.means(), report.stds()))
        return outputs

    def test_fixture_is_a_mixed_signature_fleet(self, fleet):
        """The fixture covers what it claims: 32 hosts, many signatures."""
        _, _, hosts = fleet
        golden = read_trace(GOLDEN_HETERO_TRACE)
        assert len(golden.host_estimates) == self.N_HOSTS
        assert all(len(t) == self.TICKS for t in golden.host_estimates.values())
        signatures = {
            tuple(sorted(record.samples)) for records in hosts for record in records
        }
        assert len(signatures) == golden.metadata["distinct_signatures"] > 30

    def test_replay_reproduces_committed_estimates(self, fleet):
        """Re-running the recorded recipe reproduces every host's estimates."""
        catalog, union, hosts = fleet
        golden = read_trace(GOLDEN_HETERO_TRACE)
        outputs = self._run_fleet(catalog, union, hosts)
        for h, per_tick in enumerate(outputs):
            want = golden.host_estimates[f"h{h:02d}"]
            for tick, (means, stds) in enumerate(per_tick):
                stored = want.at(tick)
                assert stored.keys() == means.keys()
                for event, value in stored.items():
                    assert means[event] == pytest.approx(value, rel=1e-9)
                sigma = want.uncertainties[tick]
                for event, value in sigma.items():
                    assert stds[event] == pytest.approx(value, rel=1e-9)
        # Spot-pin one value so a wholesale fixture rewrite is also caught.
        assert golden.host_estimates["h00"].at(0)[
            "BR_INST_RETIRED.ALL_BRANCHES"
        ] == pytest.approx(331128.2579, abs=1e-3)

    def test_megabatch_and_partitioned_paths_match_exactly(self, fleet):
        """Canonical rounds equal the per-signature twin's rounds (each
        batch partitioned into one kernel call per signature) bit-for-bit
        on the golden fleet, and therefore pin against the fixture
        transitively."""
        catalog, union, hosts = fleet
        baseline = self._run_fleet(catalog, union, hosts, by_signature=True)
        assert baseline == self._run_fleet(catalog, union, hosts)

    def test_homogeneous_golden_replays_under_megabatch_engine(self):
        """The pre-existing single-host golden fixture, replayed through the
        fleet pipeline (whose engines solve every batch on the canonical
        structure), still reproduces its committed estimates: each batch
        holds one signature."""
        golden = read_trace(GOLDEN_TRACE)
        spec = RunSpec(
            arch=golden.arch, hosts=(HostSpec(trace=str(GOLDEN_TRACE)),), n_workers=2
        )
        result = Pipeline.from_spec(spec).run()
        got, want = result.estimates["host-000"], golden.estimates
        assert len(got) == len(want)
        for tick in range(len(want)):
            got_values, want_values = got.at(tick), want.at(tick)
            assert got_values.keys() == want_values.keys()
            for event, value in want_values.items():
                assert got_values[event] == pytest.approx(value, rel=1e-9)


# -- synthetic sampling stream -------------------------------------------------


def _reference_perturb_sample(noise, value, rng):
    """``NoiseModel.perturb_sample`` as one scalar ``rng.normal`` per draw."""
    noisy = value * (1.0 + noise.overcount_bias)
    if noise.read_noise > 0:
        noisy *= float(np.exp(rng.normal(0.0, noise.read_noise)))
    if noise.os_spike_probability > 0 and rng.random() < noise.os_spike_probability:
        noisy *= float(np.exp(rng.normal(0.0, noise.os_spike_magnitude)))
    return max(noisy, 0.0)


class _ReferenceSampler(MultiplexedSampler):
    """The sampler with numpy's ``dirichlet`` and a per-value noise call."""

    def _sample_event(self, true_value):
        weights = self._rng.dirichlet(np.full(self.samples_per_tick, 50.0))
        return np.array(
            [_reference_perturb_sample(self.noise, v, self._rng) for v in true_value * weights],
            dtype=float,
        )


class _ReferenceMachine(Machine):
    """The machine with one scalar ``rng.normal`` call per jittered rate."""

    def run(self, n_ticks):
        trace = MachineTrace(workload=self.workload.name, config=self.config)
        log_intensity = 0.0
        for tick in range(n_ticks):
            profile = self.workload.profile_at(tick)
            sigma = profile.burstiness
            phi = profile.burst_correlation
            if sigma > 0:
                innovation_scale = sigma * np.sqrt(max(1.0 - phi * phi, 1e-12))
                log_intensity = phi * log_intensity + self._rng.normal(0.0, innovation_scale)
            else:
                log_intensity = 0.0
            intensity = float(np.exp(log_intensity)) * self._run_offset
            jitter = {}
            if self.config.rate_jitter > 0:
                for name in _JITTERED_RATES:
                    jitter[name] = float(np.exp(self._rng.normal(0.0, self.config.rate_jitter)))
            values = synthesize_semantics(profile, intensity=intensity, rate_jitter=jitter)
            trace.ticks.append(values)
            trace.intensities.append(intensity)
        return trace


_NOISE_MODELS = {
    "default": NoiseModel(),
    "noiseless": NoiseModel.noiseless(),
    "no-read-noise": NoiseModel(read_noise=0.0),
    "never-spikes": NoiseModel(os_spike_probability=0.0),
    "always-spikes": NoiseModel(os_spike_probability=1.0),
    "overcount": NoiseModel(overcount_bias=0.05),
}
_TRUE_VALUES = (0.0, 1e-300, 1.0, float(2**47))


def _assert_same_samples(got, want):
    assert got.events == want.events
    assert got.enabled_ticks == want.enabled_ticks
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert a.configuration == b.configuration
        assert list(a.samples) == list(b.samples)
        for event in a.samples:
            assert a.samples[event].tobytes() == b.samples[event].tobytes()


class TestSyntheticSamplingStream:
    """The unrolled sampler and machine draw the same stream as their twins.

    Equal output bits and an equal final ``bit_generator.state`` show both
    sides consumed the same draws in the same order, so every seeded input
    (and with it every perfbench digest) is unchanged.
    """

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
    def test_dirichlet_is_normalised_standard_gamma(self, n):
        """numpy's ``dirichlet`` (alpha >= 0.1) is its gamma draws summed
        left to right and scaled by ``1 / sum``; the sampler relies on it."""
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.dirichlet(np.full(n, 50.0))
            gammas = b.standard_gamma(50.0, n).tolist()
            total = 0.0
            for gamma in gammas:
                total = total + gamma
            got = np.array([gamma * (1.0 / total) for gamma in gammas])
            assert got.tobytes() == want.tobytes(), (seed, n)
            assert a.bit_generator.state == b.bit_generator.state

    @given(
        seed=st.integers(0, 2**32 - 1),
        samples_per_tick=st.sampled_from([1, 2, 4, 7]),
        noise=st.sampled_from(sorted(_NOISE_MODELS)),
        values=st.lists(st.sampled_from(_TRUE_VALUES), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_event_matches_twin(self, seed, samples_per_tick, noise, values):
        catalog = catalog_for("x86")
        schedule = cached_schedule(catalog, standard_profiling_events(catalog, n_events=8))
        kwargs = dict(noise=_NOISE_MODELS[noise], samples_per_tick=samples_per_tick, seed=seed)
        fast = MultiplexedSampler(catalog, schedule, **kwargs)
        twin = _ReferenceSampler(catalog, schedule, **kwargs)
        for value in values:
            got, want = fast._sample_event(value), twin._sample_event(value)
            assert got.dtype == want.dtype and got.shape == (samples_per_tick,)
            assert got.tobytes() == want.tobytes()
        assert fast._rng.bit_generator.state == twin._rng.bit_generator.state

    @given(
        seed=st.integers(0, 2**16),
        workload=st.sampled_from(["KMeans", "PageRank", "steady"]),
        samples_per_tick=st.sampled_from([1, 2, 4, 7]),
        noise=st.sampled_from(sorted(_NOISE_MODELS)),
        rate_jitter=st.sampled_from([0.0, 0.03, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_machine_and_sampler_match_twins(
        self, seed, workload, samples_per_tick, noise, rate_jitter
    ):
        config = MachineConfig(rate_jitter=rate_jitter)
        spec = get_workload(workload)
        machine = Machine(config, spec, seed=seed)
        machine_twin = _ReferenceMachine(config, spec, seed=seed)
        trace, trace_twin = machine.run(9), machine_twin.run(9)
        assert trace.intensities == trace_twin.intensities
        for values, values_twin in zip(trace.ticks, trace_twin.ticks):
            assert list(values) == list(values_twin)
            assert (
                np.array(list(values.values())).tobytes()
                == np.array(list(values_twin.values())).tobytes()
            )
        assert machine._rng.bit_generator.state == machine_twin._rng.bit_generator.state

        catalog = catalog_for("x86")
        schedule = cached_schedule(catalog, standard_profiling_events(catalog))
        kwargs = dict(noise=_NOISE_MODELS[noise], samples_per_tick=samples_per_tick, seed=seed + 1)
        fast = MultiplexedSampler(catalog, schedule, **kwargs)
        twin = _ReferenceSampler(catalog, schedule, **kwargs)
        _assert_same_samples(fast.sample(trace), twin.sample(trace))
        assert fast._rng.bit_generator.state == twin._rng.bit_generator.state
