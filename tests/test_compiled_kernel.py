"""Equivalence suite: compiled EP kernel vs. the reference implementation.

The compiled kernel must be a drop-in replacement for analytic-estimator
EP: posteriors within 1e-8 of the reference on the seed benchmark graphs,
batched solves exactly equal to looped single-record solves, and graceful
fallback for everything it cannot compile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.engine import BayesPerfEngine
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fg import (
    CompiledEPKernel,
    ExpectationPropagation,
    FactorGraph,
    GaussianDensity,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    compile_factor_graph,
    site_factor_lists,
)
from repro.fg.distributions import StudentT
from repro.fg.ep import EPSite
from repro.fg.factors import Factor, StudentTObservation
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload


def _relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _run_both(graph, sites, prior, *, damping=0.5, max_iterations=25):
    """(reference EPResult, compiled CompiledEPResult) for one graph."""
    reference = ExpectationPropagation(
        graph, sites, prior, damping=damping, max_iterations=max_iterations
    ).run()
    structure = compile_factor_graph(graph, sites, prior.variables)
    assert structure is not None
    kernel = CompiledEPKernel(structure, damping=damping, max_iterations=max_iterations)
    binding = structure.bind(site_factor_lists(graph, sites))
    compiled = kernel.run([binding], [prior])
    return reference, compiled


def _assert_posteriors_match(reference, compiled, tolerance=1e-8):
    ref_mean = reference.posterior.mean()
    ref_var = reference.posterior.variance()
    com_mean = compiled.mean_dict(0)
    com_var = compiled.variance_dict(0)
    for name in ref_mean:
        assert com_mean[name] == pytest.approx(ref_mean[name], rel=tolerance, abs=tolerance)
        assert com_var[name] == pytest.approx(ref_var[name], rel=tolerance, abs=tolerance)
    assert int(compiled.iterations[0]) == reference.iterations
    assert bool(compiled.converged[0]) == reference.converged


def _bench_graph(observed=2.0):
    """The seed test graph: one observation, one constraint, one prior."""
    graph = FactorGraph(variables=["a", "b", "c"])
    graph.add_factor(GaussianObservation("obs_a", "a", observed=observed, sigma=0.1))
    graph.add_factor(LinearConstraintFactor("sum", {"a": 1.0, "b": 1.0, "c": -1.0}, sigma=0.05))
    graph.add_factor(GaussianPriorFactor("prior_b", {"b": 1.0}, {"b": 0.25}))
    sites = [
        EPSite("observations", ("obs_a", "prior_b")),
        EPSite("constraints", ("sum",)),
    ]
    prior = GaussianDensity.diagonal(
        {"a": 1.0, "b": 1.0, "c": 2.0}, {"a": 25.0, "b": 25.0, "c": 25.0}
    )
    return graph, sites, prior


class TestKernelMatchesReference:
    def test_seed_graph_damped(self):
        reference, compiled = _run_both(*_bench_graph(), damping=0.5)
        _assert_posteriors_match(reference, compiled)

    def test_seed_graph_undamped(self):
        reference, compiled = _run_both(*_bench_graph(), damping=1.0)
        _assert_posteriors_match(reference, compiled)

    def test_student_t_observations(self):
        graph = FactorGraph(variables=["x", "y"])
        graph.add_factor(
            StudentTObservation("obs_x", "x", StudentT(loc=4.0, scale=0.5, df=6.0))
        )
        graph.add_factor(
            StudentTObservation("obs_y", "y", StudentT(loc=1.0, scale=0.2, df=2.0))
        )
        graph.add_factor(LinearConstraintFactor("xy", {"x": 1.0, "y": -2.0}, sigma=0.3))
        sites = [
            EPSite("obs", ("obs_x", "obs_y")),
            EPSite("rel", ("xy",)),
        ]
        prior = GaussianDensity.diagonal({"x": 0.0, "y": 0.0}, {"x": 9.0, "y": 9.0})
        reference, compiled = _run_both(graph, sites, prior)
        _assert_posteriors_match(reference, compiled)

    def test_iteration_cap_respected(self):
        graph, sites, prior = _bench_graph()
        reference, compiled = _run_both(graph, sites, prior, damping=0.3, max_iterations=3)
        assert not reference.converged
        assert not bool(compiled.converged[0])
        assert int(compiled.iterations[0]) == reference.iterations == 3
        _assert_posteriors_match(reference, compiled)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def records(self):
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=16)
        schedule = cached_schedule(catalog, events, kind="overlap")
        trace = Machine(MachineConfig(), get_workload("KMeans"), seed=1).run(12)
        return catalog, events, MultiplexedSampler(catalog, schedule, seed=2).sample(trace)

    def test_compiled_engine_matches_reference_per_slice(self, records):
        """Each slice solved from identical state agrees within 1e-8."""
        catalog, events, sampled = records
        reference = BayesPerfEngine(catalog, events, use_compiled_kernel=False)
        compiled = BayesPerfEngine(catalog, events, use_compiled_kernel=True)
        state = None
        for record in sampled.records:
            reference.restore(state) if state is not None else reference.reset()
            want = reference.process_record(record)
            next_state = reference.snapshot()
            compiled.restore(state) if state is not None else compiled.reset()
            got = compiled.process_record(record)
            assert got.ep_iterations == want.ep_iterations
            assert got.ep_converged == want.ep_converged
            for event, estimate in want.estimates.items():
                assert _relative_gap(got.estimates[event].mean, estimate.mean) < 1e-8
                assert _relative_gap(got.estimates[event].std, estimate.std) < 1e-8
            state = next_state

    def test_compiled_engine_matches_reference_end_to_end(self, records):
        """Full temporal chains stay within 1e-8 too (seed workload)."""
        catalog, events, sampled = records
        reference = BayesPerfEngine(catalog, events, use_compiled_kernel=False).correct(sampled)
        compiled = BayesPerfEngine(catalog, events, use_compiled_kernel=True).correct(sampled)
        for tick in range(len(reference)):
            want, got = reference.at(tick), compiled.at(tick)
            for event in want:
                assert _relative_gap(got[event], want[event]) < 1e-8

    def test_batched_equals_looped_exactly(self, records):
        """process_batch == restore/process_record/snapshot, bit for bit."""
        catalog, events, sampled = records
        engine = BayesPerfEngine(catalog, events)
        hosts, depth = 5, 4
        # Batched: one multi-record solve per slot across simulated hosts.
        states = [None] * hosts
        batched = [[] for _ in range(hosts)]
        for slot in range(depth):
            items = [(states[h], sampled.records[slot]) for h in range(hosts)]
            for h, (report, state) in enumerate(engine.process_batch(items)):
                states[h] = state
                batched[h].append(report)
        # Looped: per-host sequential single-record solves.
        for h in range(hosts):
            state = None
            for slot in range(depth):
                engine.restore(state) if state is not None else engine.reset()
                report = engine.process_record(sampled.records[slot])
                state = engine.snapshot()
                want = batched[h][slot]
                assert report.means() == want.means()
                assert report.stds() == want.stds()
                assert report.ep_iterations == want.ep_iterations
            assert np.array_equal(states[h].prior_mean, state.prior_mean, equal_nan=True)
            assert np.array_equal(states[h].scale, state.scale, equal_nan=True)
            assert states[h].tick == state.tick

    @staticmethod
    def _count_compiles(monkeypatch):
        """Spy on ``compile_factor_graph``: the list of its calls' args."""
        compiles = []
        compile_graph = engine_module.compile_factor_graph

        def spy(*args, **kwargs):
            compiles.append(args)
            return compile_graph(*args, **kwargs)

        monkeypatch.setattr(engine_module, "compile_factor_graph", spy)
        return compiles

    @pytest.mark.parametrize("estimator", ["analytic", "mcmc"])
    def test_kernel_cache_reused_across_slices(self, records, monkeypatch, estimator):
        """Both estimators compile the one canonical structure once per
        engine, whatever the slices' signatures."""
        catalog, events, sampled = records
        assert len({tuple(record.samples) for record in sampled.records}) > 1
        compiles = self._count_compiles(monkeypatch)
        engine = BayesPerfEngine(
            catalog, events, moment_estimator=estimator,
            mcmc_samples=20, mcmc_burn_in=10, ep_max_iterations=2,
        )
        engine.correct(sampled)
        canonical = engine._canonical_cache
        assert canonical is not None and len(compiles) == 1
        engine.correct(sampled)  # second run: nothing left to compile
        assert engine._canonical_cache is canonical and len(compiles) == 1

    def test_mcmc_estimator_uses_compiled_structures(self, records):
        """Per-site tilted MCMC batches on the canonical kernel's buffers."""
        catalog, events, sampled = records
        engine = BayesPerfEngine(
            catalog, events, moment_estimator="mcmc", mcmc_samples=20, mcmc_burn_in=10
        )
        engine.process_record(sampled.records[0])
        assert engine._canonical_cache

    def test_mcmc_reference_twin_bypasses_kernel(self, records, monkeypatch):
        catalog, events, sampled = records
        compiles = self._count_compiles(monkeypatch)
        engine = BayesPerfEngine(
            catalog, events, moment_estimator="mcmc", mcmc_samples=20,
            mcmc_burn_in=10, use_compiled_kernel=False,
        )
        engine.process_record(sampled.records[0])
        assert compiles == [] and engine._canonical_cache is False

    def test_process_batch_mixed_fresh_and_resumed_states(self, records):
        catalog, events, sampled = records
        engine = BayesPerfEngine(catalog, events)
        _, resumed = engine.process_batch([(None, sampled.records[0])])[0]
        reports = engine.process_batch(
            [(None, sampled.records[1]), (resumed, sampled.records[1])]
        )
        fresh_report, resumed_report = reports[0][0], reports[1][0]
        # A resumed run carries a temporal prior, so the two differ.
        assert fresh_report.means() != resumed_report.means()


class TestCompilationFallback:
    def test_unknown_factor_type_refuses_compilation(self):
        class Mystery(Factor):
            def log_density(self, values):
                return 0.0

            def to_gaussian(self, anchor=None):
                return GaussianDensity.diagonal({"a": 0.0}, {"a": 1.0})

        graph = FactorGraph(variables=["a"])
        graph.add_factor(Mystery("m", ["a"]))
        assert compile_factor_graph(graph, [EPSite("s", ("m",))], ["a"]) is None

    def test_anchor_dependent_factor_keeps_cavity_anchored_reference_path(self):
        """Non-anchor-free factors refuse compilation AND still get the
        cavity-mean anchor through the reference analytic path."""
        seen_anchors = []

        class Anchored(Factor):
            def log_density(self, values):
                return 0.0

            def to_gaussian(self, anchor=None):
                seen_anchors.append(anchor)
                center = anchor["a"] if anchor is not None else 0.0
                return GaussianDensity.diagonal({"a": center}, {"a": 4.0})

        graph = FactorGraph(variables=["a"])
        graph.add_factor(GaussianObservation("obs", "a", observed=2.0, sigma=0.5))
        graph.add_factor(Anchored("anchored", ["a"]))
        sites = [EPSite("s", ("obs", "anchored"))]
        prior = GaussianDensity.diagonal({"a": 0.0}, {"a": 9.0})
        assert compile_factor_graph(graph, sites, prior.variables) is None
        result = ExpectationPropagation(graph, sites, prior).run()
        assert np.isfinite(result.mean()["a"])
        assert seen_anchors and all(anchor is not None for anchor in seen_anchors)

    def test_empty_sites_rejected(self):
        graph, _, prior = _bench_graph()
        with pytest.raises(ValueError, match="at least one site"):
            compile_factor_graph(graph, [], prior.variables)

    def test_kernel_validates_arguments(self):
        graph, sites, prior = _bench_graph()
        structure = compile_factor_graph(graph, sites, prior.variables)
        with pytest.raises(ValueError, match="damping"):
            CompiledEPKernel(structure, damping=0.0)
        kernel = CompiledEPKernel(structure)
        with pytest.raises(ValueError, match="prior"):
            kernel.run(
                [structure.bind(site_factor_lists(graph, sites))],
                [GaussianDensity.diagonal({"z": 0.0}, {"z": 1.0})],
            )
        with pytest.raises(ValueError, match="factor lists"):
            structure.bind([])


@st.composite
def _random_problem(draw):
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
    damping = draw(st.sampled_from([1.0, 0.7, 0.5]))
    return graph, sites, prior, damping


class TestPropertyEquivalence:
    @given(problem=_random_problem())
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_match_reference(self, problem):
        graph, sites, prior, damping = problem
        reference, compiled = _run_both(graph, sites, prior, damping=damping)
        _assert_posteriors_match(reference, compiled)

    @given(
        observed=st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_matches_looped(self, observed):
        """One batched solve == per-record solves, for any batch content."""
        problems = [_bench_graph(value) for value in observed]
        structure = compile_factor_graph(problems[0][0], problems[0][1], problems[0][2].variables)
        kernel = CompiledEPKernel(structure)
        bindings = [
            structure.bind(site_factor_lists(graph, sites)) for graph, sites, _ in problems
        ]
        priors = [prior for _, _, prior in problems]
        together = kernel.run(bindings, priors)
        for b, (binding, prior) in enumerate(zip(bindings, priors)):
            alone = kernel.run([binding], [prior])
            assert np.array_equal(alone.means[0], together.means[b])
            assert np.array_equal(alone.variances[0], together.variances[b])
            assert alone.iterations[0] == together.iterations[b]
            assert alone.converged[0] == together.converged[b]
