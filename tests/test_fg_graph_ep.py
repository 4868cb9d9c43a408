"""Tests for factors, the factor graph, Markov blankets and EP."""

import numpy as np
import pytest

from repro.fg import (
    ExpectationPropagation,
    FactorGraph,
    GaussianDensity,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    StudentTObservation,
    credible_interval,
    map_estimate,
    markov_blanket,
    markov_blanket_of_set,
)
from repro.fg.distributions import StudentT
from repro.fg.ep import EPSite
from repro.fg.markov import blankets_overlap
from repro.fg.mle import coefficient_of_variation, credible_intervals, posterior_std


def _simple_graph():
    graph = FactorGraph(variables=["a", "b", "c"])
    graph.add_factor(GaussianObservation("obs_a", "a", observed=2.0, sigma=0.1))
    graph.add_factor(
        LinearConstraintFactor("sum", {"a": 1.0, "b": 1.0, "c": -1.0}, sigma=0.05)
    )
    graph.add_factor(GaussianPriorFactor("prior_b", {"b": 1.0}, {"b": 0.25}))
    return graph


class TestFactors:
    def test_gaussian_observation_log_density(self):
        obs = GaussianObservation("o", "x", observed=1.0, sigma=1.0)
        assert obs.log_density({"x": 1.0}) > obs.log_density({"x": 3.0})
        assert obs.is_gaussian

    def test_student_t_observation_projection(self):
        obs = StudentTObservation("o", "x", StudentT(loc=5.0, scale=1.0, df=10))
        gaussian = obs.to_gaussian()
        assert gaussian.mean()["x"] == pytest.approx(5.0)
        assert not obs.is_gaussian

    def test_linear_constraint_residual(self):
        factor = LinearConstraintFactor("c", {"x": 1.0, "y": -2.0}, sigma=1.0)
        assert factor.residual({"x": 4.0, "y": 2.0}) == pytest.approx(0.0)
        assert factor.log_density({"x": 4.0, "y": 2.0}) > factor.log_density({"x": 8.0, "y": 2.0})

    def test_prior_factor_validation(self):
        with pytest.raises(ValueError):
            GaussianPriorFactor("p", {"x": 0.0}, {"x": -1.0})
        with pytest.raises(ValueError):
            GaussianPriorFactor("p", {"x": 0.0}, {"y": 1.0})


class TestFactorGraph:
    def test_variables_and_factors_registered(self):
        graph = _simple_graph()
        assert set(graph.variables) == {"a", "b", "c"}
        assert len(graph.factors) == 3

    def test_duplicate_factor_rejected(self):
        graph = _simple_graph()
        with pytest.raises(ValueError):
            graph.add_factor(GaussianObservation("obs_a", "a", 1.0, 1.0))

    def test_factors_of_variable(self):
        graph = _simple_graph()
        names = {factor.name for factor in graph.factors_of("a")}
        assert names == {"obs_a", "sum"}

    def test_neighbors(self):
        graph = _simple_graph()
        assert set(graph.neighbors("a")) == {"b", "c"}

    def test_log_density_sums_factors(self):
        graph = _simple_graph()
        values = {"a": 2.0, "b": 1.0, "c": 3.0}
        total = graph.log_density(values)
        assert np.isfinite(total)
        assert total == sum(factor.log_density(values) for factor in graph.factors)

    def test_to_networkx_bipartite(self):
        graph = _simple_graph().to_networkx()
        variable_nodes = [n for n, d in graph.nodes(data=True) if d["bipartite"] == 0]
        factor_nodes = [n for n, d in graph.nodes(data=True) if d["bipartite"] == 1]
        assert len(variable_nodes) == 3
        assert len(factor_nodes) == 3

    def test_subgraph(self):
        graph = _simple_graph()
        sub = graph.subgraph(["obs_a"])
        assert set(sub.variables) == {"a"}


class TestMarkovBlanket:
    def test_blanket_of_single_variable(self):
        graph = _simple_graph()
        assert set(markov_blanket(graph, "b")) == {"a", "c"}

    def test_blanket_of_set_excludes_members(self):
        graph = _simple_graph()
        blanket = markov_blanket_of_set(graph, ["a", "b"])
        assert "a" not in blanket and "b" not in blanket
        assert "c" in blanket

    def test_blankets_overlap_via_shared_variable(self):
        graph = _simple_graph()
        assert blankets_overlap(graph, ["a"], ["a", "b"])
        assert blankets_overlap(graph, ["a"], ["c"])

    def test_disconnected_variables_do_not_overlap(self):
        graph = FactorGraph(variables=["a", "b", "x", "y"])
        graph.add_factor(LinearConstraintFactor("ab", {"a": 1.0, "b": -1.0}, sigma=1.0))
        graph.add_factor(LinearConstraintFactor("xy", {"x": 1.0, "y": -1.0}, sigma=1.0))
        assert not blankets_overlap(graph, ["a"], ["x"])


class TestExpectationPropagation:
    def _run_ep(self):
        graph = _simple_graph()
        prior = GaussianDensity.diagonal(
            {"a": 1.0, "b": 1.0, "c": 2.0}, {"a": 25.0, "b": 25.0, "c": 25.0}
        )
        sites = [
            EPSite("observations", ("obs_a", "prior_b")),
            EPSite("constraints", ("sum",)),
        ]
        return ExpectationPropagation(graph, sites, prior).run()

    def test_analytic_ep_matches_exact_posterior(self):
        result = self._run_ep()
        means = result.mean()
        # a is pinned by its observation, b by its prior, and c = a + b.
        assert means["a"] == pytest.approx(2.0, abs=0.1)
        assert means["b"] == pytest.approx(1.0, abs=0.2)
        assert means["c"] == pytest.approx(3.0, abs=0.3)
        assert result.converged

    def test_posterior_uncertainty_reported(self):
        result = self._run_ep()
        assert all(v > 0 for v in result.variance().values())


class TestMLE:
    def test_map_and_intervals(self):
        density = GaussianDensity.diagonal({"x": 2.0}, {"x": 4.0})
        assert map_estimate(density)["x"] == pytest.approx(2.0)
        low, high = credible_interval(density, "x", 0.95)
        assert low < 2.0 < high
        assert posterior_std(density)["x"] == pytest.approx(2.0)
        assert credible_intervals(density)["x"][0] == pytest.approx(low)
        assert coefficient_of_variation(density)["x"] == pytest.approx(1.0)

    def test_invalid_confidence(self):
        density = GaussianDensity.diagonal({"x": 0.0}, {"x": 1.0})
        with pytest.raises(ValueError):
            credible_interval(density, "x", 1.5)
