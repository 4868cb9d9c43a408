"""Probabilistic graphical-model substrate.

This package implements the machinery behind the BayesPerf ML model (§4):

* scalar and multivariate Gaussian densities in information form,
* a Student-t observation model for noisy counter samples (§4.2),
* a bipartite factor graph over event variables with Markov-blanket queries,
* Expectation Propagation (Alg. 1) with either analytic or per-site tilted
  MCMC moment estimation,
* a compiled, vectorized EP kernel (index-compiled graph structures,
  Cholesky-based updates, batched multi-record solves),
* cross-signature mega-batching and multicore kernel execution
  (:mod:`repro.fg.megabatch`: canonical padded shapes whose padded lanes
  are exact no-ops, plus a deterministic lane partition across threads),
* a moment-estimator registry (:mod:`repro.fg.registry`) the samplers and
  their reference twins self-register into — every front door
  (engine, sessions, fleet CLI, :mod:`repro.api`) resolves estimator names
  through it, and
* maximum-likelihood extraction of point estimates from posteriors.
"""

from repro.fg.distributions import (
    Gaussian1D,
    StudentT,
    student_t_log_pdf,
    student_t_moment_variance,
)
from repro.fg.gaussian import GaussianDensity
from repro.fg.factors import (
    Factor,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    StudentTObservation,
)
from repro.fg.graph import FactorGraph
from repro.fg.markov import markov_blanket, markov_blanket_of_set
from repro.fg.mcmc import (
    BatchedSiteMCMC,
    BatchedSiteMCMCResult,
    ChainSiteVisit,
    ChainTrace,
    SiteMCMCMoments,
    StudentTTail,
)
from repro.fg.ep import EPResult, ExpectationPropagation, ReferenceSiteMCMC
from repro.fg.registry import (
    EstimatorEntry,
    estimator_names,
    get_estimator,
    register_estimator,
    register_reference,
)
from repro.fg.compiled import (
    CompiledBinder,
    CompiledEPKernel,
    CompiledEPResult,
    CompiledGraph,
    ConstraintSiteBinder,
    ObservationSiteBinder,
    compile_factor_graph,
    site_factor_lists,
)
from repro.fg.megabatch import (
    KernelExecSpec,
    bind_bucketed_observation,
    concat_results,
    kernel_exec_from_env,
    lane_chunks,
    observation_certified,
    padding_slots,
    run_lane_partitioned,
)
from repro.fg.mle import credible_interval, map_estimate

__all__ = [
    "BatchedSiteMCMC",
    "BatchedSiteMCMCResult",
    "ChainSiteVisit",
    "ChainTrace",
    "ReferenceSiteMCMC",
    "SiteMCMCMoments",
    "CompiledBinder",
    "CompiledEPKernel",
    "CompiledEPResult",
    "CompiledGraph",
    "ConstraintSiteBinder",
    "KernelExecSpec",
    "bind_bucketed_observation",
    "concat_results",
    "kernel_exec_from_env",
    "lane_chunks",
    "observation_certified",
    "padding_slots",
    "run_lane_partitioned",
    "ObservationSiteBinder",
    "StudentTTail",
    "compile_factor_graph",
    "site_factor_lists",
    "student_t_log_pdf",
    "student_t_moment_variance",
    "Gaussian1D",
    "StudentT",
    "GaussianDensity",
    "Factor",
    "GaussianObservation",
    "StudentTObservation",
    "LinearConstraintFactor",
    "GaussianPriorFactor",
    "FactorGraph",
    "markov_blanket",
    "markov_blanket_of_set",
    "ExpectationPropagation",
    "EPResult",
    "EstimatorEntry",
    "estimator_names",
    "get_estimator",
    "register_estimator",
    "register_reference",
    "map_estimate",
    "credible_interval",
]
