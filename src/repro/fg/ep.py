"""Expectation Propagation (Alg. 1 of the paper).

EP approximates the target density ``f(θ) = Π f_k(θ)`` — the factor graph
with its observation and constraint factors partitioned into *sites* — by a
product of Gaussian site approximations ``g(θ) = Π g_k(θ)``.  Each iteration
forms the cavity ``g_-k = g / g_k``, estimates the moments of the tilted
distribution ``f_k · g_-k`` and updates the site approximation and the
global approximation.  :class:`ExpectationPropagation` is the analytic
estimator's object-walking twin: every tilted moment is the Gaussian
projection of the site's factors.  :class:`ReferenceSiteMCMC` is the twin of
:class:`~repro.fg.mcmc.BatchedSiteMCMC`, estimating each site's tilted
moments by MCMC (line 4 of Alg. 1, the accelerator workload).

Sites correspond to scheduler time slices in the BayesPerf system: EP's
partition-friendliness is precisely why the paper chose it (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fg.factors import Factor
from repro.fg.gaussian import GaussianDensity
from repro.fg.graph import FactorGraph
from repro.fg.linalg import cholesky_inverse
from repro.fg.mcmc import _adapted_scales, ChainTrace, SiteMCMCMoments
from repro.fg.registry import register_reference


@dataclass
class EPSite:
    """One EP site: a named partition of the graph's factors."""

    name: str
    factor_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.factor_names:
            raise ValueError(f"EP site {self.name!r} must contain at least one factor")


@dataclass
class EPResult:
    """Outcome of an EP run."""

    posterior: GaussianDensity
    iterations: int
    converged: bool
    site_approximations: Dict[str, GaussianDensity] = field(default_factory=dict)
    max_delta: float = float("nan")

    def mean(self) -> Dict[str, float]:
        return self.posterior.mean()

    def variance(self) -> Dict[str, float]:
        return self.posterior.variance()


@register_reference("analytic")
class ExpectationPropagation:
    """EP over a factor graph with a Gaussian approximating family.

    Parameters
    ----------
    graph:
        The factor graph holding observation, constraint and prior factors.
    sites:
        Partition of (a subset of) the graph's factors into EP sites.  Factors
        not covered by any site are treated as part of the prior if they are
        Gaussian-projectable.
    prior:
        Proper Gaussian base density over every graph variable.  In the
        BayesPerf engine this carries the previous time slice's posterior.
    damping:
        Damping coefficient applied to site updates (1.0 = undamped).
    max_iterations, tolerance:
        Convergence controls on the change in site natural parameters.
    """

    def __init__(
        self,
        graph: FactorGraph,
        sites: Sequence[EPSite],
        prior: GaussianDensity,
        *,
        damping: float = 0.5,
        max_iterations: int = 25,
        tolerance: float = 1e-6,
    ) -> None:
        if not sites:
            raise ValueError("EP requires at least one site")
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        self.graph = graph
        self.sites = list(sites)
        self.prior = prior
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance

        covered = set()
        for site in self.sites:
            for name in site.factor_names:
                self.graph.factor(name)  # validates existence
                covered.add(name)
        self._site_variables: Dict[str, Tuple[str, ...]] = {}
        self._site_anchor_free: Dict[str, bool] = {}
        for site in self.sites:
            variables: List[str] = []
            seen = set()
            for factor_name in site.factor_names:
                for variable in self.graph.factor(factor_name).variables:
                    if variable not in seen:
                        seen.add(variable)
                        variables.append(variable)
            self._site_variables[site.name] = tuple(variables)
            self._site_anchor_free[site.name] = all(
                self.graph.factor(name).anchor_free for name in site.factor_names
            )

    # -- moment estimation -------------------------------------------------

    def _analytic_tilted(
        self, site: EPSite, cavity_marginal: GaussianDensity
    ) -> GaussianDensity:
        """Gaussian projection of the tilted distribution (cavity x site factors)."""
        anchor = cavity_marginal.mean()
        tilted = cavity_marginal.copy()
        for factor_name in site.factor_names:
            factor = self.graph.factor(factor_name)
            tilted = tilted.multiply(factor.to_gaussian(anchor))
        return tilted

    def _analytic_site_update(self, site: EPSite) -> GaussianDensity:
        """Exact analytic site update: the product of the site's projections.

        Every factor family projects to a Gaussian independently of the
        linearisation anchor, so the ``tilted = cavity x factors`` /
        ``new_site = tilted / cavity`` round trip cancels algebraically.
        Computing the factor product directly skips the cancellation —
        which matters numerically, not just for speed: with tight
        constraint factors the cavity precision dwarfs the site block, and
        ``(cavity + site) - cavity`` in floating point would smear
        ``eps * |cavity|``-sized noise over the update.
        """
        product = GaussianDensity.uninformative(self._site_variables[site.name])
        for factor_name in site.factor_names:
            product = product.multiply(self.graph.factor(factor_name).to_gaussian(None))
        return product

    # -- main loop -----------------------------------------------------------

    def run(self) -> EPResult:
        """Execute Alg. 1 and return the Gaussian posterior approximation."""
        variables = self.prior.variables
        site_approx: Dict[str, GaussianDensity] = {
            site.name: GaussianDensity.uninformative(variables) for site in self.sites
        }
        global_approx = self.prior.copy()
        for approx in site_approx.values():
            global_approx = global_approx.multiply(approx)

        converged = False
        max_delta = float("inf")
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            max_delta = 0.0
            for site in self.sites:
                current_site = site_approx[site.name]
                site_vars = self._site_variables[site.name]

                if self._site_anchor_free[site.name]:
                    # Anchor-free analytic site: the tilted/cavity division
                    # cancels exactly (see _analytic_site_update); only PD
                    # repair remains of lines 3-6.
                    new_site_marginal = _pd_repaired(self._analytic_site_update(site))
                else:
                    # Cavity distribution: g_-k = g / g_k  (line 3 of Alg. 1).
                    cavity = global_approx.divide(current_site)
                    try:
                        cavity_marginal = cavity.marginal(site_vars)
                    except (ValueError, np.linalg.LinAlgError):
                        # Improper cavity: fall back to the prior's marginal.
                        cavity_marginal = self.prior.marginal(site_vars)
                    # Tilted moments (line 4: the Gaussian projection anchored
                    # at the cavity mean), then the local update (lines 5-6):
                    # new site approx = tilted / cavity.
                    tilted = self._analytic_tilted(site, cavity_marginal)
                    new_site_marginal = _safe_divide(tilted, cavity_marginal)

                # Embed the site marginal back into the full variable space.
                new_site = _embed(new_site_marginal, variables)
                damped_site = site_approx[site.name].damped_towards(new_site, self.damping)

                delta = _natural_parameter_delta(site_approx[site.name], damped_site)
                max_delta = max(max_delta, delta)

                # Global update (line 7): g <- g * (g_k_new / g_k_old).
                global_approx = global_approx.divide(site_approx[site.name]).multiply(damped_site)
                site_approx[site.name] = damped_site

            if max_delta < self.tolerance:
                converged = True
                break

        return EPResult(
            posterior=global_approx,
            iterations=iteration,
            converged=converged,
            site_approximations=site_approx,
            max_delta=max_delta,
        )


@register_reference("mcmc")
class ReferenceSiteMCMC:
    """Object-based reference twin of :class:`~repro.fg.mcmc.BatchedSiteMCMC`.

    Runs the identical per-site tilted-MCMC EP loop for one record, the
    slow, readable way: cavities are formed by dividing
    :class:`~repro.fg.gaussian.GaussianDensity` objects, marginals go
    through the object moment projection, and every chain step walks the
    site's Python factor objects with a ``{variable: value}`` mapping.  The
    differential test harness (and the tilted-MCMC benchmark) pin
    :class:`~repro.fg.mcmc.BatchedSiteMCMC` against this twin; burn-in
    proposal-scale adaptation applies the same module-level rule, so the
    pair stays step-for-step coupled.

    ``run`` derives everything from its RNG argument and mutates no sampler
    state — repeated explicitly-seeded runs reproduce exactly.

    Parameters
    ----------
    site_factors:
        ``(site name, factor objects)`` pairs in site order — the shape
        :meth:`BayesPerfEngine._site_factor_lists` produces.
    prior:
        Proper Gaussian prior over every variable, in the same ordering the
        compiled kernel would use.
    damping, max_iterations, tolerance:
        EP loop controls (must match the compiled kernel's).
    n_samples, burn_in, step_scale, adapt, target_acceptance, adapt_window:
        Chain controls, mirroring :class:`BatchedSiteMCMC`.
    recorder:
        Optional :class:`~repro.fg.mcmc.ChainTrace` capturing every site
        chain, exactly like the batched sampler's.
    """

    def __init__(
        self,
        site_factors: Sequence[Tuple[str, Sequence[Factor]]],
        prior: GaussianDensity,
        *,
        n_samples: int = 300,
        burn_in: int = 200,
        step_scale: float = 2.38,
        adapt: bool = True,
        target_acceptance: float = 0.35,
        adapt_window: int = 50,
        damping: float = 1.0,
        max_iterations: int = 8,
        tolerance: float = 1e-6,
        seed: int = 0,
        recorder: Optional[ChainTrace] = None,
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not site_factors:
            raise ValueError("per-site MCMC requires at least one site")
        self.prior = prior
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.step_scale = step_scale
        self.adapt = adapt
        self.target_acceptance = target_acceptance
        self.adapt_window = adapt_window
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.recorder = recorder
        self._seed = seed

        self._sites: List[Tuple[str, List[Factor], Tuple[str, ...], GaussianDensity]] = []
        for name, factors in site_factors:
            factors = list(factors)
            not_projectable = [f.name for f in factors if not f.anchor_free]
            if not_projectable:
                raise ValueError(
                    f"ReferenceSiteMCMC requires anchor-free factors, got {not_projectable}"
                )
            variables: List[str] = []
            seen = set()
            for factor in factors:
                for variable in factor.variables:
                    if variable not in seen:
                        seen.add(variable)
                        variables.append(variable)
            # The site's analytic target: the product of its factor
            # projections in site-local coordinates (the compiled binder's
            # block, assembled from objects).
            block = GaussianDensity.uninformative(variables)
            for factor in factors:
                block = block.multiply(factor.to_gaussian(None))
            self._sites.append((name, factors, tuple(variables), block))

    @staticmethod
    def _as_dict(variables: Tuple[str, ...], state: np.ndarray) -> Dict[str, float]:
        return {name: float(state[i]) for i, name in enumerate(variables)}

    def _site_chain(
        self,
        factors: List[Factor],
        variables: Tuple[str, ...],
        cavity_marginal: GaussianDensity,
        projection: GaussianDensity,
        g_mean: np.ndarray,
        g_cov: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray, List[int]]:
        """Coupled chain pair for one site visit.

        ``(d, D, accepted, scales, windows)`` — the scalar mirror of
        :meth:`BatchedSiteMCMC._site_chain`, including the per-window
        burn-in acceptance trajectory.
        """
        width = len(variables)
        scales = (self.step_scale / np.sqrt(width)) * np.sqrt(
            np.maximum(np.diag(g_cov), 1e-30)
        )

        def true_log_density(state: np.ndarray) -> float:
            values = self._as_dict(variables, state)
            total = cavity_marginal.log_density(values)
            for factor in factors:
                total += factor.log_density(values)
            return total

        def gaussian_part(state: np.ndarray) -> float:
            return projection.log_density(self._as_dict(variables, state))

        chain = g_mean.copy()
        shadow = g_mean.copy()
        chain_logp = true_log_density(chain)
        shadow_logp = gaussian_part(shadow)

        sum_chain = np.zeros(width)
        sum_shadow = np.zeros(width)
        sum_chain_outer = np.zeros((width, width))
        sum_shadow_outer = np.zeros((width, width))
        accepted = 0
        window_accepts = 0
        window_history: List[int] = []

        total_steps = self.burn_in + self.n_samples
        for step in range(total_steps):
            noise = rng.standard_normal(width)
            log_uniform = np.log(rng.random())
            offset = scales * noise
            chain_proposal = chain + offset
            shadow_proposal = shadow + offset

            chain_proposal_logp = true_log_density(chain_proposal)
            shadow_proposal_logp = gaussian_part(shadow_proposal)
            if log_uniform < (chain_proposal_logp - chain_logp):
                chain = chain_proposal
                chain_logp = chain_proposal_logp
                accepted += 1
                window_accepts += 1
            if log_uniform < (shadow_proposal_logp - shadow_logp):
                shadow = shadow_proposal
                shadow_logp = shadow_proposal_logp

            if self.adapt and step < self.burn_in:
                if (step + 1) % self.adapt_window == 0:
                    window_history.append(window_accepts)
                    scales = _adapted_scales(
                        scales, window_accepts / self.adapt_window, self.target_acceptance
                    )
                    window_accepts = 0

            if step >= self.burn_in:
                sum_chain += chain
                sum_shadow += shadow
                sum_chain_outer += np.outer(chain, chain)
                sum_shadow_outer += np.outer(shadow, shadow)

        count = float(self.n_samples)
        d = (sum_chain - sum_shadow) / count
        moment_diff = (sum_chain_outer - sum_shadow_outer) / count
        cross = np.outer(g_mean, d)
        covariance_correction = moment_diff - (cross + cross.T + np.outer(d, d))
        return d, covariance_correction, accepted, scales, window_history

    def run(self, *, rng: Optional[np.random.Generator] = None, tick: int = -1) -> SiteMCMCMoments:
        """Estimate the record's posterior via per-site tilted MCMC EP."""
        rng = np.random.default_rng(self._seed) if rng is None else rng
        variables = self.prior.variables
        site_approx: Dict[str, GaussianDensity] = {
            name: GaussianDensity.uninformative(variables) for name, _, _, _ in self._sites
        }
        global_approx = self.prior.copy()

        recorder = self.recorder
        slice_id = recorder.reserve_slices(1) if recorder is not None else 0
        chain_steps = self.burn_in + self.n_samples
        accepted_total = 0
        steps_total = 0

        converged = False
        max_delta = float("inf")
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            max_delta = 0.0
            for site_index, (name, factors, site_vars, block) in enumerate(self._sites):
                current = site_approx[name]
                cavity = global_approx.divide(current)
                try:
                    cavity_marginal = cavity.marginal(site_vars)
                except (ValueError, np.linalg.LinAlgError):
                    cavity_marginal = self.prior.marginal(site_vars)

                projection = cavity_marginal.multiply(block)
                g_mean, g_cov = projection.moments()
                d, covariance_correction, accepted, scales, windows = self._site_chain(
                    factors, site_vars, cavity_marginal, projection, g_mean, g_cov, rng
                )
                accepted_total += accepted
                steps_total += chain_steps

                tilted_cov = g_cov + covariance_correction
                try:
                    np.linalg.cholesky(tilted_cov)
                except np.linalg.LinAlgError:
                    covariance_correction = np.zeros_like(covariance_correction)
                    tilted_cov = g_cov
                inverse_tilted = cholesky_inverse(tilted_cov)
                delta_precision = -(projection.precision @ covariance_correction @ inverse_tilted)
                delta_precision = 0.5 * (delta_precision + delta_precision.T)
                tilted_mean = g_mean + d
                delta_shift = projection.precision @ d + delta_precision @ tilted_mean
                target = _pd_repaired(
                    GaussianDensity(
                        site_vars,
                        block.precision + delta_precision,
                        block.shift + delta_shift,
                    )
                )

                new_site = _embed(target, variables)
                damped_site = current.damped_towards(new_site, self.damping)
                delta = _natural_parameter_delta(current, damped_site)
                max_delta = max(max_delta, delta)
                global_approx = global_approx.divide(current).multiply(damped_site)
                site_approx[name] = damped_site

                if recorder is not None:
                    recorder.record(
                        slice_id=slice_id,
                        tick=int(tick),
                        iteration=iteration,
                        site=name,
                        site_index=site_index,
                        width=len(site_vars),
                        n_factors=len(factors),
                        n_steps=chain_steps,
                        burn_in=self.burn_in,
                        accepted=int(accepted),
                        step_scale=float(scales.mean()),
                        windows=tuple(int(w) for w in windows),
                    )

            if max_delta < self.tolerance:
                converged = True
                break

        mean, cov = global_approx.moments()
        return SiteMCMCMoments(
            variables=variables,
            means=mean,
            variances=np.diag(cov).copy(),
            iterations=iteration,
            converged=converged,
            acceptance_rate=accepted_total / steps_total if steps_total else 0.0,
            n_samples=self.n_samples,
        )


def _safe_divide(numerator: GaussianDensity, denominator: GaussianDensity) -> GaussianDensity:
    """Quotient of two Gaussians that clips non-positive-definite results.

    EP site updates occasionally produce negative precisions (a well-known EP
    artefact); clipping to a tiny positive precision keeps the algorithm
    stable, matching common EP implementations.
    """
    return _pd_repaired(numerator.divide(denominator))


def _pd_repaired(density: GaussianDensity) -> GaussianDensity:
    """Clip a density's precision to positive definiteness (EP site repair).

    A Cholesky factorisation certifies the common PD case at the cost of one
    factorisation; only on failure does the eigendecomposition repair of the
    historical implementation run.
    """
    precision = density.precision
    symmetric = 0.5 * (precision + precision.T)
    try:
        np.linalg.cholesky(symmetric)
        return density
    except np.linalg.LinAlgError:
        pass
    eigenvalues = np.linalg.eigvalsh(symmetric)
    if eigenvalues.min() <= 0:
        precision = precision + (abs(eigenvalues.min()) + 1e-9) * np.eye(len(density.variables))
    return GaussianDensity(density.variables, precision, density.shift)


def _embed(density: GaussianDensity, variables: Sequence[str]) -> GaussianDensity:
    """Embed a density over a variable subset into the full variable space."""
    variables = tuple(variables)
    full = GaussianDensity.uninformative(variables)
    return full.multiply(density)


def _natural_parameter_delta(old: GaussianDensity, new: GaussianDensity) -> float:
    """Largest relative change in natural parameters between two densities."""
    if not len(old.variables):
        return 0.0
    scale_precision = max(np.max(np.abs(old.precision)), np.max(np.abs(new.precision)), 1.0)
    scale_shift = max(np.max(np.abs(old.shift)), np.max(np.abs(new.shift)), 1.0)
    delta_precision = np.max(np.abs(old.precision - new.precision)) / scale_precision
    delta_shift = np.max(np.abs(old.shift - new.shift)) / scale_shift
    return float(max(delta_precision, delta_shift))
