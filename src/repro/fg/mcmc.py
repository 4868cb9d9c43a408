"""Per-site tilted MCMC: the accelerator's inner loop (lines 3-6 of Alg. 1).

Inside each EP site, the paper estimates the tilted distribution's moments by
Markov chain Monte Carlo (line 4 of Alg. 1); the accelerator implements many
such samplers in hardware.  This module provides the software equivalents:

* :class:`BatchedSiteMCMC` — the per-site tilted-moment EP loop batched over
  ``B`` records on the compiled kernel's buffers: every site update
  estimates its tilted moments with a coupled pair of chains, with
  per-record proposal-scale adaptation during burn-in.
  :class:`~repro.fg.ep.ReferenceSiteMCMC` is its object-walking twin; the
  differential test harness pins the two together.
* :class:`StudentTTail` — the non-Gaussian log-density correction the true
  chain adds for Student-t observations.
* :class:`ChainTrace` — the chain-trace capture layer: both site samplers
  append one :class:`ChainSiteVisit` per (record, EP iteration, site) chain
  they run.  Serialised through :mod:`repro.fleet.tracefile`, these traces
  drive the :mod:`repro.accelerator` co-simulation, grounding its
  cycle/energy estimates in measured site-visit schedules and acceptance
  rates instead of analytical assumptions.

Each site chain is a random-walk chain on the site's *true* tilted density
coupled (common random numbers) to a shadow chain on its Gaussian
projection, whose exactly-known moments act as a control variate.  When the
site is Gaussian — every factor's projection exact — the two chains coincide
step for step, the sampled correction is identically zero, and the update
returns the analytic target exactly; the sampling machinery still runs, it
just cannot drift.  With Student-t observations the coupled correction
captures the heavy-tail deviation from the projection at a fraction of
naive-MCMC variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fg.distributions import student_t_log_pdf
from repro.fg.linalg import cholesky_inverse, cholesky_moments
from repro.fg.registry import register_estimator

# Shared burn-in proposal-scale adaptation constants.  The batched sampler
# and its object-based reference twin must apply the *identical* rule, so
# the constants live here rather than in each implementation: every
# ``adapt_window`` burn-in steps, a record whose windowed acceptance rate
# falls below ``_ADAPT_LOW x target`` shrinks its proposal scales by
# ``_ADAPT_SHRINK``; above ``_ADAPT_HIGH x target`` they grow by
# ``_ADAPT_GROW``; scales never drop below ``_SCALE_FLOOR``.
_ADAPT_SHRINK = 0.6
_ADAPT_GROW = 1.7
_ADAPT_LOW = 0.8
_ADAPT_HIGH = 1.2
_SCALE_FLOOR = 1e-12


def _adapted_scales(scales: np.ndarray, rate, target: float) -> np.ndarray:
    """Apply one window's adaptation to the proposal scales.

    The single implementation the sampler and its twin call: ``rate`` is a
    scalar for the object-walking twin or a ``(B,)`` per-record array for
    the batched sampler (broadcast over the trailing state axis).  The
    selected branch computes the identical product either way, keeping the
    twins step-for-step coupled.
    """
    rate = np.asarray(rate)
    shrink = rate < target * _ADAPT_LOW
    grow = rate > target * _ADAPT_HIGH
    if rate.ndim:
        shrink = shrink[:, None]
        grow = grow[:, None]
    adapted = np.where(
        shrink, scales * _ADAPT_SHRINK, np.where(grow, scales * _ADAPT_GROW, scales)
    )
    return np.maximum(adapted, _SCALE_FLOOR)


# -- chain-trace capture -------------------------------------------------------


@dataclass(frozen=True)
class ChainSiteVisit:
    """One per-site tilted-MCMC chain run, as recorded in a chain trace.

    This is the atom of the accelerator co-simulation: everything the
    device model needs to price one hardware site update — how wide the
    state was, how many factors were folded, how many chain steps actually
    ran and how many proposals were accepted — measured from the software
    sampler rather than assumed.
    """

    #: Global emission order (co-simulation processes visits in this order).
    sequence: int
    #: Which inference problem (slice) this visit belongs to.
    slice_id: int
    #: The slice's scheduler tick (-1 when the caller provided none).
    tick: int
    #: EP iteration the visit ran in (1-based).
    iteration: int
    site: str
    site_index: int
    #: State width: number of variables in the site.
    width: int
    n_factors: int
    #: Total chain steps taken (burn-in included — the hardware pays them).
    n_steps: int
    burn_in: int
    #: Accepted proposals of the true chain over all ``n_steps``.
    accepted: int
    #: Mean per-variable proposal scale after burn-in adaptation.
    step_scale: float
    #: Per-window acceptance trajectory during burn-in adaptation: the true
    #: chain's accepted proposals in each completed adaptation window, in
    #: window order.  Empty when the sampler ran without adaptation (or the
    #: burn-in was shorter than one window) — the co-simulation prices the
    #: adaptation hardware only when a trajectory is present.
    windows: Tuple[int, ...] = ()

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.n_steps if self.n_steps else 0.0

    @property
    def n_adaptations(self) -> int:
        """Burn-in adaptation windows this visit's chain completed."""
        return len(self.windows)


@dataclass(eq=False)  # identity semantics: recorders ride inside cache keys
class ChainTrace:
    """Append-only record of every per-site chain a sampler ran.

    One instance can be shared by many engines (the fleet worker pool's
    shared-engine batches all append to the same recorder); ``slice_id``
    namespaces records so replays reconstruct the exact schedule.

    The buffered visits can be handed off incrementally with :meth:`drain`
    (the streaming tracefile sink's contract): sequence and slice counters
    survive a drain, so a drained-and-concatenated stream is identical to
    the trace an undrained recorder would have accumulated, while the
    recorder's memory stays bounded by one flush interval.
    """

    visits: List[ChainSiteVisit] = field(default_factory=list)
    #: Sampler configuration (n_samples, burn_in, adaptation, ...).
    params: Dict = field(default_factory=dict)
    _next_slice: int = 0
    _next_sequence: int = 0
    #: High-water mark of buffered visits (bounded-memory assertions).
    peak_buffered: int = 0

    def reserve_slices(self, count: int) -> int:
        """Allocate ``count`` consecutive slice ids; returns the first."""
        base = self._next_slice
        self._next_slice += count
        return base

    def record(self, **fields) -> None:
        """Append one visit; the sequence number is assigned here."""
        self.visits.append(ChainSiteVisit(sequence=self._next_sequence, **fields))
        self._next_sequence += 1
        if len(self.visits) > self.peak_buffered:
            self.peak_buffered = len(self.visits)

    def drain(self) -> List[ChainSiteVisit]:
        """Hand off (and forget) the buffered visits, keeping all counters.

        Streaming consumers call this after every flush interval; summary
        properties (:attr:`n_visits`, :meth:`acceptance_rate`, ...) then
        reflect only the still-buffered tail, while :attr:`total_recorded`
        keeps counting every visit ever recorded.
        """
        taken = self.visits
        self.visits = []
        return taken

    @property
    def total_recorded(self) -> int:
        """Visits recorded over the trace's lifetime, drains included."""
        return self._next_sequence

    # -- summaries (used by the accelerator model and the demo) -----------

    @property
    def n_visits(self) -> int:
        return len(self.visits)

    @property
    def n_slices(self) -> int:
        return len({visit.slice_id for visit in self.visits})

    @property
    def total_steps(self) -> int:
        return sum(visit.n_steps for visit in self.visits)

    def acceptance_rate(self) -> float:
        """Step-weighted mean acceptance rate over the whole trace."""
        steps = self.total_steps
        if not steps:
            return 0.0
        return sum(visit.accepted for visit in self.visits) / steps

    def sites(self) -> Tuple[str, ...]:
        ordered: List[str] = []
        for visit in self.visits:
            if visit.site not in ordered:
                ordered.append(visit.site)
        return tuple(ordered)


@dataclass(frozen=True)
class StudentTTail:
    """Non-Gaussian log-density correction for Student-t observations.

    Evaluates ``sum_e [t_logpdf(x_e) - gaussian_projection_logpdf(x_e)]``
    over a batch of states — the exact difference between each record's true
    observation terms and the moment-matched Gaussian blocks already inside
    the site's buffers (up to per-record constants, which cancel in every
    Metropolis ratio).
    """

    #: Site-local variable slot of each Student-t-observed event.
    slots: np.ndarray
    loc: np.ndarray  # (B, E)
    scale: np.ndarray  # (B, E)
    df: np.ndarray  # (B, E)
    #: Moment-matched Gaussian variance per observation, (B, E).
    variance: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        values = x[:, self.slots]
        tail = student_t_log_pdf(values, self.loc, self.scale, self.df)
        gaussian = -0.5 * (values - self.loc) ** 2 / self.variance
        return (tail - gaussian).sum(axis=-1)


# -- per-site tilted MCMC (the accelerator's inner loop, batched) -------------


def _information_moments(
    precision: np.ndarray, shift: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched mirror of :meth:`GaussianDensity.moments`.

    Same arithmetic — ``1e-12`` diagonal jitter, Cholesky first, LU inverse
    fallback — applied record-wise so a record inside a batch sees the exact
    computation it would see alone.  Returns ``(mean, cov, proper)`` where
    ``proper[b]`` is False for records whose precision is outright singular
    (the case where the object path raises and EP falls back to the prior).
    """
    batch, n = shift.shape
    jittered = precision + 1e-12 * np.eye(n)
    try:
        mean, cov = cholesky_moments(jittered, shift)
        return mean, cov, np.ones(batch, dtype=bool)
    except np.linalg.LinAlgError:
        pass
    means = np.empty_like(shift)
    covs = np.empty_like(jittered)
    proper = np.ones(batch, dtype=bool)
    for b in range(batch):
        try:
            means[b], covs[b] = cholesky_moments(jittered[b], shift[b])
            continue
        except np.linalg.LinAlgError:
            pass
        try:
            cov_b = np.linalg.inv(jittered[b])
        except np.linalg.LinAlgError:
            proper[b] = False
            means[b] = 0.0
            covs[b] = np.eye(n)
            continue
        cov_b = 0.5 * (cov_b + cov_b.T)
        covs[b] = cov_b
        means[b] = cov_b @ shift[b]
    return means, covs, proper


def _marginal_information(
    mean: np.ndarray, cov: np.ndarray, index: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched mirror of :meth:`GaussianDensity.marginal` (moment projection).

    Projects full-space moments onto the ``index`` slots and converts back
    to information form with the same jitter/Cholesky/inverse sequence the
    object path uses.  Returns ``(precision, shift)`` in site-local order.
    """
    width = len(index)
    sub_mean = mean[:, index]
    sub_cov = cov[:, index[:, None], index[None, :]] + 1e-12 * np.eye(width)
    try:
        sub_precision = cholesky_inverse(sub_cov)
    except np.linalg.LinAlgError:
        sub_precision = np.empty_like(sub_cov)
        for b in range(sub_cov.shape[0]):
            try:
                sub_precision[b] = cholesky_inverse(sub_cov[b])
            except np.linalg.LinAlgError:
                inverse = np.linalg.inv(sub_cov[b])
                sub_precision[b] = 0.5 * (inverse + inverse.T)
    sub_shift = (sub_precision @ sub_mean[..., None])[..., 0]
    return sub_precision, sub_shift


def _repaired_precision(precision: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Batched PD repair of site targets (the reference ``_safe_divide``).

    Cholesky certifies the common PD case; on failure the eigenvalue bump
    of the historical implementation runs record-wise.
    """
    try:
        np.linalg.cholesky(precision)
        return precision
    except np.linalg.LinAlgError:
        pass
    symmetric = 0.5 * (precision + np.swapaxes(precision, -1, -2))
    smallest = np.linalg.eigvalsh(symmetric)[..., 0]
    bump = np.where(smallest <= 0, np.abs(smallest) + 1e-9, 0.0)
    return precision + bump[:, None, None] * eye


@dataclass
class SiteMCMCMoments:
    """Posterior moments from one per-site tilted-MCMC EP run (one record).

    Returned by :class:`~repro.fg.ep.ReferenceSiteMCMC`, the object-walking
    twin of :class:`BatchedSiteMCMC`.
    """

    variables: Tuple[str, ...]
    means: np.ndarray  # (n,)
    variances: np.ndarray  # (n,)
    iterations: int
    converged: bool
    #: Step-weighted true-chain acceptance rate over every site chain.
    acceptance_rate: float
    n_samples: int

    def mean(self) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.means)}

    def variance(self) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.variances)}


@dataclass
class BatchedSiteMCMCResult:
    """Batched outcome of a :class:`BatchedSiteMCMC` run (leading axis = record)."""

    variables: Tuple[str, ...]
    means: np.ndarray  # (B, n)
    variances: np.ndarray  # (B, n)
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,)
    #: Step-weighted true-chain acceptance rate per record, over every site
    #: chain the record ran.
    acceptance_rates: np.ndarray  # (B,)
    n_samples: int

    def __len__(self) -> int:
        return self.means.shape[0]

    def mean_dict(self, record: int = 0) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.means[record])}

    def variance_dict(self, record: int = 0) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.variances[record])}


@register_estimator(
    "mcmc",
    description="per-site tilted MCMC inside the EP loop (the accelerator workload)",
)
class BatchedSiteMCMC:
    """Per-site tilted-moment MCMC inside EP, batched over records.

    This is the paper's accelerator workload proper: lines 3-6 of Alg. 1
    with the tilted moments of every site estimated by a Markov chain, run
    for ``B`` records sharing one compiled graph structure.  Each site
    update forms the cavity (batched Schur marginalisation of the global
    buffers), runs a coupled pair of random-walk chains on the tilted
    distribution — the true chain on ``cavity x site factors``, a
    common-random-numbers shadow chain on its Gaussian projection, whose
    analytically-known natural parameters act as a control variate — and
    folds the sampled correction back into the site's natural parameters.
    On purely Gaussian sites the chains coincide step for step and the
    update reduces *exactly* to the analytic factor-block target; with
    Student-t observations the coupled correction captures the heavy-tail
    deviation per site.

    Proposal scales start at ``step_scale / sqrt(w) x projected std`` and,
    with ``adapt`` (default on), each *record* retunes its own scales to
    its own acceptance rate during burn-in.  All randomness is drawn per
    record from that record's seed, so a record solved alone is
    bit-identical to the same record inside a batch.

    :class:`~repro.fg.ep.ReferenceSiteMCMC` is the object-walking twin the
    differential harness pins this class against; a :class:`ChainTrace`
    passed as ``recorder`` captures every site chain for the accelerator
    co-simulation.
    """

    def __init__(
        self,
        kernel,
        *,
        n_samples: int = 300,
        burn_in: int = 200,
        step_scale: float = 2.38,
        adapt: bool = True,
        target_acceptance: float = 0.35,
        adapt_window: int = 50,
        recorder: Optional[ChainTrace] = None,
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if not 0.0 < target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        if adapt_window <= 0:
            raise ValueError("adapt_window must be positive")
        self.kernel = kernel
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.step_scale = step_scale
        self.adapt = adapt
        self.target_acceptance = target_acceptance
        self.adapt_window = adapt_window
        self.recorder = recorder

    def _site_chain(
        self,
        g_precision: np.ndarray,
        g_shift: np.ndarray,
        g_mean: np.ndarray,
        g_cov: np.ndarray,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray,
        tail: Optional[Callable[[np.ndarray], np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
        """Run the coupled chain pair for one site; returns the corrections.

        ``(d, D, accepted, scales, windows)``: mean correction ``(B, w)``,
        covariance correction ``(B, w, w)``, true-chain acceptance counts
        ``(B,)``, the (possibly adapted) final proposal scales, and the
        per-window burn-in acceptance trajectory — one ``(B,)`` count array
        per completed adaptation window (empty without adaptation).
        """
        batch, width = g_mean.shape
        zero = np.zeros(width)
        scales = (self.step_scale / np.sqrt(width)) * np.sqrt(
            np.maximum(np.diagonal(g_cov, axis1=-2, axis2=-1), 1e-30)
        )

        def gaussian_part(state: np.ndarray) -> np.ndarray:
            product = (g_precision @ state[..., None])[..., 0]
            return -0.5 * np.sum(state * product, axis=-1) + np.sum(g_shift * state, axis=-1)

        def true_log_density(state: np.ndarray) -> np.ndarray:
            value = gaussian_part(state)
            if tail is not None:
                value = value + tail(state)
            return value

        chain = g_mean.copy()
        shadow = g_mean.copy()
        chain_logp = true_log_density(chain)
        shadow_logp = gaussian_part(shadow)

        sum_chain = np.zeros((batch, width))
        sum_shadow = np.zeros((batch, width))
        sum_chain_outer = np.zeros((batch, width, width))
        sum_shadow_outer = np.zeros((batch, width, width))
        accepted = np.zeros(batch)
        window_accepts = np.zeros(batch)
        window_history: List[np.ndarray] = []

        total_steps = self.burn_in + self.n_samples
        for step in range(total_steps):
            # Per-record draws: a converged (inactive) record stops
            # consuming its stream, exactly like the twin breaking out of
            # its EP loop; everyone else's stream is untouched by it.
            noise = np.stack(
                [
                    rng.standard_normal(width) if act else zero
                    for rng, act in zip(rngs, active)
                ]
            )
            log_uniform = np.array(
                [np.log(rng.random()) if act else 0.0 for rng, act in zip(rngs, active)]
            )
            offset = scales * noise
            chain_proposal = chain + offset
            shadow_proposal = shadow + offset

            chain_proposal_logp = true_log_density(chain_proposal)
            shadow_proposal_logp = gaussian_part(shadow_proposal)
            accept_chain = active & (log_uniform < (chain_proposal_logp - chain_logp))
            accept_shadow = active & (log_uniform < (shadow_proposal_logp - shadow_logp))

            chain = np.where(accept_chain[:, None], chain_proposal, chain)
            chain_logp = np.where(accept_chain, chain_proposal_logp, chain_logp)
            shadow = np.where(accept_shadow[:, None], shadow_proposal, shadow)
            shadow_logp = np.where(accept_shadow, shadow_proposal_logp, shadow_logp)
            accepted += accept_chain

            if self.adapt and step < self.burn_in:
                window_accepts += accept_chain
                if (step + 1) % self.adapt_window == 0:
                    window_history.append(window_accepts.copy())
                    scales = _adapted_scales(
                        scales, window_accepts / self.adapt_window, self.target_acceptance
                    )
                    window_accepts = np.zeros(batch)

            if step >= self.burn_in:
                sum_chain += chain
                sum_shadow += shadow
                sum_chain_outer += chain[:, :, None] * chain[:, None, :]
                sum_shadow_outer += shadow[:, :, None] * shadow[:, None, :]

        count = float(self.n_samples)
        d = (sum_chain - sum_shadow) / count
        moment_diff = (sum_chain_outer - sum_shadow_outer) / count
        # Full-covariance control variate: tilted_cov = G_cov + D with
        # D = (M_chain - M_shadow) - (mean x d + d x mean + d x d), which is
        # identically zero whenever the chains stayed coupled.
        cross = g_mean[:, :, None] * d[:, None, :]
        covariance_correction = moment_diff - (
            cross + np.swapaxes(cross, -1, -2) + d[:, :, None] * d[:, None, :]
        )
        return d, covariance_correction, accepted, scales, window_history

    def run(
        self,
        stacked: Sequence[Tuple[np.ndarray, np.ndarray]],
        prior_precision: np.ndarray,
        prior_shift: np.ndarray,
        *,
        seeds: Sequence[int],
        site_tails: Optional[Mapping[int, Callable[[np.ndarray], np.ndarray]]] = None,
        ticks: Optional[Sequence[int]] = None,
        site_indices: Optional[Mapping[int, np.ndarray]] = None,
    ) -> BatchedSiteMCMCResult:
        """Run per-site tilted-MCMC EP for a batch of records.

        ``stacked`` / ``prior_precision`` / ``prior_shift`` take the exact
        shapes of :meth:`CompiledEPKernel.run_stacked`; ``seeds`` gives one
        RNG seed per record; ``site_tails`` maps a compiled-site index to
        that site's non-Gaussian log-density correction in *site-local*
        coordinates (e.g. a :class:`StudentTTail` built over local slots);
        ``ticks`` labels each record's chain-trace entries.

        ``site_indices`` maps a site position to the ``(w,)`` global slots,
        shared by every record, that replace the site's compiled ``index``
        for its cavity, marginal and scatter — the engine's canonical
        observation site bound at one signature's width.  The site's block
        is then ``w`` wide, and so are its chains and chain-trace entries.
        """
        sites = self.kernel.structure.sites
        if len(stacked) != len(sites):
            raise ValueError(
                f"run() expects {len(sites)} site blocks, got {len(stacked)}"
            )
        batch, n = prior_shift.shape
        if len(seeds) != batch:
            raise ValueError("run() needs one seed per record")
        tick_labels = list(ticks) if ticks is not None else [-1] * batch
        if len(tick_labels) != batch:
            raise ValueError("run() needs one tick label per record")
        tails = dict(site_tails) if site_tails else {}
        rngs = [np.random.default_rng(int(seed)) for seed in seeds]
        recorder = self.recorder
        slice_base = recorder.reserve_slices(batch) if recorder is not None else 0

        prior_mean, prior_cov, prior_proper = _information_moments(
            prior_precision, prior_shift
        )
        if not prior_proper.all():
            raise ValueError("per-site MCMC requires a proper prior for every record")

        global_precision = prior_precision.copy()
        global_shift = prior_shift.copy()
        site_precision = [np.zeros_like(p) for p, _ in stacked]
        site_shift = [np.zeros_like(s) for _, s in stacked]
        site_eyes = [np.eye(p.shape[-1]) for p, _ in stacked]
        overrides = dict(site_indices) if site_indices else {}

        eta = self.kernel.damping
        active = np.ones(batch, dtype=bool)
        converged = np.zeros(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=np.intp)
        max_delta = np.full(batch, np.inf)
        accepted_total = np.zeros(batch)
        steps_total = np.zeros(batch)
        chain_steps = self.burn_in + self.n_samples

        for iteration in range(1, self.kernel.max_iterations + 1):
            iteration_delta = np.zeros(batch)
            for k, site in enumerate(sites):
                index = overrides.get(k, site.index)
                rows = index[:, None]
                cols = index[None, :]

                # Cavity: g / g_k in the full space, then the site marginal
                # (moment projection, mirroring GaussianDensity.marginal);
                # an outright-singular cavity falls back to the prior's
                # marginal, as the reference EP loop does.
                cavity_precision = global_precision.copy()
                cavity_precision[:, rows, cols] -= site_precision[k]
                cavity_shift = global_shift.copy()
                cavity_shift[:, index] -= site_shift[k]
                cavity_mean, cavity_cov, proper = _information_moments(
                    cavity_precision, cavity_shift
                )
                if not proper.all():
                    cavity_mean = np.where(proper[:, None], cavity_mean, prior_mean)
                    cavity_cov = np.where(proper[:, None, None], cavity_cov, prior_cov)
                marginal_precision, marginal_shift = _marginal_information(
                    cavity_mean, cavity_cov, index
                )

                # Gaussian projection of the tilted distribution: cavity
                # marginal x the site's (raw) factor blocks.
                block_precision, block_shift = stacked[k]
                g_precision = marginal_precision + block_precision
                g_shift = marginal_shift + block_shift
                g_mean, g_cov, g_proper = _information_moments(g_precision, g_shift)
                if not g_proper.all():
                    raise np.linalg.LinAlgError(
                        "tilted projection is singular for some record"
                    )

                d, covariance_correction, accepted, scales, windows = self._site_chain(
                    g_precision, g_shift, g_mean, g_cov, rngs, active, tails.get(k)
                )
                accepted_total += np.where(active, accepted, 0.0)
                steps_total += np.where(active, float(chain_steps), 0.0)

                # Records whose sampled covariance correction breaks the
                # tilted covariance's positive definiteness drop D (keeping
                # the mean correction) — the projection is the fallback.
                tilted_cov = g_cov + covariance_correction
                try:
                    np.linalg.cholesky(tilted_cov)
                except np.linalg.LinAlgError:
                    keep = np.ones(batch, dtype=bool)
                    for b in range(batch):
                        try:
                            np.linalg.cholesky(tilted_cov[b])
                        except np.linalg.LinAlgError:
                            keep[b] = False
                    covariance_correction = np.where(
                        keep[:, None, None], covariance_correction, 0.0
                    )
                    tilted_cov = g_cov + covariance_correction

                # Natural-parameter form of the sampled correction, without
                # the moments->natural round trip:  inv(A+D) - inv(A) =
                # -inv(A) D inv(A+D), so the site target is the analytic
                # factor block plus a term that is *exactly* zero when the
                # chains never decoupled (Gaussian sites solve exactly).
                inverse_tilted = cholesky_inverse(tilted_cov)
                delta_precision = -(g_precision @ covariance_correction @ inverse_tilted)
                delta_precision = 0.5 * (
                    delta_precision + np.swapaxes(delta_precision, -1, -2)
                )
                tilted_mean = g_mean + d
                delta_shift = (g_precision @ d[..., None])[..., 0] + (
                    delta_precision @ tilted_mean[..., None]
                )[..., 0]
                target_precision = _repaired_precision(
                    block_precision + delta_precision, site_eyes[k]
                )
                target_shift = block_shift + delta_shift

                # Damping, convergence delta and masked scatter-add: the
                # exact arithmetic of CompiledEPKernel.run_stacked.
                old_precision, old_shift = site_precision[k], site_shift[k]
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
                global_precision[:, rows, cols] += diff_precision
                global_shift[:, index] += diff_shift

                if recorder is not None:
                    mean_scales = scales.mean(axis=-1)
                    for b in range(batch):
                        if active[b]:
                            recorder.record(
                                slice_id=slice_base + b,
                                tick=int(tick_labels[b]),
                                iteration=iteration,
                                site=site.name,
                                site_index=k,
                                width=len(index),
                                n_factors=len(index) if k in overrides else len(site.ops),
                                n_steps=chain_steps,
                                burn_in=self.burn_in,
                                accepted=int(accepted[b]),
                                step_scale=float(mean_scales[b]),
                                windows=tuple(int(w[b]) for w in windows),
                            )

            iterations = np.where(active, iteration, iterations)
            max_delta = np.where(active, iteration_delta, max_delta)
            newly_converged = active & (iteration_delta < self.kernel.tolerance)
            converged |= newly_converged
            active &= ~newly_converged
            if not active.any():
                break

        means, variances = self.kernel.read_out(global_precision, global_shift)
        return BatchedSiteMCMCResult(
            variables=self.kernel.structure.variables,
            means=means,
            variances=variances,
            iterations=iterations,
            converged=converged,
            acceptance_rates=accepted_total / np.maximum(steps_total, 1.0),
            n_samples=self.n_samples,
        )

