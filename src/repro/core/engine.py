"""The BayesPerf correction engine.

For every scheduler time slice the engine assembles a factor graph over the
monitored events:

* a **Student-t observation factor** per event measured in the slice, built
  from that slice's PMI sub-samples (§4.2);
* a **soft linear-constraint factor** per microarchitectural invariant
  relating the monitored events (§4, "Statistical Dependencies");
* a **temporal prior** carrying the previous slice's posterior forward — the
  ``Pr(e_b^t | e_b^{t-1}, e_a^t)`` chaining of §3.

Inference runs Expectation Propagation (Alg. 1) with the slice's observation
factors and each connected group of constraints as EP sites; tilted moments
are computed analytically by default or by MCMC (the accelerator's workload).
All inference happens in a per-event normalised space so that counts spanning
many orders of magnitude stay well conditioned.

The hot path is **array-native end to end**: per-slice observation summaries
are plain ndarrays (no Student-t objects), site blocks come out of the
signature-cached :class:`~repro.fg.compiled.CompiledBinder` (no factor
objects), and batches solve through
:meth:`~repro.fg.compiled.CompiledEPKernel.run_stacked` or the batched MCMC
estimator.  :meth:`BayesPerfEngine.process_batch` is the one solve path:
a single slice is a batch of one, and a batch spanning several
measured-event signatures is mega-batched into one analytic kernel call
automatically (:mod:`repro.fg.megabatch`).  Every fast path keeps a
reference twin — the object-walking
:class:`~repro.fg.ep.ExpectationPropagation` loop for the analytic kernel,
:class:`~repro.fg.mcmc.ReferenceMCMC` for the batched sampler — selectable
with ``use_compiled_kernel=False`` so differential tests can pin the pairs
together.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.events.catalog import EventCatalog
from repro.fg.compiled import (
    CompiledBinder,
    CompiledEPKernel,
    ConstraintSiteBinder,
    ObservationSiteBinder,
    compile_factor_graph,
)
from repro.fg.distributions import StudentT, student_t_moment_variance
from repro.fg.megabatch import (
    KernelExecSpec,
    kernel_exec_from_env,
    bind_bucketed_observation,
    observation_certified,
    padding_slots,
    run_lane_partitioned,
)
from repro.fg.ep import EPSite, ExpectationPropagation
from repro.fg.factors import (
    Factor,
    GaussianObservation,
    LinearConstraintFactor,
    StudentTObservation,
)
from repro.fg.gaussian import GaussianDensity
from repro.fg.graph import FactorGraph
from repro.fg.mcmc import ChainTrace, StudentTTail
from repro.fg.registry import get_estimator
from repro.invariants.library import InvariantLibrary, standard_invariants
from repro.core.posterior import EventEstimate, PosteriorReport
from repro.pmu.sampling import SampledTrace, SamplingRecord
from repro.pmu.traces import EstimateTrace


@dataclass
class EngineState:
    """Snapshot of one monitoring run's temporal state.

    A :class:`BayesPerfEngine` carries state between consecutive slices (the
    previous posterior means, the per-event normalisation scales, the tick
    counter and — for MCMC moment estimation — the RNG stream).  Capturing
    that state lets one engine instance serve many interleaved monitoring
    runs — the fleet worker pool checkpoints a host's state after each batch
    and restores it before the next, instead of constructing a fresh engine
    per host.
    """

    prior_mean: Dict[str, Optional[float]] = field(default_factory=dict)
    scale: Dict[str, float] = field(default_factory=dict)
    tick: int = 0
    rng_state: Optional[Dict] = None


@dataclass(frozen=True)
class ObservationSummaries:
    """Array-native per-slice observation summaries (§4.2).

    One row per measured event, in record order: the quantum total, its
    Student-t scale and the degrees of freedom.  Replaces the historical
    ``Dict[str, StudentT]`` so batch preparation never materialises
    distribution objects; the ``events`` tuple doubles as the slice's
    graph-structure signature.
    """

    events: Tuple[str, ...]
    loc: np.ndarray
    scale: np.ndarray
    df: np.ndarray

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class _PreparedSlice:
    """One record's slice-local model, built before (batched) inference.

    Captures everything :meth:`BayesPerfEngine.process_batch` derives from
    a monitoring run's temporal state *before* running inference, as plain
    ndarrays, so a batch of slices from different monitoring runs can be
    prepared sequentially and then solved in one vectorized kernel call.
    """

    record: SamplingRecord
    #: Measured events, in record order.  Doubles as the graph-structure
    #: signature: which events were measured fully determines the slice's
    #: factor-graph shape (the constraint topology is fixed per engine).
    measured: Tuple[str, ...]
    summaries: ObservationSummaries
    #: Normalised projected observation moments, ``(E,)`` each.
    obs_mean: np.ndarray
    obs_scale: np.ndarray
    obs_variance: np.ndarray
    #: Per-event normalisation scales over every engine variable, ``(n,)``.
    scales_vec: np.ndarray
    #: Temporal prior in normalised space, ``(n,)`` each.
    prior_mean_vec: np.ndarray
    prior_var_vec: np.ndarray
    scale: Dict[str, float]
    tick: int
    rng_state: Optional[Dict]
    #: Per-record seed for the batched MCMC estimator's chains.
    mcmc_seed: int = 0


class BayesPerfEngine:
    """Turns multiplexed counter samples into posterior event estimates.

    Parameters
    ----------
    catalog:
        Event catalog of the monitored CPU.
    events:
        Events the monitoring application registered.  The catalog's fixed
        events are always added (they are measured for free).
    library:
        Invariant library; defaults to the standard one.
    observation_model:
        ``"student_t"`` (paper, §4.2) or ``"gaussian"`` (ablation).
    moment_estimator:
        Any name registered in :mod:`repro.fg.registry`: ``"analytic"``
        (exact Gaussian projections), ``"mcmc"`` (per-site tilted-moment
        sampling inside the EP loop — the accelerator's workload, batched
        over records on the compiled kernel's buffers) or
        ``"batched-mcmc"`` (full-posterior coupled-chain sampling through
        the compiled kernel's buffers, vectorized across a batch).  Names
        are validated against the registry (unknown names raise, listing
        the registered estimators) and each entry supplies the engine's
        implementation classes and adaptation default; the engine's solve
        wiring currently drives these three built-in estimator shapes.
    mcmc_adapt:
        Per-record proposal-scale adaptation during burn-in for the sampled
        estimators.  ``None`` keeps each estimator's default: *on* for the
        per-site ``"mcmc"`` sampler, *off* for ``"batched-mcmc"`` (whose
        golden-trace numerics predate adaptation).
    chain_recorder:
        Optional :class:`~repro.fg.mcmc.ChainTrace` capturing one record
        per (slice, EP iteration, site) chain the ``"mcmc"`` estimator
        runs; serialise it with :mod:`repro.fleet.tracefile` and feed it to
        the :mod:`repro.accelerator` co-simulation.
    observer:
        Optional :class:`~repro.obs.Observer`.  When present the engine
        emits ``kernel.compile``/``kernel.bind``/``kernel.solve`` spans and
        kernel-cache hit/miss counters; when ``None`` (the default) the hot
        path is untouched.
    drift:
        Relative standard deviation of the temporal prior: how much an event
        is expected to change between consecutive slices.
    min_relative_sigma:
        Floor on the relative uncertainty assigned to an observation.
    relation_tolerance_scale:
        Multiplier on every relation's tolerance (ablation knob).
    ep_max_iterations, ep_damping, mcmc_samples, mcmc_burn_in, seed:
        EP and MCMC controls.
    kernel_exec:
        Optional :class:`~repro.fg.megabatch.KernelExecSpec` spreading the
        batched kernel across threads by chunking the record axis inside
        one solve.  The chunks are a fixed function of the batch size, so
        any thread count is bit-identical to ``threads=1``.  When ``None``,
        the ``REPRO_KERNEL_THREADS`` environment variable supplies a
        default.
    use_compiled_kernel:
        Route compiled-estimator slices through the vectorized array path
        (:class:`~repro.fg.compiled.CompiledEPKernel` /
        :class:`~repro.fg.mcmc.BatchedMCMC`; compiled structures and
        binders are cached per measured-event signature).  Disable to run
        each estimator's reference twin instead — the object-walking
        :class:`~repro.fg.ep.ExpectationPropagation` loop for
        ``"analytic"``, :class:`~repro.fg.mcmc.ReferenceMCMC` for
        ``"batched-mcmc"``, :class:`~repro.fg.ep.ReferenceSiteMCMC` for
        ``"mcmc"`` — for differential A/B comparison.
    """

    def __init__(
        self,
        catalog: EventCatalog,
        events: Sequence[str],
        *,
        library: Optional[InvariantLibrary] = None,
        observation_model: str = "student_t",
        moment_estimator: str = "analytic",
        drift: float = 0.25,
        min_relative_sigma: float = 0.02,
        relation_tolerance_scale: float = 1.0,
        ep_max_iterations: int = 8,
        ep_damping: float = 1.0,
        mcmc_samples: int = 300,
        mcmc_burn_in: int = 200,
        mcmc_adapt: Optional[bool] = None,
        chain_recorder: Optional[ChainTrace] = None,
        observer=None,
        use_intensity_chain: bool = True,
        use_compiled_kernel: bool = True,
        kernel_exec: Optional[KernelExecSpec] = None,
        seed: int = 0,
    ) -> None:
        if observation_model not in ("student_t", "gaussian"):
            raise ValueError(f"unknown observation model {observation_model!r}")
        # Registry resolution: raises for unknown names, listing the
        # registered estimators.
        self._estimator = get_estimator(moment_estimator)
        if self._estimator.baseline:
            raise ValueError(
                f"{moment_estimator!r} is a baseline correction method, not a "
                f"moment estimator; run it through the scenario-grid comparison "
                f"(RunSpec.baselines) instead"
            )
        if drift <= 0:
            raise ValueError("drift must be positive")
        if min_relative_sigma <= 0:
            raise ValueError("min_relative_sigma must be positive")
        if relation_tolerance_scale <= 0:
            raise ValueError("relation_tolerance_scale must be positive")

        self.catalog = catalog
        monitored = list(dict.fromkeys(events))
        fixed = [spec.name for spec in catalog.fixed_events]
        #: Events reported to the user: the registered ones plus fixed counters.
        self.monitored_events: Tuple[str, ...] = tuple(
            monitored + [f for f in fixed if f not in monitored]
        )
        self.library = library if library is not None else standard_invariants()
        # The model reasons over every event any catalog invariant touches;
        # events that are never measured become latent variables whose values
        # are inferred jointly with the monitored ones.
        self.relations = self.library.for_catalog(catalog)
        latent: List[str] = []
        for relation in self.relations:
            for event in relation.events:
                if event not in self.monitored_events and event not in latent:
                    latent.append(event)
        self.events: Tuple[str, ...] = tuple(self.monitored_events) + tuple(latent)
        self.observation_model = observation_model
        self.moment_estimator = moment_estimator
        self.drift = drift
        self.min_relative_sigma = min_relative_sigma
        self.relation_tolerance_scale = relation_tolerance_scale
        self.ep_max_iterations = ep_max_iterations
        self.ep_damping = ep_damping
        self.mcmc_samples = mcmc_samples
        self.mcmc_burn_in = mcmc_burn_in
        # Estimator-specific adaptation default (from the registry entry).
        self.mcmc_adapt = mcmc_adapt if mcmc_adapt is not None else self._estimator.default_adapt
        self.chain_recorder = chain_recorder
        self._observer = observer
        self.use_intensity_chain = use_intensity_chain
        self.use_compiled_kernel = use_compiled_kernel
        self.kernel_exec = kernel_exec if kernel_exec is not None else kernel_exec_from_env()
        self._kernel_pool = None
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = "bayesperf"

        self._relation_groups = self._group_relations()
        self._event_slot: Dict[str, int] = {e: i for i, e in enumerate(self.events)}
        #: Compiled kernels per measured-event signature (``None`` marks a
        #: signature that failed to compile and should use reference EP).
        self._kernel_cache: Dict[Tuple[str, ...], Optional[CompiledEPKernel]] = {}
        #: Array-native binders, cached alongside the kernels.
        self._binder_cache: Dict[Tuple[str, ...], CompiledBinder] = {}
        #: Canonical full-width kernel + binder for the mega-batch path
        #: (compiled lazily; ``False`` = not built yet, ``None`` = the
        #: canonical structure does not compile).
        self._mega_cache = False
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all temporal state (start of a new monitoring run).

        The RNG is re-seeded too, so two runs over the same records produce
        identical results even with an MCMC moment estimator.
        """
        self._prior_mean: Dict[str, Optional[float]] = {event: None for event in self.events}
        self._scale: Dict[str, float] = {event: 1.0 for event in self.events}
        self._tick = 0
        self._rng = np.random.default_rng(self._seed)

    def snapshot(self) -> EngineState:
        """Capture the temporal state of the current monitoring run."""
        return EngineState(
            prior_mean=dict(self._prior_mean),
            scale=dict(self._scale),
            tick=self._tick,
            rng_state=self._rng.bit_generator.state,
        )

    def restore(self, state: EngineState) -> None:
        """Resume a monitoring run from a previously captured snapshot.

        Unknown events in the snapshot are rejected: a snapshot can only be
        restored into an engine built for the same (catalog, event-set) key.
        """
        unknown = [event for event in state.prior_mean if event not in self._prior_mean]
        if unknown:
            raise ValueError(f"snapshot mentions events unknown to this engine: {unknown}")
        self.reset()
        self._prior_mean.update(state.prior_mean)
        self._scale.update(state.scale)
        self._tick = state.tick
        if state.rng_state is not None:
            self._rng.bit_generator.state = state.rng_state

    # -- construction helpers -------------------------------------------------

    def _group_relations(self) -> Tuple[Tuple[int, ...], ...]:
        """Indices of relations grouped into connected components (EP sites)."""
        if not self.relations:
            return ()
        parent = list(range(len(self.relations)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        event_to_first: Dict[str, int] = {}
        for index, relation in enumerate(self.relations):
            for event in relation.events:
                if event in event_to_first:
                    union(index, event_to_first[event])
                else:
                    event_to_first[event] = index
        groups: Dict[int, List[int]] = {}
        for index in range(len(self.relations)):
            groups.setdefault(find(index), []).append(index)
        return tuple(tuple(members) for members in groups.values())

    def _observation_summaries(self, record: SamplingRecord) -> ObservationSummaries:
        """Batched ndarray summaries of one slice's sub-samples (§4.2)."""
        events: List[str] = []
        arrays: List[np.ndarray] = []
        for event, samples in record.samples.items():
            if event in self._event_slot:
                array = np.asarray(samples, dtype=float).reshape(-1)
                if array.size == 0:
                    # A measured event with zero sub-samples is malformed
                    # input (e.g. a truncated trace); fail loudly here
                    # rather than let NaNs poison the temporal chain.
                    raise ValueError(
                        f"record tick {record.tick} has no samples for "
                        f"measured event {event!r}"
                    )
                events.append(event)
                arrays.append(array)
        if not events:
            empty = np.empty(0)
            return ObservationSummaries((), empty, empty.copy(), empty.copy())
        lengths = {array.shape[0] for array in arrays}
        if len(lengths) == 1:
            # Uniform sub-sample counts (the schedule's normal shape): one
            # vectorized pass over the (E, n) sample matrix.
            n = lengths.pop()
            matrix = np.stack(arrays)
            totals = matrix.sum(axis=1)
            if n >= 2:
                # The quantum total is the sum of the sub-samples; its
                # uncertainty follows from the sub-sample scatter (§4.2).
                stds = matrix.std(axis=1, ddof=1) * math.sqrt(n)
            else:
                stds = np.abs(totals) * 0.05
            scales = np.maximum(
                np.maximum(stds / math.sqrt(n), np.abs(totals) * self.min_relative_sigma),
                1e-9,
            )
            dfs = np.full(len(events), float(max(n - 1, 1)))
        else:
            # Ragged sub-sample counts: per-event fallback, same arithmetic.
            totals = np.empty(len(events))
            scales = np.empty(len(events))
            dfs = np.empty(len(events))
            for i, samples in enumerate(arrays):
                count = samples.shape[0]
                total = float(np.sum(samples))
                if count >= 2:
                    std = float(np.std(samples, ddof=1)) * math.sqrt(count)
                else:
                    std = abs(total) * 0.05
                totals[i] = total
                scales[i] = max(
                    std / math.sqrt(count), abs(total) * self.min_relative_sigma, 1e-9
                )
                dfs[i] = float(max(count - 1, 1))
        if record.mux_fraction:
            # Real traces carry perf's t_running/t_enabled bookkeeping: an
            # event that counted only a fraction f of the quantum reports a
            # linearly-scaled total whose sampling noise grows like
            # 1/sqrt(f), so its observation scale widens accordingly.  The
            # simulator leaves mux_fraction empty — synthetic streams take
            # this branch never and keep bit-identical scales.
            for i, event in enumerate(events):
                fraction = record.mux_fraction.get(event)
                if fraction is not None and 0.0 < fraction < 1.0:
                    scales[i] /= math.sqrt(fraction)
        return ObservationSummaries(tuple(events), totals, scales, dfs)

    def _ensure_scales(self, summaries: ObservationSummaries) -> None:
        """Initialise or refresh the per-event normalisation scales.

        Observed events are always rescaled to their current measured
        magnitude so that a previous bad estimate can never make a fresh
        observation numerically irrelevant.
        """
        magnitudes = np.abs(summaries.loc)
        positive = magnitudes[magnitudes > 0]
        fallback = float(np.median(positive)) if positive.size else 1.0
        observed = dict(zip(summaries.events, magnitudes))
        for event in self.events:
            prior = self._prior_mean[event]
            magnitude = observed.get(event, 0.0)
            if magnitude > 0:
                self._scale[event] = max(float(magnitude), 1e-9)
            elif prior is not None and prior > 0:
                self._scale[event] = prior
            elif self._scale[event] <= 0 or self._scale[event] == 1.0:
                self._scale[event] = max(fallback, 1e-9)

    def _intensity_ratio(self, summaries: ObservationSummaries) -> float:
        """Common-mode activity change since the previous slice (§3 chaining).

        Events measured in this slice that also have an estimate from the
        previous slice (always including the fixed counters) vote on how much
        the overall activity level moved; the median ratio is used to advance
        the temporal prior of every event that was *not* measured.
        """
        if not self.use_intensity_chain:
            return 1.0
        ratios = []
        for event, loc in zip(summaries.events, summaries.loc):
            previous = self._prior_mean.get(event)
            if previous is not None and previous > 0 and loc > 0:
                ratios.append(loc / previous)
        if not ratios:
            return 1.0
        ratio = float(np.median(ratios))
        return float(min(max(ratio, 0.2), 5.0))

    def _build_factors(
        self, summaries: ObservationSummaries, scales: Mapping[str, float]
    ) -> Tuple[List[Factor], List[List[Factor]]]:
        """Observation factors and per-group constraint factors (normalised).

        The object-level slice model under the per-event normalisation
        *scales* — needed only to compile a new signature and on the
        reference-twin paths; the compiled hot path binds the summary
        arrays directly.
        """
        observation_factors: List[Factor] = []
        for event, loc, sigma, df in zip(
            summaries.events, summaries.loc, summaries.scale, summaries.df
        ):
            scale = scales[event]
            loc_norm = loc / scale
            sigma_norm = max(sigma / scale, 1e-9)
            if self.observation_model == "student_t":
                observation_factors.append(
                    StudentTObservation(
                        name=f"obs::{event}",
                        variable=event,
                        distribution=StudentT(loc=loc_norm, scale=sigma_norm, df=float(df)),
                    )
                )
            else:
                observation_factors.append(
                    GaussianObservation(
                        name=f"obs::{event}", variable=event, observed=loc_norm, sigma=sigma_norm
                    )
                )

        constraint_groups: List[List[Factor]] = []
        for group in self._relation_groups:
            factors: List[Factor] = []
            for index in group:
                relation = self.relations[index]
                coefficients = {
                    event: coef * scales[event]
                    for event, coef in relation.coefficients.items()
                }
                magnitude = sum(abs(value) for value in coefficients.values())
                sigma = max(
                    relation.tolerance * self.relation_tolerance_scale * magnitude, 1e-9
                )
                factors.append(
                    LinearConstraintFactor(
                        name=f"rel::{relation.name}",
                        coefficients=coefficients,
                        sigma=sigma,
                        description=relation.description,
                    )
                )
            constraint_groups.append(factors)
        return observation_factors, constraint_groups

    def _build_prior_arrays(self, intensity_ratio: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Temporal prior over all events in normalised space, as arrays.

        The previous slice's posterior mean, advanced by the common-mode
        intensity ratio, becomes the prior mean; its spread is the relative
        ``drift`` the workload is expected to exhibit between slices.
        """
        means = np.empty(len(self.events))
        variances = np.empty(len(self.events))
        for i, event in enumerate(self.events):
            prior = self._prior_mean[event]
            if prior is not None and prior > 0:
                mean = prior * intensity_ratio / self._scale[event]
                means[i] = mean
                variances[i] = (self.drift * mean + 1e-6) ** 2
            else:
                # Nothing known yet: a broad prior centred on the event's scale.
                means[i] = 1.0
                variances[i] = 25.0
        return means, variances

    def _prior_density(self, prepared: _PreparedSlice) -> GaussianDensity:
        """The prepared slice's temporal prior as a Gaussian object."""
        means = {e: float(m) for e, m in zip(self.events, prepared.prior_mean_vec)}
        variances = {e: float(v) for e, v in zip(self.events, prepared.prior_var_vec)}
        return GaussianDensity.diagonal(means, variances)

    # -- inference -------------------------------------------------------------

    @property
    def _has_sites(self) -> bool:
        """Whether the engine's graphs ever contain constraint sites."""
        return bool(self._relation_groups)

    def _compiled_path(self) -> bool:
        return self.use_compiled_kernel and self._estimator.compiled_path

    def _site_factor_lists(
        self,
        observation_factors: List[Factor],
        constraint_groups: List[List[Factor]],
    ) -> List[Tuple[str, List[Factor]]]:
        """Named EP site partition of one slice's factors (in site order)."""
        site_lists: List[Tuple[str, List[Factor]]] = []
        if observation_factors:
            site_lists.append(("slice-observations", observation_factors))
        for group_index, factors in enumerate(constraint_groups):
            if factors:
                site_lists.append((f"constraints-{group_index}", factors))
        return site_lists

    def _assemble_graph(
        self, site_lists: List[Tuple[str, List[Factor]]]
    ) -> Tuple[FactorGraph, List[EPSite]]:
        """Materialise the FactorGraph + EPSite objects for one slice.

        Only needed on a kernel-cache miss (to compile the structure) and on
        the reference-twin paths; the compiled hot path binds summary
        arrays directly.
        """
        graph = FactorGraph(variables=self.events)
        sites: List[EPSite] = []
        for name, factors in site_lists:
            for factor in factors:
                graph.add_factor(factor)
            sites.append(EPSite(name=name, factor_names=tuple(f.name for f in factors)))
        return graph, sites

    def _build_binder(
        self, structure, site_names: Sequence[str], measured: Tuple[str, ...]
    ) -> CompiledBinder:
        """Array-native binder for one compiled structure.

        Lowered once per measured-event signature: the observation site's
        slot table plus each constraint group's stacked (unscaled)
        coefficient matrix, in the structure's site-local orderings.
        """
        observation: Optional[ObservationSiteBinder] = None
        constraints: List[ConstraintSiteBinder] = []
        for index, name in enumerate(site_names):
            site = structure.sites[index]
            local = {variable: i for i, variable in enumerate(site.variables)}
            if name == "slice-observations":
                slots = np.array([local[event] for event in measured], dtype=np.intp)
                observation = ObservationSiteBinder(site=index, slots=slots, width=site.width)
            else:
                group = int(name.rsplit("-", 1)[1])
                relations = [self.relations[i] for i in self._relation_groups[group]]
                coefficients = np.zeros((len(relations), site.width))
                tolerances = np.empty(len(relations))
                for row, relation in enumerate(relations):
                    for event, coefficient in relation.coefficients.items():
                        coefficients[row, local[event]] = coefficient
                    tolerances[row] = relation.tolerance * self.relation_tolerance_scale
                constraints.append(
                    ConstraintSiteBinder(
                        site=index,
                        coefficients=coefficients,
                        tolerances=tolerances,
                        width=site.width,
                    )
                )
        return CompiledBinder(
            structure=structure, observation=observation, constraints=tuple(constraints)
        )

    def _compiled_kernel(
        self, prepared: _PreparedSlice
    ) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Cached compiled kernel + binder for this slice's graph structure.

        The structure is fully determined by which monitored events the
        slice measured (the constraint topology is fixed per engine), so
        kernels and their array-native binders are cached per
        measured-event signature — one compilation per schedule rotation
        position.
        """
        if not self._compiled_path():
            return None
        signature = prepared.measured
        observer = self._observer
        try:
            kernel = self._kernel_cache[signature]
            if observer is not None:
                observer.count("kernel.cache.hits")
        except KeyError:
            if observer is not None:
                observer.count("kernel.cache.misses")
            with (
                observer.span("kernel.compile", signature=len(signature))
                if observer is not None
                else nullcontext()
            ):
                observation_factors, constraint_groups = self._build_factors(
                    prepared.summaries, prepared.scale
                )
                site_lists = self._site_factor_lists(
                    observation_factors, constraint_groups
                )
                graph, sites = self._assemble_graph(site_lists)
                structure = compile_factor_graph(graph, sites, variables=self.events)
                if structure is None:
                    kernel = None
                else:
                    kernel = CompiledEPKernel(
                        structure,
                        damping=self.ep_damping,
                        max_iterations=self.ep_max_iterations,
                    )
                    self._binder_cache[signature] = self._build_binder(
                        structure, [name for name, _ in site_lists], signature
                    )
            self._kernel_cache[signature] = kernel
        if kernel is None:
            return None
        return kernel, self._binder_cache[signature]

    # -- mega-batching (repro.fg.megabatch) ---------------------------------

    def _megabatch_structure(self) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Canonical full-width kernel + binder for cross-signature solves.

        Within one engine the variable set and constraint topology are
        signature-invariant; only the observation site's width varies.  The
        canonical structure treats *every* engine variable as observed, so
        any signature embeds by scattering its measured lanes and padding
        the rest with exact zeros.  Compiled once per engine, through the
        same ``_build_factors → compile_factor_graph`` path as per-signature
        structures, so constraint-site variable orderings match exactly.
        """
        if self._mega_cache is not False:
            return self._mega_cache
        n = len(self.events)
        # Placeholder summaries and scales: only the factor *types* and
        # variable sets matter for compilation, never the values.
        summaries = ObservationSummaries(
            self.events, np.ones(n), np.ones(n), np.full(n, 3.0)
        )
        observation_factors, constraint_groups = self._build_factors(
            summaries, dict.fromkeys(self.events, 1.0)
        )
        site_lists = self._site_factor_lists(observation_factors, constraint_groups)
        graph, sites = self._assemble_graph(site_lists)
        structure = compile_factor_graph(graph, sites, variables=self.events)
        if structure is None:
            self._mega_cache = None
        else:
            kernel = CompiledEPKernel(
                structure,
                damping=self.ep_damping,
                max_iterations=self.ep_max_iterations,
            )
            binder = self._build_binder(
                structure, [name for name, _ in site_lists], self.events
            )
            self._mega_cache = (kernel, binder)
        return self._mega_cache

    def _kernel_threads(self) -> "ThreadPoolExecutor":
        """The engine's lazily created kernel thread pool."""
        if self._kernel_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._kernel_pool = ThreadPoolExecutor(
                max_workers=self.kernel_exec.threads,
                thread_name_prefix="repro-kernel",
            )
        return self._kernel_pool

    def _run_kernel(
        self,
        kernel: CompiledEPKernel,
        stacked,
        prior_precision: np.ndarray,
        prior_shift: np.ndarray,
        certified_sites: Sequence[int] = (),
        site_index_overrides: Optional[Dict[int, np.ndarray]] = None,
        repair_groups: Optional[Sequence[np.ndarray]] = None,
    ):
        """``run_stacked`` with the engine's lane partition applied.

        Lane partitioning chunks the batch axis across the thread pool;
        the PD repair is hoisted ahead of the split and every remaining
        kernel op is per-record, so the result is bit-identical to the
        serial call for any thread count.
        """
        spec = self.kernel_exec
        batch = prior_shift.shape[0]
        if spec is None or spec.threads <= 1 or batch < spec.threads:
            return kernel.run_stacked(
                stacked, prior_precision, prior_shift, certified_sites,
                site_index_overrides, repair_groups,
            )
        return run_lane_partitioned(
            kernel,
            stacked,
            prior_precision,
            prior_shift,
            certified_sites,
            self._kernel_threads(),
            spec.threads,
            site_index_overrides,
            repair_groups,
        )

    def _megabatch_eligible(
        self, groups: Dict[Tuple[str, ...], List[int]], prepared: List[_PreparedSlice]
    ) -> List[Tuple[str, ...]]:
        """Signatures of this batch that may merge into one canonical solve.

        A group qualifies when it measured at least one event and every
        record's projected observation precision is finite and strictly
        positive — the condition under which skipping the canonical
        observation site's PD probe is bit-identical to the per-signature
        probe (see :func:`repro.fg.megabatch.observation_certified`).
        Merging only ever pays off across *multiple* signatures, so a
        homogeneous batch keeps the plain per-signature path untouched.
        Only the compiled analytic estimator merges: the canonical solve
        calls the analytic kernel itself.
        """
        if (
            self.moment_estimator != "analytic"
            or not self._compiled_path()
            or len(groups) < 2
            or self._megabatch_structure() is None
        ):
            return []
        eligible = [
            signature
            for signature, indices in groups.items()
            if signature
            and all(
                observation_certified(prepared[index].obs_variance)
                for index in indices
            )
        ]
        return eligible if len(eligible) >= 2 else []

    def _solve_megabatch(
        self,
        groups: List[Tuple[Tuple[str, ...], List[_PreparedSlice]]],
    ) -> List[Tuple[Mapping[str, float], Mapping[str, float], int, bool]]:
        """Solve several signature groups in one canonical kernel call.

        Records are laid out group-contiguously in one bucketed
        structure-of-arrays layout: the observation site is padded to the
        round's widest signature, populated lanes carry the exact floats
        the per-signature binder would produce, padded lanes carry exact
        zeros scattered onto unmeasured slots via the per-record slot
        table — so the merged solve reproduces every per-signature solve
        bit for bit.  The kernel's PD repair re-probes at the original
        group granularity (``repair_groups``): the Cholesky probe is
        all-or-nothing per call, so merging must not let one group's
        indefinite block change another group's repair.  Returns results
        in the flattened (group-major) record order.
        """
        kernel, binder = self._megabatch_structure()
        flat = [p for _, members in groups for p in members]
        batch, n = len(flat), len(self.events)
        obs_site = binder.observation.site
        observer = self._observer
        with (
            observer.span("kernel.megabind", batch=batch, signatures=len(groups))
            if observer is not None
            else nullcontext()
        ):
            width = max(len(signature) for signature, _ in groups)
            blocks = []
            row = 0
            for signature, members in groups:
                rows = np.arange(row, row + len(members))
                slots = np.array(
                    [self._event_slot[event] for event in signature], dtype=np.intp
                )
                blocks.append(
                    (
                        rows,
                        slots,
                        padding_slots(width, slots, n),
                        np.stack([p.obs_mean for p in members]),
                        np.stack([p.obs_variance for p in members]),
                    )
                )
                row += len(members)
            obs_block = bind_bucketed_observation(width, batch, blocks)
            slot_table = obs_block[2]
            scales = np.stack([p.scales_vec for p in flat])
            stacked: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(  # type: ignore[list-item]
                binder.structure.sites
            )
            stacked[obs_site] = obs_block[:2]
            for constraint in binder.constraints:
                site = binder.structure.sites[constraint.site]
                stacked[constraint.site] = constraint.bind(scales[:, site.index])

            prior_mean = np.stack([p.prior_mean_vec for p in flat])
            prior_var = np.stack([p.prior_var_vec for p in flat])
            prior_precision = np.zeros((batch, n, n))
            diagonal = np.arange(n)
            prior_precision[:, diagonal, diagonal] = 1.0 / prior_var
            prior_shift = prior_mean / prior_var

        with (
            observer.span("kernel.solve", batch=batch, estimator="megabatch")
            if observer is not None
            else nullcontext()
        ):
            result = self._run_kernel(
                kernel,
                stacked,
                prior_precision,
                prior_shift,
                certified_sites=(obs_site,),
                site_index_overrides={obs_site: slot_table},
                repair_groups=[block[0] for block in blocks],
            )
        # ``tolist()`` yields the same binary64 values ``float(...)`` would;
        # bulk extraction just skips the per-element numpy scalar round trip.
        names = result.variables
        means = result.means.tolist()
        variances = result.variances.tolist()
        return [
            (
                dict(zip(names, means[b])),
                dict(zip(names, variances[b])),
                int(result.iterations[b]),
                bool(result.converged[b]),
            )
            for b in range(batch)
        ]

    def _solve_reference(
        self, prepared: _PreparedSlice
    ) -> Tuple[Mapping[str, float], Mapping[str, float], int, bool]:
        """Solve one prepared slice through its estimator's reference twin.

        The per-slice solve behind ``use_compiled_kernel=False`` and behind
        any signature whose structure does not compile: the object-walking
        EP loop for ``"analytic"``, the registered twins for the sampled
        estimators.  It reads only *prepared*, never the engine's temporal
        state, so it composes with batch preparation like every other solve.
        """
        if self.moment_estimator == "batched-mcmc":
            means, variances = self._solve_reference_mcmc(prepared)
            return means, variances, 0, True
        if self.moment_estimator == "mcmc":
            return self._solve_reference_site_mcmc(prepared)
        observation_factors, constraint_groups = self._build_factors(
            prepared.summaries, prepared.scale
        )
        graph, sites = self._assemble_graph(
            self._site_factor_lists(observation_factors, constraint_groups)
        )
        result = ExpectationPropagation(
            graph,
            sites,
            self._prior_density(prepared),
            damping=self.ep_damping,
            max_iterations=self.ep_max_iterations,
        ).run()
        return result.posterior.mean(), result.posterior.variance(), result.iterations, result.converged

    def _solve_reference_mcmc(
        self, prepared: _PreparedSlice
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Reference twin of the batched MCMC estimator (object-based).

        Walks the slice's Python factor objects per step, seeded with the
        same per-record seed the batched path would use — the differential
        harness pins the two within floating-point noise.
        """
        observation_factors, constraint_groups = self._build_factors(
            prepared.summaries, prepared.scale
        )
        factors: List[Factor] = list(observation_factors)
        for group in constraint_groups:
            factors.extend(group)
        # The registry names the twin class, so swapping a registered
        # implementation swaps every entry point at once.
        twin = self._estimator.reference(
            factors,
            self._prior_density(prepared),
            n_samples=self.mcmc_samples,
            burn_in=self.mcmc_burn_in,
            adapt=self.mcmc_adapt,
        )
        moments = twin.run(rng=np.random.default_rng(prepared.mcmc_seed))
        return moments.mean(), moments.variance()

    def _solve_reference_site_mcmc(
        self, prepared: _PreparedSlice
    ) -> Tuple[Dict[str, float], Dict[str, float], int, bool]:
        """Reference twin of the batched per-site tilted MCMC (object-based).

        Runs the identical EP loop with per-site coupled-chain moment
        estimation, walking Python factor objects per step, seeded with the
        same per-record seed the batched path would use — the differential
        harness pins the two within floating-point noise.
        """
        observation_factors, constraint_groups = self._build_factors(
            prepared.summaries, prepared.scale
        )
        site_lists = self._site_factor_lists(observation_factors, constraint_groups)
        twin = self._estimator.reference(
            site_lists,
            self._prior_density(prepared),
            n_samples=self.mcmc_samples,
            burn_in=self.mcmc_burn_in,
            adapt=self.mcmc_adapt,
            damping=self.ep_damping,
            max_iterations=self.ep_max_iterations,
            recorder=self.chain_recorder,
        )
        moments = twin.run(
            rng=np.random.default_rng(prepared.mcmc_seed), tick=prepared.record.tick
        )
        return moments.mean(), moments.variance(), moments.iterations, moments.converged

    def _prepare_slice(self, record: SamplingRecord) -> _PreparedSlice:
        """Advance the temporal state and build one slice's arrays."""
        summaries = self._observation_summaries(record)
        intensity_ratio = self._intensity_ratio(summaries)
        self._ensure_scales(summaries)
        scale_obs = np.array([self._scale[event] for event in summaries.events])
        obs_mean = summaries.loc / scale_obs
        obs_scale = np.maximum(summaries.scale / scale_obs, 1e-9)
        if self.observation_model == "student_t":
            obs_variance = student_t_moment_variance(obs_scale, summaries.df)
        else:
            obs_variance = obs_scale**2
        scales_vec = np.array([self._scale[event] for event in self.events])
        prior_mean_vec, prior_var_vec = self._build_prior_arrays(intensity_ratio)
        mcmc_seed = 0
        if self.moment_estimator in ("batched-mcmc", "mcmc"):
            # Drawn per record under that record's restored state, so a
            # batch member samples the same chain its looped twin would.
            mcmc_seed = int(self._rng.integers(0, 2**63))
        return _PreparedSlice(
            record=record,
            measured=summaries.events,
            summaries=summaries,
            obs_mean=obs_mean,
            obs_scale=obs_scale,
            obs_variance=obs_variance,
            scales_vec=scales_vec,
            prior_mean_vec=prior_mean_vec,
            prior_var_vec=prior_var_vec,
            scale=dict(self._scale),
            tick=self._tick,
            rng_state=self._rng.bit_generator.state,
            mcmc_seed=mcmc_seed,
        )

    def _solve_group_arrays(
        self,
        group: List[_PreparedSlice],
        kernel: CompiledEPKernel,
        binder: CompiledBinder,
    ) -> List[Tuple[Mapping[str, float], Mapping[str, float], int, bool]]:
        """Solve one same-signature group through the array-native path.

        Every step — binding, priors, the EP kernel or the batched MCMC
        estimator — is element-wise or gufunc-batched, so a group of one is
        bit-identical to the same slice inside a larger group.
        """
        observer = self._observer
        with (
            observer.span("kernel.bind", batch=len(group))
            if observer is not None
            else nullcontext()
        ):
            obs_mean = np.stack([p.obs_mean for p in group])
            obs_variance = np.stack([p.obs_variance for p in group])
            scales = np.stack([p.scales_vec for p in group])
            stacked = binder.bind_batch(obs_mean, obs_variance, scales)

            prior_mean = np.stack([p.prior_mean_vec for p in group])
            prior_var = np.stack([p.prior_var_vec for p in group])
            batch, n = prior_mean.shape
            prior_precision = np.zeros((batch, n, n))
            diagonal = np.arange(n)
            prior_precision[:, diagonal, diagonal] = 1.0 / prior_var
            prior_shift = prior_mean / prior_var

        with (
            observer.span(
                "kernel.solve", batch=len(group), estimator=self.moment_estimator
            )
            if observer is not None
            else nullcontext()
        ):
            return self._dispatch_group_solve(
                group, kernel, binder, stacked, prior_precision, prior_shift,
                obs_mean, obs_variance,
            )

    def _dispatch_group_solve(
        self,
        group: List[_PreparedSlice],
        kernel: CompiledEPKernel,
        binder: CompiledBinder,
        stacked,
        prior_precision: np.ndarray,
        prior_shift: np.ndarray,
        obs_mean: np.ndarray,
        obs_variance: np.ndarray,
    ) -> List[Tuple[Mapping[str, float], Mapping[str, float], int, bool]]:
        """Route one bound group to its estimator's batched solve."""
        batch = prior_shift.shape[0]
        if self.moment_estimator == "analytic":
            result = self._run_kernel(kernel, stacked, prior_precision, prior_shift)
            return [
                (
                    result.mean_dict(b),
                    result.variance_dict(b),
                    int(result.iterations[b]),
                    bool(result.converged[b]),
                )
                for b in range(batch)
            ]

        measured = group[0].measured
        if self.moment_estimator == "mcmc":
            # Per-site tilted MCMC inside the EP loop: the accelerator's
            # inner loop, batched over the group.  The observation site's
            # non-Gaussian correction lives in *site-local* coordinates
            # (the binder's slot table).
            site_tails = {}
            if self.observation_model == "student_t" and measured:
                site_tails[binder.observation.site] = StudentTTail(
                    slots=binder.observation.slots,
                    loc=obs_mean,
                    scale=np.stack([p.obs_scale for p in group]),
                    df=np.stack([p.summaries.df for p in group]),
                    variance=obs_variance,
                )
            sampler = self._estimator.batched(
                kernel,
                n_samples=self.mcmc_samples,
                burn_in=self.mcmc_burn_in,
                adapt=self.mcmc_adapt,
                recorder=self.chain_recorder,
            )
            solved = sampler.run(
                stacked,
                prior_precision,
                prior_shift,
                seeds=[p.mcmc_seed for p in group],
                site_tails=site_tails,
                ticks=[p.record.tick for p in group],
            )
            return [
                (
                    solved.mean_dict(b),
                    solved.variance_dict(b),
                    int(solved.iterations[b]),
                    bool(solved.converged[b]),
                )
                for b in range(batch)
            ]

        # Batched MCMC: the coupled-chain estimator over the same buffers.
        extra = None
        if self.observation_model == "student_t" and measured:
            extra = StudentTTail(
                slots=np.array([self._event_slot[e] for e in measured], dtype=np.intp),
                loc=obs_mean,
                scale=np.stack([p.obs_scale for p in group]),
                df=np.stack([p.summaries.df for p in group]),
                variance=obs_variance,
            )
        sampler = self._estimator.batched(
            kernel,
            n_samples=self.mcmc_samples,
            burn_in=self.mcmc_burn_in,
            adapt=self.mcmc_adapt,
        )
        sampled = sampler.run(
            stacked,
            prior_precision,
            prior_shift,
            seeds=[p.mcmc_seed for p in group],
            extra_log_density=extra,
        )
        return [
            (sampled.mean_dict(b), sampled.variance_dict(b), 0, True)
            for b in range(batch)
        ]

    def _finalize(
        self,
        prepared: _PreparedSlice,
        means: Mapping[str, float],
        variances: Mapping[str, float],
        iterations: int,
        converged: bool,
    ) -> Tuple[PosteriorReport, EngineState]:
        """Turn one slice's posterior into a report + successor state."""
        report = PosteriorReport(
            tick=prepared.record.tick,
            measured_events=prepared.measured,
            ep_iterations=iterations,
            ep_converged=converged,
        )
        prior_mean: Dict[str, Optional[float]] = {}
        for event in self.events:
            scale = prepared.scale[event]
            mean = max(means[event] * scale, 0.0)
            std = math.sqrt(max(variances[event], 0.0)) * scale
            if event in self.monitored_events:
                report.estimates[event] = EventEstimate(event=event, mean=mean, std=std)
            # The temporal state for the next slice (latent events too).
            prior_mean[event] = max(mean, 1e-9)
        state = EngineState(
            prior_mean=prior_mean,
            scale=prepared.scale,
            tick=prepared.tick + 1,
            rng_state=prepared.rng_state,
        )
        return report, state

    def _prior_moments(
        self, prepared: _PreparedSlice
    ) -> Tuple[Mapping[str, float], Mapping[str, float], int, bool]:
        """Slice with no sites at all: the posterior is the prior."""
        prior = self._prior_density(prepared)
        return prior.mean(), prior.variance(), 0, True

    def process_record(self, record: SamplingRecord) -> PosteriorReport:
        """Infer the posterior for one scheduler time slice.

        A batch of one through :meth:`process_batch`, starting from the
        engine's own temporal state, which then advances to the slice's
        successor state.
        """
        report, state = self.process_batch([(self.snapshot(), record)])[0]
        self.restore(state)
        return report

    def process_batch(
        self, items: Sequence[Tuple[Optional[EngineState], SamplingRecord]]
    ) -> List[Tuple[PosteriorReport, EngineState]]:
        """Solve many independent slices: the engine's one solve path.

        Each item pairs a monitoring run's temporal state (``None`` for a
        fresh run) with its next record.  Slices are prepared sequentially
        (the cheap, state-dependent part) and grouped by graph-structure
        signature.  Under the compiled analytic estimator, a batch with two
        or more certified signatures merges them into one canonical
        mega-batched kernel call (:mod:`repro.fg.megabatch`).  Every other
        group is solved in one array-native pass (the analytic kernel or
        the estimator's batched sampler), or slice by slice through the
        reference twin when the compiled kernel is off or the structure
        does not compile.  Each slice's result is bit-identical to what a
        batch of one would give.  Returns each slice's report and successor
        state, in input order.
        """
        prepared: List[_PreparedSlice] = []
        for state, record in items:
            self.restore(state) if state is not None else self.reset()
            prepared.append(self._prepare_slice(record))

        groups: Dict[Tuple[str, ...], List[int]] = {}
        for index, slice_ in enumerate(prepared):
            groups.setdefault(slice_.measured, []).append(index)
        # Per-slice (means, variances, iterations, converged), input order.
        solved: List[Optional[Tuple]] = [None] * len(prepared)

        # Cross-signature mega-batching: merge every eligible signature
        # group into one canonical full-width solve (bit-identical to the
        # per-signature solves below — padded lanes are exact no-ops).
        mega_signatures = self._megabatch_eligible(groups, prepared)
        if mega_signatures:
            observer = self._observer
            if observer is not None:
                observer.count("kernel.megabatch.rounds")
                observer.count("kernel.megabatch.signatures", len(mega_signatures))
            merged_indices = [groups.pop(signature) for signature in mega_signatures]
            merged = [
                (signature, [prepared[index] for index in indices])
                for signature, indices in zip(mega_signatures, merged_indices)
            ]
            flat = [index for indices in merged_indices for index in indices]
            for index, result in zip(flat, self._solve_megabatch(merged)):
                solved[index] = result

        for signature, indices in groups.items():
            members = [prepared[index] for index in indices]
            if not (signature or self._has_sites):
                results = [self._prior_moments(slice_) for slice_ in members]
            else:
                compiled = self._compiled_kernel(members[0])
                if compiled is None:
                    results = [self._solve_reference(slice_) for slice_ in members]
                else:
                    results = self._solve_group_arrays(members, *compiled)
            for index, result in zip(indices, results):
                solved[index] = result
        return [
            self._finalize(slice_, *result) for slice_, result in zip(prepared, solved)
        ]

    def correct(self, sampled: SampledTrace) -> EstimateTrace:
        """Correct a full sampled trace, returning per-tick estimates."""
        self.reset()
        estimates = EstimateTrace(method=self.name)
        for record in sampled.records:
            report = self.process_record(record)
            estimates.append(report.means(), report.stds())
        return estimates

    def reports(self, sampled: SampledTrace) -> List[PosteriorReport]:
        """Full posterior reports (including uncertainty) for a sampled trace."""
        self.reset()
        return [self.process_record(record) for record in sampled.records]
