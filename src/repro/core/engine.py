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
are computed analytically by default or by per-site MCMC (the accelerator's
workload).
All inference happens in a per-event normalised space so that counts spanning
many orders of magnitude stay well conditioned.

The hot path is **array-native end to end**: per-slice observation summaries
are plain ndarrays (no Student-t objects), site blocks come out of a
cached :class:`~repro.fg.compiled.CompiledBinder` and its canonical
observation bucket (no factor objects), and batches solve through
:meth:`~repro.fg.compiled.CompiledEPKernel.run_stacked` or the per-site
MCMC sampler.  :meth:`BayesPerfEngine.process_batch` is the one solve path:
a single slice is a batch of one, and under the analytic estimator every
certified signature group of a batch solves in one kernel call on the
engine's canonical full-width structure (:mod:`repro.fg.megabatch`),
however many signatures the batch holds.

Temporal state is array-native too: an :class:`EngineState` holds rows in
engine event order (NaN = nothing known yet), and ``process_batch``
prepares and finalizes a whole batch as ``(B, n)`` array expressions.

Every fast path keeps a reference twin — the object-walking
:class:`~repro.fg.ep.ExpectationPropagation` loop for the analytic kernel,
:class:`~repro.fg.ep.ReferenceSiteMCMC` for the per-site sampler — selectable
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
    check_ep_settings,
    compile_factor_graph,
)
from repro.fg.distributions import StudentT, student_t_moment_variance
from repro.fg.megabatch import (
    bind_bucketed_observation,
    observation_certified,
    padding_slots,
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
from repro.core.posterior import PosteriorReport
from repro.pmu.sampling import SampledTrace, SamplingRecord
from repro.pmu.traces import EstimateTrace


@dataclass(eq=False)
class EngineState:
    """Snapshot of one monitoring run's temporal state.

    A :class:`BayesPerfEngine` carries state between consecutive slices (the
    previous posterior means, the per-event normalisation scales, the tick
    counter and — for MCMC moment estimation — the RNG stream).  Capturing
    that state lets one engine instance serve many interleaved monitoring
    runs — the fleet worker pool checkpoints a host's state after each batch
    and restores it before the next, instead of constructing a fresh engine
    per host.

    ``prior_mean`` and ``scale`` are rows aligned with ``events``; a NaN
    prior mean marks an event with nothing known yet.  States produced by
    an engine carry its own event tuple and restore as-is; any other
    ``events`` order is scattered by name (see
    :meth:`BayesPerfEngine.restore`).
    """

    events: Tuple[str, ...] = ()
    prior_mean: np.ndarray = field(default_factory=lambda: np.empty(0))
    scale: np.ndarray = field(default_factory=lambda: np.empty(0))
    tick: int = 0
    rng_state: Optional[Dict] = None


@dataclass(frozen=True)
class ObservationSummaries:
    """Array-native per-slice observation summaries (§4.2).

    One entry per measured event, in record order: the quantum total, its
    Student-t scale and the degrees of freedom — ``(E,)`` arrays for one
    slice, ``(G, E)`` for a group of slices with the same measured events.
    Batch preparation never materialises distribution objects; the
    ``events`` tuple doubles as the slice's graph-structure signature.
    """

    events: Tuple[str, ...]
    loc: np.ndarray
    scale: np.ndarray
    df: np.ndarray

    def __len__(self) -> int:
        return len(self.events)


@dataclass(eq=False)
class _SliceGroup:
    """The records of a prepared batch that measured the same events."""

    #: Measured events, in record order.  Doubles as the graph-structure
    #: signature: which events were measured fully determines the slice's
    #: factor-graph shape (the constraint topology is fixed per engine).
    signature: Tuple[str, ...]
    #: Batch rows of the group's records, and the engine slots of
    #: ``signature``.
    rows: np.ndarray
    slots: np.ndarray
    #: Normalised projected observation moments and the Student-t degrees
    #: of freedom, ``(G, E)`` each.
    obs_mean: np.ndarray
    obs_scale: np.ndarray
    obs_variance: np.ndarray
    df: np.ndarray


@dataclass
class _PreparedBatch:
    """Everything a batch's solves read, as ``(B, n)`` rows in event order."""

    records: List[SamplingRecord]
    summaries: List[ObservationSummaries]
    groups: List[_SliceGroup]
    #: Per-event normalisation scales.
    scale: np.ndarray
    #: Temporal prior in normalised space.
    prior_mean: np.ndarray
    prior_var: np.ndarray
    #: Incoming tick and RNG state (after any seed draw) per record.
    ticks: List[int]
    rng_states: List[Optional[Dict]]
    #: Per-record seed for the sampled estimators' chains.
    mcmc_seeds: List[int]


#: One group's solve: means, variances (``(G, n)``, normalised),
#: EP iterations and convergence flags (``(G,)``).
_Solved = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _row_median(values: np.ndarray, valid: np.ndarray, default: float) -> np.ndarray:
    """Median of each row's *valid* entries, *default* for rows with none.

    One ``np.sort`` of the NaN-masked rows (NaN sorts last): the middle
    element, or ``(lo + hi) / 2.0`` for an even count — bit-identical to
    ``np.median`` over each row's valid values.
    """
    count = valid.sum(axis=1)
    ordered = np.sort(np.where(valid, values, np.nan), axis=1)
    rows = np.arange(values.shape[0])
    lo = ordered[rows, np.maximum(count - 1, 0) // 2]
    hi = ordered[rows, count // 2]
    median = np.where(count % 2 == 1, lo, (lo + hi) / 2.0)
    return np.where(count > 0, median, default)


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
        A non-baseline name registered in :mod:`repro.fg.registry`:
        ``"analytic"`` (exact Gaussian projections) or ``"mcmc"`` (per-site
        tilted-moment sampling inside the EP loop — the accelerator's
        workload, batched over records on the compiled kernel's buffers).
        Names are validated against the registry (unknown names raise,
        listing the registered estimators) and each entry supplies the
        engine's implementation classes.
    mcmc_adapt:
        Per-record proposal-scale adaptation during burn-in for the
        ``"mcmc"`` estimator.
    chain_recorder:
        Optional :class:`~repro.fg.mcmc.ChainTrace` capturing one record
        per (slice, EP iteration, site) chain the ``"mcmc"`` estimator
        runs; serialise it with :mod:`repro.fleet.tracefile` and feed it to
        the :mod:`repro.accelerator` co-simulation.
    observer:
        Optional :class:`~repro.obs.Observer`.  When present the engine
        emits ``kernel.compile``/``kernel.bind``/``kernel.solve`` spans and,
        for the ``"mcmc"`` estimator's per-signature structures, kernel-cache
        hit/miss counters; when ``None`` (the default) the hot path is
        untouched.
    drift:
        Relative standard deviation of the temporal prior: how much an event
        is expected to change between consecutive slices.
    min_relative_sigma:
        Floor on the relative uncertainty assigned to an observation.
    relation_tolerance_scale:
        Multiplier on every relation's tolerance (ablation knob).
    ep_max_iterations, ep_damping, mcmc_samples, mcmc_burn_in, seed:
        EP and MCMC controls.
    use_compiled_kernel:
        Route slices through the vectorized array path: ``"analytic"``
        solves on one canonical full-width
        :class:`~repro.fg.compiled.CompiledEPKernel` compiled once per
        engine, ``"mcmc"`` runs :class:`~repro.fg.mcmc.BatchedSiteMCMC` on
        structures and binders cached per measured-event signature.
        Disable to run each estimator's reference twin instead — the
        object-walking :class:`~repro.fg.ep.ExpectationPropagation` loop
        for ``"analytic"``, :class:`~repro.fg.ep.ReferenceSiteMCMC` for
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
        mcmc_adapt: bool = True,
        chain_recorder: Optional[ChainTrace] = None,
        observer=None,
        use_intensity_chain: bool = True,
        use_compiled_kernel: bool = True,
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
        check_ep_settings(ep_damping, ep_max_iterations)

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
        self.mcmc_adapt = mcmc_adapt
        self.chain_recorder = chain_recorder
        self._observer = observer
        self.use_intensity_chain = use_intensity_chain
        self.use_compiled_kernel = use_compiled_kernel
        #: Scratch generator of the sampled estimator's per-record seed
        #: draws; a run's RNG position lives in its state's ``rng_state``.
        self._rng = np.random.default_rng(seed)
        self._seed_rng_state = self._rng.bit_generator.state
        self.name = "bayesperf"

        self._relation_groups = self._group_relations()
        self._event_slot: Dict[str, int] = {e: i for i, e in enumerate(self.events)}
        # The fresh-run rows: nothing known, unit scales.  Read-only, so
        # every run that starts from them can share them.
        self._unknown = np.full(len(self.events), np.nan)
        self._unit = np.ones(len(self.events))
        self._unknown.flags.writeable = self._unit.flags.writeable = False
        #: The ``"mcmc"`` estimator's compiled kernel + binder per
        #: measured-event signature (``None`` marks a signature that failed
        #: to compile and should use the reference twin).
        self._kernel_cache: Dict[
            Tuple[str, ...], Optional[Tuple[CompiledEPKernel, CompiledBinder]]
        ] = {}
        #: Constraint-site binders per (relation group, site index, site
        #: variables), shared by every structure's binder.
        self._constraint_binders: Dict[
            Tuple[int, int, Tuple[str, ...]], ConstraintSiteBinder
        ] = {}
        #: The analytic estimator's canonical full-width kernel + binder
        #: (compiled lazily; ``False`` = not built yet, ``None`` = the
        #: canonical structure does not compile).
        self._canonical_cache = False
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all temporal state (start of a new monitoring run).

        The RNG is re-seeded too, so two runs over the same records produce
        identical results even with an MCMC moment estimator.
        """
        self._prior_mean, self._scale, self._tick, self._rng_state = self._state_rows(None)

    def snapshot(self) -> EngineState:
        """Capture the temporal state of the current monitoring run."""
        return EngineState(
            events=self.events,
            prior_mean=self._prior_mean.copy(),
            scale=self._scale.copy(),
            tick=self._tick,
            rng_state=self._rng_state,
        )

    def restore(self, state: EngineState) -> None:
        """Resume a monitoring run from a previously captured snapshot.

        A state carrying this engine's event tuple is taken as-is (the
        engine never writes a state's rows).  Any other state is scattered
        by name, and an event unknown to this engine in it is rejected: a
        snapshot can only be restored into an engine built for the same
        (catalog, event-set) key.
        """
        self._prior_mean, self._scale, self._tick, self._rng_state = self._state_rows(state)

    def _state_rows(
        self, state: Optional[EngineState]
    ) -> Tuple[np.ndarray, np.ndarray, int, Dict]:
        """``(prior_mean, scale, tick, rng_state)`` of *state* in event order."""
        if state is None:
            return self._unknown, self._unit, 0, self._seed_rng_state
        rng_state = state.rng_state if state.rng_state is not None else self._seed_rng_state
        if state.events == self.events:
            return state.prior_mean, state.scale, state.tick, rng_state
        unknown = [event for event in state.events if event not in self._event_slot]
        if unknown:
            raise ValueError(f"snapshot mentions events unknown to this engine: {unknown}")
        slots = [self._event_slot[event] for event in state.events]
        prior_mean = self._unknown.copy()
        scale = self._unit.copy()
        prior_mean[slots] = state.prior_mean
        scale[slots] = state.scale
        return prior_mean, scale, state.tick, rng_state

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

    def _observation_summaries(
        self, records: Sequence[SamplingRecord]
    ) -> List[Tuple[np.ndarray, ObservationSummaries]]:
        """A batch's per-slice observation summaries (§4.2), per signature.

        Records are grouped by the engine events they measured (their
        signature, in record order), groups in order of first appearance.
        Each group comes back as its batch rows and one
        :class:`ObservationSummaries` with ``(G, E)`` arrays, row ``g``
        belonging to record ``rows[g]``.  A group whose sub-sample counts
        are all equal is summarised in one pass over its stacked
        ``(G, E, n)`` samples; any other group event by event, with the
        same arithmetic.  Samples are checked for finiteness before any
        arithmetic touches them.
        """
        members: Dict[Tuple[str, ...], List[int]] = {}
        measured: List[List[np.ndarray]] = []
        for index, record in enumerate(records):
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
            members.setdefault(tuple(events), []).append(index)
            measured.append(arrays)

        groups = []
        for signature, indices in members.items():
            rows = np.array(indices, dtype=np.intp)
            samples = [measured[index] for index in indices]
            lengths = {array.shape[0] for arrays in samples for array in arrays}
            if len(lengths) <= 1:
                # Uniform sub-sample counts (the schedule's normal shape): one
                # vectorized pass over the group's (G, E, n) sample tensor.
                n = lengths.pop() if lengths else 1
                stacked = np.array(samples).reshape(len(indices), len(signature), n)
                self._require_finite(records, rows, signature, np.isfinite(stacked).all(axis=2))
                totals = stacked.sum(axis=2)
                if n >= 2:
                    # The quantum total is the sum of the sub-samples; its
                    # uncertainty follows from the sub-sample scatter (§4.2).
                    stds = stacked.std(axis=2, ddof=1) * math.sqrt(n)
                else:
                    stds = np.abs(totals) * 0.05
                scales = np.maximum(
                    np.maximum(stds / math.sqrt(n), np.abs(totals) * self.min_relative_sigma),
                    1e-9,
                )
                dfs = np.full(totals.shape, float(max(n - 1, 1)))
            else:
                # Ragged sub-sample counts: per-event fallback, same arithmetic.
                finite = [[bool(np.isfinite(array).all()) for array in arrays] for arrays in samples]
                self._require_finite(records, rows, signature, np.array(finite))
                totals = np.empty((len(indices), len(signature)))
                scales = np.empty_like(totals)
                dfs = np.empty_like(totals)
                for g, arrays in enumerate(samples):
                    for i, array in enumerate(arrays):
                        count = array.shape[0]
                        total = float(np.sum(array))
                        if count >= 2:
                            std = float(np.std(array, ddof=1)) * math.sqrt(count)
                        else:
                            std = abs(total) * 0.05
                        totals[g, i] = total
                        scales[g, i] = max(
                            std / math.sqrt(count), abs(total) * self.min_relative_sigma, 1e-9
                        )
                        dfs[g, i] = float(max(count - 1, 1))
            # Finite samples can still overflow their sum.
            self._require_finite(records, rows, signature, np.isfinite(totals))
            for g, index in enumerate(indices):
                fractions = records[index].mux_fraction
                if not fractions:
                    continue
                # Real traces carry perf's t_running/t_enabled bookkeeping: an
                # event that counted only a fraction f of the quantum reports a
                # linearly-scaled total whose sampling noise grows like
                # 1/sqrt(f), so its observation scale widens accordingly.  The
                # simulator leaves mux_fraction empty — synthetic streams skip
                # this and keep bit-identical scales.
                for i, event in enumerate(signature):
                    fraction = fractions.get(event)
                    if fraction is not None and 0.0 < fraction < 1.0:
                        scales[g, i] /= math.sqrt(fraction)
            groups.append((rows, ObservationSummaries(signature, totals, scales, dfs)))
        return groups

    @staticmethod
    def _require_finite(
        records: Sequence[SamplingRecord],
        rows: np.ndarray,
        signature: Tuple[str, ...],
        finite: np.ndarray,
    ) -> None:
        """Reject a group whose ``(G, E)`` *finite* flags are not all set.

        A NaN or infinite sub-sample would turn the whole slice's posterior
        into NaN; it is rejected like an empty sample array, naming the
        first offending record and event.
        """
        if not finite.all():
            g, i = np.argwhere(~finite)[0]
            raise ValueError(
                f"record tick {records[rows[g]].tick} has non-finite samples for "
                f"measured event {signature[i]!r}"
            )

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

    def _scale_view(self, batch: _PreparedBatch, row: int) -> Dict[str, float]:
        """One record's normalisation scales by event name."""
        return dict(zip(self.events, batch.scale[row].tolist()))

    def _prior_density(self, batch: _PreparedBatch, row: int) -> GaussianDensity:
        """One prepared record's temporal prior as a Gaussian object."""
        return GaussianDensity.diagonal(
            dict(zip(self.events, batch.prior_mean[row].tolist())),
            dict(zip(self.events, batch.prior_var[row].tolist())),
        )

    # -- inference -------------------------------------------------------------

    @property
    def _has_sites(self) -> bool:
        """Whether the engine's graphs ever contain constraint sites."""
        return bool(self._relation_groups)

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

        Only needed to compile a structure and on the reference-twin paths;
        the compiled hot path binds summary arrays directly.
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

        Lowered once per compiled structure: the observation site's slot
        table plus each constraint group's stacked (unscaled) coefficient
        matrix, in the structure's site-local orderings.  A group's
        constraint site is the same in every structure of an engine, so its
        binder (and the binder's product plan) is built once per engine and
        site position, and reused.
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
                key = (group, index, site.variables)
                binder = self._constraint_binders.get(key)
                if binder is None:
                    relations = [self.relations[i] for i in self._relation_groups[group]]
                    coefficients = np.zeros((len(relations), site.width))
                    tolerances = np.empty(len(relations))
                    for row, relation in enumerate(relations):
                        for event, coefficient in relation.coefficients.items():
                            coefficients[row, local[event]] = coefficient
                        tolerances[row] = relation.tolerance * self.relation_tolerance_scale
                    binder = ConstraintSiteBinder(
                        site=index,
                        coefficients=coefficients,
                        tolerances=tolerances,
                        width=site.width,
                    )
                    self._constraint_binders[key] = binder
                constraints.append(binder)
        return CompiledBinder(
            structure=structure, observation=observation, constraints=tuple(constraints)
        )

    def _compile(
        self, summaries: ObservationSummaries, scales: Mapping[str, float]
    ) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Compile the slice model of *summaries* into a kernel + binder.

        The one compile path behind both layouts: the factors are built,
        partitioned into EP sites and lowered by
        :func:`~repro.fg.compiled.compile_factor_graph`, so every structure
        of an engine orders its constraint-site variables the same way.
        Only the factor *types* and variable sets shape the result, never
        the summary values.  ``None`` when the structure does not compile.
        """
        observer = self._observer
        with (
            observer.span("kernel.compile", signature=len(summaries))
            if observer is not None
            else nullcontext()
        ):
            observation_factors, constraint_groups = self._build_factors(summaries, scales)
            site_lists = self._site_factor_lists(observation_factors, constraint_groups)
            graph, sites = self._assemble_graph(site_lists)
            structure = compile_factor_graph(graph, sites, variables=self.events)
            if structure is None:
                return None
            kernel = CompiledEPKernel(
                structure, damping=self.ep_damping, max_iterations=self.ep_max_iterations
            )
            binder = self._build_binder(
                structure, [name for name, _ in site_lists], summaries.events
            )
            return kernel, binder

    def _compiled_kernel(
        self, batch: _PreparedBatch, group: _SliceGroup
    ) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Cached per-signature kernel + binder for *group*'s graph structure.

        The ``"mcmc"`` estimator's batched sampler runs on these.  The
        structure is fully determined by which monitored events the slice
        measured (the constraint topology is fixed per engine), so it is
        cached per measured-event signature — one compilation per schedule
        rotation position.
        """
        if not self.use_compiled_kernel:
            return None
        signature = group.signature
        observer = self._observer
        try:
            compiled = self._kernel_cache[signature]
            if observer is not None:
                observer.count("kernel.cache.hits")
        except KeyError:
            if observer is not None:
                observer.count("kernel.cache.misses")
            row = int(group.rows[0])
            compiled = self._compile(batch.summaries[row], self._scale_view(batch, row))
            self._kernel_cache[signature] = compiled
        return compiled

    # -- the canonical analytic layout (repro.fg.megabatch) -------------------

    def _canonical_structure(self) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """The analytic estimator's canonical full-width kernel + binder.

        Within one engine the variable set and constraint topology are
        signature-invariant; only the observation site's width varies.  The
        canonical structure treats *every* engine variable as observed, so
        any signature embeds by scattering its measured lanes and padding
        the rest with exact zeros.  Compiled once per engine.
        """
        if self._canonical_cache is False:
            n = len(self.events)
            # Placeholder summaries and scales: compilation reads neither.
            self._canonical_cache = self._compile(
                ObservationSummaries(self.events, np.ones(n), np.ones(n), np.full(n, 3.0)),
                dict.fromkeys(self.events, 1.0),
            )
        return self._canonical_cache

    def _canonical_groups(self, batch: _PreparedBatch) -> List[_SliceGroup]:
        """Signature groups of this batch that solve on the canonical structure.

        Under the compiled analytic estimator a group qualifies when it
        measured at least one event and every record's projected
        observation variance is finite and strictly positive — the
        condition under which the canonical observation site may skip its
        PD probe (see :func:`repro.fg.megabatch.observation_certified`).
        This holds however many signatures the batch has; every other
        group goes to the reference twin (:meth:`_solve_reference`).
        """
        if (
            self.moment_estimator != "analytic"
            or not self.use_compiled_kernel
            or self._canonical_structure() is None
        ):
            return []
        return [
            group
            for group in batch.groups
            if group.signature and observation_certified(group.obs_variance)
        ]

    def _prior_system(
        self, batch: _PreparedBatch, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Diagonal prior precision ``(G, n, n)`` and shift ``(G, n)`` of *rows*."""
        prior_mean = batch.prior_mean[rows]
        prior_var = batch.prior_var[rows]
        count, n = prior_mean.shape
        prior_precision = np.zeros((count, n, n))
        diagonal = np.arange(n)
        prior_precision[:, diagonal, diagonal] = 1.0 / prior_var
        return prior_precision, prior_mean / prior_var

    def _solve_canonical(
        self, batch: _PreparedBatch, groups: List[_SliceGroup]
    ) -> _Solved:
        """Solve certified signature groups in one canonical kernel call.

        Records are laid out group-contiguously in one bucketed
        structure-of-arrays layout: the observation site is padded to the
        batch's widest signature, populated lanes carry the exact
        ``1/σ²`` / ``μ/σ²`` floats of the group's measured events, padded
        lanes carry exact zeros scattered onto unmeasured slots via the
        per-record slot table — so each group's posterior is bit-identical
        to a solve on its own per-signature structure.  The kernel's PD
        repair re-probes at group granularity (``repair_groups``): the
        Cholesky probe is all-or-nothing per call, so one group's
        indefinite block must not change another group's repair.  Returns
        results in the flattened (group-major) record order.
        """
        kernel, binder = self._canonical_structure()
        rows = np.concatenate([group.rows for group in groups])
        lanes, n = len(rows), len(self.events)
        obs_site = binder.observation.site
        observer = self._observer
        with (
            observer.span("kernel.bind", batch=lanes, signatures=len(groups))
            if observer is not None
            else nullcontext()
        ):
            width = max(len(group.signature) for group in groups)
            blocks = []
            start = 0
            for group in groups:
                blocks.append(
                    (
                        np.arange(start, start + len(group.rows)),
                        group.slots,
                        padding_slots(width, group.slots, n),
                        group.obs_mean,
                        group.obs_variance,
                    )
                )
                start += len(group.rows)
            obs_block = bind_bucketed_observation(width, lanes, blocks)
            scales = batch.scale[rows]
            stacked: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(  # type: ignore[list-item]
                binder.structure.sites
            )
            stacked[obs_site] = obs_block[:2]
            for constraint in binder.constraints:
                site = binder.structure.sites[constraint.site]
                stacked[constraint.site] = constraint.bind(scales[:, site.index])
            prior_precision, prior_shift = self._prior_system(batch, rows)

        with (
            observer.span("kernel.solve", batch=lanes, estimator="analytic")
            if observer is not None
            else nullcontext()
        ):
            # Positional, as perfbench's fg.solve hook and the differential
            # tests' spies read the call by position.
            result = kernel.run_stacked(
                stacked,
                prior_precision,
                prior_shift,
                (obs_site,),
                {obs_site: obs_block[2]},
                [block[0] for block in blocks],
            )
        return result.means, result.variances, result.iterations, result.converged

    def _solve_reference(
        self, batch: _PreparedBatch, row: int
    ) -> Tuple[Mapping[str, float], Mapping[str, float], int, bool]:
        """Solve one prepared record through its estimator's reference twin.

        The per-slice solve behind ``use_compiled_kernel=False``, behind an
        analytic group the canonical structure may not take (no measured
        event, or a non-finite or non-positive projected observation
        variance) and behind any structure that does not compile: the
        object-walking EP loop for ``"analytic"``, the registered twin for
        ``"mcmc"`` (walking Python factor objects per step, seeded with the
        same per-record seed the batched path would use — the differential
        harness pins the pair within floating-point noise).  It reads only
        *batch*, never the engine's temporal state, so it composes with
        batch preparation like every other solve.
        """
        observation_factors, constraint_groups = self._build_factors(
            batch.summaries[row], self._scale_view(batch, row)
        )
        prior = self._prior_density(batch, row)
        site_lists = self._site_factor_lists(observation_factors, constraint_groups)
        if self.moment_estimator == "mcmc":
            # Per-site coupled-chain moment estimation inside the same EP loop.
            # The registry names the twin class, so swapping a registered
            # implementation swaps every entry point at once.
            twin = self._estimator.reference(
                site_lists,
                prior,
                n_samples=self.mcmc_samples,
                burn_in=self.mcmc_burn_in,
                adapt=self.mcmc_adapt,
                damping=self.ep_damping,
                max_iterations=self.ep_max_iterations,
                recorder=self.chain_recorder,
            )
            moments = twin.run(
                rng=np.random.default_rng(batch.mcmc_seeds[row]),
                tick=batch.records[row].tick,
            )
            return moments.mean(), moments.variance(), moments.iterations, moments.converged
        graph, sites = self._assemble_graph(site_lists)
        result = ExpectationPropagation(
            graph,
            sites,
            prior,
            damping=self.ep_damping,
            max_iterations=self.ep_max_iterations,
        ).run()
        return result.posterior.mean(), result.posterior.variance(), result.iterations, result.converged

    def _prior_moments(
        self, batch: _PreparedBatch, row: int
    ) -> Tuple[Mapping[str, float], Mapping[str, float], int, bool]:
        """Slice with no sites at all: the posterior is the prior."""
        prior = self._prior_density(batch, row)
        return prior.mean(), prior.variance(), 0, True

    def _solved_rows(
        self, results: Sequence[Tuple[Mapping[str, float], Mapping[str, float], int, bool]]
    ) -> _Solved:
        """Per-record ``(means, variances, iterations, converged)`` as rows."""
        means, variances, iterations, converged = zip(*results)
        events = self.events
        return (
            np.array([[row[e] for e in events] for row in means]),
            np.array([[row[e] for e in events] for row in variances]),
            np.array(iterations),
            np.array(converged),
        )

    def _prepare_batch(
        self, items: Sequence[Tuple[Optional[EngineState], SamplingRecord]]
    ) -> _PreparedBatch:
        """Advance every record's temporal state and build the batch's arrays.

        One batch-wide pass over ``(B, n)`` rows in engine event order: the
        measured totals are scattered into a NaN-padded matrix, then the
        common-mode intensity ratio, the normalisation-scale refresh and
        the temporal prior are array expressions over it.  Observation
        summaries are computed per signature group.
        """
        records = [record for _, record in items]
        rows = [self._state_rows(state) for state, _ in items]
        prior = np.stack([row[0] for row in rows])
        scale = np.stack([row[1] for row in rows])
        summaries: List[ObservationSummaries] = [None] * len(records)  # type: ignore[list-item]
        loc = np.full(prior.shape, np.nan)
        layout = []
        for group_rows, observed in self._observation_summaries(records):
            signature = observed.events
            slots = np.array([self._event_slot[e] for e in signature], dtype=np.intp)
            loc[group_rows[:, None], slots] = observed.loc
            for g, row in enumerate(group_rows.tolist()):
                summaries[row] = ObservationSummaries(
                    signature, observed.loc[g], observed.scale[g], observed.df[g]
                )
            layout.append((group_rows, slots, observed))

        # Common-mode activity change since the previous slice (§3
        # chaining): events measured now that also have a previous estimate
        # vote with loc / prior; the clamped median ratio advances the
        # temporal prior of every event that was *not* measured.
        known = prior > 0
        if self.use_intensity_chain:
            voting = known & (loc > 0)
            ratios = np.divide(loc, prior, out=np.ones_like(loc), where=voting)
            ratio = np.clip(_row_median(ratios, voting, 1.0), 0.2, 5.0)
        else:
            ratio = np.ones(len(records))

        # Normalisation scales: a measured event is always rescaled to its
        # current magnitude, so a previous bad estimate can never make a
        # fresh observation numerically irrelevant; otherwise the prior,
        # else the slice's median measured magnitude for a unit (unset) scale.
        magnitude = np.abs(loc)
        measured = magnitude > 0
        fallback = np.maximum(_row_median(magnitude, measured, 1.0), 1e-9)
        stale = (scale <= 0) | (scale == 1.0)
        scale = np.where(
            measured,
            np.maximum(magnitude, 1e-9),
            np.where(known, prior, np.where(stale, fallback[:, None], scale)),
        )

        # The previous posterior mean, advanced by the intensity ratio,
        # becomes the prior mean; its spread is the relative ``drift`` the
        # workload is expected to exhibit between slices.  ``float_power``
        # is libm ``pow`` — what the scalar ``x ** 2`` computed — where
        # ``np.square`` can differ by an ULP.  Nothing known yet: a broad
        # prior centred on the event's scale.
        prior_mean = np.where(known, prior * ratio[:, None] / scale, 1.0)
        prior_var = np.where(
            known, np.float_power(self.drift * prior_mean + 1e-6, 2.0), 25.0
        )

        groups = []
        for group_rows, slots, observed in layout:
            scale_obs = scale[group_rows[:, None], slots]
            obs_scale = np.maximum(observed.scale / scale_obs, 1e-9)
            if self.observation_model == "student_t":
                obs_variance = student_t_moment_variance(obs_scale, observed.df)
            else:
                obs_variance = obs_scale**2
            groups.append(
                _SliceGroup(
                    observed.events,
                    group_rows,
                    slots,
                    observed.loc / scale_obs,
                    obs_scale,
                    obs_variance,
                    observed.df,
                )
            )

        rng_states = [row[3] for row in rows]
        mcmc_seeds = [0] * len(records)
        if self.moment_estimator == "mcmc":
            # Drawn per record under that record's RNG state, so a batch
            # member samples the same chain its looped twin would.
            rng = self._rng
            for index, rng_state in enumerate(rng_states):
                rng.bit_generator.state = rng_state
                mcmc_seeds[index] = int(rng.integers(0, 2**63))
                rng_states[index] = rng.bit_generator.state
        return _PreparedBatch(
            records=records,
            summaries=summaries,
            groups=groups,
            scale=scale,
            prior_mean=prior_mean,
            prior_var=prior_var,
            ticks=[row[2] for row in rows],
            rng_states=rng_states,
            mcmc_seeds=mcmc_seeds,
        )

    def _solve_group_arrays(
        self,
        batch: _PreparedBatch,
        group: _SliceGroup,
        kernel: CompiledEPKernel,
        binder: CompiledBinder,
    ) -> _Solved:
        """Solve one same-signature group through the per-site MCMC sampler.

        Binding, priors and the sampler's EP loop are element-wise or
        gufunc-batched, so a group of one is bit-identical to the same
        slice inside a larger group.
        """
        observer = self._observer
        size = len(group.rows)
        with (
            observer.span("kernel.bind", batch=size)
            if observer is not None
            else nullcontext()
        ):
            stacked = binder.bind_batch(
                group.obs_mean, group.obs_variance, batch.scale[group.rows]
            )
            prior_precision, prior_shift = self._prior_system(batch, group.rows)

        with (
            observer.span("kernel.solve", batch=size, estimator=self.moment_estimator)
            if observer is not None
            else nullcontext()
        ):
            # Per-site tilted MCMC inside the EP loop: the accelerator's
            # inner loop, batched over the group.  The observation site's
            # non-Gaussian correction lives in *site-local* coordinates (the
            # binder's slot table).
            site_tails = {}
            if self.observation_model == "student_t" and group.signature:
                site_tails[binder.observation.site] = StudentTTail(
                    slots=binder.observation.slots,
                    loc=group.obs_mean,
                    scale=group.obs_scale,
                    df=group.df,
                    variance=group.obs_variance,
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
                seeds=[batch.mcmc_seeds[row] for row in group.rows],
                site_tails=site_tails,
                ticks=[batch.records[row].tick for row in group.rows],
            )
            return solved.means, solved.variances, solved.iterations, solved.converged

    def _finalize(
        self, batch: _PreparedBatch, solved: _Solved
    ) -> List[Tuple[PosteriorReport, EngineState]]:
        """Turn the batch's ``(B, n)`` posterior into reports + successor states."""
        means, variances, iterations, converged = solved
        scale = batch.scale
        mean = np.maximum(means * scale, 0.0)
        std = np.sqrt(np.maximum(variances, 0.0)) * scale
        # The temporal state for the next slice (latent events too).
        next_prior = np.maximum(mean, 1e-9)
        monitored = self.monitored_events
        reported = std[:, : len(monitored)]
        if (reported < 0).any():
            raise ValueError("std must be non-negative")
        mean_rows = mean[:, : len(monitored)].tolist()
        std_rows = reported.tolist()
        iterations, converged = iterations.tolist(), converged.tolist()
        out = []
        for b, record in enumerate(batch.records):
            report = PosteriorReport.from_rows(
                record.tick, monitored, mean_rows[b], std_rows[b], batch.summaries[b].events,
                ep_iterations=iterations[b], ep_converged=converged[b],
            )
            state = EngineState(
                self.events, next_prior[b], scale[b], batch.ticks[b] + 1, batch.rng_states[b]
            )
            out.append((report, state))
        return out

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
        fresh run) with its next record.  The batch is prepared in one
        array pass over its ``(B, n)`` state rows (the cheap,
        state-dependent part) and grouped by graph-structure signature.
        Under the compiled analytic estimator every certified group, of
        however many signatures, solves in one call on the canonical
        structure (:mod:`repro.fg.megabatch`).  Under ``"mcmc"`` each
        group runs the batched sampler on its signature's structure.
        Groups neither path takes — and every group when the compiled
        kernel is off or the structure does not compile — solve slice by
        slice through the reference twin.  Each slice's result is
        bit-identical to what a batch of one would give.  Returns each
        slice's report and successor state, in input order.
        """
        batch = self._prepare_batch(items)
        solved = (
            np.empty(batch.scale.shape),
            np.empty(batch.scale.shape),
            np.empty(len(items), dtype=int),
            np.empty(len(items), dtype=bool),
        )
        canonical = self._canonical_groups(batch)
        if canonical:
            rows = np.concatenate([group.rows for group in canonical])
            for out, values in zip(solved, self._solve_canonical(batch, canonical)):
                out[rows] = values

        for group in batch.groups:
            if group in canonical:
                continue
            if not (group.signature or self._has_sites):
                result = self._solved_rows(
                    [self._prior_moments(batch, row) for row in group.rows]
                )
            elif self.moment_estimator == "mcmc" and (
                compiled := self._compiled_kernel(batch, group)
            ):
                result = self._solve_group_arrays(batch, group, *compiled)
            else:
                result = self._solved_rows(
                    [self._solve_reference(batch, row) for row in group.rows]
                )
            for out, values in zip(solved, result):
                out[group.rows] = values
        return self._finalize(batch, solved)

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
