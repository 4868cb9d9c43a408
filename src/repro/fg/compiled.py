"""Compiled, vectorized execution of analytic EP (Alg. 1).

The reference :class:`~repro.fg.ep.ExpectationPropagation` walks dict-keyed
:class:`~repro.fg.gaussian.GaussianDensity` objects: every cavity, tilted
distribution and site update allocates fresh matrices, re-derives variable
alignments, and inverts or eigendecomposes per step.  That is the right
shape for experimentation but it is the fleet service's hot path — every
corrected slice runs it.

This module splits the work the way a compiler would:

**Compilation** (:func:`compile_factor_graph`, once per graph *structure*)
lowers a factor graph plus its EP site partition into flat index arrays: a
variable slot table, per-site global-index arrays, and per-factor assembly
ops that know where each factor's natural-parameter block lands inside its
site.  Structures are independent of the observed values, so the engine
caches one per (measured-event-set) signature and reuses it for every slice
in the same schedule rotation position.

**Execution** (:class:`CompiledEPKernel`, once per record or per batch) runs
the EP iteration entirely on preallocated ``(B, ...)`` ndarray buffers:

* Site tilted-moment projections are assembled once per record by
  scatter-adding each factor's natural-parameter block into its site array.
  All factor families in the repository (Gaussian/Student-t observations,
  linear constraints, Gaussian priors) project to Gaussians *independently
  of the linearisation anchor*, so the reference's per-iteration
  ``tilted = cavity x factors`` / ``new_site = tilted / cavity`` round trip
  cancels analytically — the site target is the factor-block sum itself and
  the per-iteration cavity solve is dead weight the kernel skips.
  Compilation refuses (returns ``None``) any factor type outside this
  anchor-free set, which routes those graphs back to the reference
  implementation.
* Positive-definiteness repair of site targets probes each site with one
  batched Cholesky call that flags the records whose factorisation fails,
  and runs the eigendecomposition repair of the reference's
  ``_safe_divide`` only on the calls (or canonical-call repair groups) holding
  a failing record.  The invariant blocks of the production graphs are
  rank-deficient: the 43-wide and both 3-wide x86 blocks fail the probe on
  every call, so each call pays one ``eigvalsh`` per such block.
* The EP sweeps run the exact arithmetic of the reference loop, element-wise
  over the whole batch, with per-record convergence masks so each record
  reports the same iteration count the reference would.  Site state starts
  at zero, so sweep 1 is evaluated in closed form: each site moves to
  ``eta * target`` in one scatter-add.  With ``eta = 1`` (the engine
  default) and finite targets, sweep 2 provably changes nothing: its
  deltas are exactly 0, so every record still active after sweep 1 is
  given the outcome of that sweep (and of any later ones) without running
  it.  Any other damping, or a non-finite target, runs the loop from
  iteration 2.
* Final posterior moments come from one batched Cholesky factorisation
  (:func:`~repro.fg.linalg.cholesky_mean_and_variance`): ``np.linalg.inv``
  of the triangular factor gives the means and the marginal variances, and
  the ``n x n`` covariance is never formed.  That inverse and the repair's
  ``eigvalsh`` are most of what the kernel costs.

Everything is expressed through numpy's batched linalg gufuncs, which apply
the same per-slice LAPACK routine whatever the batch size — a record solved
alone (``B=1``) is bit-identical to the same record inside a fleet batch.
The worker pool's "batched == per-record" exactness guarantee rests on
this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from repro.fg.ep import EPSite
from repro.fg.factors import (
    Factor,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    StudentTObservation,
)
from repro.fg.gaussian import GaussianDensity
from repro.fg.graph import FactorGraph
from repro.fg.linalg import cholesky_mean_and_variance
from repro.fg.registry import register_estimator

__all__ = [
    "CompiledBinder",
    "CompiledEPKernel",
    "CompiledEPResult",
    "CompiledGraph",
    "CompiledSite",
    "ConstraintSiteBinder",
    "ObservationSiteBinder",
    "OuterProductPlan",
    "check_ep_settings",
    "compile_factor_graph",
    "site_factor_lists",
]


# -- factor assembly ops -------------------------------------------------------
#
# One op per factor: compiled index plumbing plus a value extractor that
# scatter-adds the factor's information-form block into the site arrays.
# The arithmetic mirrors Factor.to_gaussian()/GaussianDensity.diagonal()
# exactly so compiled and reference projections agree to the last bit.


class _GaussianObservationOp:
    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def add_to(self, factor: GaussianObservation, precision: np.ndarray, shift: np.ndarray) -> None:
        variance = factor.sigma**2
        precision[self.slot, self.slot] += 1.0 / variance
        shift[self.slot] += factor.observed / variance


class _StudentTObservationOp:
    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def add_to(self, factor: StudentTObservation, precision: np.ndarray, shift: np.ndarray) -> None:
        distribution = factor.distribution
        variance = distribution.variance  # moment-matched Gaussian projection
        precision[self.slot, self.slot] += 1.0 / variance
        shift[self.slot] += distribution.mean / variance


class _LinearConstraintOp:
    __slots__ = ("rows", "cols")

    def __init__(self, slots: np.ndarray) -> None:
        self.rows = slots[:, None]
        self.cols = slots[None, :]

    def add_to(self, factor: LinearConstraintFactor, precision: np.ndarray, shift: np.ndarray) -> None:
        a = factor.coefficient_array
        precision[self.rows, self.cols] += np.outer(a, a) / (factor.sigma**2)


class _GaussianPriorOp:
    __slots__ = ("slots",)

    def __init__(self, slots: np.ndarray) -> None:
        self.slots = slots

    def add_to(self, factor: GaussianPriorFactor, precision: np.ndarray, shift: np.ndarray) -> None:
        for slot, name in zip(self.slots, factor.variables):
            variance = factor.variances[name]
            precision[slot, slot] += 1.0 / variance
            shift[slot] += factor.means[name] / variance


#: Factor types whose Gaussian projection ignores the linearisation anchor.
#: Anything else makes the graph non-compilable (reference EP handles it).
_ANCHOR_FREE_OPS = {
    GaussianObservation: lambda slots: _GaussianObservationOp(int(slots[0])),
    StudentTObservation: lambda slots: _StudentTObservationOp(int(slots[0])),
    LinearConstraintFactor: _LinearConstraintOp,
    GaussianPriorFactor: _GaussianPriorOp,
}


@dataclass(frozen=True)
class CompiledSite:
    """Index-compiled form of one EP site."""

    name: str
    variables: Tuple[str, ...]
    #: Global variable slots of this site's variables, in site order.
    index: np.ndarray
    #: One assembly op per factor, in the site's factor order.
    ops: Tuple[object, ...]

    @property
    def width(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class CompiledGraph:
    """Flat index structures for one factor-graph + site-partition shape.

    Value-free: holds slot tables and assembly plumbing only, so one
    instance serves every record whose graph has the same structure.
    """

    variables: Tuple[str, ...]
    sites: Tuple[CompiledSite, ...]

    def bind(self, site_factors: Sequence[Sequence[Factor]]) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Evaluate one record's factors into per-site natural-parameter blocks.

        ``site_factors`` lists each site's factors in compile order; the
        result is one ``(precision, shift)`` pair per site, in site-local
        coordinates.
        """
        if len(site_factors) != len(self.sites):
            raise ValueError(
                f"binding expects {len(self.sites)} factor lists, got {len(site_factors)}"
            )
        blocks: List[Tuple[np.ndarray, np.ndarray]] = []
        for site, factors in zip(self.sites, site_factors):
            if len(factors) != len(site.ops):
                raise ValueError(
                    f"site {site.name!r} expects {len(site.ops)} factors, got {len(factors)}"
                )
            precision = np.zeros((site.width, site.width))
            shift = np.zeros(site.width)
            for op, factor in zip(site.ops, factors):
                op.add_to(factor, precision, shift)
            blocks.append((precision, shift))
        return tuple(blocks)


def site_factor_lists(graph: FactorGraph, sites: Sequence[EPSite]) -> List[List[Factor]]:
    """Each site's factor objects in site order (the ``bind`` input shape)."""
    return [[graph.factor(name) for name in site.factor_names] for site in sites]


# -- array-native binding ------------------------------------------------------
#
# CompiledGraph.bind walks Python factor objects per record: the per-slice
# model must first be materialised as GaussianObservation / StudentT /
# LinearConstraintFactor instances just so the ops can read their fields
# back out.  The binders below skip the objects entirely: a record (or a
# whole batch of records) is described by plain ndarrays — observation
# moments and per-variable normalisation scales — and every site's
# natural-parameter block comes out of one vectorized expression.  All ops
# are element-wise or gufunc matmuls, so a record bound alone (B=1) is
# bit-identical to the same record inside a batch.


@dataclass(frozen=True)
class ObservationSiteBinder:
    """Vectorized binding of one observation site (one factor per event)."""

    #: Index of the site inside the compiled structure.
    site: int
    #: Site-local slot of each observed event, in observation order.
    slots: np.ndarray
    width: int

    def bind(self, mean: np.ndarray, variance: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Site blocks for ``(B, E)`` projected observation moments.

        ``mean`` / ``variance`` are the moment-matched Gaussian projections
        of the batch's observations (already normalised); the arithmetic
        matches ``_GaussianObservationOp`` / ``_StudentTObservationOp``.
        """
        batch = mean.shape[0]
        precision = np.zeros((batch, self.width, self.width))
        shift = np.zeros((batch, self.width))
        precision[:, self.slots, self.slots] = 1.0 / variance
        shift[:, self.slots] = mean / variance
        return precision, shift


@dataclass(frozen=True)
class OuterProductPlan:
    """Where a constraint site's nonzero ``A^T A`` products land.

    Each invariant touches only a few events, so relation ``r``'s outer
    product is nonzero only on ``support(r) x support(r)``, where
    ``support(r)`` is the nonzero columns of coefficient row ``r``.  The
    plan lists every such ``(r, i, j)`` product once and orders them into
    *depth layers*: layer ``k`` holds each ``(i, j)`` entry's ``k``-th
    product in relation order.  No entry appears twice within a layer, and
    applying the layers in turn adds every entry's products in the order
    the relations come.
    """

    #: Flat ``r * w + i`` positions of the nonzero coefficients, row-major.
    support: np.ndarray
    #: The relation of each support position.
    relation: np.ndarray
    #: Support positions of each product's two factors, layer by layer.
    left: np.ndarray
    right: np.ndarray
    #: Per layer: the flat ``i * w + j`` entries it adds to and the slice
    #: of the product vector it adds.
    layers: Tuple[Tuple[np.ndarray, slice], ...]

    @classmethod
    def of(cls, coefficients: np.ndarray) -> "OuterProductPlan":
        """The plan of one ``(R, w)`` coefficient matrix."""
        width = coefficients.shape[1]
        relation, variable = np.nonzero(coefficients)
        members: Dict[int, List[int]] = {}
        for position, row in enumerate(relation.tolist()):
            members.setdefault(row, []).append(position)
        depth: Dict[int, int] = {}
        products: List[Tuple[int, int, int, int]] = []
        for positions in members.values():
            for a in positions:
                for b in positions:
                    entry = int(variable[a]) * width + int(variable[b])
                    layer = depth.get(entry, 0)
                    depth[entry] = layer + 1
                    products.append((layer, entry, a, b))
        # Stable: within a layer, products keep their relation order.
        products.sort(key=lambda product: product[0])
        layer_of, entries, left, right = (
            np.array(products, dtype=np.intp).reshape(-1, 4).T.copy()
        )
        bounds = np.searchsorted(layer_of, np.arange(max(depth.values(), default=0) + 1))
        return cls(
            support=relation * width + variable,
            relation=relation,
            left=left,
            right=right,
            layers=tuple(
                (entries[lo:hi], slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
            ),
        )


@dataclass(frozen=True)
class ConstraintSiteBinder:
    """Vectorized binding of one constraint-group site.

    Holds the group's *unscaled* invariant coefficients stacked as one
    ``(R, w)`` matrix; binding applies each record's per-variable
    normalisation scales and accumulates every relation's soft-constraint
    block over its nonzero support only (:class:`OuterProductPlan`).
    """

    site: int
    #: ``(R, w)`` relation coefficients over the site's local variables.
    coefficients: np.ndarray
    #: ``(R,)`` per-relation tolerance (already multiplied by the engine's
    #: tolerance scale), applied to the scaled coefficient magnitude.
    tolerances: np.ndarray
    width: int
    #: Product plan of ``coefficients``.
    plan: OuterProductPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", OuterProductPlan.of(self.coefficients))

    def bind(self, scales: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Site blocks for ``(B, w)`` per-record variable scales."""
        # ascontiguousarray pins the broadcast product's memory layout:
        # numpy lays the (B, R, w) result out differently for B=1 than for
        # B>1, and the reduction below follows memory order, which would
        # break the B=1 == B=N bit-identity the worker pool relies on.
        scaled = np.ascontiguousarray(
            self.coefficients[None, :, :] * scales[:, None, :]
        )  # (B, R, w)
        magnitude = np.abs(scaled).sum(axis=-1)  # (B, R)
        sigma = np.maximum(self.tolerances[None, :] * magnitude, 1e-9)
        # Only the support's products, added layer by layer in relation
        # order: element-wise (so B=1 == B=N) and bit-identical to adding
        # every relation's dense outer product in turn.  The dense sum's
        # other terms are products of a zero row entry, exact +-0.0 for
        # finite scales, and x + +-0.0 == x for any x but -0.0, which an
        # entry starting at +0.0 never holds.
        batch, plan = scaled.shape[0], self.plan
        rows = scaled.reshape(batch, -1)[:, plan.support] / sigma[:, plan.relation]
        products = rows[:, plan.left] * rows[:, plan.right]
        precision = np.zeros((batch, self.width * self.width))
        for entries, picks in plan.layers:
            precision[:, entries] += products[:, picks]
        shift = np.zeros((batch, self.width))
        return precision.reshape(batch, self.width, self.width), shift


@dataclass(frozen=True)
class CompiledBinder:
    """Array-native evaluation of every site block for one graph structure.

    The value-level twin of :meth:`CompiledGraph.bind`: cached per
    measured-event signature alongside the compiled kernel, it turns a
    batch of records — observation moments plus normalisation scales —
    into stacked per-site ``(precision, shift)`` targets without building
    a single factor object.
    """

    structure: CompiledGraph
    observation: Optional[ObservationSiteBinder]
    constraints: Tuple[ConstraintSiteBinder, ...]

    def bind_batch(
        self,
        obs_mean: np.ndarray,
        obs_variance: np.ndarray,
        scales: np.ndarray,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Stacked site blocks for a batch of records.

        ``obs_mean`` / ``obs_variance`` are ``(B, E)`` projected observation
        moments in the signature's event order; ``scales`` is the ``(B, n)``
        per-record normalisation scale of every structure variable.
        Returns one ``((B, w, w), (B, w))`` pair per compiled site, in site
        order — exactly the shape :meth:`CompiledEPKernel.run_stacked`
        consumes.
        """
        blocks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(
            self.structure.sites
        )
        if self.observation is not None:
            blocks[self.observation.site] = self.observation.bind(obs_mean, obs_variance)
        for binder in self.constraints:
            site = self.structure.sites[binder.site]
            blocks[binder.site] = binder.bind(scales[:, site.index])
        if any(block is None for block in blocks):
            raise ValueError("binder does not cover every compiled site")
        return blocks  # type: ignore[return-value]


def compile_factor_graph(
    graph: FactorGraph,
    sites: Sequence[EPSite],
    variables: Optional[Sequence[str]] = None,
) -> Optional[CompiledGraph]:
    """Lower a factor graph + site partition into flat index structures.

    Returns ``None`` when any site factor falls outside the anchor-free
    family — the caller should fall back to the reference implementation.
    Site variable ordering replicates the reference's first-appearance
    dedup so compiled and reference posteriors stay aligned.
    """
    if not sites:
        raise ValueError("EP requires at least one site")
    ordering = tuple(variables) if variables is not None else graph.variables
    slot_of: Dict[str, int] = {name: i for i, name in enumerate(ordering)}
    compiled_sites: List[CompiledSite] = []
    for site in sites:
        site_vars: List[str] = []
        seen = set()
        for factor_name in site.factor_names:
            for variable in graph.factor(factor_name).variables:
                if variable not in seen:
                    seen.add(variable)
                    site_vars.append(variable)
        local_of = {name: i for i, name in enumerate(site_vars)}
        ops: List[object] = []
        for factor_name in site.factor_names:
            factor = graph.factor(factor_name)
            make_op = _ANCHOR_FREE_OPS.get(type(factor))
            if make_op is None or not factor.anchor_free:
                return None
            slots = np.array([local_of[v] for v in factor.variables], dtype=np.intp)
            ops.append(make_op(slots))
        missing = [v for v in site_vars if v not in slot_of]
        if missing:
            raise ValueError(f"site {site.name!r} uses variables outside the graph: {missing}")
        compiled_sites.append(
            CompiledSite(
                name=site.name,
                variables=tuple(site_vars),
                index=np.array([slot_of[v] for v in site_vars], dtype=np.intp),
                ops=tuple(ops),
            )
        )
    return CompiledGraph(variables=ordering, sites=tuple(compiled_sites))


# -- execution ----------------------------------------------------------------


def check_ep_settings(damping: float, max_iterations: int) -> None:
    """Raise ``ValueError`` unless ``0 < damping <= 1`` and ``max_iterations >= 1``."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")


def _cholesky_fails(precision: np.ndarray) -> np.ndarray:
    """Per record of a ``(B, w, w)`` stack: would ``np.linalg.cholesky`` raise?

    Calls the LAPACK gufunc ``np.linalg.cholesky`` itself wraps, once for
    the whole stack, without its raise-on-any-failure error handling.  A
    record whose factorisation fails comes back all NaN; a successful one
    has its strict upper triangle zeroed, so its top-right entry is
    ``0.0`` even when its input holds a NaN.  (A ``1 x 1`` NaN input is
    flagged too; the eigenvalue repair leaves it, and its neighbours, bit
    for bit as they were.)
    """
    with np.errstate(all="ignore"):
        factor = _cholesky_lo(precision, signature="d->d")
    return np.isnan(factor[..., 0, -1])


@dataclass
class CompiledEPResult:
    """Batched outcome of a kernel run (leading axis = record)."""

    variables: Tuple[str, ...]
    posterior_precision: np.ndarray  # (B, n, n)
    posterior_shift: np.ndarray  # (B, n)
    means: np.ndarray  # (B, n)
    variances: np.ndarray  # (B, n)
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,)
    max_delta: np.ndarray  # (B,)

    def __len__(self) -> int:
        return self.means.shape[0]

    def mean_dict(self, record: int = 0) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.means[record])}

    def variance_dict(self, record: int = 0) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.variables, self.variances[record])}


@register_estimator(
    "analytic",
    description="exact Gaussian tilted-moment projections on the compiled kernel",
)
class CompiledEPKernel:
    """Vectorized analytic-EP executor over one compiled graph structure.

    One kernel serves any number of records sharing the structure; a call
    with ``B`` bindings solves all of them in a single vectorized pass.
    """

    def __init__(
        self,
        structure: CompiledGraph,
        *,
        damping: float = 0.5,
        max_iterations: int = 25,
        tolerance: float = 1e-6,
    ) -> None:
        check_ep_settings(damping, max_iterations)
        self.structure = structure
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        n = len(structure.variables)
        self._jitter = 1e-12 * np.eye(n)
        self._site_eyes = [np.eye(site.width) for site in structure.sites]

    # -- site targets -----------------------------------------------------

    def _repaired_targets(
        self,
        stacked: Sequence[Tuple[np.ndarray, np.ndarray]],
        certified_sites: Sequence[int] = (),
        repair_groups: Optional[Sequence[np.ndarray]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """PD-repair every site's factor-block precision (Cholesky probe first).

        Reproduces ``_safe_divide``: when the (symmetrised) precision has a
        non-positive eigenvalue, add ``(|lambda_min| + 1e-9) I``.  One
        batched Cholesky call per site (:func:`_cholesky_fails`) flags the
        records whose factorisation fails; the eigenvalue repair runs only
        when some record fails, and then on every record of its call, so
        mixed batches behave exactly like the reference.

        ``certified_sites`` names site indices whose blocks the caller has
        already certified PD-on-the-populated-lanes (the canonical layout's
        padded observation site: a diagonal block whose measured lanes are
        strictly positive and whose padded lanes are exactly zero).  Such a
        block would fail the full-width Cholesky probe even though every
        populated lane is fine, and the eigenvalue repair would bump *all*
        lanes — so certified sites pass through untouched, exactly as the
        per-signature (unpadded) stack would have.

        ``repair_groups`` partitions the batch axis into the record-index
        groups that would each have been one ``run_stacked`` call on their
        own (the signature groups of a canonical call).  The repair is
        all-or-nothing *per call*: one failing record sends every record in
        its call through the eigenvalue repair, and the repair can bump a
        Cholesky-healthy record whose smallest eigenvalue rounds to ``<= 0``.
        Repair outcomes therefore depend on how records are grouped into
        calls — so a merged batch decides each group from its own records'
        probe flags, bit-identical to one per-signature call per group.
        """
        certified = frozenset(certified_sites)
        repaired: List[Tuple[np.ndarray, np.ndarray]] = []
        for k, (precision, shift) in enumerate(stacked):
            if k in certified:
                repaired.append((precision, shift))
                continue
            failed = _cholesky_fails(precision)
            if not failed.any():
                repaired.append((precision, shift))
                continue
            if repair_groups is None:
                repaired.append((self._eigenvalue_repair(precision, k), shift))
                continue
            out = precision.copy()
            failing = [rows for rows in repair_groups if failed[rows].any()]
            if failing:
                # One batched eigendecomposition over every failing group:
                # the gufunc factorises each matrix independently, so this
                # is bit-identical to repairing group by group.
                rows = np.concatenate(failing)
                out[rows] = self._eigenvalue_repair(precision[rows], k)
            repaired.append((out, shift))
        return repaired

    def _eigenvalue_repair(self, precision: np.ndarray, k: int) -> np.ndarray:
        """``precision + (|lambda_min| + 1e-9) I`` where ``lambda_min <= 0``."""
        symmetric = 0.5 * (precision + np.swapaxes(precision, -1, -2))
        smallest = np.linalg.eigvalsh(symmetric)[..., 0]
        bump = np.where(smallest <= 0, np.abs(smallest) + 1e-9, 0.0)
        return precision + bump[:, None, None] * self._site_eyes[k]

    # -- main entry points -------------------------------------------------

    def run(
        self,
        bindings: Sequence[Tuple[Tuple[np.ndarray, np.ndarray], ...]],
        priors: Sequence[GaussianDensity],
    ) -> CompiledEPResult:
        """Solve a batch of records sharing this kernel's graph structure.

        ``bindings[b]`` is :meth:`CompiledGraph.bind` output for record
        ``b``; ``priors[b]`` is that record's proper Gaussian prior over the
        structure's variables (identical ordering required).
        """
        batch = len(bindings)
        if batch == 0 or len(priors) != batch:
            raise ValueError("run() needs one prior per binding (and at least one)")
        variables = self.structure.variables
        for prior in priors:
            if prior.variables != variables:
                raise ValueError("prior variables must match the compiled ordering")
        stacked = [
            (
                np.stack([bindings[b][k][0] for b in range(batch)]),
                np.stack([bindings[b][k][1] for b in range(batch)]),
            )
            for k in range(len(self.structure.sites))
        ]
        return self.run_stacked(
            stacked,
            np.stack([prior.precision for prior in priors]),
            np.stack([prior.shift for prior in priors]),
        )

    def run_stacked(
        self,
        stacked: Sequence[Tuple[np.ndarray, np.ndarray]],
        prior_precision: np.ndarray,
        prior_shift: np.ndarray,
        certified_sites: Sequence[int] = (),
        site_index_overrides: Optional[Mapping[int, np.ndarray]] = None,
        repair_groups: Optional[Sequence[np.ndarray]] = None,
    ) -> CompiledEPResult:
        """Solve a batch given already-stacked site blocks and priors.

        ``stacked[k]`` is one ``((B, w, w), (B, w))`` pair per compiled site
        (the :meth:`CompiledBinder.bind_batch` output); ``prior_precision``
        and ``prior_shift`` are the ``(B, n, n)`` / ``(B, n)`` proper
        Gaussian priors in the structure's variable ordering.  This is the
        array-native hot entry — :meth:`run` is the object-level wrapper.
        ``certified_sites`` is forwarded to the PD repair (see
        :meth:`_repaired_targets`); padded canonical observation sites use
        it to keep padded lanes exact no-ops.

        ``site_index_overrides`` maps a site position to a per-record
        ``(B, w)`` global-slot table replacing that site's compiled
        ``index`` — the canonical layout's bucketed observation site, where
        each record scatters its own measured lanes.  Every record's slots
        must be distinct (the scatter uses buffered fancy indexing); the
        block width ``w`` may differ from the compiled site's width, since
        a certified overridden site touches no other per-site structure.
        ``repair_groups`` makes the PD repair decide per original
        per-signature call (see :meth:`_repaired_targets`).
        """
        sites = self.structure.sites
        if len(stacked) != len(sites):
            raise ValueError(
                f"run_stacked expects {len(sites)} site blocks, got {len(stacked)}"
            )
        batch = prior_shift.shape[0]
        variables = self.structure.variables
        overrides: Mapping[int, np.ndarray] = site_index_overrides or {}

        # PD-repair the site targets once: anchor-free factors make the site
        # target iteration-invariant (see module docstring).
        targets = self._repaired_targets(stacked, certified_sites, repair_groups)
        global_precision = prior_precision.copy()
        global_shift = prior_shift.copy()
        eta = self.damping

        # Hoist the per-record scatter indices for overridden sites: they
        # are iteration-invariant, and broadcasting them once keeps the
        # sweeps allocation-free on the index side.
        override_index = {
            k: (
                np.arange(batch)[:, None, None],
                table[:, :, None],
                table[:, None, :],
            )
            for k, table in overrides.items()
        }

        def scatter(k: int, diff_precision: np.ndarray, diff_shift: np.ndarray) -> None:
            override = overrides.get(k)
            if override is None:
                index = sites[k].index
                global_precision[:, index[:, None], index[None, :]] += diff_precision
                global_shift[:, index] += diff_shift
            else:
                # Per-record slot tables: each record's block scatters onto
                # its own global entries.  Slots are distinct within every
                # record, so the buffered ``+=`` loses no contribution.
                records, table_rows, table_cols = override_index[k]
                global_precision[records, table_rows, table_cols] += diff_precision
                global_shift[records[:, :, 0], override] += diff_shift

        # Sweep 1 in closed form.  The sites start at +0.0, so the damped
        # block is (1 - eta) * 0.0 + eta * target = eta * target + 0.0 (the
        # +0.0 turns -0.0 into +0.0, as the sum does), its delta against
        # zero is |d|max / max(|d|max, 1), and it is the update to scatter.
        site_precision: List[np.ndarray] = []
        site_shift: List[np.ndarray] = []
        iteration_delta = np.zeros(batch)
        for k, (target_precision, target_shift) in enumerate(targets):
            damped_precision = eta * target_precision
            damped_precision += 0.0
            damped_shift = eta * target_shift
            damped_shift += 0.0
            pmax = np.abs(damped_precision).max(axis=(-2, -1))
            smax = np.abs(damped_shift).max(axis=-1)
            delta_p = pmax / np.maximum(pmax, 1.0)
            delta_s = smax / np.maximum(smax, 1.0)
            iteration_delta = np.maximum(iteration_delta, np.maximum(delta_p, delta_s))
            site_precision.append(damped_precision)
            site_shift.append(damped_shift)
            scatter(k, damped_precision, damped_shift)
        iterations = np.ones(batch, dtype=np.intp)
        max_delta = iteration_delta
        converged = iteration_delta < self.tolerance
        active = ~converged

        if eta == 1.0 and self.max_iterations > 1 and np.isfinite(iteration_delta).all():
            # Sweep 2 is a proven no-op: for finite d, 0.0 * d + target == d
            # bit for bit, so every delta is exactly 0 and every update
            # +0.0, which changes no entry (a scattered entry never holds
            # -0.0 after sweep 1).  Any later sweep repeats it.
            max_delta[active] = 0.0
            if 0.0 < self.tolerance:
                iterations[active] = 2
                converged[active] = True
            else:
                iterations[active] = self.max_iterations
            active[:] = False

        for iteration in range(2, self.max_iterations + 1):
            if not active.any():
                break
            iteration_delta = np.zeros(batch)
            for k in range(len(sites)):
                old_precision, old_shift = site_precision[k], site_shift[k]
                target_precision, target_shift = targets[k]
                damped_precision = (1 - eta) * old_precision + eta * target_precision
                damped_shift = (1 - eta) * old_shift + eta * target_shift

                # Reference _natural_parameter_delta, element-wise over B.
                old_pmax = np.abs(old_precision).max(axis=(-2, -1))
                new_pmax = np.abs(damped_precision).max(axis=(-2, -1))
                scale_p = np.maximum(np.maximum(old_pmax, new_pmax), 1.0)
                delta_p = np.abs(old_precision - damped_precision).max(axis=(-2, -1)) / scale_p
                old_smax = np.abs(old_shift).max(axis=-1)
                new_smax = np.abs(damped_shift).max(axis=-1)
                scale_s = np.maximum(np.maximum(old_smax, new_smax), 1.0)
                delta_s = np.abs(old_shift - damped_shift).max(axis=-1) / scale_s
                iteration_delta = np.maximum(iteration_delta, np.maximum(delta_p, delta_s))

                # Scatter-add the masked update into the site and global
                # buffers (records that already converged stay frozen, as
                # the reference's break does).
                diff_precision = np.where(
                    active[:, None, None], damped_precision - old_precision, 0.0
                )
                diff_shift = np.where(active[:, None], damped_shift - old_shift, 0.0)
                site_precision[k] = old_precision + diff_precision
                site_shift[k] = old_shift + diff_shift
                scatter(k, diff_precision, diff_shift)

            iterations = np.where(active, iteration, iterations)
            max_delta = np.where(active, iteration_delta, max_delta)
            newly_converged = active & (iteration_delta < self.tolerance)
            converged |= newly_converged
            active &= ~newly_converged

        means, variances = self.read_out(global_precision, global_shift)
        return CompiledEPResult(
            variables=variables,
            posterior_precision=global_precision,
            posterior_shift=global_shift,
            means=means,
            variances=variances,
            iterations=iterations,
            converged=converged,
            max_delta=max_delta,
        )

    def read_out(
        self, precision: np.ndarray, shift: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior means and marginal variances for the whole batch."""
        jittered = precision + self._jitter
        try:
            return cholesky_mean_and_variance(jittered, shift)
        except np.linalg.LinAlgError:
            pass
        # Rare: some record's posterior is not PD.  Solve per record so the
        # healthy ones still take the (bit-identical) Cholesky route.
        batch, n = shift.shape
        means = np.empty((batch, n))
        variances = np.empty((batch, n))
        for b in range(batch):
            try:
                means[b], variances[b] = cholesky_mean_and_variance(jittered[b], shift[b])
            except np.linalg.LinAlgError:
                cov = np.linalg.inv(jittered[b])
                cov = 0.5 * (cov + cov.T)
                means[b] = cov @ shift[b]
                variances[b] = np.diag(cov)
        return means, variances
