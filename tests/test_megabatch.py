"""The canonical analytic solve, locked down.

Under the compiled analytic estimator ``process_batch`` solves every
certified signature group of a batch in one canonical padded kernel call
(:mod:`repro.fg.megabatch`), however many signatures the batch holds.  It
sits on the hottest numeric path, so its contract is **bit-identity**, not
closeness:

* canonical posteriors == the per-signature twin
  (``tests/signature_twin.py``: one structure and one kernel call per
  signature group), exactly, on hypothesis-randomized heterogeneous
  fleets — and both match the object-walking reference twin within 1e-6;
* an uncertified group solves alone on the canonical structure, bit for
  bit the per-signature twin, and leaves its certified neighbours
  bit-identical; only a group with no measured event takes the reference
  twin — under the ``"mcmc"`` estimator too;
* the PD repair composes: merged batches re-probe at original group
  granularity, so a group that passes its own Cholesky probe is never
  spuriously repaired by a failing neighbour.
"""

import math

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
    FactorGraph,
    GaussianObservation,
    LinearConstraintFactor,
    compile_factor_graph,
    observation_certified,
    padding_slots,
)
from repro.fg.compiled import _cholesky_fails
from repro.fg.ep import EPSite
from repro.pmu.sampling import MultiplexedSampler, SamplingRecord
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload
from signature_twin import process_batch_by_signature

TOLERANCE = 1e-6

CATALOG = catalog_for("x86")
UNION = standard_profiling_events(CATALOG, n_events=12)


def _gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _record_for(subset, seed, rotation=0):
    """One sampled record for a host monitoring *subset* of the union."""
    schedule = cached_schedule(CATALOG, tuple(subset))
    offset = rotation % len(schedule.configurations)
    trace = Machine(MachineConfig(), get_workload("steady"), seed=seed).run(offset + 1)
    sampler = MultiplexedSampler(CATALOG, schedule, seed=seed + 1, samples_per_tick=4)
    return sampler.sample(trace).records[offset]


def _solve_batch(engine, records, by_signature=False):
    """Fresh-state batch solve; (means, stds, iterations, converged) rows."""
    items = [(None, record) for record in records]
    if by_signature:
        results = process_batch_by_signature(engine, items)
    else:
        results = engine.process_batch(items)
    return [
        (report.means(), report.stds(), report.ep_iterations, report.ep_converged)
        for report, _ in results
    ]


def _groups(engine, records):
    """Signature groups of fresh-state *records*, and their prepared batch."""
    prepared = engine._prepare_batch([(None, record) for record in records])
    return prepared.groups, prepared


@st.composite
def _hetero_fleet(draw):
    """A small fleet of hosts with randomized measured-event subsets.

    Union indices 0-1 are the fixed counters (INST_RETIRED / CPU_CLK); the
    overlap scheduler requires at least one *programmable* event, so every
    subset draws from index 2 up and mixes the fixed pair in freely.
    """
    n_hosts = draw(st.integers(min_value=3, max_value=5))
    subsets = [
        sorted(
            draw(
                st.sets(st.integers(2, len(UNION) - 1), min_size=1)
            )
            | draw(st.sets(st.integers(0, 1)))
        )
        for _ in range(n_hosts)
    ]
    rotations = [draw(st.integers(0, 3)) for _ in range(n_hosts)]
    return [
        _record_for([UNION[i] for i in subset], seed=17 * host, rotation=rotation)
        for host, (subset, rotation) in enumerate(zip(subsets, rotations))
    ]


class TestMegabatchDifferential:
    """Canonical == per-signature twin, bit for bit; reference within 1e-6."""

    @given(records=_hetero_fleet())
    @settings(max_examples=8, deadline=None)
    def test_megabatch_is_bit_identical_and_tracks_the_twin(self, records):
        engine = BayesPerfEngine(CATALOG, UNION)
        fragmented = _solve_batch(engine, records, by_signature=True)
        megabatched = _solve_batch(engine, records)
        assert megabatched == fragmented

        twin = BayesPerfEngine(CATALOG, UNION, use_compiled_kernel=False)
        for record, (means, stds, _, _) in zip(records, megabatched):
            twin.reset()
            report = twin.process_record(record)
            want_means, want_stds = report.means(), report.stds()
            for event in want_means:
                assert _gap(means[event], want_means[event]) < TOLERANCE
                assert _gap(stds[event], want_stds[event]) < TOLERANCE

    def test_megabatch_path_actually_engages(self):
        """The equality above must not be vacuous: the canonical solve runs."""
        subsets = [UNION[:5], UNION[4:10], UNION[2:9], UNION[:5]]
        records = [
            _record_for(subset, seed=31 * host) for host, subset in enumerate(subsets)
        ]
        engine = BayesPerfEngine(CATALOG, UNION)
        groups, prepared = _groups(engine, records)
        assert len(groups) >= 2, "fleet must be heterogeneous for this test"
        assert engine._canonical_groups(prepared) == groups

    def test_engaged_for_one_signature_not_mcmc_or_reference(self):
        mixed = [_record_for(UNION[:5], seed=3), _record_for(UNION[4:10], seed=5)]
        uniform = [_record_for(UNION[:5], seed=3), _record_for(UNION[:5], seed=5)]
        default_engine = BayesPerfEngine(CATALOG, UNION)
        groups, prepared = _groups(default_engine, uniform)
        assert len(groups) == 1
        assert default_engine._canonical_groups(prepared) == groups
        for engine in (
            BayesPerfEngine(
                CATALOG, UNION, moment_estimator="mcmc",
                mcmc_samples=10, mcmc_burn_in=5,
            ),
            BayesPerfEngine(CATALOG, UNION, use_compiled_kernel=False),
        ):
            for records in (uniform, mixed):
                _, prepared = _groups(engine, records)
                assert engine._canonical_groups(prepared) == []
            assert engine._canonical_cache is False, "canonical structure never built"


class TestUncertifiedFallback:
    """A group the padded canonical call may not take — a projected
    observation variance that is not finite and positive — solves alone on
    the canonical structure, inside the same ``process_batch`` call as its
    certified neighbours; so does every ``"mcmc"`` group.  Only a group
    with no measured event solves through the reference twin."""

    def _records(self):
        return [
            _record_for(UNION[:5], seed=3),
            _record_for(UNION[4:10], seed=5),
            _record_for(UNION[:5], seed=7),
            _record_for(UNION[2:9], seed=11),
        ]

    def _engine(self, estimator):
        if estimator == "mcmc":
            return BayesPerfEngine(
                CATALOG, UNION, moment_estimator="mcmc",
                mcmc_samples=20, mcmc_burn_in=10, ep_max_iterations=2,
            )
        return BayesPerfEngine(CATALOG, UNION)

    def _empty_signature(self, monkeypatch, records):
        """A record that measured nothing joins the batch."""
        first = records[0]
        return records + [SamplingRecord(first.tick, first.configuration, samples={})]

    def _forced_uncertified(self, monkeypatch, records):
        """The second record's group fails certification."""
        prepared = BayesPerfEngine(CATALOG, UNION)._prepare_batch(
            [(None, record) for record in records]
        )
        (target,) = [group for group in prepared.groups if 1 in group.rows]
        certified = engine_module.observation_certified
        monkeypatch.setattr(
            engine_module,
            "observation_certified",
            lambda variance: not np.array_equal(variance, target.obs_variance)
            and certified(variance),
        )
        return records

    @pytest.mark.parametrize("estimator", ["analytic", "mcmc"])
    @pytest.mark.parametrize("make_batch", ["_empty_signature", "_forced_uncertified"])
    def test_uncertified_group_solves_on_the_canonical_structure(
        self, monkeypatch, make_batch, estimator
    ):
        records = self._records()
        canonical = _solve_batch(self._engine(estimator), records)
        records = getattr(self, make_batch)(monkeypatch, records)
        twin = _solve_batch(self._engine(estimator), records, by_signature=True)

        referenced = []
        solve_reference = BayesPerfEngine._solve_reference

        def spy(engine, batch, row):
            referenced.append(row)
            return solve_reference(engine, batch, row)

        monkeypatch.setattr(BayesPerfEngine, "_solve_reference", spy)
        solved = _solve_batch(self._engine(estimator), records)

        empty = len(records) - 1 if make_batch == "_empty_signature" else None
        assert referenced == ([] if empty is None else [empty])
        for row, (means, stds, _, _) in enumerate(solved):
            assert all(math.isfinite(std) and std >= 0.0 for std in stds.values())
            if row == empty:
                want_means, want_stds = twin[row][:2]
                for event in want_means:
                    assert _gap(means[event], want_means[event]) < TOLERANCE
                    assert _gap(stds[event], want_stds[event]) < TOLERANCE
                continue
            # The per-signature twin, exactly; certified neighbours also
            # equal the batch without the uncertified group.
            assert solved[row] == twin[row]
            if row != 1 or make_batch == "_empty_signature":
                assert solved[row] == canonical[row]


class TestRepairGroupComposition:
    """The PD repair probe is per *call*; merged calls must re-probe per group.

    A numerically rank-deficient site matrix can pass its own group's
    Cholesky probe while its smallest eigenvalue rounds to <= 0.  Merged
    into one batch with a genuinely failing group, a whole-batch repair
    would bump it by ~1e-9 — a real posterior drift the per-signature path
    never sees.  ``repair_groups`` pins the probe to original-group
    granularity.
    """

    def _kernel(self):
        variables = [f"v{i}" for i in range(6)]
        graph = FactorGraph(variables=variables)
        names = []
        for v in variables:
            graph.add_factor(GaussianObservation(f"obs_{v}", v, observed=1.0, sigma=1.0))
            names.append(f"obs_{v}")
        graph.add_factor(
            LinearConstraintFactor("rel_0", {v: 1.0 for v in variables}, sigma=0.5)
        )
        sites = [EPSite("obs", tuple(names)), EPSite("rel", ("rel_0",))]
        structure = compile_factor_graph(graph, sites, variables)
        assert structure is not None
        return CompiledEPKernel(structure, damping=1.0)

    def _trigger_matrix(self):
        """A 6x6 matrix that passes Cholesky with eigvalsh smallest <= 0."""
        rng = np.random.default_rng(0)
        n = int(rng.integers(3, 7))
        basis = rng.normal(size=(n, n - 1))
        matrix = basis @ basis.T  # rank-deficient in exact arithmetic
        assert matrix.shape == (6, 6)
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:  # pragma: no cover - platform BLAS
            pytest.skip("platform LAPACK rejects the trigger matrix")
        smallest = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])
        if smallest > 0:  # pragma: no cover - platform BLAS
            pytest.skip("platform LAPACK rounds the trigger matrix PD")
        return matrix

    def _stacked(self, trigger):
        failing = np.zeros((6, 6))  # Cholesky always fails, bump 1e-9
        observation = np.stack([4.0 * np.eye(6)] * 2)
        constraint = np.stack([trigger, failing])
        return [
            (observation, np.zeros((2, 6))),
            (constraint, np.zeros((2, 6))),
        ]

    def test_grouped_probe_leaves_passing_group_untouched(self):
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        stacked = self._stacked(trigger)
        groups = [np.array([0]), np.array([1])]
        repaired = kernel._repaired_targets(stacked, (), groups)
        # The passing group's rows ride through bitwise-untouched...
        assert np.array_equal(repaired[1][0][0], trigger)
        # ...and the failing group is repaired exactly as it would be alone.
        solo = kernel._repaired_targets(
            [(p[1:2], s[1:2]) for p, s in stacked], (), None
        )
        assert np.array_equal(repaired[1][0][1], solo[1][0][0])

    def test_whole_batch_probe_would_have_bumped_it(self):
        """The hazard is real: without groups the merged probe repairs row 0."""
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        merged = kernel._repaired_targets(self._stacked(trigger), (), None)
        assert not np.array_equal(merged[1][0][0], trigger)

    def test_run_stacked_composes_bit_identically_with_groups(self):
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        stacked = self._stacked(trigger)
        prior_precision = np.stack([np.eye(6)] * 2)
        prior_shift = np.zeros((2, 6))
        merged = kernel.run_stacked(
            stacked,
            prior_precision,
            prior_shift,
            (),
            None,
            [np.array([0]), np.array([1])],
        )
        for row in range(2):
            solo = kernel.run_stacked(
                [(p[row : row + 1], s[row : row + 1]) for p, s in stacked],
                prior_precision[row : row + 1],
                prior_shift[row : row + 1],
            )
            assert np.array_equal(merged.means[row], solo.means[0])
            assert np.array_equal(merged.variances[row], solo.variances[0])


def _probe_matrix(kind, width, rng):
    """One ``(width, width)`` site block of the given PD kind."""
    basis = rng.normal(size=(width, width))
    if kind == "pd":
        return basis @ basis.T + width * np.eye(width)
    if kind == "indefinite":
        matrix = basis @ basis.T + width * np.eye(width)
        matrix[width - 1, width - 1] = -1.0
        return matrix
    if kind == "rank-deficient":  # passes or fails by rounding
        return basis[:, 1:] @ basis[:, 1:].T
    matrix = basis @ basis.T + width * np.eye(width)  # "nan": Cholesky succeeds
    matrix[width - 1, 0] = matrix[0, width - 1] = np.nan
    return matrix


def _cholesky_raises(stack):
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return True
    return False


class TestPerLaneProbe:
    """The one-call PD probe decides every record, and so every repair
    group, exactly as a ``np.linalg.cholesky`` call on it would."""

    def test_numpy_still_ships_the_cholesky_gufunc(self):
        from numpy.linalg import _umath_linalg

        assert isinstance(_umath_linalg.cholesky_lo, np.ufunc)
        assert "d->d" in _umath_linalg.cholesky_lo.types

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=8),
        lanes=st.lists(
            st.tuples(
                st.sampled_from(["pd", "indefinite", "rank-deficient", "nan"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_decisions_match_per_group_cholesky(self, width, lanes, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([_probe_matrix(kind, width, rng) for kind, _ in lanes])
        labels = np.array([group for _, group in lanes])
        failed = _cholesky_fails(stack)
        for lane in range(len(lanes)):
            assert failed[lane] == _cholesky_raises(stack[lane : lane + 1])
        for group in np.unique(labels):
            rows = np.flatnonzero(labels == group)
            assert failed[rows].any() == _cholesky_raises(stack[rows])
        assert failed.any() == _cholesky_raises(stack)

    def test_mixed_groups_repair_exactly_the_failing_ones(self):
        rng = np.random.default_rng(3)
        kinds = ["pd", "pd", "pd", "indefinite", "pd", "indefinite", "indefinite", "nan"]
        stack = np.stack([_probe_matrix(kind, 4, rng) for kind in kinds])
        groups = [np.array([0, 1]), np.array([2, 3, 4]), np.array([5, 6]), np.array([7])]
        assert [_cholesky_raises(stack[rows]) for rows in groups] == [
            False, True, True, False,
        ]
        variables = [f"v{i}" for i in range(4)]
        graph = FactorGraph(variables=variables)
        graph.add_factor(LinearConstraintFactor("rel", {v: 1.0 for v in variables}, sigma=1.0))
        kernel = CompiledEPKernel(
            compile_factor_graph(graph, [EPSite("rel", ("rel",))], variables)
        )
        ((repaired, _),) = kernel._repaired_targets([(stack, np.zeros((8, 4)))], (), groups)
        for rows, repairs in zip(groups, (False, True, True, False)):
            alone = kernel._repaired_targets([(stack[rows], np.zeros((len(rows), 4)))])
            assert repaired[rows].tobytes() == alone[0][0].tobytes()
            assert (repaired[rows].tobytes() != stack[rows].tobytes()) == repairs


class TestCanonicalShapeHelpers:
    def test_padding_slots_are_distinct_and_unmeasured(self):
        slots = np.array([1, 4, 7], dtype=np.intp)
        pads = padding_slots(6, slots, 10)
        assert len(pads) == 3
        assert len(set(pads.tolist())) == 3
        assert not set(pads.tolist()) & {1, 4, 7}
        # Deterministic: smallest free slot ids, in order.
        assert pads.tolist() == [0, 2, 3]

    def test_padding_slots_empty_when_width_matches(self):
        assert padding_slots(3, np.array([0, 1, 2], dtype=np.intp), 5).size == 0

    def test_padding_slots_rejects_overwide_buckets(self):
        with pytest.raises(ValueError, match="variable count"):
            padding_slots(6, np.array([0], dtype=np.intp), 4)

    def test_observation_certified(self):
        assert observation_certified(np.array([0.5, 2.0]))
        assert not observation_certified(np.array([]))
        assert not observation_certified(np.array([0.5, 0.0]))
        assert not observation_certified(np.array([0.5, -1.0]))
        assert not observation_certified(np.array([0.5, np.inf]))
        assert not observation_certified(np.array([0.5, np.nan]))
