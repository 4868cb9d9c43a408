"""Cross-signature mega-batching and multicore kernel execution, locked down.

The mega-batched solve (:mod:`repro.fg.megabatch`) replaces many
per-signature batched kernel calls with one canonical padded call whenever
a ``process_batch`` call holds two or more certified signatures, and the
``KernelExecSpec`` lane partition replaces one serial call with several
chunked ones.  Both rewrites sit on the hottest numeric path, so their
contract is **bit-identity**, not closeness:

* mega-batched posteriors == the same records fed to ``process_batch`` one
  signature group at a time, exactly, on hypothesis-randomized
  heterogeneous fleets — and both match the object-walking reference twin
  within 1e-6;
* lane-partitioned results == serial results, exactly, for any thread
  count;
* the PD repair composes: merged batches re-probe at original group
  granularity, so a group that passes its own Cholesky probe is never
  spuriously repaired by a failing neighbour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BayesPerfEngine
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fg import (
    CompiledEPKernel,
    FactorGraph,
    GaussianObservation,
    KernelExecSpec,
    LinearConstraintFactor,
    compile_factor_graph,
    kernel_exec_from_env,
    lane_chunks,
    observation_certified,
    padding_slots,
    run_lane_partitioned,
)
from repro.api import (
    EstimatorSpec,
    HostSpec,
    ObserverSpec,
    Pipeline,
    RecorderSpec,
    RunSpec,
)
from repro.fg.compiled import _cholesky_fails
from repro.fg.ep import EPSite
from repro.fg.megabatch import THREADS_ENV_VAR
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload

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


def _solve_by_signature(engine, items):
    """``process_batch`` fed one measured-event signature group at a time.

    No call then holds two signatures, so the mega-batched solve never
    engages: this is the per-signature reference the merged solve must
    reproduce bit for bit.  Results come back in input order.
    """
    groups = {}
    for index, (_, record) in enumerate(items):
        groups.setdefault(tuple(record.samples), []).append(index)
    results = [None] * len(items)
    for indices in groups.values():
        solved = engine.process_batch([items[index] for index in indices])
        for index, result in zip(indices, solved):
            results[index] = result
    return results


def _solve_batch(engine, records, by_signature=False):
    """Fresh-state batch solve; (means, stds, iterations, converged) rows."""
    items = [(None, record) for record in records]
    if by_signature:
        results = _solve_by_signature(engine, items)
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
    """Mega-batch == per-signature batched, bit for bit; twin within 1e-6."""

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
        eligible = engine._megabatch_eligible(prepared)
        assert len(eligible) >= 2, "mega-batch eligibility must engage here"

    def test_not_engaged_for_one_signature_or_non_analytic(self):
        mixed = [_record_for(UNION[:5], seed=3), _record_for(UNION[4:10], seed=5)]
        uniform = [_record_for(UNION[:5], seed=3), _record_for(UNION[:5], seed=5)]
        default_engine = BayesPerfEngine(CATALOG, UNION)
        groups, prepared = _groups(default_engine, uniform)
        assert len(groups) == 1
        assert default_engine._megabatch_eligible(prepared) == []
        for engine in (
            BayesPerfEngine(
                CATALOG, UNION, moment_estimator="mcmc",
                mcmc_samples=10, mcmc_burn_in=5,
            ),
            BayesPerfEngine(CATALOG, UNION, use_compiled_kernel=False),
        ):
            groups, prepared = _groups(engine, mixed)
            assert len(groups) == 2
            assert engine._megabatch_eligible(prepared) == []


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


class TestLanePartition:
    """threads=N results are bit-identical to the serial kernel."""

    def _problem(self, batch=7):
        variables = [f"v{i}" for i in range(4)]
        graph = FactorGraph(variables=variables)
        names = []
        for v in variables:
            graph.add_factor(GaussianObservation(f"obs_{v}", v, observed=0.5, sigma=0.8))
            names.append(f"obs_{v}")
        graph.add_factor(
            LinearConstraintFactor("rel_0", {v: 1.0 for v in variables}, sigma=0.4)
        )
        sites = [EPSite("obs", tuple(names)), EPSite("rel", ("rel_0",))]
        structure = compile_factor_graph(graph, sites, variables)
        kernel = CompiledEPKernel(structure, damping=1.0)
        rng = np.random.default_rng(42)
        stacked = []
        for _ in sites:
            basis = rng.normal(size=(batch, 4, 4))
            precision = basis @ np.swapaxes(basis, -1, -2) + 2.0 * np.eye(4)
            stacked.append((precision, rng.normal(size=(batch, 4))))
        prior_precision = np.stack([np.eye(4)] * batch)
        prior_shift = rng.normal(size=(batch, 4))
        return kernel, stacked, prior_precision, prior_shift

    @pytest.mark.parametrize("threads", [2, 3, 4, 9])
    def test_partitioned_kernel_is_bit_identical(self, threads):
        from concurrent.futures import ThreadPoolExecutor

        kernel, stacked, prior_precision, prior_shift = self._problem()
        serial = kernel.run_stacked(stacked, prior_precision, prior_shift)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partitioned = run_lane_partitioned(
                kernel, stacked, prior_precision, prior_shift, (), pool, threads
            )
        assert np.array_equal(partitioned.means, serial.means)
        assert np.array_equal(partitioned.variances, serial.variances)
        assert np.array_equal(partitioned.posterior_precision, serial.posterior_precision)
        assert np.array_equal(partitioned.iterations, serial.iterations)
        assert np.array_equal(partitioned.converged, serial.converged)

    def test_engine_lane_threads_are_bit_identical(self):
        records = [
            _record_for(UNION[:8], seed=7 * host) for host in range(6)
        ] + [_record_for(UNION[3:11], seed=100 + host) for host in range(4)]
        serial = _solve_batch(
            BayesPerfEngine(CATALOG, UNION, kernel_exec=KernelExecSpec(threads=1)),
            records,
            by_signature=True,
        )
        threaded = BayesPerfEngine(
            CATALOG, UNION, kernel_exec=KernelExecSpec(threads=4)
        )
        assert _solve_batch(threaded, records, by_signature=True) == serial
        assert _solve_batch(threaded, records) == serial

    @given(batch=st.integers(1, 200), threads=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_lane_chunks_partition_the_batch_exactly(self, batch, threads):
        bounds = lane_chunks(batch, threads)
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        assert len(bounds) == min(threads, batch)
        sizes = []
        for (start, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start
        for start, stop in bounds:
            sizes.append(stop - start)
            assert stop > start
        assert max(sizes) - min(sizes) <= 1
        assert bounds == lane_chunks(batch, threads)  # pure & deterministic


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


class TestKernelExecSpec:
    def test_defaults(self):
        assert KernelExecSpec().threads == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="threads"):
            KernelExecSpec(threads=0)

    def test_frozen_and_hashable(self):
        spec = KernelExecSpec(threads=4)
        assert hash(spec) == hash(KernelExecSpec(threads=4))
        with pytest.raises(AttributeError):
            spec.threads = 8

    def test_kernel_exec_from_env(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert kernel_exec_from_env() is None
        monkeypatch.setenv(THREADS_ENV_VAR, "")
        assert kernel_exec_from_env() is None
        monkeypatch.setenv(THREADS_ENV_VAR, " 4 ")
        assert kernel_exec_from_env() == KernelExecSpec(threads=4)
        for bad in ("abc", "0", "-2"):
            monkeypatch.setenv(THREADS_ENV_VAR, bad)
            with pytest.raises(ValueError, match=f"{THREADS_ENV_VAR}='{bad}'"):
                kernel_exec_from_env()

    def test_engine_picks_up_env_default(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        engine = BayesPerfEngine(CATALOG, UNION[:4])
        assert engine.kernel_exec == KernelExecSpec(threads=4)
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert BayesPerfEngine(CATALOG, UNION[:4]).kernel_exec is None


@pytest.mark.thread_matrix
class TestDeterminismUnderThreads:
    """threads=1 vs threads=4 on one seeded RunSpec: byte-identical output.

    The thread count is an execution knob, never a numeric one — the lane
    partition pins each chunk's reduction layout, so the same declarative
    run must produce the same estimates *and* the same tracefile bytes
    regardless of parallelism.  CI re-runs the whole tier-1
    suite with ``REPRO_KERNEL_THREADS=4`` on a matrix leg; these tests pin
    the equivalence explicitly inside a single process.
    """

    def _spec(self, sink, kernel_exec):
        # A mixed-signature fleet: each host monitors its own union slice.
        subsets = (UNION[:6], UNION[:2] + UNION[7:10], UNION[2:8], tuple(UNION))
        hosts = tuple(
            HostSpec(workload="steady", seed=40 + h, n_ticks=3, events=subset)
            for h, subset in enumerate(subsets)
        )
        return RunSpec(
            events=tuple(UNION),
            hosts=hosts,
            estimator=EstimatorSpec(kernel_exec=kernel_exec),
            recorder=RecorderSpec(sink=sink),
            observer=ObserverSpec(estimates=True),
            n_workers=2,
        )

    def _run(self, tmp_path, name, kernel_exec):
        sink = tmp_path / f"{name}.jsonl"
        result = Pipeline.from_spec(self._spec(str(sink), kernel_exec)).run()
        return result.estimates, sink.read_bytes()

    def test_lane_threads_are_byte_identical(self, tmp_path):
        serial, serial_log = self._run(tmp_path, "t1", KernelExecSpec(threads=1))
        threaded, threaded_log = self._run(tmp_path, "t4", KernelExecSpec(threads=4))
        assert serial.keys() == threaded.keys()
        for host in serial:
            assert serial[host].values_equal(threaded[host])
        # The run logs — header, every estimate record — match byte for byte.
        assert serial_log == threaded_log
