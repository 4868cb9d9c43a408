"""Tests for the machine model and the workload suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import semantics as sem
from repro.invariants import standard_invariants
from repro.uarch import Machine, MachineConfig, PhaseProfile, Phase, WorkloadSpec, synthesize_semantics
from repro.workloads import (
    HIBENCH_WORKLOADS,
    available_workloads,
    get_workload,
    hibench_suite,
    hibench_workload,
    multiplexing_stress_workload,
    steady_workload,
)


class TestPhaseProfile:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfile(branch_fraction=1.5)

    def test_load_store_fraction_budget(self):
        with pytest.raises(ValueError):
            PhaseProfile(load_fraction=0.7, store_fraction=0.5)

    def test_scaled_profile(self):
        profile = PhaseProfile()
        scaled = profile.scaled(2.0)
        assert scaled.instructions_per_tick == pytest.approx(2 * profile.instructions_per_tick)


class TestWorkloadSpec:
    def test_profile_cycles_through_phases(self):
        spec = WorkloadSpec(
            name="w",
            phases=(
                Phase(PhaseProfile(instructions_per_tick=1e6), 5, "p0"),
                Phase(PhaseProfile(instructions_per_tick=2e6), 5, "p1"),
            ),
        )
        assert spec.total_ticks == 10
        assert spec.profile_at(0).instructions_per_tick == pytest.approx(1e6)
        assert spec.profile_at(7).instructions_per_tick == pytest.approx(2e6)
        assert spec.profile_at(12).instructions_per_tick == pytest.approx(1e6)
        assert spec.phase_index_at(7) == 1

    def test_phase_boundaries(self):
        spec = WorkloadSpec(
            name="w",
            phases=(Phase(PhaseProfile(), 5, "p0"), Phase(PhaseProfile(), 3, "p1")),
        )
        assert spec.phase_boundaries(10) == (0, 5, 8)

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", phases=())


class TestSynthesis:
    def test_all_semantics_produced(self):
        values = synthesize_semantics(PhaseProfile())
        assert set(values) == set(sem.ALL_SEMANTICS)

    def test_values_non_negative(self):
        values = synthesize_semantics(PhaseProfile(), intensity=0.3)
        assert all(v >= 0 for v in values.values())

    def test_intensity_scales_instructions(self):
        base = synthesize_semantics(PhaseProfile(), intensity=1.0)
        double = synthesize_semantics(PhaseProfile(), intensity=2.0)
        assert double[sem.INSTRUCTIONS] == pytest.approx(2 * base[sem.INSTRUCTIONS])

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            synthesize_semantics(PhaseProfile(), intensity=0.0)

    @given(intensity=st.floats(0.2, 4.0), miss=st.floats(0.01, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_any_profile(self, intensity, miss):
        profile = PhaseProfile(l1d_miss_rate=miss, llc_miss_rate=miss)
        values = synthesize_semantics(profile, intensity=intensity)
        assert standard_invariants().violated(values, rtol=1e-9) == ()


class TestMachine:
    def test_trace_length_and_series(self):
        machine = Machine(MachineConfig(), steady_workload(), seed=0)
        trace = machine.run(20)
        assert len(trace) == 20
        cycles = trace.semantic_series(sem.CYCLES)
        assert cycles.shape == (20,)
        assert np.all(cycles > 0)

    def test_different_seeds_differ(self):
        workload = hibench_workload("KMeans")
        a = Machine(MachineConfig(), workload, seed=1).run(10)
        b = Machine(MachineConfig(), workload, seed=2).run(10)
        assert not np.allclose(a.semantic_series(sem.INSTRUCTIONS), b.semantic_series(sem.INSTRUCTIONS))

    def test_same_seed_reproducible(self):
        workload = hibench_workload("KMeans")
        a = Machine(MachineConfig(), workload, seed=3).run(10)
        b = Machine(MachineConfig(), workload, seed=3).run(10)
        assert np.allclose(a.semantic_series(sem.CYCLES), b.semantic_series(sem.CYCLES))

    def test_every_tick_satisfies_invariants(self):
        machine = Machine(MachineConfig(), hibench_workload("Join"), seed=5)
        trace = machine.run(30)
        library = standard_invariants()
        for values in trace.ticks:
            assert library.violated(values, rtol=1e-9) == ()

    def test_window_totals(self):
        machine = Machine(MachineConfig(), steady_workload(), seed=0)
        trace = machine.run(10)
        totals = trace.window_totals(2, 5)
        manual = sum(trace.ticks[t][sem.INSTRUCTIONS] for t in range(2, 5))
        assert totals[sem.INSTRUCTIONS] == pytest.approx(manual)
        with pytest.raises(ValueError):
            trace.window_totals(5, 2)

    def test_run_workload_covers_phases(self):
        workload = multiplexing_stress_workload()
        trace = Machine(MachineConfig(), workload, seed=0).run_workload()
        assert len(trace) == workload.total_ticks

    def test_invalid_tick_count(self):
        with pytest.raises(ValueError):
            Machine(MachineConfig(), steady_workload(), seed=0).run(0)

    @pytest.mark.parametrize(
        "field", ["frequency_ghz", "tdp_watts", "tick_seconds", "run_variation", "rate_jitter"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        # NaN variation used to switch variation off (``nan > 0`` is false);
        # an infinite jitter made the ground truth non-finite.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MachineConfig(**{field: value})


class TestHiBenchSuite:
    def test_suite_size(self):
        assert len(HIBENCH_WORKLOADS) == 28
        assert len(hibench_suite()) == 28

    def test_category_filter(self):
        ml_only = hibench_suite(categories=("ml",))
        assert all(spec.category == "ml" for spec in ml_only)
        assert len(ml_only) == 13

    def test_workloads_are_distinct(self):
        kmeans = hibench_workload("KMeans")
        sort = hibench_workload("Sort")
        assert (
            kmeans.phases[0].profile.instructions_per_tick
            != sort.phases[0].profile.instructions_per_tick
        )

    def test_workload_is_deterministic(self):
        a = hibench_workload("PageRank")
        b = hibench_workload("PageRank")
        assert a.phases[0].profile == b.phases[0].profile

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            hibench_workload("NotABenchmark")

    def test_registry(self):
        assert "KMeans" in available_workloads()
        assert get_workload("mux-stress").name == "mux-stress"
        with pytest.raises(KeyError):
            get_workload("missing")
