"""Tests for the PMU substrate: constraints, registers, noise and sampling."""

import numpy as np
import pytest

from repro.events import catalog_for
from repro.events import semantics as sem
from repro.events.profiles import standard_profiling_events
from repro.pmu import (
    ConfigurationError,
    CounterConfiguration,
    EstimateTrace,
    MultiplexedSampler,
    NoiseModel,
    PMURegisterFile,
    PollingReader,
    ValidityChecker,
)
from repro.scheduling import Schedule, round_robin_schedule
from repro.uarch import Machine, MachineConfig
from repro.workloads import steady_workload


@pytest.fixture
def catalog():
    return catalog_for("x86")


@pytest.fixture
def machine_trace():
    return Machine(MachineConfig(), steady_workload(), seed=0).run(12)


class TestCounterConfiguration:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CounterConfiguration(events=("A", "A"))

    def test_assignment_must_cover_events(self):
        with pytest.raises(ValueError):
            CounterConfiguration(events=("A", "B"), assignment={"A": 0})

    def test_overlap(self):
        a = CounterConfiguration(events=("A", "B"))
        b = CounterConfiguration(events=("B", "C"))
        assert a.overlap(b) == ("B",)


class TestValidityChecker:
    def test_assigns_unconstrained_events(self, catalog):
        checker = ValidityChecker(catalog)
        events = ["L2_RQSTS.MISS", "L2_RQSTS.REFERENCES", "L1D.REPLACEMENT"]
        assignment = checker.assign(events)
        assert set(assignment) == set(events)
        assert len(set(assignment.values())) == 3

    def test_respects_counter_mask(self, catalog):
        checker = ValidityChecker(catalog)
        configuration = checker.build_configuration(["L1D_PEND_MISS.PENDING", "L2_RQSTS.MISS"])
        assert configuration.assignment["L1D_PEND_MISS.PENDING"] == 2
        assert checker.is_valid(configuration)

    def test_rejects_over_budget(self, catalog):
        checker = ValidityChecker(catalog)
        too_many = [spec.name for spec in catalog.programmable_events[:6]]
        with pytest.raises(ConfigurationError):
            checker.assign(too_many)

    def test_rejects_fixed_event(self, catalog):
        checker = ValidityChecker(catalog)
        with pytest.raises(ConfigurationError):
            checker.assign(["INST_RETIRED.ANY"])

    def test_msr_budget(self, catalog):
        checker = ValidityChecker(catalog, max_msr_events=1)
        with pytest.raises(ConfigurationError):
            checker.assign(["OFFCORE_RESPONSE.DEMAND_DATA_RD", "OFFCORE_RESPONSE.WRITEBACKS"])

    def test_violations_listed(self, catalog):
        checker = ValidityChecker(catalog)
        bad = CounterConfiguration(events=("L1D_PEND_MISS.PENDING",), assignment={"L1D_PEND_MISS.PENDING": 0})
        problems = checker.violations(bad)
        assert problems and "counter 0" in problems[0]

    def test_split_events(self, catalog):
        checker = ValidityChecker(catalog)
        fixed, programmable = checker.split_events(["INST_RETIRED.ANY", "L2_RQSTS.MISS"])
        assert fixed == ("INST_RETIRED.ANY",)
        assert programmable == ("L2_RQSTS.MISS",)


class TestRegisterFile:
    def test_program_and_read(self, catalog):
        checker = ValidityChecker(catalog)
        register_file = PMURegisterFile(catalog)
        configuration = checker.build_configuration(["L2_RQSTS.MISS", "L2_RQSTS.REFERENCES"])
        register_file.program(configuration)
        register_file.accumulate_tick({"L2_RQSTS.MISS": 10.0, "L2_RQSTS.REFERENCES": 30.0, "INST_RETIRED.ANY": 100.0})
        values = register_file.read_all()
        assert values["L2_RQSTS.MISS"] == pytest.approx(10.0)
        assert values["INST_RETIRED.ANY"] == pytest.approx(100.0)
        register_file.reset()
        assert register_file.read_all()["INST_RETIRED.ANY"] == 0.0

    def test_fixed_register_cannot_be_reprogrammed(self, catalog):
        register_file = PMURegisterFile(catalog)
        with pytest.raises(ValueError):
            register_file.fixed[0].program("SOMETHING")


class TestNoiseModel:
    def test_noiseless_is_identity(self):
        noise = NoiseModel.noiseless()
        rng = np.random.default_rng(0)
        assert noise.perturb_sample(123.0, rng) == pytest.approx(123.0)
        assert noise.perturb_polled(123.0, rng) == pytest.approx(123.0)

    def test_perturbation_is_bounded_below(self):
        noise = NoiseModel(read_noise=0.5, os_spike_probability=1.0, os_spike_magnitude=2.0)
        rng = np.random.default_rng(0)
        assert all(noise.perturb_sample(10.0, rng) >= 0.0 for _ in range(50))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(read_noise=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(os_spike_probability=1.5)
        # A scale 1 + bias <= 0 would zero every sample.
        for bias in (-1.0, -2.0):
            with pytest.raises(ValueError, match="overcount_bias must be greater than -1"):
                NoiseModel(overcount_bias=bias)
        assert NoiseModel(overcount_bias=-0.5).overcount_bias == -0.5

    @pytest.mark.parametrize(
        "field",
        ["read_noise", "os_spike_probability", "os_spike_magnitude", "overcount_bias", "polling_noise"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, field, value):
        # NaN used to switch read noise off (``nan > 0`` is false) and NaN
        # or inf in the others turned sub-samples non-finite.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoiseModel(**{field: value})

    def test_perturb_sample_is_one_value_of_perturb_samples(self):
        noise = NoiseModel(overcount_bias=0.05)
        one, many = np.random.default_rng(4), np.random.default_rng(4)
        values = [10.0, 0.0, 2.5e9]
        singles = [noise.perturb_sample(value, one) for value in values]
        assert singles == noise.perturb_samples(values, many)
        assert one.bit_generator.state == many.bit_generator.state


class TestSampling:
    def test_polling_reader_close_to_truth(self, catalog, machine_trace):
        events = standard_profiling_events(catalog, n_events=12)
        reader = PollingReader(catalog, events, noise=NoiseModel.noiseless(), seed=0)
        polled = reader.read(machine_trace)
        assert len(polled) == len(machine_trace)
        truth = catalog.ground_truth_for(events, machine_trace.ticks[0])
        assert polled.at(0)[events[0]] == pytest.approx(truth[events[0]])

    def test_multiplexed_sampler_respects_schedule(self, catalog, machine_trace):
        events = standard_profiling_events(catalog, n_events=12)
        schedule = round_robin_schedule(catalog, events)
        sampler = MultiplexedSampler(catalog, schedule, noise=NoiseModel.noiseless(), seed=0)
        sampled = sampler.sample(machine_trace)
        assert len(sampled) == len(machine_trace)
        for record in sampled.records:
            scheduled = set(record.configuration.events)
            fixed = {spec.name for spec in catalog.fixed_events}
            assert set(record.samples) == scheduled | fixed

    def test_samples_sum_to_truth_without_noise(self, catalog, machine_trace):
        events = standard_profiling_events(catalog, n_events=8)
        schedule = round_robin_schedule(catalog, events)
        sampler = MultiplexedSampler(catalog, schedule, noise=NoiseModel.noiseless(), seed=0)
        sampled = sampler.sample(machine_trace)
        record = sampled.records[0]
        event = record.configuration.events[0]
        truth = catalog.ground_truth_for([event], machine_trace.ticks[0])[event]
        assert record.total(event) == pytest.approx(truth, rel=1e-9)

    def test_each_configuration_is_range_checked_once(
        self, catalog, machine_trace, monkeypatch
    ):
        events = standard_profiling_events(catalog, n_events=12)
        schedule = round_robin_schedule(catalog, events)
        assert len(machine_trace) > len(schedule.configurations)  # it repeats
        programmed = []
        program = PMURegisterFile.program
        monkeypatch.setattr(
            PMURegisterFile,
            "program",
            lambda registers, configuration: programmed.append(configuration)
            or program(registers, configuration),
        )
        MultiplexedSampler(catalog, schedule, seed=0).sample(machine_trace)
        assert programmed == list(schedule.configurations)

    def test_overwide_configuration_still_raises(self, catalog, machine_trace):
        events = standard_profiling_events(catalog, n_events=12)
        schedule = round_robin_schedule(catalog, events)
        counters = catalog.counter_file.usable_programmable
        programmable = [e for e in events if not catalog.get(e).is_fixed]
        wide = CounterConfiguration(tuple(programmable[: counters + 1]))
        overwide = Schedule(schedule.configurations + (wide,))
        assert len(machine_trace) > len(overwide.configurations)
        sampler = MultiplexedSampler(catalog, overwide, seed=0)
        with pytest.raises(ValueError, match=f"needs {counters + 1} counters"):
            sampler.sample(machine_trace)

    def test_enabled_fraction(self, catalog, machine_trace):
        events = standard_profiling_events(catalog, n_events=12)
        schedule = round_robin_schedule(catalog, events)
        sampler = MultiplexedSampler(catalog, schedule, seed=0)
        sampled = sampler.sample(machine_trace)
        programmable = [e for e in events if not catalog.get(e).is_fixed]
        fraction = sampled.enabled_fraction(programmable[0])
        assert 0.0 < fraction < 1.0
        fixed = catalog.fixed_events[0].name
        assert sampled.enabled_fraction(fixed) == pytest.approx(1.0)


class TestEstimateTrace:
    def test_series_and_uncertainty(self):
        trace = EstimateTrace(method="m")
        trace.append({"a": 1.0}, {"a": 0.1})
        trace.append({"a": 2.0})
        assert trace.series("a").tolist() == [1.0, 2.0]
        assert np.isnan(trace.uncertainty_series("a")[1])
        assert trace.events() == ("a",)
