"""Public-API snapshot: `repro.api` names and spec fields are pinned.

The unified API is the repository's outermost contract — downstream code
holds references to these names and constructs the frozen specs by keyword.
Renaming or removing anything here is a breaking change and must be done
deliberately (update this snapshot in the same commit and say so in the PR).
Additive changes (new names, new fields with defaults) extend the pins.
"""

import dataclasses

import pytest

import repro.api as api
from repro.fg.registry import baseline_names, engine_estimator_names


def _field_names(spec_cls):
    return tuple(f.name for f in dataclasses.fields(spec_cls))


def test_api_all_is_pinned():
    assert set(api.__all__) == {
        "CheckpointSpec",
        "ComparisonReport",
        "ContentionSpec",
        "EstimatorSpec",
        "FaultPolicySpec",
        "HostComparison",
        "HostSpec",
        "KernelExecSpec",
        "ObserverSpec",
        "Pipeline",
        "PipelineResult",
        "RecorderSpec",
        "RunSpec",
        "SchedulerSpec",
        "SliceResult",
        "baseline_names",
    }
    for name in api.__all__:
        assert hasattr(api, name), f"repro.api.__all__ names missing symbol {name}"


def test_estimator_spec_fields_are_pinned():
    assert _field_names(api.EstimatorSpec) == (
        "name",
        "samples",
        "burn_in",
        "adapt",
        "ep_iterations",
        "use_compiled_kernel",
        "kernel_exec",
    )


def test_kernel_exec_spec_fields_are_pinned():
    assert _field_names(api.KernelExecSpec) == ("threads",)


def test_estimator_spec_coerces_kernel_exec_mapping():
    spec = api.EstimatorSpec(kernel_exec={"threads": 4})
    assert spec.kernel_exec == api.KernelExecSpec(threads=4)
    kwargs = spec.engine_kwargs()
    assert kwargs["kernel_exec"] == api.KernelExecSpec(threads=4)
    # Defaults stay defaults: no kernel_exec key unless set.
    assert "kernel_exec" not in api.EstimatorSpec().engine_kwargs()


def test_run_spec_kernel_exec_round_trips_through_dict():
    spec = api.RunSpec.fleet(
        2,
        "steady",
        n_ticks=2,
        estimator=api.EstimatorSpec(kernel_exec=api.KernelExecSpec(threads=4)),
    )
    rebuilt = api.RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.estimator.kernel_exec == api.KernelExecSpec(threads=4)
    # Dicts written before mega-batching became automatic carry two removed,
    # numerics-free knobs; dropping them rebuilds the same run.
    legacy = spec.to_dict()
    legacy["estimator"]["megabatch"] = True
    legacy["estimator"]["kernel_exec"]["partition"] = "signature"
    assert api.RunSpec.from_dict(legacy) == spec
    # So do dicts written before spans joined the event stream: their
    # observer carries ``mixing`` and ``spans_in_memory``.
    observed = dataclasses.replace(
        spec, observer=api.ObserverSpec(trace="s.jsonl", metrics="-")
    )
    legacy = observed.to_dict()
    legacy["observer"].update(mixing=True, spans_in_memory=False)
    assert api.RunSpec.from_dict(legacy) == observed
    # And dicts written while the fleet had a serial mode carry ``mode``.
    for mode in ("pool", "serial"):
        assert api.RunSpec.from_dict(dict(spec.to_dict(), mode=mode)) == spec


def test_recorder_spec_fields_are_pinned():
    assert _field_names(api.RecorderSpec) == ("sink", "params")


def test_observer_spec_fields_are_pinned():
    assert _field_names(api.ObserverSpec) == ("trace", "metrics", "estimates")


def test_host_spec_fields_are_pinned():
    assert _field_names(api.HostSpec) == (
        "workload",
        "seed",
        "n_ticks",
        "arch",
        "events",
        "host_id",
        "trace",
        "perf",
        "format",
        "on_unknown",
    )


def test_run_spec_fields_are_pinned():
    assert _field_names(api.RunSpec) == (
        "arch",
        "events",
        "metrics",
        "hosts",
        "estimator",
        "recorder",
        "observer",
        "n_workers",
        "batch_size",
        "buffer_capacity",
        "pump_records",
        "samples_per_tick",
        "engine_overrides",
        "fault_policy",
        "checkpoint",
        "scheduler",
        "contention",
        "baselines",
    )


def test_scheduler_spec_fields_are_pinned():
    assert _field_names(api.SchedulerSpec) == ("policy", "seed")


def test_contention_spec_fields_are_pinned():
    assert _field_names(api.ContentionSpec) == ("background", "size_mb")


def test_checkpoint_spec_fields_are_pinned():
    assert _field_names(api.CheckpointSpec) == ("path", "every", "fsync")


def test_fault_policy_spec_fields_are_pinned():
    assert _field_names(api.FaultPolicySpec) == (
        "max_attempts",
        "timeout_seconds",
        "backoff_base",
        "backoff_factor",
        "backoff_max",
        "jitter",
        "seed",
        "on_exhausted",
    )


def test_slice_result_fields_are_pinned():
    assert _field_names(api.SliceResult) == (
        "host",
        "tick",
        "values",
        "sigma",
        "ep_iterations",
        "ep_converged",
    )


def test_specs_are_frozen_and_hashable():
    spec = api.RunSpec.fleet(2, "steady", n_ticks=3)
    assert hash(spec) == hash(api.RunSpec.fleet(2, "steady", n_ticks=3))
    try:
        spec.arch = "ppc64"
    except dataclasses.FrozenInstanceError:
        pass
    else:  # pragma: no cover
        raise AssertionError("RunSpec must be frozen")


def test_builtin_estimators_are_registered():
    names = engine_estimator_names()
    assert names == ("analytic", "mcmc")
    # The spec layer resolves through the same registry.
    for name in names:
        assert api.EstimatorSpec(name).engine_kwargs()["moment_estimator"] == name


def test_baselines_are_registered_but_rejected_as_engines():
    names = baseline_names()
    assert {"linux", "counterminer", "wm+pin"} <= set(names)
    # Baselines share the registry but are not moment estimators: the spec
    # layer routes them to RunSpec.baselines instead.
    for name in names:
        with pytest.raises(ValueError, match="baseline correction method"):
            api.EstimatorSpec(name).engine_kwargs()
