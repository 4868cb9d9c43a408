"""The unified public estimation API: spec-driven, registry-backed, streaming.

This package is the single front door for running estimations.  Declare a
run with frozen specs, then execute it::

    from repro.api import EstimatorSpec, HostSpec, Pipeline, RecorderSpec, RunSpec

    spec = RunSpec.fleet(
        64, "KMeans", n_ticks=3,
        estimator=EstimatorSpec("mcmc", samples=60, burn_in=50),
        recorder=RecorderSpec(sink="chains.jsonl"),
    )
    for slice_result in Pipeline.from_spec(spec).stream():
        consume(slice_result)          # arrives while the fleet runs

* Estimator names resolve through the :mod:`repro.fg.registry` the sampler
  implementations self-register into — one name table for the engine, the
  sessions, the CLI and this API.
* ``Pipeline.run()`` collects everything; ``Pipeline.stream()`` yields
  per-slice results incrementally and flushes chain records to the
  recorder's tracefile sink after every inference round (bounded memory).
* ``Pipeline.from_spec`` is the one way to build a fleet run; extra event
  processors attach to ``pipeline.service.dispatcher`` before it runs.  The
  single-host ``PerfSession`` accepts :class:`EstimatorSpec` /
  :class:`RecorderSpec` too.
* :class:`ObserverSpec` opts a run into observability (:mod:`repro.obs`):
  OTel-style span export over the whole pipeline, the metrics registry,
  per-slice estimate records in the trace sink, and the end-of-run
  chain-health (mixing) analysis.
* :class:`FaultPolicySpec` opts the workers into retry/timeout/quarantine
  enforcement, and :class:`CheckpointSpec` opts the run into durable
  write-ahead logging — a killed run resumes from its log with
  ``Pipeline.resume(path)`` to bit-identical final estimates.
* The scenario grid (``docs/scenario-grid.md``): :class:`SchedulerSpec`
  selects the multiplexing policy, :class:`ContentionSpec` throttles
  synthetic workloads with PCIe contention, and ``RunSpec.baselines``
  fans the same sampled streams through registered baseline correction
  methods — the run's :class:`ComparisonReport` scores BayesPerf against
  each of them on reconstructed ground truth.
"""

from repro.api.comparison import ComparisonReport, HostComparison, baseline_names
from repro.api.pipeline import Pipeline, PipelineResult, SliceResult
from repro.api.spec import (
    CheckpointSpec,
    ContentionSpec,
    EstimatorSpec,
    FaultPolicySpec,
    HostSpec,
    ObserverSpec,
    RecorderSpec,
    RunSpec,
    SchedulerSpec,
)

__all__ = [
    "CheckpointSpec",
    "ComparisonReport",
    "ContentionSpec",
    "EstimatorSpec",
    "FaultPolicySpec",
    "HostComparison",
    "HostSpec",
    "ObserverSpec",
    "Pipeline",
    "PipelineResult",
    "RecorderSpec",
    "RunSpec",
    "SchedulerSpec",
    "SliceResult",
    "baseline_names",
]
