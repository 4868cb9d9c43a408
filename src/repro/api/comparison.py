"""BayesPerf-vs-baseline comparison over one pipeline run (the scenario grid).

When ``RunSpec.baselines`` names registered baseline correction methods
(``repro.fg.registry`` entries with ``baseline=True``), ``Pipeline.run``
attaches a :class:`ComparisonReport` to its result: the same multiplexed
sample stream every synthetic host fed the engine is replayed through each
baseline's ``correct()``, both are scored against the host's noise-free
ground truth, and the per-event relative errors land in one table.

No second fleet run happens.  A synthetic host's records are a pure function
of its source configuration (machine seed, sampler seed ``seed+1``, polled
ground truth seed ``seed+2`` — the same convention ``PerfSession`` uses), so
the comparison layer rebuilds the exact machine trace and sampled trace from
the already-registered sources and only the engine estimates come from the
live run.  That keeps the comparison deterministic, bit-stable under
worker-count changes, and free for replay hosts to opt out (no synthetic
ground truth exists for them — they are skipped).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

# Importing the baselines package is what self-registers the baseline
# entries ("linux", "counterminer", "wm+pin") into the estimator registry.
from repro.baselines import build_baseline
from repro.events.registry import catalog_for
from repro.fg.registry import baseline_names
from repro.metrics.error import ErrorReport, trace_error
from repro.pmu.sampling import MultiplexedSampler, PolledTrace, PollingReader
from repro.pmu.traces import EstimateTrace
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig

__all__ = [
    "ComparisonReport",
    "HostComparison",
    "baseline_names",
    "build_baseline",
    "build_comparison",
]

#: The engine's method name in reports (matches the paper's tables).
BAYESPERF = "bayesperf"


@dataclass
class HostComparison:
    """Every method's error report for one synthetic host."""

    host_id: str
    workload: str
    #: Method name -> per-event relative error vs the host's ground truth.
    reports: Dict[str, ErrorReport] = field(default_factory=dict)


@dataclass
class ComparisonReport:
    """The scenario-grid comparison table for one pipeline run."""

    #: The grid cell that produced this table (scheduler policy, contention,
    #: estimator, baselines) — stamped into every exported record.
    scenario: Dict[str, object] = field(default_factory=dict)
    #: Method column order: BayesPerf first, then the baselines as listed.
    methods: Tuple[str, ...] = ()
    hosts: List[HostComparison] = field(default_factory=list)

    def mean_error_percent(self, method: str) -> float:
        """Fleet-mean error of *method* across compared hosts (percent)."""
        values = [
            host.reports[method].mean_error_percent
            for host in self.hosts
            if method in host.reports
        ]
        if not values:
            return float("nan")
        return float(sum(values) / len(values))

    def render(self) -> str:
        """The per-scenario table: one row per host, one column per method."""
        from repro.experiments.common import format_table

        headers = ["host", "workload"] + [f"{m} err%" for m in self.methods]
        rows: List[Sequence] = []
        for host in self.hosts:
            rows.append(
                [host.host_id, host.workload]
                + [
                    host.reports[m].mean_error_percent if m in host.reports else float("nan")
                    for m in self.methods
                ]
            )
        rows.append(
            ["fleet-mean", str(self.scenario.get("scheduler", "overlap"))]
            + [self.mean_error_percent(m) for m in self.methods]
        )
        return format_table(headers, rows)

    def to_records(self) -> List[Dict]:
        """JSONL-shaped records: one scenario header, one row per host/method."""
        records: List[Dict] = [{"kind": "comparison-scenario", **self.scenario}]
        for host in self.hosts:
            for method in self.methods:
                report = host.reports.get(method)
                if report is None:
                    continue
                records.append(
                    {
                        "kind": "comparison",
                        "host": host.host_id,
                        "workload": host.workload,
                        "method": method,
                        "mean_error_percent": report.mean_error_percent,
                        "per_event": dict(report.per_event),
                    }
                )
        return records

    def write_jsonl(self, path: Union[str, Path]) -> str:
        """Export :meth:`to_records` as JSON lines; returns the path."""
        path = str(path)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.to_records():
                handle.write(json.dumps(record) + "\n")
        return path


def _bayesperf_traces(slices) -> Dict[str, EstimateTrace]:
    """Per-host engine estimates, rebuilt from the run's slice stream."""
    traces: Dict[str, EstimateTrace] = {}
    for result in slices:
        trace = traces.get(result.host)
        if trace is None:
            trace = traces[result.host] = EstimateTrace(method=BAYESPERF)
        trace.append(dict(result.values), uncertainty=dict(result.sigma))
    return traces


def _read_interval(length: int, warmup: int) -> int:
    """Aggregation window for error scoring: the session default (8 ticks)
    when the post-warmup trace is long enough to hold two windows, else
    per-tick scoring so short fleet runs still produce a table."""
    return 8 if (length - warmup) >= 16 else 1


def _compare_perf_host(source, engine_trace, baselines) -> Optional[HostComparison]:
    """Baseline divergence-from-BayesPerf rows for one real-trace host.

    A perf capture carries no polled ground truth, so each baseline's
    correction of the *measured* sampled stream is scored against the
    engine's posterior means instead — the same DTW-aligned relative-error
    metric, with the corrected estimate as the reference series.  The
    engine itself gets no row (its divergence from itself is zero by
    construction).
    """
    if engine_trace is None or len(engine_trace) == 0 or not baselines:
        return None
    catalog = catalog_for(source.arch)
    sampled = source.sampled_trace()
    reference = PolledTrace(
        catalog_name=catalog.name,
        events=tuple(engine_trace.events()),
        values=[engine_trace.at(tick) for tick in range(len(engine_trace))],
    )
    events = tuple(name for name in source.events if name in reference.events)
    if not events:
        return None
    interval = _read_interval(len(reference), 0)
    host = HostComparison(host_id=source.host_id, workload=source.workload_name)
    for name in baselines:
        corrected = build_baseline(name, catalog).correct(sampled)
        scored = trace_error(
            corrected, reference, events=events, aggregate_ticks=interval
        )
        host.reports[name] = ErrorReport(method=name, per_event=scored.per_event)
    return host


def build_comparison(spec, service, slices) -> ComparisonReport:
    """Score BayesPerf against ``spec.baselines`` for every synthetic host.

    *service* is the (already-run) pipeline's ``service``, whose ingest
    still holds the host sources; *slices* is the run's completed slice
    stream.  Replay hosts are skipped — only synthetic hosts carry
    reconstructible ground truth.
    """
    policy = spec.scheduler.policy if spec.scheduler is not None else "overlap"
    policy_seed = spec.scheduler.seed if spec.scheduler is not None else 0
    scenario: Dict[str, object] = {
        "scheduler": policy,
        "scheduler_seed": policy_seed,
        "estimator": spec.estimator.name,
        "baselines": list(spec.baselines),
        "contention_background": (
            spec.contention.background if spec.contention is not None else 0
        ),
        "contention_slowdown": (
            spec.contention.slowdown() if spec.contention is not None else 0.0
        ),
    }
    report = ComparisonReport(
        scenario=scenario, methods=(BAYESPERF,) + tuple(spec.baselines)
    )
    engine_traces = _bayesperf_traces(slices)
    channels = sorted(service.ingest.channels, key=lambda ch: ch.source.host_id)
    for channel in channels:
        source = channel.source
        host_id = source.host_id
        if not hasattr(source, "spec"):
            if hasattr(source, "sampled_trace"):
                # Real-trace host: no ground truth exists, but the capture
                # can still fan through every baseline — scored against the
                # engine posterior, so "err%" reads as divergence from
                # BayesPerf rather than error (the bayesperf column is
                # blank for these rows; see docs/real-traces.md).
                host = _compare_perf_host(
                    source, engine_traces.get(host_id), spec.baselines
                )
                if host is not None:
                    report.hosts.append(host)
            continue  # replay host: no synthetic ground truth
        catalog = catalog_for(source.arch)
        config = MachineConfig(name=catalog.name)
        # Same-run reconstruction, seed-for-seed what the source pumped:
        # machine at `seed`, sampler at `seed+1`, ground-truth reader at
        # `seed+2` (the PerfSession convention).
        machine_trace = Machine(config, source.spec, seed=source.seed).run(source.n_ticks)
        schedule = cached_schedule(
            catalog, source.events, kind=source.schedule_policy, seed=source.schedule_seed
        )
        sampled = MultiplexedSampler(
            catalog,
            schedule,
            samples_per_tick=source.samples_per_tick,
            seed=source.seed + 1,
        ).sample(machine_trace)
        polled = PollingReader(catalog, source.events, seed=source.seed + 2).read(
            machine_trace
        )
        length = len(machine_trace)
        warmup = min(schedule.rotation_ticks, max(length - 1, 0))
        interval = _read_interval(length, warmup)
        host = HostComparison(host_id=host_id, workload=source.workload_name)
        engine_trace = engine_traces.get(host_id)
        candidates = [(BAYESPERF, engine_trace)] + [
            (name, build_baseline(name, catalog).correct(sampled))
            for name in spec.baselines
        ]
        for method, trace in candidates:
            if trace is None:
                continue
            scored = trace_error(
                trace,
                polled,
                events=source.events,
                skip_ticks=warmup,
                aggregate_ticks=interval,
            )
            host.reports[method] = ErrorReport(method=method, per_event=scored.per_event)
        report.hosts.append(host)
    return report
