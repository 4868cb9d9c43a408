"""Command-line front end for the fleet service (``python -m repro.fleet``).

Six subcommands:

* ``demo`` — run a synthetic fleet through the sharded worker pool and
  report its throughput and engine-cache use; ``--estimator`` selects any
  registered moment estimator (unknown names list the registry),
  ``--stream`` consumes the run incrementally through
  :meth:`repro.api.Pipeline.stream`, ``--metrics`` prints the observability
  metrics-registry summary at the end of the run, and ``--trace-out`` writes
  the run's span tree as JSONL;
* ``record`` — run one monitoring session and write a replayable trace file;
* ``replay`` — feed a recorded trace back through the pipeline and (when the
  file carries the original estimates) verify the round-trip is exact;
* ``report`` — chain-health (mixing) analysis and run-log summary of a
  recorded trace file, without re-running inference;
* ``resume`` — continue a crashed checkpointed run from its write-ahead
  log (format version 4) to completion;
* ``ingest`` — preview a real ``perf`` capture (``perf stat -I -x,`` CSV,
  ``perf script`` text, or JSONL counter dumps): the schema mapping onto
  the event catalog, skip-and-account totals, and the first few lowered
  quanta; ``--convert`` writes the capture as a replayable trace file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import (
    ContentionSpec,
    EstimatorSpec,
    HostSpec,
    ObserverSpec,
    Pipeline,
    RunSpec,
    SchedulerSpec,
    baseline_names,
)
from repro.fg.registry import engine_estimator_names, get_estimator
from repro.fleet.tracefile import (
    TraceFile,
    TraceFormatError,
    read_trace,
    record_session_trace,
    write_trace,
)
from repro.obs.mixing import analyze_chain
from repro.perfio import PERF_FORMATS, UNKNOWN_POLICIES
from repro.scheduling import SCHEDULE_KINDS
from repro.workloads.registry import available_workloads, get_workload


def _estimator_name(value: str) -> str:
    """argparse type for ``--estimator``: resolves through the registry.

    Unknown names list the whole registry (engines *and* baselines — the
    registry error carries it); a known-but-baseline name gets a pointer to
    ``--baselines``, since baselines are comparators, not engines.
    """
    try:
        entry = get_estimator(value)
    except ValueError as error:
        # The registry's message already lists the registered names.
        raise argparse.ArgumentTypeError(str(error)) from None
    if entry.baseline:
        raise argparse.ArgumentTypeError(
            f"{value!r} is a baseline correction method, not a moment "
            f"estimator; pass it to --baselines to compare it against the "
            f"engine (engine estimators: {', '.join(engine_estimator_names())})"
        )
    return value


def _workload_name(value: str) -> str:
    """argparse type for ``--workload``: resolves through the registry.

    Unknown names list :func:`~repro.workloads.registry.available_workloads`
    — the same contract unknown estimators get from ``--estimator`` — so a
    typo fails as a clean usage error instead of a mid-run traceback.
    """
    try:
        get_workload(value)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r} "
            f"(available: {', '.join(sorted(available_workloads()))})"
        ) from None
    return value


def _baseline_list(value: str) -> tuple:
    """argparse type for ``--baselines``: comma-separated registry names."""
    names = tuple(name for name in value.split(",") if name)
    for name in names:
        try:
            entry = get_estimator(name)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        if not entry.baseline:
            raise argparse.ArgumentTypeError(
                f"{name!r} is a moment estimator, not a baseline correction "
                f"method (baselines: {', '.join(baseline_names())})"
            )
    return names


def _add_demo_parser(subparsers) -> None:
    parser = subparsers.add_parser("demo", help="run the synthetic fleet demo")
    parser.add_argument("--hosts", type=int, default=64, help="number of simulated hosts")
    parser.add_argument("--ticks", type=int, default=6, help="scheduler quanta per host")
    parser.add_argument("--workers", type=int, default=4, help="inference workers")
    parser.add_argument("--arch", default="x86", help="microarchitecture")
    parser.add_argument(
        "--workload",
        type=_workload_name,
        default="steady",
        help="workload driven on every host",
    )
    parser.add_argument(
        "--derived-metrics",
        default="ipc,l1d_mpki",
        help="comma-separated derived metrics selecting the monitored events",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability metrics-registry summary after the run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's spans (OTLP-shaped JSONL) to PATH",
    )
    parser.add_argument(
        "--estimator",
        type=_estimator_name,
        default="analytic",
        help=(
            "registered moment estimator to run "
            f"(one of: {', '.join(engine_estimator_names())})"
        ),
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULE_KINDS,
        default="overlap",
        help="multiplexing policy rotating events across the counters",
    )
    parser.add_argument(
        "--baselines",
        type=_baseline_list,
        default=(),
        metavar="NAMES",
        help=(
            "comma-separated baseline correction methods to score against "
            f"BayesPerf (registered: {', '.join(baseline_names())}); "
            "prints the comparison table after the run"
        ),
    )
    parser.add_argument(
        "--contention",
        type=int,
        default=0,
        metavar="N",
        help="background PCIe streams (0-5) throttling every host's workload",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="consume per-slice results incrementally via Pipeline.stream()",
    )


def _demo_observer(args) -> Optional[ObserverSpec]:
    """The demo's observability opt-in, from the CLI flags."""
    if not args.metrics and args.trace_out is None:
        return None
    return ObserverSpec(
        trace=args.trace_out,
        metrics="console" if args.metrics else None,
    )


def _demo_spec(args) -> RunSpec:
    """The run every ``demo`` variant executes, from the CLI flags."""
    metrics = tuple(m for m in args.derived_metrics.split(",") if m) or None
    return RunSpec(
        arch=args.arch,
        metrics=metrics,
        hosts=tuple(
            HostSpec(workload=args.workload, seed=index, n_ticks=args.ticks)
            for index in range(args.hosts)
        ),
        estimator=EstimatorSpec(args.estimator),
        observer=_demo_observer(args),
        n_workers=args.workers,
        scheduler=(
            SchedulerSpec(policy=args.scheduler) if args.scheduler != "overlap" else None
        ),
        contention=(
            ContentionSpec(background=args.contention) if args.contention else None
        ),
        baselines=tuple(args.baselines),
    )


def _run_demo_stream(args) -> int:
    """Streaming demo: per-slice results arrive while the fleet runs."""
    pipeline = Pipeline.from_spec(_demo_spec(args))
    shown = 0
    total = 0
    for result in pipeline.stream():
        total += 1
        if shown < 3:
            shown += 1
            head = ", ".join(f"{k}={v:.3g}" for k, v in list(result.values.items())[:3])
            print(f"  slice {result.host}@t{result.tick}: {head}")
    fleet = pipeline.fleet_result
    print(
        f"  streamed {total} slices at {fleet.slices_per_second:.1f} slices/s "
        f"({args.estimator} estimator, {fleet.n_hosts} hosts)"
    )
    if args.trace_out is not None:
        print(f"  spans written to {args.trace_out}")
    return 0


def _run_demo(args) -> int:
    print(
        f"Fleet demo: {args.hosts} hosts x {args.ticks} quanta on {args.arch} "
        f"({args.workload!r}, {args.estimator} estimator, "
        f"scheduler={args.scheduler}, contention={args.contention})"
    )
    if args.stream:
        return _run_demo_stream(args)
    result = Pipeline.from_spec(_demo_spec(args)).run()
    if args.trace_out is not None:
        print(f"  spans written to {args.trace_out}")
    fleet = result.fleet
    cache = fleet.engine_cache
    print(
        f"  {fleet.total_slices} slices in "
        f"{fleet.elapsed_seconds:.2f}s = {fleet.slices_per_second:7.1f} slices/s "
        f"(engines built: {cache['misses']}, cache hits: {cache['hits']}, "
        f"dropped: {fleet.total_dropped})"
    )
    if result.comparison is not None:
        for line in result.comparison.render().splitlines():
            print(f"  {line}")
    sample_host = next(iter(result.estimates))
    estimates = result.estimates[sample_host]
    last = estimates.at(len(estimates) - 1)
    shown = ", ".join(f"{k}={v:.3g}" for k, v in list(last.items())[:3])
    print(f"  e.g. {sample_host} final slice: {shown}")
    return 0


def _run_record(args) -> int:
    trace = record_session_trace(
        args.output,
        args.workload,
        arch=args.arch,
        n_ticks=args.ticks,
        seed=args.seed,
    )
    print(
        f"Recorded {trace.n_ticks} quanta of {trace.workload!r} ({trace.arch}) "
        f"-> {args.output}"
    )
    return 0


def _run_replay(args) -> int:
    trace = read_trace(args.trace)
    spec = RunSpec(
        arch=trace.arch or "x86", hosts=(HostSpec(trace=args.trace),), n_workers=1
    )
    result = Pipeline.from_spec(spec).run()
    (estimates,) = result.estimates.values()
    print(
        f"Replayed {len(estimates)} quanta of {trace.workload!r} ({trace.arch}) at "
        f"{result.slices_per_second:.1f} slices/s"
    )
    if trace.estimates is not None:
        recorded_method = trace.metadata.get("method", trace.estimates.method)
        if recorded_method != "bayesperf":
            # The fleet always replays through the BayesPerf engine, so
            # estimates recorded by another correction method are expected to
            # differ — comparing them would be misleading, not a failure.
            print(
                f"Round-trip check skipped: the file's estimates were recorded "
                f"with method {recorded_method!r}, replay uses 'bayesperf'"
            )
        elif estimates.values_equal(trace.estimates):
            print("Round-trip check: replayed estimates match the recorded ones exactly")
        else:
            print("Round-trip check FAILED: replayed estimates differ from the file")
            return 1
    return 0


def _run_resume(args) -> int:
    """Continue a crashed checkpointed run from its write-ahead log."""
    try:
        pipeline = Pipeline.resume(args.trace)
    except (TraceFormatError, ValueError) as error:
        print(f"Cannot resume: {error}")
        return 1
    result = pipeline.run().fleet
    print(
        f"Resumed {args.trace}: {result.total_slices} slices re-executed at "
        f"{result.slices_per_second:.1f} slices/s "
        f"({result.n_hosts} hosts, {len(result.quarantined)} quarantined)"
    )
    for host_id in sorted(result.estimates)[:3]:
        estimates = result.estimates[host_id]
        if not len(estimates):
            continue
        last = estimates.at(len(estimates) - 1)
        shown = ", ".join(f"{k}={v:.3g}" for k, v in list(last.items())[:3])
        print(f"  {host_id} final slice: {shown}")
    return 0


def _run_ingest(args) -> int:
    """Preview (and optionally convert) a real perf capture."""
    from repro.perfio import PerfTraceSource

    try:
        source = PerfTraceSource(
            "ingest-preview",
            args.file,
            format=args.format,
            arch=args.arch,
            on_unknown=args.on_unknown,
        )
    except (OSError, KeyError, ValueError) as error:
        print(f"Cannot ingest {args.file}: {error}")
        return 1
    stats = source.stats
    print(
        f"Ingested {args.file} ({stats.format}, {args.arch}): "
        f"{stats.n_ticks} quanta over {len(source.events)} events"
    )
    print("  schema mapping (raw perf name -> catalog event):")
    for raw in sorted(source.mapping):
        print(f"    {raw:32s} -> {source.mapping[raw]}")
    print(
        f"  lines: {stats.total_lines} total, {stats.parsed_samples} parsed, "
        f"{stats.skipped_lines} malformed skipped"
    )
    if stats.unknown_events:
        dropped = ", ".join(
            f"{raw} x{count}" for raw, count in sorted(stats.unknown_events.items())
        )
        print(f"  unknown events skipped: {dropped}")
    if stats.not_counted:
        print(f"  <not counted> readings: {stats.not_counted}")
    if stats.empty_ticks:
        print(f"  empty quanta skipped: {stats.empty_ticks}")
    if stats.torn_tail:
        print("  torn tail: final line truncated mid-write (recoverable)")
    for record in list(source.records())[: args.limit]:
        head = ", ".join(
            f"{event}={record.total(event):.4g}"
            for event in list(record.samples)[:4]
        )
        mux = (
            " (mux " + ", ".join(
                f"{event}={fraction:.0%}"
                for event, fraction in list(record.mux_fraction.items())[:4]
            ) + ")"
            if record.mux_fraction
            else ""
        )
        print(f"    quantum {record.tick}: {head}{mux}")
    if args.convert is not None:
        trace = TraceFile(
            arch=source.arch,
            events=source.events,
            workload=source.workload_name,
            samples_per_tick=source.samples_per_tick,
            metadata={"source": str(args.file), "format": stats.format},
            sampled=source.sampled_trace(),
        )
        write_trace(args.convert, trace)
        print(f"  wrote replayable tracefile -> {args.convert}")
    return 0


def _run_report(args) -> int:
    """Summarise a trace file's run log and analyse its chain health."""
    trace = read_trace(args.trace, strict=False)
    print(
        f"Trace {args.trace}: arch={trace.arch or '?'} "
        f"workload={trace.workload or '?'}"
    )
    if trace.checkpoints or trace.aborted or trace.torn_tail or trace.resumes:
        commit = (
            f"last commit round {trace.last_commit_round}"
            if trace.last_commit_round is not None
            else "no committed round"
        )
        print(
            f"  write-ahead log: {trace.checkpoints} checkpoint(s), "
            f"{commit}, {trace.resumes} resume(s)"
        )
        if trace.aborted:
            print(f"  aborted: {trace.aborted}")
        if trace.torn_tail:
            print("  torn tail: final line truncated mid-write (recoverable)")
    if trace.malformed_lines:
        print(f"  malformed lines skipped: {len(trace.malformed_lines)}")
    if trace.sampled is not None:
        print(f"  samples: {trace.n_ticks} quanta")
    if trace.estimates is not None:
        print(f"  estimates: {len(trace.estimates)} ticks ({trace.estimates.method})")
    if trace.host_estimates:
        n_slices = sum(len(t) for t in trace.host_estimates.values())
        print(f"  run log: {n_slices} slices over {len(trace.host_estimates)} hosts")
        for host_id in sorted(trace.host_estimates)[:3]:
            host_trace = trace.host_estimates[host_id]
            last = host_trace.at(len(host_trace) - 1)
            shown = ", ".join(f"{k}={v:.3g}" for k, v in list(last.items())[:3])
            print(f"    {host_id} final slice: {shown}")
    if trace.chain is None:
        print("  chain records: none (mixing analysis needs a version >= 2 trace)")
        return 0
    report = analyze_chain(trace.chain)
    for line in report.render().splitlines():
        print(f"  {line}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet", description="BayesPerf fleet telemetry service"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_demo_parser(subparsers)

    record = subparsers.add_parser("record", help="record a replayable trace file")
    record.add_argument("-o", "--output", required=True, help="trace file to write")
    record.add_argument("--workload", default="steady", help="workload to record")
    record.add_argument("--arch", default="x86", help="microarchitecture")
    record.add_argument("--ticks", type=int, default=None, help="quanta to record")
    record.add_argument("--seed", type=int, default=0, help="simulation seed")

    replay = subparsers.add_parser("replay", help="replay a recorded trace file")
    replay.add_argument("trace", help="trace file to replay")

    report = subparsers.add_parser(
        "report", help="chain-health and run-log report over a trace file"
    )
    report.add_argument("trace", help="trace file to analyse")

    resume = subparsers.add_parser(
        "resume", help="continue a crashed checkpointed run from its write-ahead log"
    )
    resume.add_argument("trace", help="write-ahead log (version 4 trace file)")

    ingest = subparsers.add_parser(
        "ingest", help="preview a real perf capture (stat-csv / script / jsonl)"
    )
    ingest.add_argument("file", help="perf output file to ingest")
    ingest.add_argument(
        "--format",
        choices=("auto",) + PERF_FORMATS,
        default="auto",
        help="capture format (auto-detected from the first parseable line)",
    )
    ingest.add_argument("--arch", default="x86", help="catalog to map events onto")
    ingest.add_argument(
        "--on-unknown",
        dest="on_unknown",
        choices=UNKNOWN_POLICIES,
        default="raise",
        help="what to do with perf events the catalog cannot resolve",
    )
    ingest.add_argument(
        "--limit", type=int, default=5, help="scheduling quanta to preview"
    )
    ingest.add_argument(
        "--convert",
        default=None,
        metavar="OUT",
        help="also write the capture as a replayable repro tracefile",
    )

    args = parser.parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "record":
        return _run_record(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "ingest":
        return _run_ingest(args)
    return _run_replay(args)


if __name__ == "__main__":
    sys.exit(main())
