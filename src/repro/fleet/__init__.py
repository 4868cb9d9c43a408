"""Fleet telemetry service: many concurrent BayesPerf corrections.

The paper corrects one host's multiplexed counters; production profile
collection aggregates counters from whole fleets.  This subsystem scales the
reproduction accordingly:

* :mod:`repro.fleet.ingest` — per-host record streams feeding bounded ring
  buffers with explicit backpressure accounting;
* :mod:`repro.fleet.workers` — hosts sharded across inference workers that
  batch per-slice EP solves and share one engine + cached catalog/schedule
  per (arch, event-set) key;
* :mod:`repro.fleet.tracefile` — a versioned JSONL record/replay format, so
  externally captured or previously recorded runs become replayable
  workloads;
* :mod:`repro.fleet.events` — the run's one event stream (fleet events and
  finished spans) with push-based processors and pull-based iteration;
* :mod:`repro.fleet.faults` — worker retry/timeout/backoff/quarantine
  policies (:class:`FaultPolicySpec`);
* :mod:`repro.fleet.wal` — write-ahead-log recovery: load a crashed run's
  checkpoint state and roll back its uncommitted suffix;
* :mod:`repro.fleet.chaos` — the deterministic fault-injection harness
  (:class:`FaultInjector`) the fault-tolerance tests run on.

:meth:`repro.api.Pipeline.from_spec` assembles these parts into a run from
a :class:`~repro.api.RunSpec`; a finished run's summary is a
:class:`FleetResult`.

Run the synthetic demo, replay a trace, or resume a crashed checkpointed
run from the command line with ``python -m repro.fleet``.
"""

from repro.fleet.chaos import Fault, FaultInjector, InjectedCrash, InjectedFault
from repro.fleet.events import (
    BackpressureDetected,
    CheckpointWritten,
    EstimateReady,
    EventDispatcher,
    EventLog,
    EventProcessor,
    FleetEvent,
    HostQuarantined,
    MalformedRecordSkipped,
    MetricsProcessor,
    SessionCompleted,
    SessionStarted,
    SliceAttemptFailed,
    SliceCompleted,
    SliceRetried,
    SliceSkipped,
)
from repro.fleet.faults import FaultPolicySpec, SliceFailed, SliceTimeout
from repro.fleet.ingest import FleetIngest, HostChannel, ReplayHostSource, SyntheticHostSource
from repro.fleet.tracefile import (
    TraceFile,
    TraceFormatError,
    TraceWorkload,
    TraceWriter,
    chain_trace_file,
    read_trace,
    record_session_trace,
    register_trace_workload,
    write_trace,
)
from repro.fleet.wal import WalState, load_wal, truncate_to_commit
from repro.fleet.workers import EngineCache, FleetResult, InferenceWorker, WorkerPool

__all__ = [
    "BackpressureDetected",
    "CheckpointWritten",
    "EstimateReady",
    "EventDispatcher",
    "EventLog",
    "EventProcessor",
    "FleetEvent",
    "HostQuarantined",
    "MalformedRecordSkipped",
    "MetricsProcessor",
    "SessionCompleted",
    "SessionStarted",
    "SliceAttemptFailed",
    "SliceCompleted",
    "SliceRetried",
    "SliceSkipped",
    "Fault",
    "FaultInjector",
    "FaultPolicySpec",
    "InjectedCrash",
    "InjectedFault",
    "SliceFailed",
    "SliceTimeout",
    "FleetIngest",
    "HostChannel",
    "ReplayHostSource",
    "SyntheticHostSource",
    "FleetResult",
    "TraceFile",
    "TraceFormatError",
    "TraceWorkload",
    "TraceWriter",
    "chain_trace_file",
    "read_trace",
    "record_session_trace",
    "register_trace_workload",
    "write_trace",
    "WalState",
    "load_wal",
    "truncate_to_commit",
    "EngineCache",
    "InferenceWorker",
    "WorkerPool",
]
