"""Versioned JSONL trace files: record once, replay anywhere.

The format follows the ``perf script`` philosophy — a self-describing line
stream that external tooling can grep, filter and post-process — while
staying replayable: a recorded sampled trace fed back through a fresh engine
reproduces the original estimates exactly (analytic moments are
deterministic).

Layout (one JSON object per line):

* line 1 — header: ``{"format": "bayesperf-trace", "version": 1, "arch": ...,
  "events": [...], "workload": ..., "seed": ..., ...}``
* ``{"type": "sample", "tick": t, "config": [...], "samples": {event: [...]}}``
  — one multiplexed scheduler quantum (the engine's input).
* ``{"type": "poll", "tick": t, "values": {...}}`` — one polled reference
  reading (optional; lets a replay re-score errors).
* ``{"type": "estimate", "tick": t, "values": {...}, "sigma": {...}}`` — one
  tick of a correction method's output (optional; lets a replay verify
  round-trip fidelity without re-running inference).
* ``{"type": "chain", "seq": i, "slice": s, ...}`` — one per-site tilted-MCMC
  chain run captured by a :class:`~repro.fg.mcmc.ChainTrace` recorder
  (format version 2; the accelerator co-simulation's input).

Version history: version 1 files carry sample/poll/estimate records only;
version 2 adds ``chain`` records (optionally carrying a per-window burn-in
acceptance trajectory under ``"windows"``); version 3 adds *host-keyed*
``estimate`` records (``{"type": "estimate", "host": "h12", ...}``) so one
fleet trace can carry the complete per-slice run log for every host next to
the chain records it replays from; version 4 promotes the stream to a
write-ahead log with four durability record kinds —
``{"type": "checkpoint", "host": ..., "round": r, "state": {...}}`` (one
host's engine snapshot plus ingest progress), ``{"type": "commit",
"round": r}`` (fsynced after a full round of checkpoints: the atomic
recovery point), ``{"type": "resume", "round": r}`` (a resumed run took
over here) and ``{"type": "aborted", "error": ...}`` (the writer was
closed by a propagating exception — a *dirty* shutdown, distinguishable
from both a clean close and a hard kill).  Writers stamp the lowest
version that covers the records present, and the reader accepts all four.

Crash tolerance: a process killed mid-write leaves a torn final line; the
reader truncates it (``TraceFile.torn_tail``) instead of raising, and
``strict=False`` extends the same tolerance to malformed lines anywhere in
the stream (``TraceFile.malformed_lines``) — the ingestion-hardening
posture for replaying traces of unknown provenance.

Two writers exist: :func:`write_trace` serialises a materialised
:class:`TraceFile` in one pass, and :class:`TraceWriter` streams — the
header first, then ``chain`` records appended as each inference round
completes, which is how ``Pipeline.stream()`` keeps the chain recorder's
memory bounded.

Recorded traces can be registered as replayable workloads
(:func:`register_trace_workload`), after which any fleet host can be backed
by the file instead of the simulator.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fg.mcmc import ChainSiteVisit, ChainTrace
from repro.pmu.configuration import CounterConfiguration
from repro.pmu.sampling import PolledTrace, SampledTrace, SamplingRecord
from repro.pmu.traces import EstimateTrace
from repro.workloads.registry import register_workload

FORMAT_NAME = "bayesperf-trace"
FORMAT_VERSION = 4
#: Versions this reader understands (1 = pre-chain-record files, 2 =
#: pre-host-keyed-estimate files, 3 = pre-write-ahead-log files).
READABLE_VERSIONS = (1, 2, 3, 4)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or has an unsupported version."""


@dataclass
class TraceFile:
    """In-memory form of one trace file."""

    arch: str
    events: tuple
    workload: str = ""
    seed: int = 0
    samples_per_tick: int = 0
    metadata: Dict = field(default_factory=dict)
    sampled: Optional[SampledTrace] = None
    polled: Optional[PolledTrace] = None
    estimates: Optional[EstimateTrace] = None
    #: Per-site MCMC chain records (version 2), if the trace carries any.
    chain: Optional[ChainTrace] = None
    #: Host-keyed per-slice estimate logs (version 3) — the fleet run log.
    host_estimates: Dict[str, EstimateTrace] = field(default_factory=dict)
    #: Write-ahead-log bookkeeping (version 4): per-host checkpoint records
    #: seen, the last *committed* checkpoint round (``None`` when no full
    #: round of checkpoints was followed by a commit), and resume markers.
    checkpoints: int = 0
    last_commit_round: Optional[int] = None
    resumes: int = 0
    #: Error string from an ``aborted`` marker — the writer was closed by a
    #: propagating exception (dirty shutdown).  ``None`` means either a
    #: clean close or a hard kill (no marker could be written).
    aborted: Optional[str] = None
    #: The final line was torn (a partial write from a killed process) and
    #: was truncated by the reader instead of parsed.
    torn_tail: bool = False
    #: 1-based line numbers skipped as malformed (``strict=False`` reads).
    malformed_lines: Tuple[int, ...] = ()

    @property
    def n_ticks(self) -> int:
        """Number of recorded sampled quanta (0 when the trace is output-only)."""
        return len(self.sampled.records) if self.sampled is not None else 0


@dataclass
class TraceWorkload:
    """A recorded trace registered as a replayable workload.

    Quacks enough like a :class:`~repro.uarch.profile.WorkloadSpec` for
    registry listings (``name``, ``total_ticks``) but is replayed by the
    fleet ingestion layer rather than simulated by the machine model.
    """

    name: str
    trace: TraceFile

    @property
    def total_ticks(self) -> int:
        return self.trace.n_ticks


# -- writing ----------------------------------------------------------------


def _trace_version(trace: TraceFile) -> int:
    """Lowest format version covering the record kinds *trace* carries.

    Chain-free, host-free traces keep stamping version 1 so previously
    recorded files and freshly written ones stay byte-comparable.
    """
    if trace.host_estimates:
        return 3
    if trace.chain is not None:
        return 2
    return 1


def _header(trace: TraceFile) -> Dict:
    header = {
        "format": FORMAT_NAME,
        "version": _trace_version(trace),
        "arch": trace.arch,
        "events": list(trace.events),
        "workload": trace.workload,
        "seed": trace.seed,
        "samples_per_tick": trace.samples_per_tick,
        "metadata": trace.metadata,
    }
    if trace.chain is not None and trace.chain.params:
        header["chain_params"] = dict(trace.chain.params)
    return header


def sample_line(record: SamplingRecord) -> Dict:
    """The JSON shape of one sampled quantum (shared with WAL checkpoints,
    which serialise a channel's buffered records in exactly this form)."""
    line = {
        "type": "sample",
        "tick": record.tick,
        "config": list(record.configuration.events),
        "samples": {
            event: [float(v) for v in samples]
            for event, samples in record.samples.items()
        },
    }
    if record.mux_fraction:
        # Real-trace multiplexing fractions; omitted when absent so files
        # written from synthetic streams stay byte-stable.
        line["mux"] = {
            event: float(fraction)
            for event, fraction in record.mux_fraction.items()
        }
    return line


def parse_sample(payload: Dict) -> SamplingRecord:
    """Inverse of :func:`sample_line`.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; a non-finite
    sub-sample raises :class:`TraceFormatError` rather than reach the
    engine, where it would turn the slice's whole posterior into NaN.
    """
    record = SamplingRecord(
        tick=int(payload["tick"]),
        configuration=CounterConfiguration(events=tuple(payload["config"])),
    )
    samples = payload["samples"]
    try:
        # Uniform sub-sample counts (the normal shape): one (E, n) array and
        # one finiteness check. Converting and checking event by event
        # doubles this step's cost and makes whole-trace reads ~40% slower.
        rows = np.array(list(samples.values()), dtype=float)
        finite = np.isfinite(rows).all()
    except ValueError:  # ragged counts
        rows = [np.asarray(values, dtype=float) for values in samples.values()]
        finite = all(np.isfinite(row).all() for row in rows)
    if not finite:
        event = next(e for e, row in zip(samples, rows) if not np.isfinite(row).all())
        raise TraceFormatError(
            f"sample at tick {record.tick} has non-finite sub-samples for {event!r}"
        )
    record.samples.update(zip(samples, rows))
    for event, fraction in (payload.get("mux") or {}).items():
        record.mux_fraction[event] = float(fraction)
    return record


def _chain_line(visit: ChainSiteVisit) -> Dict:
    line = {
        "type": "chain",
        "seq": int(visit.sequence),
        "slice": int(visit.slice_id),
        "tick": int(visit.tick),
        "iter": int(visit.iteration),
        "site": visit.site,
        "site_index": int(visit.site_index),
        "width": int(visit.width),
        "factors": int(visit.n_factors),
        "steps": int(visit.n_steps),
        "burn_in": int(visit.burn_in),
        "accepted": int(visit.accepted),
        "scale": float(visit.step_scale),
    }
    if visit.windows:
        # Per-window burn-in acceptance trajectory (adaptation pricing);
        # omitted when the chain ran unadapted, keeping old files byte-stable.
        line["windows"] = [int(w) for w in visit.windows]
    return line


def write_trace(path: Union[str, Path], trace: TraceFile) -> Path:
    """Serialise *trace* to JSONL at *path* (parent directories must exist)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as stream:
        stream.write(json.dumps(_header(trace)) + "\n")
        if trace.sampled is not None:
            for record in trace.sampled.records:
                stream.write(json.dumps(sample_line(record)) + "\n")
        if trace.polled is not None:
            for tick, values in enumerate(trace.polled.values):
                stream.write(
                    json.dumps({"type": "poll", "tick": tick, "values": values}) + "\n"
                )
        if trace.estimates is not None:
            for record in trace.estimates.to_records():
                line = {"type": "estimate", "method": trace.estimates.method, **record}
                stream.write(json.dumps(line) + "\n")
        if trace.chain is not None:
            for visit in trace.chain.visits:
                stream.write(json.dumps(_chain_line(visit)) + "\n")
        for host_id in sorted(trace.host_estimates):
            host_trace = trace.host_estimates[host_id]
            for record in host_trace.to_records():
                line = {
                    "type": "estimate",
                    "host": host_id,
                    "method": host_trace.method,
                    **record,
                }
                stream.write(json.dumps(line) + "\n")
    return path


class TraceWriter:
    """Incremental JSONL trace writer (the streaming side of the format).

    The batch API (:func:`write_trace`) serialises a fully materialised
    :class:`TraceFile`; this writer instead opens the file up front, writes
    the header, and appends ``chain`` records as the run produces them — so
    a producer can flush its :class:`~repro.fg.mcmc.ChainTrace` recorder
    after every inference round (``recorder.drain()``) and never hold more
    than one round's visits in memory.  :meth:`repro.api.Pipeline.stream`
    is the canonical caller; the resulting file reads back with
    :func:`read_trace` exactly like a batch-written one.

    ``wal=True`` turns the stream into a write-ahead log (format version
    4): :meth:`write_checkpoint` appends per-host engine snapshots,
    :meth:`commit_checkpoint` seals a round of them with an fsynced commit
    marker (the atomic recovery point — everything after the last commit is
    re-executed on resume), and ``mode="a"`` reopens an existing log to
    continue it (:meth:`write_resume` stamps the takeover).  The writer is
    crash-safe on exception paths: leaving the ``with`` block with an
    exception propagating appends an ``aborted`` marker and flushes/fsyncs
    it best-effort, so readers can tell a dirty shutdown from a clean one.
    ``stream_wrapper`` (chaos injection) wraps the underlying file object
    before anything is written.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        arch: str = "",
        events: Sequence[str] = (),
        workload: str = "",
        seed: int = 0,
        samples_per_tick: int = 0,
        metadata: Optional[Dict] = None,
        chain_params: Optional[Dict] = None,
        estimates: bool = False,
        wal: bool = False,
        mode: str = "w",
        stream_wrapper: Optional[Callable] = None,
    ) -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', not {mode!r}")
        self.path = Path(path)
        self.wal = wal
        header = {
            "format": FORMAT_NAME,
            # Streamed traces exist to carry chain records, so the header
            # stamps at least version 2 up front (readers accept chain-free
            # v2 files); opting into host-keyed estimate records bumps to 3
            # and write-ahead logging to 4.
            "version": FORMAT_VERSION if wal else (3 if estimates else 2),
            "arch": arch,
            "events": list(events),
            "workload": workload,
            "seed": seed,
            "samples_per_tick": samples_per_tick,
            "metadata": dict(metadata or {}),
        }
        if chain_params:
            header["chain_params"] = dict(chain_params)
        self._stream = self.path.open(mode, encoding="utf-8")
        if stream_wrapper is not None:
            self._stream = stream_wrapper(self._stream)
        self._closed = False
        #: Chain records appended so far.
        self.chain_records = 0
        #: Host-keyed estimate records appended so far.
        self.estimate_records = 0
        #: Checkpoint commits appended so far.
        self.commits = 0
        if mode == "w":
            self._stream.write(json.dumps(header) + "\n")

    def write_visits(self, visits: Sequence[ChainSiteVisit]) -> int:
        """Append chain records for *visits*; returns how many were written."""
        if self._closed:
            raise ValueError("trace writer is closed")
        for visit in visits:
            self._stream.write(json.dumps(_chain_line(visit)) + "\n")
        self.chain_records += len(visits)
        return len(visits)

    def write_estimate(
        self,
        host: str,
        tick: int,
        values: Dict[str, float],
        sigma: Optional[Dict[str, float]] = None,
        *,
        method: str = "bayesperf",
    ) -> str:
        """Append one host's per-slice estimate record (format version 3).

        Returns the serialized line (newline included), so a caller logging
        the same slice to a second writer hands it to
        :meth:`write_estimate_line` instead of serializing it again.
        """
        if self._closed:
            raise ValueError("trace writer is closed")
        line: Dict = {
            "type": "estimate",
            "host": str(host),
            "method": method,
            "tick": int(tick),
            "values": {name: float(v) for name, v in values.items()},
        }
        if sigma:
            line["sigma"] = {name: float(v) for name, v in sigma.items()}
        text = json.dumps(line) + "\n"
        self.write_estimate_line(text)
        return text

    def write_estimate_line(self, text: str) -> None:
        """Append an estimate line already serialized by :meth:`write_estimate`."""
        if self._closed:
            raise ValueError("trace writer is closed")
        self._stream.write(text)
        self.estimate_records += 1

    # -- write-ahead-log records (format version 4) -------------------------

    def write_checkpoint(
        self,
        host: str,
        state: Optional[Dict],
        round_idx: int,
        *,
        progress: Optional[Dict] = None,
    ) -> None:
        """Append one host's engine-snapshot checkpoint for *round_idx*.

        *state* is the JSON form of an
        :class:`~repro.core.engine.EngineState` (see
        :func:`repro.fleet.wal.engine_state_to_json`; ``None`` for a host
        that has not solved a slice yet) and *progress* carries the host's
        ingest/inference position (records pulled, slices solved, buffered
        records, quarantine flags).  A round's checkpoints are not a valid
        recovery point until :meth:`commit_checkpoint` seals them.
        """
        if self._closed:
            raise ValueError("trace writer is closed")
        line: Dict = {
            "type": "checkpoint",
            "host": str(host),
            "round": int(round_idx),
            "state": state,
        }
        if progress:
            line["progress"] = progress
        self._stream.write(json.dumps(line) + "\n")

    def commit_checkpoint(self, round_idx: int, *, fsync: bool = True) -> None:
        """Seal the round's checkpoints: write the commit marker durably.

        The marker only hits the line after every per-host checkpoint of
        the round, and the stream is flushed (and fsynced by default)
        before this returns — so a commit record present in the file
        guarantees the full checkpoint set before it is present too.
        """
        if self._closed:
            raise ValueError("trace writer is closed")
        self._stream.write(json.dumps({"type": "commit", "round": int(round_idx)}) + "\n")
        self._stream.flush()
        if fsync:
            os.fsync(self._stream.fileno())
        self.commits += 1

    def write_resume(self, round_idx: int) -> None:
        """Stamp that a resumed run took over after committed *round_idx*."""
        if self._closed:
            raise ValueError("trace writer is closed")
        self._stream.write(json.dumps({"type": "resume", "round": int(round_idx)}) + "\n")
        self._stream.flush()

    # -- lifecycle -----------------------------------------------------------

    def _flush_best_effort(self, fsync: bool) -> None:
        try:
            self._stream.flush()
            if fsync:
                os.fsync(self._stream.fileno())
        except (OSError, ValueError):
            # A crashed/injected stream must not mask the original error.
            pass

    def close(self) -> None:
        """Flush, fsync and close (idempotent, safe on broken streams)."""
        if not self._closed:
            self._closed = True
            self._flush_best_effort(fsync=True)
            try:
                self._stream.close()
            except (OSError, ValueError):
                pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self._closed:
            # Dirty shutdown: mark the tail so readers can distinguish an
            # aborted run from a cleanly closed (or hard-killed) one.  All
            # best-effort — the stream itself may be the thing that failed.
            try:
                self._stream.write(
                    json.dumps({"type": "aborted", "error": f"{exc_type.__name__}: {exc}"})
                    + "\n"
                )
            except Exception:
                pass
            self._flush_best_effort(fsync=True)
        self.close()


# -- reading ----------------------------------------------------------------


def _parse_header(line: str) -> Dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"trace header is not valid JSON: {error}") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"not a {FORMAT_NAME} file (bad header line)")
    version = header.get("version")
    if version not in READABLE_VERSIONS:
        raise TraceFormatError(
            f"unsupported trace version {version!r} (this reader understands "
            f"versions {READABLE_VERSIONS})"
        )
    return header


def _host_estimate_trace(method: str, records: List[Dict]) -> EstimateTrace:
    """Build one host's estimate log, tolerating gaps and re-emissions.

    Unlike :meth:`EstimateTrace.from_records` (which rejects non-consecutive
    ticks), a fleet run log legitimately has holes: a skipped slice under an
    ``on_exhausted="skip"`` policy, or a backpressure-dropped record, leaves
    no estimate for its tick.  Holes become empty dicts (NaN in the series
    views) so the trace stays index-addressed; a duplicated tick (a resumed
    run re-emitting a slice the crashed run already logged) keeps the last
    occurrence.
    """
    trace = EstimateTrace(method=method)
    ordered = sorted(enumerate(records), key=lambda pair: (pair[1]["tick"], pair[0]))
    base = ordered[0][1]["tick"]
    for _, record in ordered:
        index = record["tick"] - base
        while len(trace.estimates) < index:
            trace.append({})
        if len(trace.estimates) == index:
            trace.append(record["values"], record.get("sigma"))
        else:  # duplicate tick: last occurrence wins
            trace.estimates[index] = {k: float(v) for k, v in record["values"].items()}
            sigma = record.get("sigma")
            trace.uncertainties[index] = (
                {k: float(v) for k, v in sigma.items()} if sigma else {}
            )
    return trace


def read_trace(path: Union[str, Path], *, strict: bool = True) -> TraceFile:
    """Parse a JSONL trace file back into a :class:`TraceFile`.

    A torn final line — the signature of a process killed mid-write — is
    always truncated rather than raised on (``TraceFile.torn_tail`` marks
    it): the write-ahead-log recovery path depends on a killed run's file
    still being readable.  With ``strict=False`` the same tolerance covers
    malformed or unknown-type lines *anywhere* in the stream; each skipped
    line's number lands in ``TraceFile.malformed_lines`` so replay layers
    can account for every record they dropped.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as stream:
        lines = stream.readlines()
    if not lines or not lines[0].strip():
        raise TraceFormatError(f"{path} is empty")
    header = _parse_header(lines[0])
    trace = TraceFile(
        arch=header.get("arch", ""),
        events=tuple(header.get("events", ())),
        workload=header.get("workload", ""),
        seed=int(header.get("seed", 0)),
        samples_per_tick=int(header.get("samples_per_tick", 0)),
        metadata=dict(header.get("metadata", {})),
    )
    samples: List[SamplingRecord] = []
    polled_lines: List[Dict] = []
    estimate_lines: List[Dict] = []
    chain_lines: List[Dict] = []
    host_estimate_lines: Dict[str, List[Dict]] = {}
    estimate_method = "replay"
    malformed: List[int] = []
    checkpoints_seen = 0
    last_lineno = len(lines)

    def _skip(lineno: int, detail: str) -> None:
        if lineno == last_lineno:
            # The torn tail: a partial final line is truncated, not fatal —
            # even strict readers must survive a killed writer.
            trace.torn_tail = True
            malformed.append(lineno)
        elif strict:
            raise TraceFormatError(f"{path}:{lineno}: {detail}")
        else:
            malformed.append(lineno)

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            _skip(lineno, f"invalid JSON: {error}")
            continue
        kind = payload.get("type") if isinstance(payload, dict) else None
        if kind == "sample":
            try:
                samples.append(parse_sample(payload))
            except TraceFormatError as error:
                _skip(lineno, str(error))
        elif kind == "poll":
            polled_lines.append(payload)
        elif kind == "estimate":
            if "host" in payload:
                # Version 3: the fleet run log, keyed by host.
                host_estimate_lines.setdefault(str(payload["host"]), []).append(payload)
            else:
                estimate_method = payload.get("method", estimate_method)
                estimate_lines.append(payload)
        elif kind == "chain":
            chain_lines.append(payload)
        elif kind == "checkpoint":
            checkpoints_seen += 1
        elif kind == "commit":
            trace.last_commit_round = int(payload.get("round", -1))
        elif kind == "resume":
            trace.resumes += 1
        elif kind == "aborted":
            trace.aborted = str(payload.get("error", ""))
        else:
            _skip(lineno, f"unknown record type {kind!r}")
    trace.checkpoints = checkpoints_seen
    trace.malformed_lines = tuple(malformed)

    if samples:
        samples.sort(key=lambda record: record.tick)
        sampled = SampledTrace(catalog_name=trace.arch, events=trace.events)
        for record in samples:
            sampled.records.append(record)
            for event in record.samples:
                sampled.enabled_ticks[event] = sampled.enabled_ticks.get(event, 0) + 1
        trace.sampled = sampled
    if polled_lines:
        polled_lines.sort(key=lambda payload: payload["tick"])
        events = tuple(polled_lines[0]["values"]) if polled_lines else ()
        polled = PolledTrace(catalog_name=trace.arch, events=events)
        polled.values.extend(
            {name: float(value) for name, value in payload["values"].items()}
            for payload in polled_lines
        )
        trace.polled = polled
    if estimate_lines:
        trace.estimates = EstimateTrace.from_records(estimate_method, estimate_lines)
    for host_id in sorted(host_estimate_lines):
        payloads = host_estimate_lines[host_id]
        method = payloads[0].get("method", "replay")
        trace.host_estimates[host_id] = _host_estimate_trace(method, payloads)
    if chain_lines:
        chain_lines.sort(key=lambda payload: payload["seq"])
        # Resume the slice counter past the replayed ids so the trace can
        # be handed straight back to a sampler as its recorder without new
        # recordings colliding with replayed slices.
        chain = ChainTrace(
            params=dict(header.get("chain_params", {})),
            _next_slice=1 + max(int(payload["slice"]) for payload in chain_lines),
            _next_sequence=1 + max(int(payload["seq"]) for payload in chain_lines),
        )
        for payload in chain_lines:
            chain.visits.append(
                ChainSiteVisit(
                    sequence=int(payload["seq"]),
                    slice_id=int(payload["slice"]),
                    tick=int(payload["tick"]),
                    iteration=int(payload["iter"]),
                    site=str(payload["site"]),
                    site_index=int(payload["site_index"]),
                    width=int(payload["width"]),
                    n_factors=int(payload["factors"]),
                    n_steps=int(payload["steps"]),
                    burn_in=int(payload["burn_in"]),
                    accepted=int(payload["accepted"]),
                    step_scale=float(payload["scale"]),
                    windows=tuple(int(w) for w in payload.get("windows", ())),
                )
            )
        chain.peak_buffered = len(chain.visits)
        trace.chain = chain
    return trace


# -- recording helpers ------------------------------------------------------


def chain_trace_file(
    chain: ChainTrace,
    *,
    arch: str = "",
    events: Sequence[str] = (),
    workload: str = "",
    seed: int = 0,
    metadata: Optional[Dict] = None,
) -> TraceFile:
    """Wrap a recorded :class:`~repro.fg.mcmc.ChainTrace` for serialisation.

    The returned :class:`TraceFile` carries only chain records (a version-2
    file); ``write_trace``/``read_trace`` round-trip it losslessly, which is
    what lets the accelerator co-simulation reproduce its estimates exactly
    from a replayed file.
    """
    return TraceFile(
        arch=arch,
        events=tuple(events),
        workload=workload,
        seed=seed,
        metadata=dict(metadata or {}),
        chain=chain,
    )


def record_session_trace(
    path: Union[str, Path],
    workload: str = "steady",
    *,
    arch: str = "x86",
    events: Optional[Sequence[str]] = None,
    metrics: Optional[Sequence[str]] = None,
    n_ticks: Optional[int] = None,
    seed: int = 0,
    include_polled: bool = True,
    include_estimates: bool = True,
    method: str = "bayesperf",
) -> TraceFile:
    """Run one :class:`~repro.core.session.PerfSession` and record it.

    The sampled quanta (and optionally the polled reference and the method's
    estimates) are written to *path*; the returned :class:`TraceFile` is the
    in-memory equivalent.
    """
    from repro.core.session import PerfSession  # local import: avoids a cycle

    session = PerfSession(arch, method=method, events=events, metrics=metrics)
    result = session.run(workload, n_ticks=n_ticks, seed=seed)
    # The header records the *registered* event set (what the monitoring
    # application asked for): replaying must rebuild the engine over exactly
    # this set, in this order, to reproduce the recorded estimates.
    trace = TraceFile(
        arch=arch,
        events=tuple(session.events),
        workload=result.workload,
        seed=seed,
        samples_per_tick=session.samples_per_tick,
        metadata={"method": method, "schedule": result.schedule.name},
        sampled=result.sampled,
        polled=result.polled if include_polled else None,
        estimates=result.estimates if include_estimates else None,
    )
    write_trace(path, trace)
    return trace


def register_trace_workload(
    name: str, path: Union[str, Path], *, overwrite: bool = False
) -> None:
    """Register the trace at *path* as a replayable workload named *name*.

    The file is re-read on every lookup so a re-recorded trace is picked up
    without re-registering.
    """
    path = Path(path)
    read_trace(path)  # validate eagerly so registration fails fast
    register_workload(name, lambda: TraceWorkload(name=name, trace=read_trace(path)), overwrite=overwrite)
