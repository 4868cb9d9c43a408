"""Write-ahead-log recovery: turn a crashed run's tracefile back into state.

A fleet run with checkpointing enabled streams three durable record kinds
into its tracefile (format version 4, :mod:`repro.fleet.tracefile`): every
completed slice's ``estimate`` record, one ``checkpoint`` record per host
per cadence round (the host's engine snapshot plus its ingest position),
and an fsynced ``commit`` marker sealing each full round of checkpoints.
The commit marker is the atomic recovery point — "if a step can be skipped
on resume, its outputs must be durable" holds at the slice boundary: every
slice at or before the last commit has its estimate on disk, and everything
after it is simply re-executed (sources, backoff jitter and engine RNG are
all deterministic, so the re-execution is bit-identical to what the crashed
run would have produced).

:func:`load_wal` scans the file once, tracking byte offsets, and returns
the last *committed* recovery point: the per-host checkpoint payloads, the
estimate records written up to the commit, and the byte offset to truncate
to.  :func:`truncate_to_commit` performs the standard WAL rollback — the
uncommitted suffix (torn tail included) is cut off, and the resumed writer
appends from the recovery point.

The per-host restore helpers (:func:`checkpoint_host` / :func:`restore_host`)
are the bridge between this module and the worker pool's
:class:`~repro.fleet.workers.HostRun` state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.engine import EngineState
from repro.fleet.tracefile import (
    FORMAT_NAME,
    TraceFormatError,
    parse_sample,
    sample_line,
)
from repro.fleet.workers import HostRun

__all__ = [
    "WalState",
    "checkpoint_host",
    "engine_state_from_json",
    "engine_state_to_json",
    "load_wal",
    "restore_host",
    "truncate_to_commit",
]


def engine_state_to_json(state: Optional[EngineState]) -> Optional[Dict]:
    """JSON form of an engine snapshot (``None`` for a host yet to solve).

    The state's event-order rows are written as event-keyed objects, with
    ``null`` for an unknown prior mean.  The RNG state (a NumPy
    bit-generator state dict of ints/strings) is JSON round-trip exact, so
    a restored engine continues the identical stream.
    """
    if state is None:
        return None
    events = state.events
    return {
        "prior_mean": {
            event: (None if math.isnan(value) else value)
            for event, value in zip(events, state.prior_mean.tolist())
        },
        "scale": dict(zip(events, state.scale.tolist())),
        "tick": int(state.tick),
        "rng_state": state.rng_state,
    }


def engine_state_from_json(payload: Optional[Dict]) -> Optional[EngineState]:
    """Inverse of :func:`engine_state_to_json`.

    Builds the named form :meth:`~repro.core.engine.BayesPerfEngine.restore`
    scatters: the events of both objects, a NaN prior mean for ``null`` (or
    a missing key) and a unit scale for a missing key — the fresh-run
    defaults.
    """
    if payload is None:
        return None
    prior_mean = payload.get("prior_mean", {})
    scale = payload.get("scale", {})
    events = tuple(dict.fromkeys([*prior_mean, *scale]))
    return EngineState(
        events=events,
        # ``None`` (JSON null or a missing key) converts to NaN.
        prior_mean=np.array([prior_mean.get(event) for event in events], dtype=float),
        scale=np.array([scale.get(event, 1.0) for event in events], dtype=float),
        tick=int(payload.get("tick", 0)),
        rng_state=payload.get("rng_state"),
    )


def checkpoint_host(run: HostRun) -> Tuple[Optional[Dict], Dict]:
    """One host's WAL checkpoint: (engine-state JSON, ingest progress).

    The progress payload captures everything the estimate stream does not:
    the source position (records pulled), the serialized ring-buffer
    contents, backpressure/exhaustion counters and the policy dispositions
    (skips, quarantine) — together with the engine snapshot this makes the
    host's resumed state exact even mid-backpressure.
    """
    channel = run.channel
    progress = {
        "slices": run.slices,
        "skipped": run.skipped,
        "completed": run.completed,
        "quarantined": run.quarantined,
        "pulled": channel.pulled,
        "dropped": channel.buffer.dropped,
        "exhausted": channel.exhausted,
        "buffered": [sample_line(record) for record in channel.buffer.snapshot()],
    }
    if hasattr(channel.source, "byte_offset"):
        # Real-trace hosts: pin the ingest position as a file offset into
        # the capture too (informational — restore fast-forwards by pulled
        # count, which is exact for any deterministic source).
        progress["file_offset"] = channel.source.byte_offset(channel.pulled)
    return engine_state_to_json(run.engine_state), progress


def restore_host(
    run: HostRun,
    state_payload: Optional[Dict],
    progress: Dict,
    estimates: List[Dict],
) -> None:
    """Re-materialise one host's run state from its committed checkpoint.

    *estimates* is the host's committed estimate payloads in write order —
    they refill :attr:`HostRun.estimates` so the final trace is the
    uninterrupted run's, not just the post-resume suffix.
    """
    run.engine_state = engine_state_from_json(state_payload)
    run.slices = int(progress.get("slices", 0))
    run.skipped = int(progress.get("skipped", 0))
    run.completed = bool(progress.get("completed", False))
    run.quarantined = bool(progress.get("quarantined", False))
    run.channel.restore(
        pulled=int(progress.get("pulled", 0)),
        buffered=[parse_sample(payload) for payload in progress.get("buffered", ())],
        dropped=int(progress.get("dropped", 0)),
        exhausted=bool(progress.get("exhausted", False)),
        quarantined=run.quarantined,
    )
    for payload in estimates:
        run.estimates.append(payload["values"], payload.get("sigma"))


@dataclass
class WalState:
    """The last committed recovery point of one write-ahead log."""

    path: Path
    header: Dict
    #: Round index of the last commit marker (``None`` = nothing committed:
    #: the run must restart from scratch).
    last_commit_round: Optional[int]
    #: Byte offset just past the last commit line — everything after it is
    #: uncommitted and rolled back by :func:`truncate_to_commit`.
    commit_offset: int
    #: Per-host checkpoint payloads of the last committed round:
    #: ``host -> {"state": ..., "progress": ...}``.
    checkpoints: Dict[str, Dict] = field(default_factory=dict)
    #: Committed estimate payloads per host, in write order.
    host_estimates: Dict[str, List[Dict]] = field(default_factory=dict)
    #: Every committed estimate payload, all hosts, in write order.
    estimates: List[Dict] = field(default_factory=list)
    resumes: int = 0
    aborted: Optional[str] = None
    torn_tail: bool = False

    @property
    def run_spec(self) -> Optional[Dict]:
        """The serialized :class:`~repro.api.RunSpec` stamped at write time."""
        return self.header.get("metadata", {}).get("run_spec")


def load_wal(path: Union[str, Path]) -> WalState:
    """Scan a WAL tracefile and return its last committed recovery point.

    The scan is byte-offset exact (the file is read in binary) and crash
    tolerant: a torn final line is noted, not fatal, and any malformed line
    is skipped — a recovery reader must survive whatever a killed writer
    left behind.  Only state sealed by a commit marker is returned; records
    after the last commit are ignored (they will be re-executed).
    """
    path = Path(path)
    raw = path.read_bytes()
    lines: List[Tuple[int, bytes]] = []  # (end_offset, line_bytes)
    offset = 0
    for line in raw.splitlines(keepends=True):
        offset += len(line)
        lines.append((offset, line))
    if not lines:
        raise TraceFormatError(f"{path} is empty")

    def _parse(line: bytes) -> Optional[Dict]:
        try:
            payload = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    header = _parse(lines[0][1])
    if header is None or header.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != 4:
        raise TraceFormatError(
            f"{path}: version {header.get('version')!r} is not a write-ahead "
            f"log (checkpoint records need version 4)"
        )

    state = WalState(
        path=path,
        header=header,
        last_commit_round=None,
        commit_offset=lines[0][0],
    )
    #: Checkpoints seen since the last commit, keyed (round, host).
    pending: Dict[int, Dict[str, Dict]] = {}
    #: Estimate stream in write order; committed prefix length is
    #: snapshotted at each commit.
    estimates: List[Dict] = []
    committed_estimates = 0
    last_index = len(lines) - 1
    for index, (end_offset, line) in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        payload = _parse(line)
        if payload is None:
            if index == last_index:
                state.torn_tail = True
            continue
        kind = payload.get("type")
        if kind == "checkpoint":
            pending.setdefault(int(payload.get("round", -1)), {})[
                str(payload.get("host", ""))
            ] = payload
        elif kind == "commit":
            round_idx = int(payload.get("round", -1))
            state.last_commit_round = round_idx
            state.commit_offset = end_offset
            state.checkpoints = dict(pending.get(round_idx, {}))
            committed_estimates = len(estimates)
            pending.clear()
        elif kind == "estimate" and "host" in payload:
            estimates.append(payload)
        elif kind == "resume":
            state.resumes += 1
        elif kind == "aborted":
            state.aborted = str(payload.get("error", ""))
    state.estimates = estimates[:committed_estimates]
    for payload in state.estimates:
        state.host_estimates.setdefault(str(payload["host"]), []).append(payload)
    return state


def truncate_to_commit(state: WalState) -> int:
    """Roll the log back to its recovery point; returns bytes discarded.

    Everything after the last commit marker — uncommitted checkpoints,
    estimate records the re-execution will re-emit, a torn tail, an
    ``aborted`` marker — is cut off, so a resumed writer opened in append
    mode continues from a consistent prefix.
    """
    size = state.path.stat().st_size
    discarded = size - state.commit_offset
    if discarded > 0:
        with state.path.open("r+b") as stream:
            stream.truncate(state.commit_offset)
    return max(discarded, 0)
