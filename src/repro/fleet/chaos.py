"""Deterministic fault injection for the fleet pipeline.

Production fault tolerance is only as trustworthy as its tests, and faults
that depend on real crashes or timing races make terrible tests.  This
module injects the three fault families the fleet's recovery paths handle —
corrupt telemetry records, raising/hanging solves, and mid-write crashes of
the trace writer — from an explicit (or seeded) schedule, so every recovery
path is exercised deterministically and the run's retry/skip/quarantine
accounting can be checked against the schedule exactly.

Seams (all opt-in, all zero-cost when no injector is attached):

* **Sources** — :meth:`FaultInjector.wrap_source` proxies a host source and
  replaces scheduled records' samples with non-numeric garbage, the
  in-memory equivalent of a corrupt wire record (the engine's array
  conversion raises on it, every attempt).
* **Engines** — the workers call :meth:`FaultInjector.on_attempt` at the
  top of every solve attempt; a scheduled ``"raise"`` fault throws
  :class:`InjectedFault`, a ``"hang"`` fault sleeps past the policy's
  per-slice timeout before letting the solve proceed.
* **The writer's file object** — :meth:`FaultInjector.wrap_stream` wraps
  the trace writer's stream in a :class:`CrashingStream` that dies after a
  scheduled number of writes, optionally leaving a torn partial line —
  either by raising :class:`InjectedCrash` (in-process tests) or by
  SIGKILLing its own process (``hard=True``: a real no-cleanup death for
  the crash-resume demo).
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.pmu.sampling import SamplingRecord

__all__ = [
    "ChaosHostSource",
    "CrashingStream",
    "Fault",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
]

#: Payload injected into corrupted records: the engine's float conversion
#: raises ``ValueError`` on it deterministically, on every attempt.
_CORRUPT_PAYLOAD = "<corrupt>"


class InjectedFault(RuntimeError):
    """A scheduled solve fault fired."""


class InjectedCrash(OSError):
    """A scheduled writer crash fired (the in-process stand-in for SIGKILL)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``kind``: ``"raise"`` (solve attempt throws), ``"hang"`` (solve attempt
    sleeps ``duration`` seconds first, for timeout policies to flag) or
    ``"corrupt"`` (the host's record at ``tick`` is replaced with garbage
    that fails engine-side conversion — a permanent per-record fault).
    ``attempts`` bounds how many consecutive attempts a transient
    ``raise``/``hang`` fault affects; a ``corrupt`` fault is permanent by
    construction (the record itself is damaged).
    """

    kind: str
    host: str
    tick: int
    attempts: int = 1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "hang", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


class FaultInjector:
    """Injects a deterministic fault schedule into one fleet run.

    ``injected`` counts every fault that actually fired, by kind — the
    ledger tests audit the run's retry/skip/quarantine events against.
    """

    def __init__(
        self,
        faults: Sequence[Fault] = (),
        *,
        crash_after_writes: Optional[int] = None,
        crash_partial_line: bool = True,
        crash_hard: bool = False,
    ) -> None:
        self.solve_faults: Dict[Tuple[str, int], Fault] = {}
        self.corrupt_faults: Dict[Tuple[str, int], Fault] = {}
        for fault in faults:
            table = self.corrupt_faults if fault.kind == "corrupt" else self.solve_faults
            key = (fault.host, fault.tick)
            if key in table:
                raise ValueError(f"duplicate fault scheduled for {key}")
            table[key] = fault
        self.crash_after_writes = crash_after_writes
        self.crash_partial_line = crash_partial_line
        self.crash_hard = crash_hard
        #: Faults that fired so far, by kind (``corrupt`` counts records
        #: handed out, ``crash`` counts writer crashes).
        self.injected: Counter = Counter()

    @classmethod
    def seeded(
        cls,
        seed: int,
        hosts: Sequence[str],
        n_ticks: int,
        *,
        n_raise: int = 0,
        n_hang: int = 0,
        n_corrupt: int = 0,
        attempts: int = 1,
        hang_duration: float = 0.2,
        **kwargs,
    ) -> "FaultInjector":
        """A random-but-reproducible schedule over ``hosts x ticks``.

        Distinct (host, tick) cells are drawn without replacement from a
        seeded RNG, so the same seed always yields the same schedule.
        """
        cells = [(host, tick) for host in hosts for tick in range(n_ticks)]
        total = n_raise + n_hang + n_corrupt
        if total > len(cells):
            raise ValueError(
                f"schedule wants {total} faults but only {len(cells)} cells exist"
            )
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(cells), size=total, replace=False)
        faults = []
        for position, index in enumerate(chosen):
            host, tick = cells[int(index)]
            if position < n_raise:
                faults.append(Fault("raise", host, tick, attempts=attempts))
            elif position < n_raise + n_hang:
                faults.append(
                    Fault("hang", host, tick, attempts=attempts, duration=hang_duration)
                )
            else:
                faults.append(Fault("corrupt", host, tick))
        return cls(faults, **kwargs)

    # -- the engine seam (called by the workers) ---------------------------

    def pending(self, host: str, tick: int, attempt: int) -> bool:
        """Would :meth:`on_attempt` disrupt this (host, tick, attempt)?

        The batched worker path probes with this before assembling a batch,
        so scheduled-faulty slices are excised into the per-record retry
        path and the surviving hosts' batch solves untouched.
        """
        fault = self.solve_faults.get((host, tick))
        return fault is not None and attempt <= fault.attempts

    def on_attempt(self, host: str, tick: int, attempt: int) -> None:
        """Fire the scheduled fault for this attempt, if any."""
        fault = self.solve_faults.get((host, tick))
        if fault is None or attempt > fault.attempts:
            return
        self.injected[fault.kind] += 1
        if fault.kind == "hang":
            # The solve proceeds after the stall; a timeout policy flags the
            # attempt, discards its output and retries from the snapshot.
            time.sleep(fault.duration)
            return
        raise InjectedFault(
            f"injected solve fault for {host}@t{tick} (attempt {attempt})"
        )

    # -- the source seam ---------------------------------------------------

    def wrap_source(self, source):
        """Proxy *source* so scheduled records come out corrupted."""
        host_id = source.host_id
        if not any(host == host_id for host, _ in self.corrupt_faults):
            return source
        return ChaosHostSource(source, self)

    def corrupt(self, record: SamplingRecord) -> SamplingRecord:
        """A copy of *record* whose sample arrays fail float conversion."""
        self.injected["corrupt"] += 1
        damaged = SamplingRecord(tick=record.tick, configuration=record.configuration)
        for event in record.samples:
            damaged.samples[event] = [_CORRUPT_PAYLOAD]
        return damaged

    # -- the writer seam ---------------------------------------------------

    def wrap_stream(self, stream):
        """Wrap a trace writer's file object with the scheduled crash."""
        if self.crash_after_writes is None:
            return stream
        return CrashingStream(
            stream,
            self,
            after_writes=self.crash_after_writes,
            partial_line=self.crash_partial_line,
            hard=self.crash_hard,
        )


class ChaosHostSource:
    """Source proxy replacing scheduled records with corrupted ones."""

    def __init__(self, source, injector: FaultInjector) -> None:
        self._source = source
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._source, name)

    def records(self) -> Iterator[SamplingRecord]:
        host_id = self._source.host_id
        for record in self._source.records():
            if (host_id, record.tick) in self._injector.corrupt_faults:
                yield self._injector.corrupt(record)
            else:
                yield record


class CrashingStream:
    """File-object proxy that dies after a scheduled number of writes.

    The crash fires at the start of the (N+1)-th write: optionally a torn
    prefix of that line is flushed first (exercising the reader's torn-tail
    recovery), then the stream either raises :class:`InjectedCrash` (soft,
    for in-process tests) or SIGKILLs its own process (``hard=True`` — a
    genuine no-cleanup death for the crash-resume demo; nothing below this
    line runs, exactly like a machine losing power mid-write).
    """

    def __init__(
        self,
        stream,
        injector: Optional[FaultInjector] = None,
        *,
        after_writes: int,
        partial_line: bool = True,
        hard: bool = False,
    ) -> None:
        if after_writes < 0:
            raise ValueError("after_writes must be >= 0")
        self._stream = stream
        self._injector = injector
        self._after_writes = after_writes
        self._partial_line = partial_line
        self._hard = hard
        self.writes = 0
        self.crashed = False

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def _crash(self, payload: str) -> None:
        self.crashed = True
        if self._injector is not None:
            self._injector.injected["crash"] += 1
        if self._partial_line and payload:
            # A torn tail: the first half of the line reaches the disk, the
            # newline never does.
            self._stream.write(payload[: max(1, len(payload) // 2)].rstrip("\n"))
            self._stream.flush()
        if self._hard:
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedCrash(
            f"injected writer crash after {self.writes} completed writes"
        )

    def write(self, payload: str) -> int:
        if self.crashed:
            # Dead streams stay dead: the writer's abort/close path cannot
            # sneak markers past a crash.
            raise InjectedCrash("stream already crashed")
        if self.writes >= self._after_writes:
            self._crash(payload)
        self.writes += 1
        return self._stream.write(payload)

    def flush(self) -> None:
        self._stream.flush()

    def fileno(self) -> int:
        return self._stream.fileno()

    def close(self) -> None:
        self._stream.close()

    @property
    def closed(self) -> bool:
        return self._stream.closed
