"""The ingestion host source: a perf capture as a fleet record stream.

:class:`PerfTraceSource` satisfies the same source protocol as
``SyntheticHostSource``/``ReplayHostSource`` (``host_id``/``arch``/
``events``/``records()`` plus the ``skipped_lines``/``torn_tail``
accounting surface), so a real machine's PMU samples register next to
synthetic and replay hosts and flow through the worker pool, WAL
checkpointing and chain capture unchanged.

The capture is parsed once, eagerly, at construction: a misconfigured host
(unreadable file, unknown event under ``on_unknown="raise"``) fails at
registration, not mid-run, and the cached record list makes ``records()``
deterministically re-iterable — which is exactly what the WAL's
fast-forward restore (``HostChannel.restore``) requires for crash-resume
over real traces.  :meth:`byte_offset` maps the channel's pulled-record
ingest position back to a file offset, so a checkpoint pins where in the
capture the run stood.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.events.registry import canonical_arch, catalog_for
from repro.perfio.lower import lower_capture
from repro.perfio.mapping import SchemaMapper
from repro.perfio.model import IngestStats
from repro.perfio.parsers import detect_format, parser_for
from repro.pmu.sampling import SampledTrace, SamplingRecord

__all__ = ["PerfTraceSource"]

#: Default ``perf script`` grouping window: 10ms of samples form one
#: scheduler quantum (matching the kernel's default rotation cadence).
DEFAULT_TICK_SECONDS = 0.01


class PerfTraceSource:
    """Record stream for one host backed by a real perf capture."""

    def __init__(
        self,
        host_id: str,
        path: Union[str, Path],
        *,
        format: str = "auto",
        arch: str = "x86",
        events: Optional[Sequence[str]] = None,
        on_unknown: str = "raise",
        tick_seconds: float = DEFAULT_TICK_SECONDS,
    ) -> None:
        self.host_id = host_id
        self.path = str(path)
        self.arch = canonical_arch(arch)
        catalog = catalog_for(self.arch)
        if events is not None:
            for name in events:
                catalog.get(name)  # raises KeyError naming the offending event
        data = Path(path).read_bytes()
        raw = data.decode("utf-8", errors="replace")
        # Newline-terminated, like a file's lines: every parser strips them.
        lines = raw.splitlines(keepends=True)
        # An ASCII capture's character counts are its byte counts.
        widths = (
            map(len, lines)
            if data.isascii()
            else (len(line.encode("utf-8")) for line in lines)
        )
        #: Byte offset *after* each source line (1-based lineno -> offset).
        self._line_ends: List[int] = list(accumulate(widths))
        fmt = detect_format(lines) if format in (None, "auto") else format
        parser = parser_for(fmt)
        self.stats = IngestStats(path=self.path, format=fmt)
        mapper = SchemaMapper(catalog, on_unknown=on_unknown)
        samples = list(parser(lines, self.stats))
        if raw and not raw.endswith("\n"):
            # No trailing newline: the final line may be a torn mid-write
            # tail.  It is torn (not merely short) when it parsed to nothing.
            last_lineno = len(lines)
            if not any(sample.lineno == last_lineno for sample in samples):
                self.stats.torn_tail = True
        lowered = lower_capture(
            samples,
            mapper,
            self.stats,
            tick_seconds=tick_seconds if fmt == "script" else None,
            monitored=tuple(events) if events is not None else None,
        )
        self._records: List[SamplingRecord] = lowered.records
        self._record_linenos = lowered.record_linenos
        self.events: Tuple[str, ...] = lowered.events
        if not self._records:
            raise ValueError(
                f"{self.path}: no usable counter samples for host {host_id!r} "
                f"(format {fmt!r}; {self.stats.skipped_lines} malformed line(s), "
                f"{self.stats.unknown_total} unknown-event reading(s))"
            )
        #: raw perf name -> canonical catalog name, for the whole capture.
        self.mapping = dict(mapper.mapped)
        self.format = fmt
        self.workload_name = f"perf:{fmt}"
        self.seed = 0
        self.n_ticks = len(self._records)
        self.samples_per_tick = max(
            (max(len(v) for v in record.samples.values()) for record in self._records),
            default=1,
        )
        #: The replay-host accounting surface: the channel announces these
        #: with one MalformedRecordSkipped event when the stream opens.
        self.skipped_lines = self.stats.accounted_skips
        self.torn_tail = self.stats.torn_tail

    def records(self) -> Iterator[SamplingRecord]:
        """The deterministic record stream (re-iterable; WAL-restorable)."""
        yield from self._records

    def byte_offset(self, pulled: int) -> int:
        """File offset the first *pulled* records reach into the capture.

        ``pulled`` is the channel's ingest position (records drawn from the
        stream so far); the returned offset is the end of the last source
        line that record consumed — the resume point a WAL checkpoint pins.
        """
        if pulled <= 0 or not self._record_linenos:
            return 0
        index = min(pulled, len(self._record_linenos)) - 1
        lineno = self._record_linenos[index]
        if lineno <= 0:
            return 0
        return self._line_ends[min(lineno, len(self._line_ends)) - 1]

    def sampled_trace(self) -> SampledTrace:
        """The capture as a :class:`~repro.pmu.sampling.SampledTrace`.

        This is the shape baseline correction methods (``linux`` scaling,
        CounterMiner, ...) consume, so a real capture can be fanned through
        ``RunSpec.baselines`` alongside the engine.
        """
        trace = SampledTrace(
            catalog_name=catalog_for(self.arch).name, events=self.events
        )
        for record in self._records:
            trace.records.append(record)
            for event in record.samples:
                trace.enabled_ticks[event] = trace.enabled_ticks.get(event, 0) + 1
        return trace
