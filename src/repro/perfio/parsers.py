"""Parsers for the supported perf capture formats.

Each parser is a generator over input lines yielding
:class:`~repro.perfio.model.CounterSample`s and accounting everything else
in the shared :class:`~repro.perfio.model.IngestStats` — the
skip-and-account contract: malformed lines (truncated mid-write,
interleaved stdout, locale-mangled numbers) are counted, never raised on.
A number that is not finite (``nan``, ``inf``, ``1e999``) counts as no
number at all: as a value or timestamp it makes the line malformed, and as
a running percentage or enabled/running time it reads as absent
multiplexing bookkeeping.

Supported formats:

``stat-csv``
    ``perf stat -I <ms> -x, -e <events> -o out.csv`` interval output —
    one CSV row per (interval, event):
    ``ts,value,unit,event,run_ns,pct_running[,metric,metric_unit]``.
    ``<not counted>`` / ``<not supported>`` values and the
    percentage-of-time-running column (perf's ``(scaled from X%)``
    bookkeeping) are preserved for the multiplexing-fraction lowering.

``script``
    ``perf script`` sample lines:
    ``comm pid [cpu] time: period event: ip symbol (dso)``.
    Each line is one PMI sample of ``period`` counts.

``jsonl``
    Generic JSON-lines counter dumps (one object per reading), with
    tolerant key aliases: ``ts``/``time``/``timestamp``, ``event``/``name``,
    ``value``/``count``, ``enabled``/``time_enabled``,
    ``running``/``time_running``, ``cpu``.
"""

from __future__ import annotations

import json
import re
from math import isfinite
from typing import Iterable, Iterator, Optional

from repro.perfio.model import PERF_FORMATS, CounterSample, IngestStats

__all__ = ["detect_format", "iter_jsonl", "iter_script", "iter_stat_csv", "parser_for"]

#: Values perf prints when an event produced no count in an interval.
_NOT_COUNTED = ("<not counted>", "<not supported>")

#: ``perf script`` sample line.  comm may contain spaces ("migration/0"
#: does not, but "Web Content" does) so it matches non-greedily; the cpu
#: bracket and the period column are both optional in real output.
_SCRIPT_RE = re.compile(
    r"^\s*(?P<comm>.*?)\s+(?P<pid>\d+(?:/\d+)?)\s+"
    r"(?:\[(?P<cpu>\d+)\]\s+)?"
    r"(?P<time>\d+\.\d+):\s+"
    r"(?:(?P<period>\d+)\s+)?"
    r"(?P<event>[^\s:]+(?::[a-zA-Z]+)?):"
)


def _to_float(text: str) -> Optional[float]:
    """Tolerant numeric parse: thousands separators and decimal commas.

    Returns ``None`` when the text is not a finite number — the caller
    decides whether that makes the whole line malformed.  ``float()`` runs
    first: it already strips surrounding whitespace and accepts ``_``
    digit groups, so any text it takes means the same number the locale
    cleanup would produce, and the cleanup only runs when it refuses.
    """
    try:
        value = float(text)
    except ValueError:
        value = _locale_float(text)
        if value is None:
            return None
    return value if isfinite(value) else None


def _locale_float(text: str) -> Optional[float]:
    """The locale cleanup path behind :func:`_to_float`."""
    cleaned = text.strip().replace("_", "").replace(" ", "")
    # Locale thousands groupings also arrive as (narrow) no-break spaces.
    cleaned = cleaned.replace("\u00a0", "").replace("\u202f", "")
    if not cleaned:
        return None
    if "," in cleaned:
        # Locale-mangled: "1.234.567,89" or "1234,56".  A comma followed by
        # exactly three digits per group is a thousands separator; otherwise
        # it is a decimal comma.
        if re.fullmatch(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?", cleaned):
            cleaned = cleaned.replace(",", "")
        elif re.fullmatch(r"\d{1,3}(?:\.\d{3})+(?:,\d+)?", cleaned):
            cleaned = cleaned.replace(".", "").replace(",", ".")
        elif re.fullmatch(r"\d+,\d+", cleaned):
            cleaned = cleaned.replace(",", ".")
        else:
            return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def iter_stat_csv(lines: Iterable[str], stats: IngestStats) -> Iterator[CounterSample]:
    """Parse ``perf stat -I ... -x,`` interval CSV output.

    The fifth column is perf's counter run time and the sixth the
    percentage of the interval it ran; a reading whose percentage column
    is empty (or not a finite number) carries no multiplexing bookkeeping
    and lowers as fully counted.
    """
    # Counted in locals and added to *stats* once, when the stream ends.
    total = comments = skipped = not_counted = parsed = 0
    # Every row of one interval block repeats its timestamp text.
    stamp_text: Optional[str] = None
    stamp: Optional[float] = None
    try:
        for lineno, raw in enumerate(lines, start=1):
            total += 1
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                # perf stat -o prefixes the file with "# started on <date>".
                comments += 1
                continue
            fields = line.split(",")
            if len(fields) < 6:
                skipped += 1
                continue
            if fields[0] != stamp_text:
                stamp_text = fields[0]
                stamp = _to_float(stamp_text)
            timestamp = stamp
            event = fields[3].strip()
            if timestamp is None or not event:
                skipped += 1
                continue
            value_text = fields[1].strip()
            if value_text in _NOT_COUNTED:
                # Unmeasured this interval: its run-time columns hold
                # nothing the lowering uses, so they are not parsed.
                value: Optional[float] = None
                running, pct = 0.0, None
                not_counted += 1
            else:
                value = _to_float(value_text)
                if value is None:
                    skipped += 1
                    continue
                running = _to_float(fields[4]) or 0.0
                pct = _to_float(fields[5].rstrip("%"))
            parsed += 1
            # Positional (timestamp, event, value, enabled, running,
            # running_pct, cpu, lineno): the hot loop's cheapest call.
            yield CounterSample(timestamp, event, value, 0.0, running, pct, None, lineno)
    finally:
        stats.total_lines += total
        stats.comment_lines += comments
        stats.skipped_lines += skipped
        stats.not_counted += not_counted
        stats.parsed_samples += parsed


def iter_script(lines: Iterable[str], stats: IngestStats) -> Iterator[CounterSample]:
    """Parse ``perf script`` event sample lines."""
    for lineno, raw in enumerate(lines, start=1):
        stats.total_lines += 1
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            stats.comment_lines += 1
            continue
        match = _SCRIPT_RE.match(line)
        if match is None:
            stats.skipped_lines += 1
            continue
        timestamp = _to_float(match.group("time"))
        period = match.group("period")
        # A period too long to be a finite float is as unusable as a torn one.
        value = _to_float(period) if period is not None else 1.0
        if timestamp is None or value is None:
            stats.skipped_lines += 1
            continue
        cpu = match.group("cpu")
        stats.parsed_samples += 1
        yield CounterSample(
            timestamp=timestamp,
            event=match.group("event"),
            value=value,
            cpu=int(cpu) if cpu is not None else None,
            lineno=lineno,
        )


def iter_jsonl(lines: Iterable[str], stats: IngestStats) -> Iterator[CounterSample]:
    """Parse generic JSON-lines counter dumps."""
    for lineno, raw in enumerate(lines, start=1):
        stats.total_lines += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("//"):
            stats.comment_lines += 1
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            stats.skipped_lines += 1
            continue
        if not isinstance(payload, dict):
            stats.skipped_lines += 1
            continue
        timestamp = _first_number(payload, "ts", "time", "timestamp")
        event = payload.get("event", payload.get("name"))
        if timestamp is None or not isinstance(event, str) or not event:
            stats.skipped_lines += 1
            continue
        raw_value = _first_field(payload, "value", "count")
        if isinstance(raw_value, str) and raw_value in _NOT_COUNTED:
            value: Optional[float] = None
            stats.not_counted += 1
        elif raw_value is None and _has_field(payload, "value", "count"):
            value = None
            stats.not_counted += 1
        else:
            value = _coerce_number(raw_value)
            if value is None:
                stats.skipped_lines += 1
                continue
        enabled = _first_number(payload, "enabled", "time_enabled")
        running = _first_number(payload, "running", "time_running")
        if enabled is None or running is None:
            # Half the bookkeeping (one time missing or non-finite) is none.
            enabled = running = 0.0
        cpu = _first_number(payload, "cpu")
        stats.parsed_samples += 1
        yield CounterSample(
            timestamp=timestamp,
            event=event,
            value=value,
            enabled=enabled,
            running=running,
            cpu=int(cpu) if cpu is not None else None,
            lineno=lineno,
        )


def _has_field(payload: dict, *keys: str) -> bool:
    return any(key in payload for key in keys)


def _first_field(payload: dict, *keys: str):
    for key in keys:
        if key in payload:
            return payload[key]
    return None


def _coerce_number(value) -> Optional[float]:
    """A finite float from a JSON scalar, else ``None`` (``NaN``,
    ``Infinity``, ``1e999`` and integers past the float range included)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            return None
        return number if isfinite(number) else None
    if isinstance(value, str):
        return _to_float(value)
    return None


def _first_number(payload: dict, *keys: str) -> Optional[float]:
    return _coerce_number(_first_field(payload, *keys))


def detect_format(lines: Iterable[str]) -> str:
    """Sniff which capture format *lines* hold.

    The first parseable line decides: a JSON object means ``jsonl``, a
    comma-separated row whose first field is a timestamp means
    ``stat-csv``, anything else falls back to ``script``.  An empty input
    defaults to ``stat-csv`` (the most common capture).
    """
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            return "jsonl"
        fields = line.split(",")
        if len(fields) >= 6 and _to_float(fields[0]) is not None:
            return "stat-csv"
        return "script"
    return "stat-csv"


def parser_for(fmt: str):
    """The parser generator for *fmt* (raises on unknown names)."""
    parsers = {
        "stat-csv": iter_stat_csv,
        "script": iter_script,
        "jsonl": iter_jsonl,
    }
    if fmt not in parsers:
        raise ValueError(
            f"unknown perf capture format {fmt!r}; expected one of "
            f"{PERF_FORMATS} (or 'auto' to sniff)"
        )
    return parsers[fmt]
