"""Shared I/O for the benchmark suite's perf-trajectory file.

``BENCH_ep.json`` is co-owned by several benchmarks (the EP-kernel bench
writes the top-level trajectory, the tilted-MCMC bench its ``tilted-mcmc``
entry); every writer must merge its own keys into the existing payload
rather than overwrite the file, so the single merge protocol lives here.

Benchmarks never write the committed ``BENCH_ep.json`` in the repo root:
running them (tier-1 included) leaves the tree clean.  Fresh measurements
merge into the gitignored ``.bench-out/BENCH_ep.json``, which the first
write seeds from the committed file.  CI gates the committed file against
it (``check_regression.py``); refreshing the committed baseline is a
deliberate copy of the fresh file over it.
"""

import json
from pathlib import Path
from typing import Dict

_ROOT = Path(__file__).resolve().parent.parent

#: The committed perf trajectory: the regression gate's baseline.
COMMITTED_PATH = _ROOT / "BENCH_ep.json"

#: Where the benchmarks merge fresh measurements (gitignored; uploaded as a
#: CI artifact).
BENCH_PATH = _ROOT / ".bench-out" / "BENCH_ep.json"


def deep_merge(base: Dict, entries: Dict) -> Dict:
    """Recursively merge *entries* into *base* (in place) and return it.

    Nested dicts merge key-by-key; every other value type replaces.  The
    recursion is what lets benchmarks with *different* workload metadata
    co-own one file: a writer whose section carries its own ``workload``
    block no longer clobbers another section's block, because only the
    leaves it actually measured are replaced.
    """
    for key, value in entries.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            deep_merge(base[key], value)
        else:
            base[key] = value
    return base


def _read_json(path: Path) -> Dict:
    """*path*'s JSON payload; empty when missing, unreadable or corrupt."""
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}


def merge_bench_entries(
    entries: Dict, path: Path = BENCH_PATH, seed: Path = COMMITTED_PATH
) -> None:
    """Deep-merge *entries* into the JSON trajectory file at *path*.

    Existing keys owned by other benchmarks are preserved — including
    nested per-section ``workload`` blocks (see :func:`deep_merge`).  When
    *path* does not exist yet it starts from *seed*'s payload, so the
    fresh file carries every committed key; *seed* itself is only read.
    An unreadable or corrupt file is replaced rather than crashing the
    benchmark.
    """
    payload = _read_json(path if path.exists() else seed)
    deep_merge(payload, entries)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
