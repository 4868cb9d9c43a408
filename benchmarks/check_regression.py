"""CI perf-regression gate over ``BENCH_ep.json`` trajectories.

Usage::

    python benchmarks/check_regression.py BASELINE FRESH [--threshold 0.30]

Compares every throughput key (any ``slices_per_second`` or
``lines_per_second`` leaf, at any nesting depth) present in the *baseline* file against the freshly measured
file and exits non-zero when any of them slowed down by more than the
threshold (default 30%).  Keys that exist only in the fresh file are new
benchmarks and are allowed; keys that *disappeared* fail the gate — a
silently dropped benchmark must not evade it.

The benchmarks merge their fresh measurements into the gitignored
``.bench-out/BENCH_ep.json`` (see ``bench_io.py``) and never touch the
committed ``BENCH_ep.json``, so the CI bench job runs this gate on the
committed file and the fresh one.

Caveat: the gate compares absolute throughput, so the committed baseline
must be refreshed from the same class of machine CI runs on; a baseline
recorded on much faster hardware will trip the gate on runner speed rather
than on a code regression.  When that happens, re-record the baseline in
the same PR (and say so) rather than widening the threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict


#: Leaf dicts holding gated throughput rates (higher is better for all).
_RATE_KEYS = ("slices_per_second", "lines_per_second")


def throughput_keys(payload, prefix: str = "") -> Dict[str, float]:
    """Flatten every rate leaf (``slices_per_second`` /
    ``lines_per_second``) into ``path -> rate``."""
    rates: Dict[str, float] = {}
    if not isinstance(payload, dict):
        return rates
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else key
        if key in _RATE_KEYS and isinstance(value, dict):
            for mode, rate in value.items():
                if isinstance(rate, (int, float)):
                    rates[f"{path}.{mode}"] = float(rate)
        elif isinstance(value, dict):
            rates.update(throughput_keys(value, path))
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_ep.json snapshot")
    parser.add_argument("fresh", type=Path, help="freshly measured BENCH_ep.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional slowdown (default: 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = throughput_keys(json.loads(args.baseline.read_text()))
    fresh = throughput_keys(json.loads(args.fresh.read_text()))
    if not baseline:
        print("no throughput keys in the baseline; nothing to gate")
        return 0

    failures = []
    width = max(len(key) for key in baseline)
    for key, base_rate in sorted(baseline.items()):
        if key not in fresh:
            failures.append(f"{key}: disappeared (baseline {base_rate:.2f} slices/s)")
            print(f"  {key:{width}s}  {base_rate:10.2f} -> MISSING      FAIL")
            continue
        fresh_rate = fresh[key]
        change = (fresh_rate - base_rate) / base_rate if base_rate else 0.0
        regressed = base_rate > 0 and fresh_rate < (1.0 - args.threshold) * base_rate
        status = "FAIL" if regressed else "ok"
        print(
            f"  {key:{width}s}  {base_rate:10.2f} -> {fresh_rate:10.2f} "
            f"({change:+7.1%})  {status}"
        )
        if regressed:
            failures.append(
                f"{key}: {base_rate:.2f} -> {fresh_rate:.2f} slices/s ({change:+.1%})"
            )

    for key in sorted(set(fresh) - set(baseline)):
        print(f"  {key:{width}s}  (new)       -> {fresh[key]:10.2f}            ok")

    if failures:
        print(
            f"\nPerformance regression gate FAILED "
            f"(>{args.threshold:.0%} slowdown on {len(failures)} key(s)):"
        )
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nPerformance regression gate passed (threshold {args.threshold:.0%}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
