"""Benchmark: cross-signature mega-batching on a heterogeneous 64-host fleet.

Every host monitors its own random subset of the 44-event profiling union,
and the schedule rotation is phase-shifted per host, so a fleet round
fragments into ~50 distinct measured-event signatures per tick (~150 over
three ticks, churning every tick).  Two measurements:

* ``solve`` — the solve stage cold, the path mega-batching rewrites: a
  fresh engine per timed round (signature churn means per-signature kernels
  are *not* amortisable across a realistic fleet round), with slice
  preparation hoisted out of the timed region since both modes share it
  byte-for-byte.  ``fragmented`` compiles + solves one per-signature batch
  per group; ``megabatch`` compiles one canonical full-width structure and
  solves the whole round in one kernel call per tick.  Acceptance: >= 3x.
* ``fleet`` — the same fleet end-to-end through ``process_batch`` with warm
  default engines: ``fragmented`` feeds each round one signature group per
  call (so no call holds two signatures and nothing merges), ``megabatch``
  feeds the whole round in one call.  The shared prepare/finalize and
  the per-call grouping bound this ratio far below the solve-stage win
  (Amdahl), so the acceptance bar is an honest >= 1.2x.

Both modes must agree **exactly** (padded lanes are bit-exact no-ops) —
the differential suite in ``tests/test_megabatch.py`` pins that property
broadly; this bench re-asserts it on every measured round.

Results merge into ``BENCH_ep.json`` under a ``megabatch`` section with
its own nested workload blocks (the regression gate flattens every
``slices_per_second`` leaf, so these keys ride the same >30% gate as the
homogeneous ones without clobbering their metadata).
"""

import time

import numpy as np
import pytest

from bench_io import merge_bench_entries
from repro.core.engine import BayesPerfEngine
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload

N_HOSTS = 64
TICKS = 3
#: Damped EP converges geometrically (delta ~ (1-eta)^k), reaching the 1e-6
#: tolerance at 16 sweeps — a realistic robustness setting that also keeps
#: every record converging rather than stopping after one sweep.
EP_DAMPING = 0.6
EP_ITERATIONS = 16
ROUNDS = 2  # initial timed rounds per mode; best-of is compared
MAX_ROUNDS = 6  # escalation ceiling when a loaded machine makes timing noisy


def _hetero_fleet():
    """Sampled records for a fleet of heterogeneous event subsets.

    Host ``h`` monitors a seeded random subset (12-44 events) of the
    44-event union and starts ``h mod R`` positions into its schedule
    rotation, so signatures churn across hosts *and* ticks.
    """
    catalog = catalog_for("x86")
    union = standard_profiling_events(catalog, n_events=44)
    spec = get_workload("steady")
    hosts = []
    for host in range(N_HOSTS):
        rng = np.random.default_rng(1000 + host)
        size = int(rng.integers(12, 45))
        subset = tuple(
            union[i] for i in sorted(rng.choice(len(union), size=size, replace=False))
        )
        schedule = cached_schedule(catalog, subset)
        offset = host % len(schedule.configurations)
        trace = Machine(MachineConfig(), spec, seed=host).run(offset + TICKS)
        sampled = MultiplexedSampler(
            catalog, schedule, seed=host + 1, samples_per_tick=4
        )
        hosts.append((subset, sampled.sample(trace).records[offset : offset + TICKS]))
    return catalog, union, hosts


def _prepare_rounds(catalog, union, hosts):
    """One prepared fresh-state batch per tick — both modes' shared input."""
    scratch = BayesPerfEngine(
        catalog, union, ep_damping=EP_DAMPING, ep_max_iterations=EP_ITERATIONS
    )
    return [
        scratch._prepare_batch([(None, records[tick]) for _, records in hosts])
        for tick in range(TICKS)
    ]


def _solve_fragmented(catalog, union, rounds):
    """Cold per-signature solve: one kernel compile + batch per group."""
    engine = BayesPerfEngine(
        catalog, union, ep_damping=EP_DAMPING, ep_max_iterations=EP_ITERATIONS
    )
    start = time.perf_counter()
    results = []
    for tick, batch in enumerate(rounds):
        for group in batch.groups:
            kernel, binder = engine._compiled_kernel(batch, group)
            means = engine._solve_group_arrays(batch, group, kernel, binder)[0]
            results.extend(
                (group.signature, (tick, int(row)), mean)
                for row, mean in zip(group.rows, means.tolist())
            )
    return time.perf_counter() - start, results


def _solve_megabatch(catalog, union, rounds):
    """Cold mega-batched solve: one canonical structure, one call per tick."""
    engine = BayesPerfEngine(
        catalog, union, ep_damping=EP_DAMPING, ep_max_iterations=EP_ITERATIONS
    )
    start = time.perf_counter()
    results = []
    for tick, batch in enumerate(rounds):
        means = engine._solve_megabatch(batch, batch.groups)[0].tolist()
        lanes = [(group.signature, int(row)) for group in batch.groups for row in group.rows]
        results.extend(
            (signature, (tick, row), mean) for (signature, row), mean in zip(lanes, means)
        )
    return time.perf_counter() - start, results


def _process_by_signature(engine, items):
    """``process_batch`` fed one signature group per call (input order kept)."""
    groups = {}
    for index, (_, record) in enumerate(items):
        groups.setdefault(tuple(record.samples), []).append(index)
    results = [None] * len(items)
    for indices in groups.values():
        solved = engine.process_batch([items[index] for index in indices])
        for index, result in zip(indices, solved):
            results[index] = result
    return results


def _run_fleet(engine, hosts, fragmented):
    """End-to-end heterogeneous fleet round via ``process_batch``."""
    process = _process_by_signature if fragmented else BayesPerfEngine.process_batch
    states = [None] * len(hosts)
    estimates = [[] for _ in hosts]
    start = time.perf_counter()
    for slot in range(TICKS):
        items = [(states[h], records[slot]) for h, (_, records) in enumerate(hosts)]
        for h, (report, state) in enumerate(process(engine, items)):
            states[h] = state
            estimates[h].append(report.means())
    return time.perf_counter() - start, estimates


@pytest.mark.benchmark(group="megabatch")
def test_bench_megabatch_solve_stage(benchmark):
    catalog, union, hosts = _hetero_fleet()
    rounds = _prepare_rounds(catalog, union, hosts)
    signatures = {group.signature for batch in rounds for group in batch.groups}
    total_slices = sum(len(batch.records) for batch in rounds)
    timings = {"fragmented": [], "megabatch": []}
    results = {}

    def _best(mode):
        return min(timings[mode])

    def compare():
        for _ in range(ROUNDS):
            for mode, solver in (
                ("fragmented", _solve_fragmented),
                ("megabatch", _solve_megabatch),
            ):
                elapsed, results[mode] = solver(catalog, union, rounds)
                timings[mode].append(elapsed)
        while (
            _best("fragmented") / _best("megabatch") <= 3.0
            and len(timings["megabatch"]) < MAX_ROUNDS
        ):
            for mode, solver in (
                ("fragmented", _solve_fragmented),
                ("megabatch", _solve_megabatch),
            ):
                elapsed, results[mode] = solver(catalog, union, rounds)
                timings[mode].append(elapsed)
        return timings

    benchmark.pedantic(compare, iterations=1, rounds=1)

    # Bit-identity: the mega-batched posterior means equal the fragmented
    # per-signature ones exactly, record for record.
    assert sorted(r[:2] for r in results["fragmented"]) == sorted(
        r[:2] for r in results["megabatch"]
    )
    frag = {r[:2]: r[2] for r in results["fragmented"]}
    mega = {r[:2]: r[2] for r in results["megabatch"]}
    assert frag == mega, "mega-batched solve drifted from per-signature solve"

    throughput = {mode: total_slices / _best(mode) for mode in timings}
    speedup = throughput["megabatch"] / throughput["fragmented"]

    print(
        f"\nmega-batch solve — {N_HOSTS} hetero hosts x {TICKS} ticks "
        f"({total_slices} slices, {len(signatures)} signatures)"
    )
    for mode in timings:
        print(
            f"  {mode:10s}: {throughput[mode]:8.1f} slices/s "
            f"(best of {len(timings[mode])} rounds)"
        )
    print(f"  megabatch speedup vs fragmented: {speedup:.2f}x")

    merge_bench_entries(
        {
            "megabatch": {
                "benchmark": "megabatch-hetero",
                "workload": {
                    "arch": "x86",
                    "n_hosts": N_HOSTS,
                    "ticks_per_host": TICKS,
                    "total_slices": total_slices,
                    "union_events": len(union),
                    "distinct_signatures": len(signatures),
                },
                "solve": {
                    "workload": {
                        "ep_damping": EP_DAMPING,
                        "ep_iterations": EP_ITERATIONS,
                        "cold_engines": True,
                    },
                    "slices_per_second": {
                        mode: round(throughput[mode], 2) for mode in timings
                    },
                    "speedup_megabatch_vs_fragmented": round(speedup, 2),
                    "rounds": {mode: len(timings[mode]) for mode in timings},
                },
            }
        }
    )

    assert speedup >= 3.0, (
        f"mega-batched solve only {speedup:.2f}x the fragmented baseline (need >= 3x)"
    )


@pytest.mark.benchmark(group="megabatch")
def test_bench_megabatch_fleet_end_to_end(benchmark):
    catalog, union, hosts = _hetero_fleet()
    engines = {
        "fragmented": BayesPerfEngine(catalog, union),
        "megabatch": BayesPerfEngine(catalog, union),
    }
    total_slices = N_HOSTS * TICKS
    timings = {mode: [] for mode in engines}
    estimates = {}

    def _best(mode):
        return min(timings[mode])

    def compare():
        for _ in range(ROUNDS):
            for mode, engine in engines.items():
                elapsed, estimates[mode] = _run_fleet(
                    engine, hosts, fragmented=mode == "fragmented"
                )
                timings[mode].append(elapsed)
        while (
            _best("fragmented") / _best("megabatch") <= 1.2
            and len(timings["megabatch"]) < MAX_ROUNDS
        ):
            for mode, engine in engines.items():
                elapsed, estimates[mode] = _run_fleet(
                    engine, hosts, fragmented=mode == "fragmented"
                )
                timings[mode].append(elapsed)
        return timings

    benchmark.pedantic(compare, iterations=1, rounds=1)

    # End-to-end bit-identity between the two ways of feeding the engine.
    assert estimates["fragmented"] == estimates["megabatch"]

    throughput = {mode: total_slices / _best(mode) for mode in engines}
    speedup = throughput["megabatch"] / throughput["fragmented"]

    print(
        f"\nmega-batch fleet — {N_HOSTS} hetero hosts x {TICKS} ticks "
        f"({total_slices} slices end-to-end)"
    )
    for mode in engines:
        print(
            f"  {mode:10s}: {throughput[mode]:8.1f} slices/s "
            f"(best of {len(timings[mode])} rounds)"
        )
    print(f"  megabatch speedup vs fragmented: {speedup:.2f}x")

    merge_bench_entries(
        {
            "megabatch": {
                "fleet": {
                    "workload": {"engine_defaults": True, "warm_engines": True},
                    "slices_per_second": {
                        mode: round(throughput[mode], 2) for mode in engines
                    },
                    "speedup_megabatch_vs_fragmented": round(speedup, 2),
                    "rounds": {mode: len(timings[mode]) for mode in engines},
                }
            }
        }
    )

    # The end-to-end ratio is Amdahl-bounded by the shared prepare/finalize
    # and report building; the solve-stage bench carries the 3x bar.
    assert speedup >= 1.2, (
        f"end-to-end mega-batching only {speedup:.2f}x fragmented (need >= 1.2x)"
    )
