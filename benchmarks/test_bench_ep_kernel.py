"""Benchmark: reference EP loop vs. the compiled vectorized EP kernel.

Replays the 64-host fleet workload (same shape as the fleet throughput
bench) through three inference configurations sharing one engine each:

* ``reference`` — dict-keyed :class:`ExpectationPropagation` per slice
  (``use_compiled_kernel=False``), the pre-kernel status quo;
* ``compiled``  — the index-compiled kernel, one record per call;
* ``batched``   — the kernel's multi-record entry point, one call per
  (signature, slot) batch across all hosts via ``process_batch``.

Acceptance: the batched kernel reaches >= 3x the reference slices/sec and
its posterior means agree with the reference within 1e-8 (relative).  The
measured trajectory is merged into ``.bench-out/BENCH_ep.json`` (see
``bench_io.py``).

A second, micro bench times ``ConstraintSiteBinder.bind`` on the default
x86 engine's 43-wide invariant group at B=16: the sparse product plan must
run at >= 2x a dense twin that adds every relation's full ``(w, w)`` outer
product (the pre-plan binder), with bit-identical output.

A third times ``CompiledEPKernel.run_stacked`` on a warm 16-lane, 7-group
x86 mega-batch against the pre-change sweep loop kept as a twin in
``tests/test_differential_paths.py``: the closed-form first sweep, the
skipped no-op second sweep and the one-call PD probe must run at >= 1.2x
the twin, with bit-identical output.
"""

import importlib.util
import os
import time
from pathlib import Path

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

_FULL = bool(os.environ.get("REPRO_FULL", ""))

N_HOSTS = 96 if _FULL else 64
TICKS_PER_HOST = 3 if _FULL else 2
ROUNDS = 2  # initial timed rounds per mode; best-of is compared
MAX_ROUNDS = 6  # escalation ceiling when a loaded machine makes timing noisy
MODES = ("reference", "compiled", "batched")


def _fleet_records():
    """Per-host sampled records for the 64-host fleet workload."""
    catalog = catalog_for("x86")
    events = standard_profiling_events(catalog)
    schedule = cached_schedule(catalog, events, kind="overlap")
    spec = get_workload("steady")
    hosts = []
    for host in range(N_HOSTS):
        trace = Machine(MachineConfig(), spec, seed=host).run(TICKS_PER_HOST)
        sampled = MultiplexedSampler(catalog, schedule, seed=host + 1, samples_per_tick=4)
        hosts.append(sampled.sample(trace).records)
    return catalog, events, hosts


def _run_mode(mode, engines, hosts):
    """Solve every host's slices in the given mode; returns (elapsed, estimates).

    ``estimates[h][tick]`` maps event -> posterior mean for host ``h``.
    """
    engine = engines[mode]
    estimates = [[] for _ in hosts]
    start = time.perf_counter()
    if mode == "batched":
        states = [None] * len(hosts)
        for slot in range(TICKS_PER_HOST):
            items = [(states[h], records[slot]) for h, records in enumerate(hosts)]
            for h, (report, state) in enumerate(engine.process_batch(items)):
                states[h] = state
                estimates[h].append(report.means())
    else:
        for h, records in enumerate(hosts):
            engine.reset()
            for record in records:
                estimates[h].append(engine.process_record(record).means())
    return time.perf_counter() - start, estimates


@pytest.mark.benchmark(group="ep-kernel")
def test_bench_ep_kernel_vs_reference(benchmark):
    catalog, events, hosts = _fleet_records()
    engines = {
        "reference": BayesPerfEngine(catalog, events, use_compiled_kernel=False),
        "compiled": BayesPerfEngine(catalog, events, use_compiled_kernel=True),
        "batched": BayesPerfEngine(catalog, events, use_compiled_kernel=True),
    }
    total_slices = sum(len(records) for records in hosts)
    timings = {mode: [] for mode in MODES}
    estimates = {}

    def _best(mode):
        return min(timings[mode])

    def compare():
        # Interleave rounds so machine-load drift hits every mode equally,
        # and escalate with further interleaved rounds if noise inverts the
        # expected margin (same protocol as the fleet throughput bench).
        for _ in range(ROUNDS):
            for mode in MODES:
                elapsed, estimates[mode] = _run_mode(mode, engines, hosts)
                timings[mode].append(elapsed)
        while (
            _best("reference") / _best("batched") <= 3.0
            and len(timings["batched"]) < MAX_ROUNDS
        ):
            for mode in MODES:
                elapsed, estimates[mode] = _run_mode(mode, engines, hosts)
                timings[mode].append(elapsed)
        return timings

    benchmark.pedantic(compare, iterations=1, rounds=1)

    throughput = {mode: total_slices / _best(mode) for mode in MODES}
    speedup = {mode: throughput[mode] / throughput["reference"] for mode in MODES}

    # Correctness: compiled/batched posterior means track the reference.
    max_gap = 0.0
    for mode in ("compiled", "batched"):
        for want_host, got_host in zip(estimates["reference"], estimates[mode]):
            for want, got in zip(want_host, got_host):
                for event, value in want.items():
                    gap = abs(got[event] - value) / max(abs(value), abs(got[event]), 1e-12)
                    max_gap = max(max_gap, gap)
    assert max_gap < 1e-8, f"compiled kernel diverged from reference ({max_gap:.3e})"

    print(f"\nEP kernel — {N_HOSTS} hosts x {TICKS_PER_HOST} quanta ({total_slices} slices)")
    for mode in MODES:
        print(
            f"  {mode:9s}: {throughput[mode]:8.1f} slices/s "
            f"(best of {len(timings[mode])} rounds, {speedup[mode]:.2f}x reference)"
        )
    print(f"  max relative posterior-mean gap vs reference: {max_gap:.3e}")

    # Merge into the existing trajectory file rather than overwrite it, so
    # entries owned by other benchmarks (e.g. the batched-MCMC bench's
    # ``mcmc`` section) survive a re-run of this one.
    merge_bench_entries(
        {
            "benchmark": "ep-kernel",
            "workload": {
                "arch": "x86",
                "n_hosts": N_HOSTS,
                "ticks_per_host": TICKS_PER_HOST,
                "total_slices": total_slices,
                "n_events": len(events),
            },
            "slices_per_second": {m: round(throughput[m], 2) for m in MODES},
            "speedup_vs_reference": {m: round(speedup[m], 2) for m in MODES},
            "max_relative_posterior_gap": max_gap,
            "rounds": {m: len(timings[m]) for m in MODES},
        }
    )

    # The point of the kernel: batched vectorized solves crush the
    # dict-keyed reference loop, and single-record solves already win.
    assert speedup["compiled"] > 1.0
    assert speedup["batched"] >= 3.0, (
        f"batched kernel only {speedup['batched']:.2f}x reference (need >= 3x)"
    )


BIND_BATCH = 16
BIND_CALLS = 40  # bind calls per timed round


def _dense_bind(binder, scales):
    """Dense twin of ``ConstraintSiteBinder.bind``: every relation's full
    ``(w, w)`` outer product, added in relation order."""
    scaled = np.ascontiguousarray(binder.coefficients[None, :, :] * scales[:, None, :])
    magnitude = np.abs(scaled).sum(axis=-1)
    sigma = np.maximum(binder.tolerances[None, :] * magnitude, 1e-9)
    rows = scaled / sigma[..., None]
    precision = np.zeros((scaled.shape[0], binder.width, binder.width))
    for relation in range(rows.shape[1]):
        row = rows[:, relation, :]
        precision += row[:, :, None] * row[:, None, :]
    return precision, np.zeros((scaled.shape[0], binder.width))


def test_bench_constraint_bind_sparse_vs_dense():
    catalog = catalog_for("x86")
    engine = BayesPerfEngine(catalog, standard_profiling_events(catalog))
    _, binder = engine._megabatch_structure()
    constraint = max(binder.constraints, key=lambda site: site.width)
    scales = np.exp2(
        np.random.default_rng(0).uniform(0.0, 40.0, size=(BIND_BATCH, constraint.width))
    )
    sparse, dense = constraint.bind(scales), _dense_bind(constraint, scales)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sparse, dense))

    binds = {"sparse": constraint.bind, "dense": lambda s: _dense_bind(constraint, s)}
    timings = {mode: [] for mode in binds}

    def best_ratio():
        return min(timings["dense"]) / min(timings["sparse"])

    # Interleaved best-of rounds, escalated while noise hides the margin.
    while not timings["sparse"] or (
        best_ratio() < 2.0 and len(timings["sparse"]) < MAX_ROUNDS
    ):
        for mode, bind in binds.items():
            start = time.perf_counter()
            for _ in range(BIND_CALLS):
                bind(scales)
            timings[mode].append((time.perf_counter() - start) / BIND_CALLS)

    us_per_slice = {
        mode: round(min(times) / BIND_BATCH * 1e6, 2) for mode, times in timings.items()
    }
    print(
        f"\nconstraint bind — {constraint.width}-wide group, "
        f"{constraint.coefficients.shape[0]} relations, B={BIND_BATCH}: "
        f"sparse {us_per_slice['sparse']} us/slice, dense {us_per_slice['dense']} us/slice "
        f"({best_ratio():.2f}x)"
    )
    merge_bench_entries(
        {
            "constraint-bind": {
                "workload": {
                    "arch": "x86",
                    "width": constraint.width,
                    "relations": int(constraint.coefficients.shape[0]),
                    "batch": BIND_BATCH,
                },
                "us_per_slice": us_per_slice,
                "speedup_sparse_vs_dense": round(best_ratio(), 2),
                "rounds": len(timings["sparse"]),
            }
        }
    )
    assert best_ratio() >= 2.0, f"sparse bind only {best_ratio():.2f}x dense (need >= 2x)"


SWEEP_CALLS = 20  # kernel calls per timed round


def _differential_paths():
    """``tests/test_differential_paths.py``, home of the loop twin."""
    path = Path(__file__).resolve().parent.parent / "tests" / "test_differential_paths.py"
    spec = importlib.util.spec_from_file_location("differential_paths_twins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_run_stacked_vs_loop_twin():
    paths = _differential_paths()
    (kernel, args), _ = paths.dephased_kernel_calls()
    lanes, groups = args[1].shape[0], len(args[5])
    assert (lanes, groups) == (16, 7)
    paths._assert_kernel_results_identical(
        kernel.run_stacked(*args), paths._loop_run_stacked(kernel, *args)
    )

    runs = {
        "one-sweep": lambda: kernel.run_stacked(*args),
        "loop": lambda: paths._loop_run_stacked(kernel, *args),
    }
    timings = {mode: [] for mode in runs}

    def best_ratio():
        return min(timings["loop"]) / min(timings["one-sweep"])

    # Interleaved best-of rounds, escalated while noise hides the margin.
    while not timings["loop"] or (
        best_ratio() < 1.2 and len(timings["loop"]) < MAX_ROUNDS
    ):
        for mode, run in runs.items():
            start = time.perf_counter()
            for _ in range(SWEEP_CALLS):
                run()
            timings[mode].append((time.perf_counter() - start) / SWEEP_CALLS)

    us_per_slice = {
        mode: round(min(times) / lanes * 1e6, 2) for mode, times in timings.items()
    }
    print(
        f"\nrun_stacked — {lanes} lanes, {groups} repair groups: one-sweep "
        f"{us_per_slice['one-sweep']} us/slice, loop twin {us_per_slice['loop']} us/slice "
        f"({best_ratio():.2f}x)"
    )
    merge_bench_entries(
        {
            "ep-sweep": {
                "workload": {"arch": "x86", "lanes": lanes, "repair_groups": groups},
                "us_per_slice": us_per_slice,
                "speedup_vs_loop": round(best_ratio(), 2),
                "rounds": len(timings["loop"]),
            }
        }
    )
    assert best_ratio() >= 1.2, f"run_stacked only {best_ratio():.2f}x the loop twin (need >= 1.2x)"
