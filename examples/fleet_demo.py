"""Fleet demo: correct multiplexed counters for 64 hosts as a service.

Simulates a 64-host fleet (half running KMeans, half the phase-rich
mux-stress workload), streams every host's PMI samples through bounded ring
buffers into a sharded worker pool, and compares the pool's throughput
against the per-host serial construction baseline.  Also records one host's
run to a JSONL trace file and replays it, verifying the round-trip exactly.

Run with:  python examples/fleet_demo.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import HostSpec, Pipeline, RunSpec
from repro.fleet import EventLog, record_session_trace

N_HOSTS = 64
TICKS = 3
#: Derived metrics monitored on the recorded/replayed host.
METRICS = ("ipc", "l1d_mpki", "llc_miss_rate")


def fleet_spec(mode: str) -> RunSpec:
    # Fleet hosts monitor the standard profiling event set (the paper's §6.2
    # configuration), where per-host schedule construction is substantial.
    hosts = tuple(
        HostSpec(
            workload="KMeans" if index % 2 == 0 else "mux-stress",
            seed=index,
            n_ticks=TICKS,
        )
        for index in range(N_HOSTS)
    )
    return RunSpec(arch="x86", hosts=hosts, mode=mode, n_workers=4)


def main() -> None:
    print(f"Fleet telemetry demo: {N_HOSTS} hosts x {TICKS} quanta\n")

    log = EventLog()
    runs = {"serial": [], "pool": []}
    # Two interleaved rounds per mode so load drift hits both modes equally;
    # the faster round is reported.
    for round_index in range(2):
        for mode in ("serial", "pool"):
            pipeline = Pipeline.from_spec(fleet_spec(mode))
            if mode == "pool" and round_index == 0:
                pipeline.service.dispatcher.add(log)
            runs[mode].append(pipeline.run().fleet)
    results = {
        mode: max(mode_runs, key=lambda r: r.slices_per_second)
        for mode, mode_runs in runs.items()
    }
    for mode, result in results.items():
        cache = result.engine_cache
        print(
            f"{mode:6s}: {result.total_slices} slices at "
            f"{result.slices_per_second:7.1f} slices/s "
            f"(engines built: {cache['engines_built']}, cache hits: {cache['hits']})"
        )
    speedup = results["pool"].slices_per_second / results["serial"].slices_per_second
    print(f"worker pool speedup over per-host construction: {speedup:.2f}x")

    kinds = {}
    for event in log.iter():
        kinds[type(event).__name__] = kinds.get(type(event).__name__, 0) + 1
    print("\nObservability event stream (pool run):")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:22s} x{count}")

    # Record one host's session and replay it through the pipeline.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "host.jsonl"
        recorded = record_session_trace(path, "KMeans", metrics=METRICS, n_ticks=TICKS, seed=0)
        replay = RunSpec(hosts=(HostSpec(trace=str(path), host_id="replayed"),), n_workers=1)
        replayed = Pipeline.from_spec(replay).run().estimates["replayed"]
        exact = replayed.values_equal(recorded.estimates)
        print(
            f"\nTrace record/replay: {recorded.n_ticks} quanta -> {path.name}, "
            f"replay {'matches the recording exactly' if exact else 'DIFFERS (bug!)'}"
        )


if __name__ == "__main__":
    main()
