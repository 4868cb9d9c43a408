"""Fleet demo: correct multiplexed counters for 64 hosts as a service.

Simulates a 64-host fleet (half running KMeans, half the phase-rich
mux-stress workload), streams every host's PMI samples through bounded ring
buffers into a sharded worker pool, and reports the pool's throughput and
engine sharing.  Also records one host's run to a JSONL trace file and
replays it, exiting non-zero unless the round-trip is exact.

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


def fleet_spec() -> RunSpec:
    # Fleet hosts monitor the standard profiling event set (the paper's §6.2
    # configuration), whose engine and schedule every worker builds once and
    # shares across its hosts.
    hosts = tuple(
        HostSpec(
            workload="KMeans" if index % 2 == 0 else "mux-stress",
            seed=index,
            n_ticks=TICKS,
        )
        for index in range(N_HOSTS)
    )
    return RunSpec(arch="x86", hosts=hosts, n_workers=4)


def main() -> None:
    print(f"Fleet telemetry demo: {N_HOSTS} hosts x {TICKS} quanta\n")

    log = EventLog()
    pipeline = Pipeline.from_spec(fleet_spec())
    pipeline.service.dispatcher.add(log)
    result = pipeline.run().fleet
    cache = result.engine_cache
    print(
        f"worker pool: {result.total_slices} slices at "
        f"{result.slices_per_second:7.1f} slices/s "
        f"(engines built: {cache['misses']}, cache hits: {cache['hits']})"
    )

    kinds = {}
    for event in log.iter():
        kinds[type(event).__name__] = kinds.get(type(event).__name__, 0) + 1
    print("\nObservability event stream:")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:22s} x{count}")

    # Record one host's session and replay it through the pipeline.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "host.jsonl"
        recorded = record_session_trace(path, "KMeans", metrics=METRICS, n_ticks=TICKS, seed=0)
        replay = RunSpec(hosts=(HostSpec(trace=str(path), host_id="replayed"),), n_workers=1)
        replayed = Pipeline.from_spec(replay).run().estimates["replayed"]
        if not replayed.values_equal(recorded.estimates):
            raise SystemExit("BUG: replayed estimates differ from the recording")
        print(
            f"\nTrace record/replay: {recorded.n_ticks} quanta -> {path.name}, "
            "replay matches the recording exactly"
        )


if __name__ == "__main__":
    main()
