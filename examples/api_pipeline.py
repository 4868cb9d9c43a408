"""Unified API demo: spec-driven runs, streaming results, bounded memory.

Declares a 64-host fleet estimation as a frozen :class:`repro.api.RunSpec`
(per-site tilted MCMC through the estimator registry, chain capture with a
tracefile sink), then consumes it through ``Pipeline.stream()``: per-slice
results arrive while the fleet runs, and the chain recorder is flushed to
the sink after every inference round, so its in-memory buffer stays bounded
by one round instead of growing for the whole run.  The flushed file is then
read back and replayed through the accelerator co-simulation — including the
per-window burn-in acceptance trajectories that price the adaptation
hardware.

Run with:  python examples/api_pipeline.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accelerator import AcceleratorModel
from repro.api import EstimatorSpec, HostSpec, Pipeline, RecorderSpec, RunSpec
from repro.fleet import read_trace

N_HOSTS = 64
TICKS = 2
#: Burn-in spans one adaptation window, so chains record their trajectory.
SAMPLES, BURN_IN = 40, 60


def main() -> None:
    print(f"Unified API demo: {N_HOSTS} hosts x {TICKS} quanta\n")
    with tempfile.TemporaryDirectory() as tmp:
        sink = str(Path(tmp) / "fleet_chains.jsonl")
        spec = RunSpec(
            hosts=tuple(
                HostSpec(
                    workload="KMeans" if index % 2 == 0 else "steady",
                    seed=index,
                    n_ticks=TICKS,
                )
                for index in range(N_HOSTS)
            ),
            estimator=EstimatorSpec("mcmc", samples=SAMPLES, burn_in=BURN_IN, ep_iterations=2),
            recorder=RecorderSpec(
                sink=sink, params=(("n_samples", SAMPLES), ("burn_in", BURN_IN))
            ),
            n_workers=4,
            batch_size=1,  # one tick per host per round -> several flush rounds
        )
        print(f"spec: {spec.estimator}\n")

        pipeline = Pipeline.from_spec(spec)
        recorder = pipeline.chain_recorder
        streamed = 0
        for result in pipeline.stream():
            streamed += 1
            if streamed <= 3:
                head = ", ".join(
                    f"{k}={v:.3g}" for k, v in list(result.values.items())[:3]
                )
                print(f"  slice {result.host}@t{result.tick}: {head}")
        fleet = pipeline.fleet_result
        print(
            f"\nstreamed {streamed} slices at {fleet.slices_per_second:.1f} slices/s; "
            f"chain recorder: {recorder.total_recorded} visits recorded, "
            f"peak buffered {recorder.peak_buffered} "
            f"({recorder.n_visits} still in memory after the final flush)"
        )
        if recorder.peak_buffered >= recorder.total_recorded:
            raise SystemExit("BUG: streaming did not bound the recorder's memory")

        replayed = read_trace(sink).chain
        if replayed.n_visits != recorder.total_recorded:
            raise SystemExit("BUG: the sink lost chain records")
        report = AcceleratorModel().cosimulate(replayed)
        print(
            f"\nco-simulation from the flushed file: {report.n_visits} visits, "
            f"{report.adaptation_windows} burn-in adaptation windows priced, "
            f"{report.microseconds_per_slice:.1f} us/slice, "
            f"EP-engine occupancy {report.occupancy['ep_engine']:.0%}"
        )


if __name__ == "__main__":
    main()
