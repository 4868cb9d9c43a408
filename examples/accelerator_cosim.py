"""Accelerator co-simulation demo: from measured chains to device figures.

Runs the paper's accelerator workload in software — per-site tilted MCMC
inside EP (``EstimatorSpec("mcmc")``), batched over a 64-host fleet —
while a :class:`~repro.fg.mcmc.ChainTrace` records every site chain the
sampler executes.  The recorded trace is serialised through the fleet
tracefile format, read back, and replayed through the accelerator device
model: latency, occupancy, energy and read-path figures all derive from the
*measured* site-visit schedule and acceptance rates, and replaying the same
trace reproduces them exactly.

Run with:  python examples/accelerator_cosim.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accelerator import (
    AcceleratorConfig,
    AcceleratorModel,
    FPGAResourceModel,
    ReadLatencyModel,
    ReadPath,
)
from repro.api import EstimatorSpec, HostSpec, Pipeline, RecorderSpec, RunSpec
from repro.fg.mcmc import ChainTrace
from repro.fleet import chain_trace_file, read_trace, write_trace

N_HOSTS = 64
TICKS = 2
#: Chain effort per site visit (burn-in spans two adaptation windows).
MCMC_SAMPLES = 60
MCMC_BURN_IN = 120
EP_ITERATIONS = 3
#: Host-CPU TDPs the paper compares board power against (x86 / Power9).
CPU_TDP_W = {"pcie": 100.0, "capi": 190.0}


def record_fleet_chains() -> ChainTrace:
    """Run the 64-host fleet on the per-site MCMC estimator, recording chains."""
    spec = RunSpec(
        arch="x86",
        hosts=tuple(
            HostSpec(
                workload="KMeans" if index % 2 == 0 else "steady",
                seed=index,
                n_ticks=TICKS,
            )
            for index in range(N_HOSTS)
        ),
        estimator=EstimatorSpec(
            "mcmc", samples=MCMC_SAMPLES, burn_in=MCMC_BURN_IN, ep_iterations=EP_ITERATIONS
        ),
        recorder=RecorderSpec(
            params={
                "n_samples": MCMC_SAMPLES,
                "burn_in": MCMC_BURN_IN,
                "ep_iterations": EP_ITERATIONS,
                "adapt": True,
            }
        ),
        n_workers=4,
    )
    result = Pipeline.from_spec(spec).run()
    recorder = result.chain_trace
    print(
        f"software run: {result.n_slices} slices at "
        f"{result.slices_per_second:.1f} slices/s (batched per-site tilted MCMC)"
    )
    print(
        f"chain trace:  {recorder.n_visits} site visits over {recorder.n_slices} "
        f"slices, {recorder.total_steps} chain steps, "
        f"mean acceptance {recorder.acceptance_rate():.1%}"
    )
    return recorder


def main() -> None:
    print(f"Accelerator co-simulation: {N_HOSTS} hosts x {TICKS} quanta\n")
    recorder = record_fleet_chains()

    # Round-trip the trace through the versioned tracefile format; the
    # co-simulation must be reproducible from the file alone.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet_chains.jsonl"
        write_trace(
            path,
            chain_trace_file(
                recorder, arch="x86", workload="fleet-mcmc", metadata={"hosts": N_HOSTS}
            ),
        )
        replayed = read_trace(path).chain
        print(f"trace file:   {recorder.n_visits} visits -> {path.name} -> replayed\n")

    reports = {}
    for transport in ("capi", "pcie"):
        model = AcceleratorModel(AcceleratorConfig(transport=transport))
        cosim = model.cosimulate(recorder)
        if model.cosimulate(replayed) != cosim:
            raise SystemExit("BUG: replayed trace produced different estimates")
        energy = FPGAResourceModel(model.config).energy_report(cosim, name=transport)
        reports[transport] = (model, cosim, energy)

    print("trace-driven device estimates (identical from the replayed file):")
    for transport, (model, cosim, energy) in reports.items():
        occupancy = ", ".join(f"{k} {v:.0%}" for k, v in cosim.occupancy.items())
        print(f"  {transport}:")
        print(
            f"    latency : {cosim.makespan_cycles:,.0f} cycles for the workload "
            f"({cosim.microseconds_per_slice:.1f} us/slice, "
            f"{cosim.slices_per_second:,.0f} slices/s)"
        )
        print(f"    occupancy: {occupancy}")
        print(
            f"    energy  : {energy.total_joules * 1e3:.2f} mJ "
            f"({energy.millijoules_per_slice:.3f} mJ/slice, "
            f"board avg {energy.measured_average_power_w:.1f} W, "
            f"{energy.power_efficiency_vs(CPU_TDP_W[transport]):.1f}x less than the "
            f"{CPU_TDP_W[transport]:.0f} W host CPU)"
        )

    # Fig. 3, grounded: the read-path model's workload shape comes from the
    # measured trace instead of nominal constants.
    model, cosim, _ = reports["capi"]
    latency = ReadLatencyModel.from_chain_trace(recorder, accelerator=model)
    print("\nper-read latency (host cycles, model shape from the measured trace):")
    for name, cycles in latency.all_paths().items():
        print(f"  {name:22s} {cycles:9,.0f}")
    overhead = latency.overhead_vs_linux(ReadPath.BAYESPERF_ACCELERATOR)
    print(f"  accelerator overhead vs native read: {overhead:.1%}")


if __name__ == "__main__":
    main()
