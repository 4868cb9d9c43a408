"""Crash-resume demo: a SIGKILLed fleet run resumed to bit-identical results.

The run is declared once as a frozen :class:`repro.api.RunSpec` with a
:class:`~repro.api.CheckpointSpec`: every completed slice streams into a
write-ahead log (tracefile format version 4), and every inference round
each host's engine snapshot + ingest position is checkpointed and sealed
with an fsynced commit marker.

The demo then kills the run for real: a child process executes the spec
with a :class:`~repro.fleet.chaos.CrashingStream` wrapped around the log's
file object in ``hard`` mode, which SIGKILLs the process mid-write after a
scheduled number of writes — no cleanup code runs, the log is left with a
torn final line, exactly like a machine losing power.  The parent then
resumes from the mutilated file alone (``Pipeline.resume(path)`` — the
header carries the full serialized spec) and verifies the final estimates
are bit-identical with an uninterrupted reference run.

Run with:  python examples/crash_resume.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import CheckpointSpec, Pipeline, RunSpec
from repro.fleet import read_trace

N_HOSTS = 6
TICKS = 8
#: Kill the child at the start of its (N+1)-th log write — mid-run, after
#: at least one committed checkpoint round.
CRASH_AFTER_WRITES = 40

#: The child re-executes this file with the WAL path appended.
CHILD_FLAG = "--child"


def build_spec(wal_path: str) -> RunSpec:
    return RunSpec.fleet(
        N_HOSTS,
        "mux-stress",
        n_ticks=TICKS,
        metrics=("ipc", "l1d_mpki"),
        n_workers=2,
        pump_records=2,  # several rounds => several commit points
        checkpoint=CheckpointSpec(path=wal_path),
    )


def run_child(wal_path: str) -> None:
    """Executed in the child process: run until the injected SIGKILL."""
    from repro.fleet.chaos import FaultInjector

    chaos = FaultInjector(
        (), crash_after_writes=CRASH_AFTER_WRITES, crash_hard=True
    )
    Pipeline.from_spec(build_spec(wal_path), chaos=chaos).run().fleet
    raise SystemExit("the injected crash never fired")  # pragma: no cover


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-"))
    wal_path = workdir / "run.wal.jsonl"

    print(f"Reference run: {N_HOSTS} hosts x {TICKS} quanta, no interruptions")
    reference = Pipeline.from_spec(
        build_spec(str(workdir / "reference.wal.jsonl"))
    ).run().fleet
    print(f"  {reference.total_slices} slices completed\n")

    print(f"Killing a child run mid-write (SIGKILL after {CRASH_AFTER_WRITES} log writes)")
    child = subprocess.run(
        [sys.executable, __file__, CHILD_FLAG, str(wal_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if child.returncode >= 0:
        raise SystemExit(
            f"child exited with {child.returncode}, expected a signal death"
        )
    print(f"  child died with signal {-child.returncode} (SIGKILL = 9)")

    damaged = read_trace(wal_path, strict=False)
    print(
        f"  log after the kill: {damaged.checkpoints} checkpoint(s), "
        f"last commit round {damaged.last_commit_round}, "
        f"torn tail: {damaged.torn_tail}\n"
    )

    print("Resuming from the write-ahead log alone")
    resumed = Pipeline.resume(wal_path).run().fleet
    print(f"  {resumed.total_slices} slices re-executed after the recovery point")

    identical = all(
        reference.estimates[host].values_equal(resumed.estimates[host])
        for host in reference.estimates
    )
    total = sum(len(trace) for trace in reference.estimates.values())
    print(f"  final estimates bit-identical with the uninterrupted run: {identical}")
    log = read_trace(wal_path)
    logged = sum(len(trace) for trace in log.host_estimates.values())
    print(f"  the log now holds the complete run: {logged}/{total} slices, "
          f"{log.resumes} resume marker(s)")
    if not identical or logged != total:
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == CHILD_FLAG:
        run_child(sys.argv[2])
    sys.exit(main())
