"""The pinned perfbench digests and their CI checker (tools/check_perfbench_digest.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-sync", "fleet-dephased", "perf-durable")


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_perfbench_digest", ROOT / "tools" / "check_perfbench_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pinned(checker):
    return json.loads(checker.PINNED.read_text())


PINNED_MACHINE = {
    "nproc": 2,
    "python": "3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu": "Intel(R) Xeon(R) Processor",
    "commit": "0" * 40,
}


def _output(workload, seed, digest, machine=None):
    return (
        f"# fingerprint {json.dumps(machine or {}, sort_keys=True)}\n"
        f"# workload {workload} seed {seed}: 3 untraced and 0 traced repeats, 32 hosts\n"
        f"# digest {digest}\n"
        "# slices_per_s = 1000 1/s\n"
    )


def test_every_ci_gate_has_a_pinned_digest(pinned):
    for workload in WORKLOADS:
        assert len(pinned["2"][workload]) == 64


def test_matching_digest_passes(checker, pinned):
    for workload in WORKLOADS:
        assert checker.check(_output(workload, 2, pinned["2"][workload]), pinned) is None


def test_mismatch_and_unpinned_runs_fail(checker, pinned):
    assert "!= pinned" in checker.check(_output("fleet-sync", 2, "0" * 64), pinned)
    assert "no digest pinned" in checker.check(_output("fleet-sync", 99, "0" * 64), pinned)
    assert "no '# workload'" in checker.check("# digest MISMATCH\n", pinned)


def test_main_exit_codes(checker, pinned, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(_output("perf-durable", 2, pinned["2"]["perf-durable"]))
    bad = tmp_path / "bad.txt"
    bad.write_text(_output("perf-durable", 2, pinned["2"]["fleet-sync"]))
    assert checker.main(["check", str(good)]) == 0
    assert checker.main(["check", str(bad)]) == 1
    assert checker.main(["check"]) == 2


def test_pins_record_their_fingerprint(pinned):
    assert pinned["_fingerprint"] == {
        "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31",
        "python": "3.11",
    }


def test_mismatch_on_the_pinned_machine_blames_the_code(checker, pinned):
    problem = checker.check(_output("fleet-sync", 2, "0" * 64, PINNED_MACHINE), pinned)
    assert '"numpy": "2.4.6"' in problem.split("run fingerprint:")[1].splitlines()[0]
    assert "pinned fingerprint:" in problem
    assert "no pinned field differs: a code change moved the digest" in problem


def test_mismatch_names_the_fields_that_differ(checker, pinned):
    machine = dict(PINNED_MACHINE, numpy="2.5.0", python="3.12.1")
    problem = checker.check(_output("fleet-sync", 2, "0" * 64, machine), pinned)
    assert "numpy (2.5.0 vs pinned 2.4.6)" in problem
    assert "python (3.12.1 vs pinned 3.11)" in problem
    assert "blas" not in problem.split("differs in:")[1]
    problem = checker.check(_output("fleet-sync", 2, "0" * 64), pinned)
    assert "run fingerprint:    missing" in problem
    assert "blas (missing vs pinned scipy-openblas 0.3.31)" in problem


def test_dotted_extensions_match_their_pin(checker):
    pin = {"python": "3.11", "blas": "scipy-openblas 0.3.31"}
    run = {"python": "3.11.7", "blas": "scipy-openblas 0.3.31.188.0"}
    assert checker.fingerprint_differences(run, pin) == []
    run = {"python": "3.110", "blas": "scipy-openblas 0.3.310"}
    assert len(checker.fingerprint_differences(run, pin)) == 2
