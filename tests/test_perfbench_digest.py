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


def _output(workload, seed, digest):
    return (
        "# fingerprint {}\n"
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
