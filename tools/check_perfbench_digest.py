"""Check a perfbench run's ``# digest`` line against the pinned digests.

Usage::

    python3 perfbench/run.py --workload fleet-sync --seed 2 | tee out.txt
    python tools/check_perfbench_digest.py out.txt

Reads the workload and seed from the run's ``# workload`` line and its
digest from the ``# digest`` line, then compares the digest with
``tests/fixtures/perfbench_digests.json``.  Exits non-zero when a line is
missing, no digest is pinned for that workload and seed, or the digests
differ: a refactor must keep every posterior estimate bit-identical.

On a mismatch it also prints the run's ``# fingerprint`` next to the one
the pins were taken under, and names every pinned field (numpy, BLAS,
Python) the run differs in.  No differing field points at the code; a
differing one means the digest may have moved with the library's rounding.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import List, Optional

PINNED = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "perfbench_digests.json"

_WORKLOAD = re.compile(r"^# workload (\S+) seed (\d+):", re.MULTILINE)
_DIGEST = re.compile(r"^# digest ([0-9a-f]+)$", re.MULTILINE)
_FINGERPRINT = re.compile(r"^# fingerprint (\{.*\})$", re.MULTILINE)


def fingerprint_differences(run: dict, pinned: dict) -> List[str]:
    """The pinned fingerprint fields *run* differs in.

    A pinned value matches the run's value or a dotted extension of it
    (``3.11`` matches ``3.11.7``).
    """
    differing = []
    for name, want in pinned.items():
        got = str(run.get(name, ""))
        if got != want and not got.startswith(f"{want}."):
            differing.append(f"{name} ({got or 'missing'} vs pinned {want})")
    return differing


def _mismatch_report(output: str, pinned: dict) -> str:
    """The run's and the pins' fingerprints, and the fields that differ."""
    match = _FINGERPRINT.search(output)
    run = json.loads(match.group(1)) if match is not None else {}
    expected = pinned.get("_fingerprint", {})
    differing = fingerprint_differences(run, expected)
    verdict = (
        f"differs in: {', '.join(differing)}"
        if differing
        else "no pinned field differs: a code change moved the digest"
    )
    return (
        f"\n  run fingerprint:    {json.dumps(run, sort_keys=True) if run else 'missing'}"
        f"\n  pinned fingerprint: {json.dumps(expected, sort_keys=True)}"
        f"\n  {verdict}"
    )


def check(output: str, pinned: dict) -> Optional[str]:
    """``None`` when *output*'s digest matches *pinned*, else the reason."""
    workload = _WORKLOAD.search(output)
    digest = _DIGEST.search(output)
    if workload is None or digest is None:
        return "no '# workload' or '# digest' line in the run's output"
    name, seed = workload.groups()
    expected = pinned.get(seed, {}).get(name)
    if expected is None:
        return f"no digest pinned for {name} seed {seed}"
    if digest.group(1) != expected:
        return (
            f"{name} seed {seed}: digest {digest.group(1)} != pinned {expected}"
            + _mismatch_report(output, pinned)
        )
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/check_perfbench_digest.py RUN_OUTPUT")
        return 2
    problem = check(Path(argv[1]).read_text(), json.loads(PINNED.read_text()))
    if problem is not None:
        print(f"digest check FAILED: {problem}")
        return 1
    print("digest check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
