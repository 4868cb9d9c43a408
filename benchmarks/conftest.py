"""Benchmark bootstrap: make ``src/`` (and this directory) importable
without an installed package."""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The benchmarks share helpers (bench_io) as sibling modules, and the
# tests' twins (signature_twin) from the tests directory.
_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "tests", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
