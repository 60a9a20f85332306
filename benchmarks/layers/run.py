"""Script entry for the driver: ``python3 benchmarks/layers/run.py ...``.

Equivalent to ``PYTHONPATH=src python -m benchmarks.layers run ...`` but
needs no environment: it puts the checkout root and ``src/`` on the
import path itself.  In a directory that holds only the benchmark (no
``src/repro``) there is nothing to measure, and it exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.layers: no src/repro under {ROOT}; nothing to measure")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.layers.__main__ import main

    sys.exit(main(["run", *sys.argv[1:]]))
