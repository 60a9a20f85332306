"""benchmarks.layers — the repo's one host-normalised benchmark.

Four workloads, eight end-to-end metrics and a per-layer ledger, all
measured from *outside* ``src/repro`` by timing calls into its public
functions.  ``README.md`` in this directory is the reference for every
metric and workload name; ``BENCHMARK.json`` at the repo root is the
machine-readable contract.

Entry points::

    PYTHONPATH=src python -m benchmarks.layers run [--workload W] [--seed S] [--trace]
    PYTHONPATH=src python -m benchmarks.layers compare A.json B.json
    PYTHONPATH=src python -m benchmarks.layers report results/run-<seed>.json
    python3 benchmarks/layers/run.py --workload W --seed S --seconds N --trace 0|1
"""

import time

#: Stamped when the package is first imported — the closest observable
#: point to "workload start", so ``setup_s`` includes every import.
IMPORT_T0 = time.perf_counter()

#: Schema tag of ``results/run-<seed>.json``.
SCHEMA = "repro-layers/1"

#: ``run_seconds`` of ``BENCHMARK.json``: op counts are fixed for this
#: value and scale linearly with ``--seconds``.
RUN_SECONDS = 30
