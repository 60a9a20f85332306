"""The cluster's scaling bench.

No protocol needs a driver here: a ``build_*`` builder's return value
runs on the mesh row of :mod:`repro.runtime.placements`
(``mesh(2).run(*build_phase_king(inputs, byzantine))``), and π_ba is
``replay_balanced_ba(mesh(2), ...)`` from :mod:`repro.runtime.replay`
(whose :func:`record_balanced_ba_script` this module also serves).
What is left is :func:`run_cluster_bench`, the ``BENCH_cluster.json``
record: π_ba replay at 1/2/4 workers with differential parity
(outputs, ``max_bits_per_party``, and full per-party tallies) against
the ``local`` row's execution of the same script.  The record holds no
wall clock; ``benchmarks/layers``' ``cluster.mesh{1,2}w_job_s`` cells
time the mesh.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.cluster.supervisor import ClusterConfig
from repro.obs.bench import bench_payload, write_bench_json
from repro.runtime.placements import LOCAL, mesh
from repro.runtime.replay import (
    record_balanced_ba_script,
    replay_script,
    tallies_equal,
)
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness


def run_cluster_bench(
    n: int = 64,
    worker_counts: Sequence[int] = (1, 2, 4),
    scheme_name: str = "snark",
    seed: int = 2021,
    checkpoint_interval: int = 8,
    results_dir: Optional[Path] = None,
    config: Optional[ClusterConfig] = None,
    bench_name: str = "cluster",
) -> Dict[str, Any]:
    """π_ba's replay at 1 and at k workers, with differential parity.

    Records π_ba once (hybrid model), then executes the *same* replay
    script single-process (``run_parties``, the parity reference) and at
    each requested worker count.  Every cluster run must reproduce the
    reference outputs, ``max_bits_per_party``, and full per-party
    tallies.  Returns the ``repro-bench/2`` payload (written as
    ``BENCH_<bench_name>.json`` when ``results_dir`` is given).
    """
    from repro.net.adversary import random_corruption
    from repro.params import ProtocolParameters

    scheme = scheme_by_name(scheme_name)
    params = ProtocolParameters()
    inputs = {i: i % 2 for i in range(n)}
    plan = random_corruption(
        n, params.max_corruptions(n), Randomness(seed).fork("corruption")
    )
    reference, script = record_balanced_ba_script(
        inputs, plan, scheme, params, Randomness(seed).fork("protocol")
    )
    # Single-process parity reference over the same script.
    ref_result = replay_script(script, n, LOCAL)
    ref_metrics = ref_result.metrics

    parity: Dict[str, Any] = {}
    restarts: Dict[str, int] = {}
    last_metrics = ref_metrics
    for workers in worker_counts:
        row = mesh(
            name=f"pi-ba-bench-{workers}w",
            checkpoint_interval=checkpoint_interval,
            config=dataclasses.replace(
                config if config is not None else ClusterConfig(),
                num_workers=workers,
            ),
        )
        result = replay_script(script, n, row)
        parity[str(workers)] = {
            "outputs": result.outputs == ref_result.outputs,
            "max_bits_per_party": (
                result.metrics.max_bits_per_party
                == ref_metrics.max_bits_per_party
            ),
            "tallies": tallies_equal(
                result.metrics, ref_metrics, range(n)
            ),
        }
        restarts[str(workers)] = result.restarts
        last_metrics = result.metrics

    payload = bench_payload(
        bench_name,
        snapshot=last_metrics.snapshot(),
        phase_breakdown=last_metrics.phase_breakdown(),
        extra={
            "n": n,
            "scheme": scheme_name,
            "seed": seed,
            "worker_counts": list(worker_counts),
            "checkpoint_interval": checkpoint_interval,
            "replay_rounds": script.num_rounds,
            "replay_messages": script.num_messages,
            "parity": parity,
            "restarts": restarts,
            "reference_agreement": reference.agreement,
            "reference_max_bits_per_party": (
                ref_metrics.max_bits_per_party
            ),
        },
    )
    if results_dir is not None:
        write_bench_json(results_dir, payload)
    return payload
