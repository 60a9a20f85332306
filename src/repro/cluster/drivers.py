"""π_ba over the cluster, plus the scaling bench.

Lockstep protocols need no driver here: a ``build_*`` builder's return
value runs on the mesh row of :mod:`repro.runtime.placements`
(``mesh(2).run(*build_phase_king(inputs, byzantine))``).  What is left:

* :func:`run_balanced_ba_cluster` — π_ba's headline workload: phase 1
  executes Fig. 3 in the hybrid model against a
  :class:`~repro.runtime.replay.RecordingLedger` (outputs, certificate
  and reference snapshot untouched), phase 2 is
  :func:`~repro.runtime.replay.replay_balanced_ba` on the mesh row —
  the supervisor's ledger charged from the workers' round digests, the
  hybrid charges applied verbatim;
* :func:`run_cluster_bench` — the ``BENCH_cluster.json`` record: π_ba
  replay at 1/2/4 workers with wall-clock scaling and differential
  parity (outputs, ``max_bits_per_party``, and full per-party tallies)
  against the ``local`` row's execution of the same script.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.cluster.supervisor import ClusterConfig
from repro.obs.bench import bench_payload, write_bench_json
from repro.runtime.drivers import record_balanced_ba_script
from repro.runtime.placements import LOCAL, mesh
from repro.runtime.replay import (
    replay_balanced_ba,
    replay_script,
    tallies_equal,
)
from repro.runtime.trace import TraceRecorder
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness


def run_balanced_ba_cluster(
    inputs: Dict[int, int],
    plan,
    scheme,
    params,
    rng: Randomness,
    adversary=None,
    *,
    num_workers: int = 2,
    checkpoint_interval: int = 8,
    config: Optional[ClusterConfig] = None,
    run_dir: Optional[Path] = None,
    resume: bool = False,
    trace: Optional[TraceRecorder] = None,
):
    """π_ba with its wire traffic routed across worker processes.

    Returns ``(ba_result, cluster_result)`` where ``ba_result.metrics``
    is the snapshot of the *cluster-charged* ledger (wire frames charged
    from worker digests + hybrid charges applied verbatim) — comparable
    bit-for-bit with :func:`~repro.runtime.drivers.run_balanced_ba_runtime`
    and the synchronous reference.  ``trace`` is the mesh row's: the
    run records one only when given a recorder.
    """
    reference, script = record_balanced_ba_script(
        inputs, plan, scheme, params, rng, adversary
    )
    return replay_balanced_ba(
        reference,
        script,
        mesh(
            num_workers,
            name="pi-ba-replay",
            checkpoint_interval=checkpoint_interval,
            config=config,
            run_dir=run_dir,
            resume=resume,
        ),
        trace=trace,
    )


# -- the scaling benchmark -----------------------------------------------------


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
    """1-vs-k-worker wall clock for π_ba, with differential parity.

    Records π_ba once (hybrid model), then executes the *same* replay
    script single-process (``run_parties``, the parity reference) and at
    each requested worker count.  Every cluster run must reproduce the
    reference outputs, ``max_bits_per_party``, and full per-party
    tallies.  Wall times land under ``cluster_{k}_workers``.  Returns
    the ``repro-bench/1`` payload (written as
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
    clock = time.perf_counter
    started = clock()
    reference, script = record_balanced_ba_script(
        inputs, plan, scheme, params, Randomness(seed).fork("protocol")
    )
    wall_times: Dict[str, float] = {"record_hybrid": clock() - started}

    # Single-process parity reference over the same script.
    started = clock()
    ref_result = replay_script(script, n, LOCAL)
    wall_times["run_parties_1proc"] = clock() - started
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
        started = clock()
        result = replay_script(script, n, row)
        wall_times[f"cluster_{workers}_workers"] = clock() - started
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
        wall_times=wall_times,
        extra={
            "n": n,
            "scheme": scheme_name,
            "seed": seed,
            "worker_counts": list(worker_counts),
            "checkpoint_interval": checkpoint_interval,
            "replay_rounds": script.num_rounds,
            "replay_messages": script.num_messages,
            # Wall-time context: k workers only beat 1 when the host
            # actually grants k cores; on a 1-core box the multi-worker
            # cells measure pure process overhead.
            "cpus_available": len(os.sched_getaffinity(0)),
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
