"""Sharded multi-process party execution with durable checkpoints.

``repro.cluster`` shards the ``n`` parties of a protocol run across
``k`` worker OS processes, recovering true multicore parallelism for the
Lamport/Merkle/SNARK-heavy per-party hot paths that the GIL serializes
inside one interpreter.  The layer is built from:

* :mod:`repro.cluster.engine` — :class:`ShardEngine`, the deterministic
  single-shard round executor (the worker's inner loop: one placement
  of :class:`repro.net.rounds.RoundCore`);
* :mod:`repro.cluster.checkpoint` — the durable per-party checkpoint
  codec (round number, party state snapshot, trace offsets, metrics
  tally, staged frames) built on :mod:`repro.utils.serialization`;
* :mod:`repro.cluster.wire` — the supervisor⇄worker control channel:
  length-prefixed ``header | blob`` messages (no party frame ever rides
  it);
* :mod:`repro.cluster.meshwire` / :mod:`repro.cluster.mesh` — the
  worker⇄worker data plane: a compact struct-packed frame-train codec
  and the direct TCP mesh router that carries it;
* :mod:`repro.cluster.job` — the job: the run's parties and termination
  rule, and the round-0 shard checkpoint each worker is shipped;
* :mod:`repro.cluster.worker` / :mod:`repro.cluster.supervisor` — the
  worker process main loop (round stepping, heartbeats, checkpoint
  writes) and the supervisor (round barriers, digest-replayed metrics,
  health monitoring, crash-restart recovery, SIGKILL fault injection);
* :mod:`repro.cluster.drivers` — π_ba over the cluster (record, then
  replay on the ``mesh(k)`` row of :mod:`repro.runtime.placements`) and
  the ``BENCH_cluster.json`` scaling benchmark.

See ``docs/cluster.md`` for the architecture, checkpoint format, and
the recovery state machine.

Re-exports resolve lazily (PEP 562): the worker main loop imports
``repro.cluster.worker`` through this package on every process spawn,
and must not pay for the protocol drivers it never touches.
"""

from typing import TYPE_CHECKING, List

#: Lazily re-exported name -> defining module.
_EXPORTS = {
    "ClusterCheckpoint": "repro.cluster.checkpoint",
    "PartyCheckpoint": "repro.cluster.checkpoint",
    "load_checkpoint": "repro.cluster.checkpoint",
    "save_checkpoint": "repro.cluster.checkpoint",
    "ShardEngine": "repro.cluster.engine",
    "ClusterJob": "repro.cluster.job",
    "ClusterConfig": "repro.cluster.supervisor",
    "ClusterResult": "repro.cluster.supervisor",
    "ClusterSupervisor": "repro.cluster.supervisor",
    "run_balanced_ba_cluster": "repro.cluster.drivers",
    "run_cluster_bench": "repro.cluster.drivers",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # static importers see the eager names
    from repro.cluster.checkpoint import (
        ClusterCheckpoint,
        PartyCheckpoint,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.cluster.drivers import (
        run_balanced_ba_cluster,
        run_cluster_bench,
    )
    from repro.cluster.engine import ShardEngine
    from repro.cluster.job import ClusterJob
    from repro.cluster.supervisor import (
        ClusterConfig,
        ClusterResult,
        ClusterSupervisor,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
