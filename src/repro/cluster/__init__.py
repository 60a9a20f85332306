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
* :mod:`repro.cluster.wire` — the supervisor⇄worker control channel,
  one socketpair per worker: length-prefixed ``header | blob`` messages
  (no party frame and no per-round pacing ever rides it);
* :mod:`repro.cluster.meshwire` / :mod:`repro.cluster.mesh` — the
  worker⇄worker data plane and the only round barrier: each round's
  frames for a peer travel as one length-prefixed record (a header
  naming the link and the round, then the :mod:`repro.net.trains`
  body), carried by the router over one socketpair per worker pair;
* :mod:`repro.cluster.job` — the job: the run's parties and termination
  rule, and the round-0 shard checkpoint each worker is shipped;
* :mod:`repro.cluster.worker` / :mod:`repro.cluster.supervisor` — the
  worker process main loop (rounds back to back, heartbeats, checkpoint
  writes, SIGKILL fault injection) and the supervisor (wires and forks
  the fleet, digest-replayed metrics, barrier commits, health
  monitoring, whole-fleet relaunch after a death);
* :mod:`repro.cluster.drivers` — π_ba over the cluster (record, then
  replay on the ``mesh(k)`` row of :mod:`repro.runtime.placements`) and
  the ``BENCH_cluster.json`` scaling benchmark.

See ``docs/cluster.md`` for the architecture, checkpoint format, and
the recovery state machine.  Import names from the defining modules;
the package itself re-exports nothing.
"""
