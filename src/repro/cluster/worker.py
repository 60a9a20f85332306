"""The cluster worker process.

A worker is one OS process owning one shard of the party set, forked by
the supervisor with its channels already connected: one control socket
to the supervisor (a :class:`~repro.cluster.wire.MessageChannel`) and
one mesh socket per peer.  The supervisor never paces it — the mesh is
the only round barrier:

1. receive its ``job`` (shard assignment, the barrier to resume from,
   the shard's target parties, the round cap, the checkpoint interval),
   restore the shard from that barrier's checkpoint — the JOB blob
   itself at round 0, the durable file otherwise — start its
   :class:`~repro.cluster.mesh.MeshRouter` and report the round it
   stands at (``resumed``);
2. run rounds back to back: step the
   :class:`~repro.cluster.engine.ShardEngine` (whose core holds every
   frame until it is due), ship the emitted frames to the peers that
   own their recipients (one train per peer, empty trains included —
   they are the round barrier — each flagged "every target in my shard
   has halted"), hand the engine its own shard's frames, wait for every
   peer's train, hand it what arrived, write the shard's checkpoint if
   the round closes a barrier, and stream a one-way
   ``done`` home with a charge digest of the emissions (one row per
   multicast run), the shard's halted outputs and — only when the job
   says ``traced`` — its drained trace events;
3. stop stepping once every train of a round (its own included) says
   halted, or at the job's round cap — every worker reads the same
   flags, so all stop at the same round — and wait for ``stop``.

While it waits for a peer's train it polls its control channel, so a
worker whose peer died stays alive until the supervisor kills it for
the relaunch.

A daemon heartbeat thread shares the channel (sends are locked) and
beacons ``heartbeat`` on a fixed interval so the supervisor can tell a
slow round from a dead process.  The worker never owns a metrics
ledger: the supervisor replays the digests into the authoritative one,
so sharding cannot double-charge the paper's headline metric.

The worker is deliberately crash-naked: any unexpected exception — a
malformed mesh chunk included — escapes, the process dies nonzero, and
the supervisor's recovery path (relaunch the fleet from the last
committed barrier) is the only error handling.  That is what makes
SIGKILL fault injection honest: a job's ``kill_round`` has the worker
SIGKILL itself mid-round, after stepping and before its trains ship.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.cluster.checkpoint import (
    decode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.cluster.engine import ShardEngine
from repro.cluster.mesh import MeshRouter
from repro.cluster.wire import (
    DONE,
    HEARTBEAT,
    JOB,
    RESUMED,
    STOP,
    ChannelClosed,
    Message,
    MessageChannel,
)
from repro.errors import ClusterError
from repro.net.metrics import multicast_runs
from repro.net.party import Frame
from repro.runtime.trace import TraceRecorder

#: Default seconds between heartbeat beacons.
HEARTBEAT_INTERVAL = 0.25


class _Heartbeat(threading.Thread):
    """Beacons liveness on the shared channel until stopped.

    Each beacon carries a monotonic moved-bytes ``progress`` counter
    (control sends minus heartbeats, plus mesh traffic) so the
    supervisor can distinguish "dead" from "slow shipping a huge body":
    a worker mid-train keeps advancing the counter even though no
    result message has landed yet.
    """

    def __init__(
        self,
        channel: MessageChannel,
        interval: float,
        progress: Optional[Callable[[], int]] = None,
    ) -> None:
        super().__init__(name="cluster-heartbeat", daemon=True)
        self._channel = channel
        self._interval = interval
        self._progress = progress
        self._stop = threading.Event()

    def run(self) -> None:
        # Event.wait paces the beacon; the worker never reads a clock.
        while not self._stop.wait(self._interval):
            fields = {}
            if self._progress is not None:
                fields["progress"] = int(self._progress())
            try:
                self._channel.send(Message(HEARTBEAT, fields))
            except ClusterError:
                return  # supervisor is gone; main loop will notice too

    def stop(self) -> None:
        self._stop.set()


def worker_main(
    worker_id: int,
    control: socket.socket,
    links: Dict[int, socket.socket],
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
) -> int:
    """Run one worker to completion; returns the process exit code.

    ``control`` is this worker's end of its supervisor socket, ``links``
    its end of the mesh socket to each peer.
    """
    channel = MessageChannel(control)
    heartbeat: Optional[_Heartbeat] = None
    router: Optional[MeshRouter] = None
    try:
        job_msg = channel.recv()
        if job_msg.kind != JOB:
            raise ClusterError(
                f"worker {worker_id} expected a job, got {job_msg.kind!r}"
            )
        job = job_msg.fields
        shard = list(job["shard"])
        checkpoint_dir = Path(job["checkpoint_dir"])
        checkpoint_stem = str(job["checkpoint_stem"])
        targets = {int(p) for p in job["targets"]}
        max_rounds = int(job["max_rounds"])
        interval = int(job["checkpoint_interval"])
        kill_round = job.get("kill_round")

        # Untraced, the round core records nothing and every done
        # carries no trace events.
        trace = TraceRecorder() if job["traced"] else None
        engine = _build_engine(
            job_msg.blob, shard, int(job.get("resume_round", 0)),
            checkpoint_dir, checkpoint_stem, trace,
        )

        shards = [[int(p) for p in s] for s in job["shards"]]
        owner = {p: w for w, s in enumerate(shards) for p in s}
        peers = sorted(links)
        router = MeshRouter(worker_id, links, first_round=engine.next_round)
        channel.send(Message(RESUMED, {"next_round": engine.next_round}))

        def progress() -> int:
            return (
                channel.data_bytes_sent
                + channel.bytes_received
                + router.progress()
            )

        heartbeat = _Heartbeat(channel, heartbeat_interval, progress)
        heartbeat.start()

        finished = False
        while not finished and engine.next_round < max_rounds:
            round_index = engine.next_round
            out_frames = engine.step_round(round_index)
            if round_index == kill_round:
                os.kill(os.getpid(), signal.SIGKILL)
            finished = targets <= set(engine.outputs())
            # Route frames peer-to-peer; ship a metrics digest home
            # instead of the frames themselves: one row per multicast
            # run, the very charges record_frames would make.
            digest = list(multicast_runs(out_frames))
            trains: Dict[int, List[Frame]] = {peer: [] for peer in peers}
            own: List[Frame] = []
            for frame in out_frames:
                dest = owner.get(frame.recipient)
                if dest is None:
                    raise ClusterError(
                        f"frame for party {frame.recipient} matches no "
                        "shard of the job"
                    )
                if dest == worker_id:
                    own.append(frame)
                else:
                    trains[dest].append(frame)
            engine.hold(own)
            # An empty train is still sent: it is the peer's evidence
            # this worker finished the round (the mesh round barrier).
            for peer in peers:
                router.send_train(peer, round_index, trains[peer], finished)
            while peers and not router.wait_round(
                round_index, peers, timeout=0.05
            ):
                if _stopped(channel, timeout=0):
                    return 0
            if peers:
                arrived, peers_halted = router.collect_round(
                    round_index, peers
                )
                engine.hold(arrived)
                finished = finished and peers_halted
            fields = {"round": round_index}
            barrier = round_index + 1
            if interval and barrier % interval == 0:
                # Named by barrier round; the frames in flight ride along.
                save_checkpoint(
                    checkpoint_dir,
                    checkpoint_name(checkpoint_stem, barrier),
                    engine.snapshot(),
                )
                fields["checkpoint"] = barrier
            channel.send(
                Message(
                    DONE,
                    fields,
                    blob=Message.pack_payload(
                        {
                            "outputs": engine.outputs(),
                            "trace": (
                                {} if trace is None else trace.drain()
                            ),
                            "digest": digest,
                        }
                    ),
                )
            )
        _stopped(channel, timeout=None)
        return 0
    except ChannelClosed:
        # Supervisor vanished without a STOP: die loudly so an attached
        # terminal sees a nonzero exit, but don't traceback.
        return 1
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if router is not None:
            router.close()
        channel.close()


def checkpoint_name(stem: str, barrier: int) -> str:
    """Canonical versioned checkpoint name: ``<stem>-r<barrier>``."""
    return f"{stem}-r{barrier}"


def _stopped(channel: MessageChannel, timeout: Optional[float]) -> bool:
    """Whether the supervisor said ``stop`` within ``timeout``; it sends
    a running worker nothing else."""
    try:
        message = channel.recv(timeout=timeout)
    except TimeoutError:
        return False
    if message.kind != STOP:
        raise ClusterError(f"a running worker got {message.kind!r}")
    return True


def _build_engine(
    job_blob: bytes,
    shard: list,
    resume_round: int,
    checkpoint_dir: Path,
    checkpoint_stem: str,
    trace: Optional[TraceRecorder],
) -> ShardEngine:
    """Restore the shard from the checkpoint at barrier ``resume_round``.

    Round 0's checkpoint is the JOB blob; a positive value names the
    barrier the supervisor committed (every shard announced it), so the
    file must exist.  The engine holds the checkpoint's staged frames
    (the shard's in-flight traffic at that barrier).
    """
    name = checkpoint_name(checkpoint_stem, resume_round)
    checkpoint = (
        decode_checkpoint(job_blob)
        if resume_round == 0
        else load_checkpoint(checkpoint_dir, name)
    )
    if checkpoint is None:
        raise ClusterError(
            f"supervisor pinned resume to missing checkpoint {name!r} "
            f"in {checkpoint_dir}"
        )
    engine = ShardEngine.restore(checkpoint, trace=trace)
    if set(engine.party_ids) != set(shard):
        raise ClusterError(
            f"checkpoint {name!r} holds parties "
            f"{engine.party_ids}, job assigns {sorted(shard)}"
        )
    return engine
