"""The cluster supervisor: metrics, traces, barriers, recovery.

The supervisor shards the ``n`` parties of a :class:`ClusterJob` across
``k`` worker OS processes and then only *listens*.  Workers step rounds
back to back, synchronised by the direct worker↔worker mesh alone
(:mod:`repro.cluster.mesh`) — a round's empty train is "I finished round
r", and its halted flag tells every worker when to stop.  The supervisor
sends a job and ``stop``; nothing per round.  It stays the single
authority over

* **metrics** — the one :class:`CommunicationMetrics` ledger, rebuilt
  from the per-round charge digests workers stream home in ``done``
  (one row per multicast run, the charges
  :meth:`~repro.net.metrics.CommunicationMetrics.record_frames` would
  make).  Round ``r`` is charged once every worker's ``done(r)`` is in
  — round-ascending, sorted-worker, one ``end_round`` per round — so
  ``max_bits_per_party`` is measured identically to
  :func:`~repro.runtime.synchronizer.run_parties`;
* **traces** — only when the caller hands it a
  :class:`~repro.runtime.trace.TraceRecorder`, as on every placement:
  the job then tells workers to trace, they drain their per-round
  events into ``done`` messages, and the supervisor merges them into
  that recorder, whose per-party streams (and fingerprint) match a
  single-process run.  Untraced, no worker records an event and no
  ``trace.seg`` is written; a resumed run traces iff its saved one did;
* **barriers** — every ``checkpoint_interval`` rounds each worker writes
  its own checkpoint and marks that round's ``done``; once every worker
  has announced a barrier the supervisor commits it: durably writes its
  own state (outputs, metrics, merged trace if any) and prunes older
  worker checkpoints.

Every channel exists before the fleet forks: one socketpair per worker
for control and one per worker pair for the mesh, each worker keeping
only its own ends.  No descriptor ever reaches a running process, so
recovery relaunches the whole fleet (see ``docs/cluster.md``): a worker
is dead on control-channel loss, heartbeat silence, or stalled
progress; the supervisor reads how it died (its ``ClusterError`` names
the exit status), SIGKILLs and reaps every worker, and launches a new
fleet pinned to the last committed barrier — the path ``cluster
resume`` takes too.  Every ``done`` below the round already charged is
dropped.  ``kill_plan`` turns this path into a real fault injector: each
incarnation of a worker is handed its earliest unspent entry and
SIGKILLs itself mid-round.

A worker is a **fork** of the supervisor
(:func:`~repro.net.fork.fork_child`; POSIX
only): no cold start, and a direct child — reaping it credits its CPU
to ``os.times()`` and its exit status is the supervisor's to read.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.checkpoint import encode_checkpoint
from repro.cluster.job import ClusterJob, split_shards
from repro.cluster.wire import (
    DONE,
    HEARTBEAT,
    JOB,
    RESUMED,
    STOP,
    Message,
    MessageChannel,
)
from repro.cluster.worker import checkpoint_name, worker_main
from repro.errors import ClusterError
from repro.net.fork import exit_status, fork_child
from repro.net.metrics import CommunicationMetrics
from repro.net.rounds import RuntimeResult
from repro.obs.flow import FUNCTIONALITY, INFRA, FlowLedger
from repro.runtime.trace import TraceRecorder
from repro.utils.durable import write_atomic

#: Durable supervisor state file inside the run directory.
STATE_FILE = "supervisor.ckpt"
STATE_FORMAT = "repro-cluster-supervisor/4"
#: Every checkpoint's trace delta, appended as one chunk (see
#: :meth:`ClusterSupervisor._save_trace_segment`).
TRACE_FILE = "trace.seg"

#: Flow-ledger pseudo ids for control-plane endpoints: the supervisor
#: is :data:`~repro.obs.flow.INFRA` (-2); worker ``w`` is ``-10 - w``.
WORKER_PSEUDO_BASE = -10

#: One validated charge-digest row: ``(sender, bits, phase, recipients)``.
DigestRow = Tuple[int, int, str, List[int]]


def worker_pseudo_id(worker_id: int) -> int:
    """The flow-ledger pseudo party id of one worker process."""
    return WORKER_PSEUDO_BASE - worker_id


@dataclass
class ClusterConfig:
    """Tunables for one supervised run."""

    num_workers: int = 2
    #: Seconds between worker heartbeat beacons.
    heartbeat_interval: float = 0.25
    #: Seconds of *total silence* (no heartbeat, no result) after which
    #: a worker is declared dead.
    heartbeat_timeout: float = 5.0
    #: Seconds a worker may go without progress — no ``done``, no
    #: advancing heartbeat counter, no message trickling in — before it
    #: is declared dead: catches a worker that heartbeats forever but
    #: never finishes its round.
    round_timeout: float = 120.0
    #: Seconds a launched worker may take from its ``job`` to its
    #: ``resumed`` (restoring its shard).
    spawn_timeout: float = 30.0
    #: Worker deaths tolerated across the whole run before giving up.
    max_restarts: int = 3
    #: Fault injection: round index -> worker id that SIGKILLs itself
    #: mid-round (after stepping, before its trains ship) — the
    #: campaign's ``kill-worker`` schedule.  Each entry is spent when
    #: the incarnation it was handed to dies.
    kill_plan: Dict[int, int] = field(default_factory=dict)
    #: Optional wire-level flow ledger attached to the authoritative
    #: metrics ledger (every charged frame becomes a traffic-matrix cell;
    #: control messages are metered under ``ctl:*`` kinds).
    flow: Optional[FlowLedger] = None


@dataclass
class ClusterResult(RuntimeResult):
    """Outcome of one supervised cluster execution: the placement
    result (``outputs``, ``metrics``, ``rounds``, the merged ``trace`` —
    ``None`` unless the run was traced) plus what only a cluster run
    has."""

    restarts: int
    num_workers: int
    run_dir: Path


@dataclass
class _Worker:
    """Supervisor-side handle on one worker process."""

    worker_id: int
    process: BaseProcess
    channel: MessageChannel
    log_handle: Any
    #: The ``kill_plan`` round handed to this incarnation, if any.
    kill_round: Optional[int] = None
    #: Highest heartbeat ``progress`` counter seen.
    last_progress: int = -1
    #: Monotonic times the channel last delivered bytes (``heard``) and
    #: the worker last demonstrably moved (``moved``): a ``done``, an
    #: advancing progress counter, or a message trickling in.
    heard: float = 0.0
    moved: float = 0.0


class _WorkerDied(Exception):
    """Internal: a worker stopped answering (recoverable)."""


def _kill_and_wait(process: BaseProcess) -> None:
    """SIGKILL (a no-op once reaped) and reap one worker process."""
    process.kill()
    process.join(timeout=10)


class ClusterSupervisor:
    """Drives one :class:`ClusterJob` across worker processes."""

    def __init__(
        self,
        job: ClusterJob,
        config: Optional[ClusterConfig] = None,
        run_dir: Optional[Path] = None,
        metrics: Optional[CommunicationMetrics] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.job = job
        self.config = config if config is not None else ClusterConfig()
        self.shards = split_shards(job.n, self.config.num_workers)
        self.run_dir: Optional[Path] = (
            Path(run_dir) if run_dir is not None else None
        )
        # Mutable run state (restored in run() when resuming).  The
        # caller's ledger / recorder, when given, are what a fresh run
        # charges and merges into.
        self._caller_owns_state = metrics is not None or trace is not None
        self.metrics = metrics if metrics is not None else (
            CommunicationMetrics()
        )
        if self.config.flow is not None:
            self.metrics.attach_flow(self.config.flow)
        # A run traces only when handed a recorder, like every other
        # placement: untraced workers record and ship no events.
        self.trace: Optional[TraceRecorder] = trace
        # Per-party event counts already persisted to trace.seg (see
        # _save_trace_segment).
        self._trace_saved: Dict[int, int] = {}
        self.outputs: Dict[int, Any] = {}
        #: The next round to charge; ``checkpoint_round`` is the last
        #: committed barrier (every launch restores from it).
        self.round_index = 0
        self.checkpoint_round = 0
        self.restarts = 0
        self.workers: Dict[int, _Worker] = {}
        # round -> worker id -> its done, until the round is complete.
        self._pending: Dict[int, Dict[int, Message]] = {}
        # The kill_plan entries no incarnation has died with yet.
        self._unspent_kills = dict(self.config.kill_plan)

    # -- public API -----------------------------------------------------------

    def run(self, resume: bool = False) -> ClusterResult:
        """Execute the job to completion (optionally resuming a run)."""
        if self.run_dir is None:
            self.run_dir = Path(
                tempfile.mkdtemp(prefix="repro-cluster-")
            )
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            if self._caller_owns_state:
                raise ClusterError(
                    "a resumed run restores its own ledger and trace; "
                    "metrics= / trace= only apply to a fresh run"
                )
            self._load_state()
        try:
            if not self._finished():
                self._launch_all()
                self._consume()
            self._save_state(completed=True)
            return ClusterResult(
                outputs=dict(self.outputs),
                metrics=self.metrics,
                rounds=self.round_index,
                trace=self.trace,
                restarts=self.restarts,
                num_workers=self.config.num_workers,
                run_dir=self.run_dir,
            )
        finally:
            self._teardown()

    def _finished(self) -> bool:
        return set(self.job.target_ids()) <= set(self.outputs)

    # -- worker lifecycle -----------------------------------------------------

    def _launch_all(self) -> None:
        """Wire the fleet, fork it, and pin it to the last committed
        barrier.

        Every channel exists before the first fork: one socketpair per
        worker for control and one per worker pair for the mesh.  Worker
        ``w`` keeps its ends (``fork_child`` drops every other inherited
        socket), and the supervisor closes them once ``w`` is forked; it
        keeps only the control ends.  Every job is sent before any
        ``resumed`` is read, so shard restore overlaps across the fleet.
        """
        assert self.run_dir is not None
        resume_round = self.checkpoint_round
        count = self.config.num_workers
        control = [socket.socketpair() for _ in range(count)]
        links: List[Dict[int, socket.socket]] = [{} for _ in range(count)]
        for a in range(count):
            for b in range(a + 1, count):
                links[a][b], links[b][a] = socket.socketpair()
        logs = [
            (self.run_dir / f"worker-{w}.log").open("ab")
            for w in range(count)
        ]
        channels = [
            MessageChannel(control[w][0], self._channel_meter(w))
            for w in range(count)
        ]
        processes: List[BaseProcess] = []
        kill_rounds = [self._kill_round(w, resume_round) for w in range(count)]

        def close_logs() -> None:  # in a child: its siblings' logs
            for log in logs:
                log.close()

        try:
            for w in range(count):
                ends = [control[w][1], *links[w].values()]
                processes.append(fork_child(
                    f"cluster-worker-{w}", logs[w], close_logs, worker_main,
                    w, control[w][1], links[w],
                    self.config.heartbeat_interval,
                    keep=[end.fileno() for end in ends],
                ))
                for end in ends:  # the worker holds its own copies
                    end.close()
            for w in range(count):
                shard = self.shards[w]
                channels[w].send(Message(JOB, {
                    "shard": shard,
                    "resume_round": resume_round,
                    "checkpoint_dir": str(self.run_dir),
                    "checkpoint_stem": f"shard-{w}",
                    "shards": self.shards,
                    "targets": [
                        p for p in self.job.target_ids() if p in shard
                    ],
                    "max_rounds": self.job.max_rounds,
                    "checkpoint_interval": self.job.checkpoint_interval,
                    "kill_round": kill_rounds[w],
                    "traced": self.trace is not None,
                }, blob=self._job_blob(w, resume_round)))
            for w in range(count):
                resumed = channels[w].recv(timeout=self.config.spawn_timeout)
                if resumed.kind != RESUMED:
                    raise ClusterError(
                        f"worker {w} answered {resumed.kind!r} to its job"
                    )
                at_round = int(resumed.fields["next_round"])
                if at_round != resume_round:
                    raise ClusterError(
                        f"worker {w} resumed at round {at_round}, "
                        f"supervisor pinned round {resume_round}"
                    )
        except (TimeoutError, ClusterError) as exc:
            for process in processes:
                _kill_and_wait(process)
            for w in range(count):
                channels[w].close()
                logs[w].close()
            raise ClusterError(
                f"worker launch failed: {exc} "
                f"(see worker-*.log in {self.run_dir})"
            ) from exc
        now = time.monotonic()
        self.workers = {
            w: _Worker(
                worker_id=w, process=processes[w], channel=channels[w],
                log_handle=logs[w], kill_round=kill_rounds[w],
                heard=now, moved=now,
            )
            for w in range(count)
        }

    def _kill_round(self, worker_id: int, resume_round: int) -> Optional[int]:
        """The earliest unspent ``kill_plan`` round of ``worker_id`` at
        or after the round its new incarnation resumes from."""
        return min(
            (
                r for r, w in self._unspent_kills.items()
                if w == worker_id and r >= resume_round
            ),
            default=None,
        )

    def _job_blob(self, worker_id: int, resume_round: int) -> bytes:
        """The checkpoint a JOB message carries: the shard's round-0
        one; a later barrier's is already on the worker's disk."""
        if resume_round:
            return b""
        return encode_checkpoint(
            self.job.shard_checkpoint(self.shards[worker_id])
        )

    def _channel_meter(self, worker_id: int) -> Any:
        """A :data:`~repro.cluster.wire.ChannelMeter` for one worker."""

        def meter(direction: str, kind: str, num_bytes: int) -> None:
            flow = self.metrics.flow
            if flow is None:
                return
            src, dst = (
                (INFRA, worker_pseudo_id(worker_id))
                if direction == "send"
                else (worker_pseudo_id(worker_id), INFRA)
            )
            flow.charge(
                self.round_index, "(control)", src, dst,
                num_bytes * 8, kind=f"ctl:{kind}",
            )

        return meter

    def _recover(self, dead: List[Tuple[int, str]]) -> None:
        """Count the deaths, stop the rest of the fleet, and relaunch
        all of it at the last committed barrier.

        Only deaths count against ``max_restarts`` and spend
        ``kill_plan`` entries; the survivors this stops are not deaths.
        """
        for worker_id, detail in dead:
            worker = self.workers[worker_id]
            reason = (
                f"worker {worker_id} {exit_status(worker.process)}: {detail}"
            )
            if worker.kill_round is not None:
                self._unspent_kills.pop(worker.kill_round, None)
            self.restarts += 1
        self._stop_fleet()
        if self.restarts > self.config.max_restarts:
            raise ClusterError(
                f"worker {worker_id} keeps dying: restart budget of "
                f"{self.config.max_restarts} exhausted (last failure: "
                f"{reason})"
            )
        self._pending.clear()
        self._launch_all()

    def _stop_fleet(self) -> None:
        """SIGKILL (a no-op once exited) and reap every worker, and
        close its channel and log."""
        for worker in self.workers.values():
            _kill_and_wait(worker.process)
            worker.channel.close()
            worker.log_handle.close()
        self.workers.clear()

    # -- consuming the fleet's rounds -----------------------------------------

    def _consume(self) -> None:
        """Take every worker's messages until the job's targets halt.

        One ``select`` over the control channels; every worker is then
        drained and judged alive, and the dead are recovered after
        *all* channels were read — so a barrier a survivor announced
        before the death is committed before the relaunch is pinned.
        """
        while not self._finished():
            if self.round_index >= self.job.max_rounds:
                raise ClusterError(
                    f"cluster run did not terminate in "
                    f"{self.job.max_rounds} rounds"
                )
            select.select(
                [worker.channel for worker in self.workers.values()],
                [], [], self.config.heartbeat_interval,
            )
            now = time.monotonic()
            dead: List[Tuple[int, str]] = []
            for worker_id in sorted(self.workers):
                try:
                    self._poll(self.workers[worker_id], now)
                except _WorkerDied as exc:
                    dead.append((worker_id, str(exc)))
            if dead and not self._finished():
                self._recover(dead)

    def _poll(self, worker: _Worker, now: float) -> None:
        """Handle every message the worker's channel holds, then judge
        its liveness; raises :class:`_WorkerDied`.

        Liveness is judged per worker, not per round: the ``moved``
        deadline resets whenever the worker demonstrably moves bytes —
        a ``done``, a heartbeat whose ``progress`` counter advanced, or
        raw bytes trickling in mid-message (a huge body in transfer).  A
        slow worker shipping a 2 s train is therefore never conflated
        with a dead one; only *stalled* progress exhausts
        ``round_timeout``, and only total silence exhausts
        ``heartbeat_timeout``.
        """
        received = worker.channel.bytes_received
        while True:
            try:
                message = worker.channel.recv(timeout=0)
            except TimeoutError:
                break
            except ClusterError as exc:
                raise _WorkerDied(str(exc)) from exc
            if message.kind == HEARTBEAT:
                reported = int(message.fields.get("progress", -1))
                if reported > worker.last_progress:
                    worker.last_progress = reported
                    worker.moved = now
            elif message.kind == DONE:
                worker.moved = now
                self._on_done(worker.worker_id, message, now)
            else:
                raise ClusterError(
                    f"worker {worker.worker_id} sent {message.kind!r} "
                    "mid-run"
                )
        if worker.channel.bytes_received > received:
            worker.heard = now
            if worker.channel.buffered:
                worker.moved = now  # mid-message trickle is progress
        if now - worker.heard > self.config.heartbeat_timeout:
            raise _WorkerDied(
                f"no heartbeat for {self.config.heartbeat_timeout}s"
            )
        if now - worker.moved > self.config.round_timeout:
            raise _WorkerDied(
                f"heartbeats but made no progress within "
                f"{self.config.round_timeout}s"
            )

    def _on_done(self, worker_id: int, message: Message, now: float) -> None:
        """File one ``done``; charge every round it completes."""
        round_index = message.fields.get("round")
        if type(round_index) is not int:
            raise ClusterError(f"worker {worker_id} sent a done with no round")
        if round_index < self.round_index:
            return  # a relaunched fleet replaying a round already charged
        self._pending.setdefault(round_index, {})[worker_id] = message
        while len(self._pending.get(self.round_index, ())) == len(
            self.shards
        ):
            self._charge_round()

    def _charge_round(self) -> None:
        """Replay one complete round's digests into the ledger.

        Sorted-worker within the round, then ``end_round``: every
        digest row is charged in its sent round, before that round's
        ``end_round`` — the point at which
        :func:`~repro.runtime.synchronizer.run_parties` charges a send.
        Charges within one round commute, so tallies, per-round bits,
        and flow cells are bit-identical to a single-process run.
        """
        round_index = self.round_index
        messages = self._pending.pop(round_index)
        for worker_id in sorted(messages):
            self._process_done(worker_id, messages[worker_id])
        self.metrics.end_round()
        self.round_index = round_index + 1
        if all(
            message.fields.get("checkpoint") == self.round_index
            for message in messages.values()
        ):
            self._commit(self.round_index)

    def _process_done(self, worker_id: int, message: Message) -> None:
        payload = message.payload() or {}
        rows = self._validate_digest_rows(
            payload.get("digest") or [], self.job.n, self.shards[worker_id]
        )
        # The charges run_parties makes, run for run: each fan-out
        # under the phase its worker stamped on it.
        for sender, bits, phase, recipients in rows:
            self.metrics.record_multicast(
                sender, recipients, bits, phase=phase, kind="frame"
            )
        self.outputs.update(payload.get("outputs", {}))
        if self.trace is not None:
            for party_id in sorted(payload.get("trace", {})):
                self.trace.preload(party_id, payload["trace"][party_id])

    @staticmethod
    def _validate_digest_rows(
        rows: object, n: int, shard: List[int]
    ) -> List[DigestRow]:
        """Narrow a worker-reported charge digest to chargeable runs.

        Digest rows cross the worker pipe, so a compromised or buggy
        worker controls their shape; the ledger replay trusts its input
        types, so everything is checked here before any charge lands.
        Each ``(sender, bits, phase, recipients)`` row is one multicast
        run (:func:`~repro.net.metrics.multicast_runs`) of a sender in
        the reporting worker's ``shard``: a worker charges only its own
        parties' sends.
        """
        if not isinstance(rows, (list, tuple)):
            raise ClusterError("mesh digest is not a row sequence")
        owned = set(shard)
        validated: List[DigestRow] = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != 4:
                raise ClusterError(f"malformed mesh digest row {row!r}")
            sender, bits, phase, recipients = row
            # Exact types: a bool is not a party id or a bit count.
            if (
                type(sender) is not int
                or type(bits) is not int
                or not isinstance(phase, str)
                or type(recipients) is not list
            ):
                raise ClusterError(f"malformed mesh digest row {row!r}")
            if not recipients:
                raise ClusterError(
                    f"mesh digest row {row!r} names no recipient"
                )
            if set(map(type, recipients)) != {int}:
                raise ClusterError(
                    f"mesh digest row {row!r} has a recipient that is not "
                    "a party id"
                )
            if bits < 0:
                raise ClusterError(
                    f"mesh digest row claims negative charge {bits}"
                )
            if sender not in owned:
                raise ClusterError(
                    f"worker charged a send of party {sender}, which is "
                    "not in its shard"
                )
            low, high = min(recipients), max(recipients)
            if low < 0 or high >= n:
                raise ClusterError(
                    "worker emitted a frame for unknown party "
                    f"{low if low < 0 else high}"
                )
            validated.append((sender, bits, phase, recipients))
        return validated

    # -- checkpoint barriers ----------------------------------------------------

    def _commit(self, barrier: int) -> None:
        """Every worker wrote its checkpoint at ``barrier``: make it the
        restore point of every later launch."""
        self.checkpoint_round = barrier
        self._save_state(completed=False)
        self._prune_worker_checkpoints(barrier)

    def _prune_worker_checkpoints(self, barrier: int) -> None:
        assert self.run_dir is not None
        for path in self.run_dir.glob("shard-*-r*.ckpt"):
            try:
                logged_round = int(path.stem.rsplit("-r", 1)[1])
            except (IndexError, ValueError):  # pragma: no cover - alien file
                continue
            if logged_round < barrier:
                path.unlink(missing_ok=True)

    # -- durable supervisor state --------------------------------------------

    def _save_trace_segment(self) -> Dict[int, int]:
        """Persist the trace *delta*; return authoritative per-party counts.

        Snapshotting the whole trace made every checkpoint O(total
        events recorded so far); the segment file makes a checkpoint
        O(events since the last one) and one ``fsync``.  Each call
        appends one pickled ``{party_id: (start_index, new_events)}``
        chunk to ``trace.seg`` — before the manifest's atomic rename —
        and the manifest records only the per-party event count.
        :func:`read_state` replays the chunks — truncating each party's
        stream to its chunk's start index, then to the manifest count —
        so a chunk re-appended after a crash between the segment fsync
        and the manifest rename is harmless, and a resumed trace is
        byte-identical to a full snapshot (the resume-parity tests pin
        this).
        """
        assert self.run_dir is not None and self.trace is not None
        counts: Dict[int, int] = {}
        chunk: Dict[int, Tuple[int, List[Dict[str, Any]]]] = {}
        for party_id in self.trace.party_ids:
            events = self.trace.events_of(party_id)
            counts[party_id] = len(events)
            saved = self._trace_saved.get(party_id, 0)
            if saved > len(events):
                saved = 0  # fresh recorder in a reused run dir: rewrite
            if len(events) > saved:
                chunk[party_id] = (saved, events[saved:])
        if chunk:
            with (self.run_dir / TRACE_FILE).open("ab") as handle:
                pickle.dump(chunk, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            self._trace_saved.update(counts)
        return counts

    def _save_state(self, completed: bool) -> None:
        assert self.run_dir is not None
        state = {
            "format": STATE_FORMAT,
            "job_name": self.job.name,
            "n": self.job.n,
            "num_workers": self.config.num_workers,
            "round": self.round_index,
            "completed": completed,
            "restarts": self.restarts,
            "outputs": dict(self.outputs),
            "metrics": self.metrics,
            # Delta checkpointing: the manifest carries only per-party
            # event *counts*; the events live in trace.seg (read_state
            # materializes "trace_events" from it).  ``None`` marks an
            # untraced run, which writes no trace.seg.
            "trace_segments": (
                None if self.trace is None else self._save_trace_segment()
            ),
        }
        write_atomic(
            self.run_dir / STATE_FILE,
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _load_state(self) -> None:
        assert self.run_dir is not None
        state = read_state(self.run_dir)
        if state is None:
            raise ClusterError(
                f"no supervisor state in {self.run_dir}; nothing to resume"
            )
        if state.get("job_name") != self.job.name or state.get("n") != self.job.n:
            raise ClusterError(
                f"run dir {self.run_dir} belongs to job "
                f"{state.get('job_name')!r} (n={state.get('n')}), "
                f"not {self.job.name!r} (n={self.job.n})"
            )
        if state.get("num_workers") != self.config.num_workers:
            raise ClusterError(
                f"run was sharded over {state.get('num_workers')} workers; "
                f"resume must use the same count "
                f"(got {self.config.num_workers})"
            )
        self.round_index = int(state["round"])
        self.checkpoint_round = self.round_index
        self.restarts = int(state["restarts"])
        self.outputs = dict(state["outputs"])
        self.metrics = state["metrics"]
        # A resumed run traces if and only if the saved one did.
        trace_events = state["trace_events"]
        self.trace = None
        self._trace_saved = {}
        if trace_events is not None:
            self.trace = TraceRecorder()
            for party_id in sorted(trace_events):
                self.trace.preload(party_id, trace_events[party_id])
            # Future saves append deltas after the materialized prefix.
            self._trace_saved = {
                party_id: len(events)
                for party_id, events in trace_events.items()
            }
        flow = self.config.flow
        if flow is not None:
            # The pickled metrics never carries a ledger (see
            # CommunicationMetrics.__getstate__): re-attach the
            # caller's and seed its per-party side counters from the
            # restored tallies so bit-exact parity survives resume.
            self.metrics.attach_flow(flow)
            for party_id in self.metrics.party_ids:
                tally = self.metrics.tally_of(party_id)
                if tally.bits_sent:
                    flow.charge(
                        self.round_index, "(resumed)", party_id,
                        FUNCTIONALITY, tally.bits_sent, kind="absorbed",
                    )
                if tally.bits_received:
                    flow.charge(
                        self.round_index, "(resumed)", FUNCTIONALITY,
                        party_id, tally.bits_received, kind="absorbed",
                    )

    # -- teardown -------------------------------------------------------------

    def _teardown(self) -> None:
        for worker in self.workers.values():
            try:
                worker.channel.send(Message(STOP))
            except ClusterError:
                pass  # dead or dying: _stop_fleet reaps it
        for worker in self.workers.values():
            worker.process.join(timeout=5)  # a stopped worker just exits
        self._stop_fleet()


def read_state(run_dir: Path) -> Optional[Dict[str, Any]]:
    """Load a run directory's durable supervisor state (``None`` if absent).

    Used by resume and by the ``cluster status`` CLI.
    """
    path = Path(run_dir) / STATE_FILE
    if not path.exists():
        return None
    try:
        with path.open("rb") as handle:
            state = pickle.load(handle)
    except Exception as exc:  # pickle raises a zoo of types
        raise ClusterError(
            f"corrupt supervisor state in {run_dir}: {exc}"
        ) from exc
    if not isinstance(state, dict) or state.get("format") != STATE_FORMAT:
        raise ClusterError(
            f"{path} is not {STATE_FORMAT} supervisor state"
        )
    # Materialize the per-party event streams from trace.seg so every
    # consumer (resume, status, tests) sees them; an untraced run has
    # none.
    segments = state.get("trace_segments", {})
    state["trace_events"] = (
        None if segments is None
        else _read_trace_segments(Path(run_dir), segments)
    )
    return state


def _read_trace_segments(
    run_dir: Path, segments: Dict[int, int]
) -> Dict[int, List[Dict[str, Any]]]:
    """Replay ``trace.seg``'s delta chunks into per-party streams.

    Each chunk maps a party to ``(start_index, events)``: that party's
    stream is truncated to ``start_index`` and the events appended — so
    a re-appended chunk (a crash between the segment fsync and the
    manifest rename) resolves to the same stream.  The manifest count
    is authoritative: fewer materialized events than the count is loud
    corruption; extra events beyond it (a chunk whose manifest never
    landed) are trimmed.
    """
    path = run_dir / TRACE_FILE
    streams: Dict[int, List[Dict[str, Any]]] = {}
    if path.exists():
        try:
            with path.open("rb") as handle:
                while True:
                    try:
                        chunk = pickle.load(handle)
                    except EOFError:
                        break
                    for party_id, (start, events) in chunk.items():
                        stream = streams.setdefault(party_id, [])
                        del stream[start:]
                        stream.extend(events)
        except Exception as exc:  # pickle raises a zoo of types
            raise ClusterError(
                f"corrupt trace segment {path}: {exc}"
            ) from exc
    trace_events: Dict[int, List[Dict[str, Any]]] = {}
    for party_id, count in sorted(segments.items()):
        events = streams.get(party_id, [])
        if len(events) < count:
            raise ClusterError(
                f"trace segment in {run_dir} holds {len(events)} events "
                f"for party {party_id}; manifest expects {count}"
            )
        trace_events[party_id] = events[:count]
    return trace_events


def describe_run(run_dir: Path) -> Dict[str, Any]:
    """A JSON-friendly status summary of one run directory.

    Combines the supervisor's durable state with the worker checkpoint
    files on disk (``shard-<w>-r<round>.ckpt``) so ``cluster status``
    can answer "how far did it get, and can it resume?".
    """
    run_dir = Path(run_dir)
    state = read_state(run_dir)
    checkpoints: Dict[str, List[int]] = {}
    for path in sorted(run_dir.glob("shard-*-r*.ckpt")):
        stem, _, tail = path.stem.rpartition("-r")
        try:
            barrier = int(tail)
        except ValueError:  # pragma: no cover - alien file
            continue
        checkpoints.setdefault(stem, []).append(barrier)
    summary: Dict[str, Any] = {
        "run_dir": str(run_dir),
        "has_state": state is not None,
        "worker_checkpoints": {
            stem: sorted(rounds) for stem, rounds in checkpoints.items()
        },
    }
    if state is not None:
        summary.update(
            {
                "job_name": state["job_name"],
                "n": state["n"],
                "num_workers": state["num_workers"],
                "round": state["round"],
                "completed": state["completed"],
                "restarts": state["restarts"],
                "halted_parties": len(state["outputs"]),
                "max_bits_per_party": state["metrics"].max_bits_per_party,
            }
        )
    return summary


# Re-exported for the package namespace; the worker module owns the
# canonical name format.
__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "ClusterSupervisor",
    "checkpoint_name",
    "describe_run",
    "read_state",
]
