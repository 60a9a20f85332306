"""The deterministic single-shard round executor.

:class:`ShardEngine` is the *inner loop* of a cluster worker: given the
frames due at a round barrier, it steps its shard's parties in the
canonical order and returns the frames they emit.  It is deliberately a
plain synchronous object — no sockets, no clocks, no randomness — so
that

* a worker process can drive it round-by-round under supervisor control,
* the same code can run **in-process** (:func:`run_shard_locally`) for
  checkpoint round-trip tests and differential parity against
  :func:`repro.runtime.synchronizer.run_parties`, and
* a checkpoint (:mod:`repro.cluster.checkpoint`) captures its complete
  state: party snapshots, per-sender send sequence counters, and trace
  sequence offsets.

Determinism contract.  For a fault-free execution, an engine holding
*all* parties produces byte-identical traces and per-party tallies to
:class:`~repro.runtime.synchronizer.RoundSynchronizer` over any
transport: inboxes are presented in ``(sent_round, sender, seq)`` order,
parties step in ascending id order, frames carry the same
``deliver_round``/``charge_bits``/``seq`` stamps, and the per-party
trace event sequence (round-barrier, recvs, sends, halt) is identical.
Sharding the parties across engines changes nothing: each party's
stream depends only on its own inbox and program order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ClusterError
from repro.net.metrics import CommunicationMetrics, PartyTally
from repro.net.party import Envelope, Party
from repro.obs.flow import flow_tags
from repro.runtime import trace as trace_mod
from repro.runtime.synchronizer import RuntimeResult
from repro.runtime.trace import TraceRecorder, load_jsonl
from repro.runtime.transport import Frame
from repro.cluster.checkpoint import (
    ClusterCheckpoint,
    PartyCheckpoint,
    load_checkpoint,
    save_checkpoint,
)


class ShardEngine:
    """Steps one shard of parties through synchronous rounds.

    The engine does **not** own a metrics ledger: charging is the
    caller's job (the supervisor replays worker digests into the
    authoritative ledger; :func:`run_shard_locally` charges a local
    one), so a sharded run cannot double-charge.
    """

    def __init__(
        self,
        parties: Sequence[Party],
        trace: Optional[TraceRecorder] = None,
        first_round: int = 0,
    ) -> None:
        self.parties: Dict[int, Party] = {}
        for party in parties:
            if party.party_id in self.parties:
                raise ClusterError(f"duplicate party id {party.party_id}")
            self.parties[party.party_id] = party
        self.trace = trace
        self.next_round = first_round
        self._seq: Dict[int, int] = {p: 0 for p in self.parties}
        #: Flow-ledger side channel: after each :meth:`step_round`, the
        #: obs phase of each emitted frame (parallel to the returned
        #: list; "" when the stepped party attached none).  Checkpoints
        #: ignore it — phases only matter for the round they are routed.
        self.last_phases: List[str] = []

    # -- queries ---------------------------------------------------------------

    @property
    def party_ids(self) -> List[int]:
        return sorted(self.parties)

    @property
    def all_halted(self) -> bool:
        return all(party.halted for party in self.parties.values())

    def halted_ids(self) -> List[int]:
        return sorted(
            p for p, party in self.parties.items() if party.halted
        )

    def outputs(self) -> Dict[int, object]:
        """Outputs of this shard's halted parties (simulator API)."""
        return {
            party_id: party.output
            for party_id, party in self.parties.items()
            if party.halted
        }

    def send_seq(self, party_id: int) -> int:
        """The sequence number the party's next sent frame will carry."""
        return self._seq[party_id]

    # -- one round --------------------------------------------------------------

    def step_round(
        self, round_index: int, due_frames: Iterable[Frame]
    ) -> List[Frame]:
        """Execute one synchronous round for this shard.

        ``due_frames`` are the frames whose ``deliver_round`` has
        arrived for this shard's parties.  Returns the frames the shard
        emits (recipients may live on any shard — routing is the
        caller's job).
        """
        if round_index != self.next_round:
            raise ClusterError(
                f"shard is at round {self.next_round}, "
                f"asked to step round {round_index}"
            )
        inboxes: Dict[int, List[Frame]] = {}
        for frame in due_frames:
            if frame.recipient not in self.parties:
                raise ClusterError(
                    f"frame for party {frame.recipient} routed to a shard "
                    f"holding {self.party_ids}"
                )
            if frame.deliver_round > round_index:
                raise ClusterError(
                    f"frame due at round {frame.deliver_round} delivered "
                    f"at round {round_index}"
                )
            inboxes.setdefault(frame.recipient, []).append(frame)
        out: List[Frame] = []
        phases: List[str] = []
        for party_id in sorted(self.parties):
            party = self.parties[party_id]
            if party.halted:
                # Late frames for a halted party are dropped, exactly as
                # the synchronizer discards a halted party's inbox.
                continue
            due = inboxes.get(party_id, [])
            due.sort(key=lambda f: (f.sent_round, f.sender, f.seq))
            inbox = [
                Envelope(
                    sender=f.sender, recipient=f.recipient, payload=f.payload
                )
                for f in due
            ]
            self._trace(
                party_id,
                trace_mod.ROUND_BARRIER,
                round_index,
                queue_depth=len(inbox),
            )
            if self.trace is not None:
                for envelope in inbox:
                    self._trace(
                        party_id,
                        trace_mod.RECV,
                        round_index,
                        peer=envelope.sender,
                        bits=envelope.size_bits(),
                    )
            outgoing = party.step(round_index, inbox)
            for envelope in outgoing:
                seq = self._seq[party_id]
                self._seq[party_id] = seq + 1
                frame = Frame(
                    sender=party_id,
                    recipient=envelope.recipient,
                    payload=envelope.payload,
                    sent_round=round_index,
                    deliver_round=round_index + 1,
                    charge_bits=envelope.size_bits(),
                    seq=seq,
                )
                self._trace(
                    party_id,
                    trace_mod.SEND,
                    round_index,
                    peer=envelope.recipient,
                    bits=frame.bits(),
                )
                out.append(frame)
                phases.append(getattr(envelope, "phase", ""))
            if party.halted:
                self._trace(
                    party_id,
                    trace_mod.HALT,
                    round_index,
                    output=repr(party.output),
                )
        self.next_round = round_index + 1
        self.last_phases = phases
        return out

    def _trace(
        self, party_id: int, kind: str, round_index: int, **fields
    ) -> None:
        if self.trace is not None:
            self.trace.record(party_id, kind, round_index, **fields)

    # -- checkpoint/restore -----------------------------------------------------

    def snapshot(
        self,
        staged: Optional[Sequence[Frame]] = None,
        tallies: Optional[Dict[int, PartyTally]] = None,
    ) -> ClusterCheckpoint:
        """Freeze the shard at its current round barrier.

        ``staged`` are the caller's in-flight frames for this shard (a
        worker's staged mesh traffic, the local runner's pending list).
        ``tallies`` lets the caller attach per-party metric tallies for
        resume recharging.
        """
        records: List[PartyCheckpoint] = []
        for party_id in sorted(self.parties):
            records.append(
                PartyCheckpoint.of(
                    self.parties[party_id],
                    send_seq=self._seq[party_id],
                    trace_seq=(
                        self.trace.seq_of(party_id)
                        if self.trace is not None
                        else 0
                    ),
                    tally=tallies.get(party_id) if tallies else None,
                )
            )
        return ClusterCheckpoint(
            next_round=self.next_round,
            parties=records,
            staged=list(staged) if staged else [],
        )

    @classmethod
    def restore(
        cls,
        checkpoint: ClusterCheckpoint,
        trace: Optional[TraceRecorder] = None,
    ) -> "ShardEngine":
        """Rebuild an engine from a checkpoint.

        Per-sender send sequence counters and (when a recorder is
        supplied) trace sequence counters are primed from the
        checkpoint, so resumed frames and events continue the exact
        numbering of the interrupted run.
        """
        parties = [record.restore_party() for record in checkpoint.parties]
        engine = cls(
            parties, trace=trace, first_round=checkpoint.next_round
        )
        for record in checkpoint.parties:
            engine._seq[record.party_id] = record.send_seq
            if trace is not None:
                trace.prime(record.party_id, record.trace_seq)
        return engine


# -- in-process driver ---------------------------------------------------------


def _trace_dir(directory: Union[str, Path], name: str) -> Path:
    """Where the local runner persists trace streams at a checkpoint."""
    return Path(directory) / f"{name}.trace"


def _drive(
    engine: ShardEngine,
    pending: List[Frame],
    metrics: CommunicationMetrics,
    until: Optional[Iterable[int]],
    max_rounds: int,
    checkpoint_dir: Optional[Union[str, Path]],
    checkpoint_interval: int,
    checkpoint_name: str,
) -> RuntimeResult:
    if until is None:
        targets = engine.party_ids
    else:
        targets = list(until)
        unknown = [p for p in targets if p not in engine.parties]
        if unknown:
            raise ClusterError(
                f"unknown target party id(s) {sorted(unknown)}; "
                f"shard holds {engine.party_ids}"
            )

    def finished() -> bool:
        return all(engine.parties[p].halted for p in targets)

    for _ in range(max_rounds):
        if finished():
            return RuntimeResult(
                outputs=engine.outputs(),
                metrics=metrics,
                rounds=engine.next_round,
                trace=engine.trace,
            )
        round_index = engine.next_round
        due = [f for f in pending if f.deliver_round <= round_index]
        pending = [f for f in pending if f.deliver_round > round_index]
        out = engine.step_round(round_index, due)
        for frame, phase in zip(out, engine.last_phases):
            # Same timing as the runtime transports: a frame is charged
            # in the round it was sent, before that round's end_round.
            # The engine's phase side channel feeds the flow ledger the
            # span recorded at emit time (replay parties carry it).
            with flow_tags(phase=phase or None, kind="frame"):
                # lint: allow[OBS001] reason=routing-plane charge; the emitting party's span was recorded at emit time and rides in via flow_tags, so phase attribution is preserved without a local span
                metrics.record_message(
                    frame.sender, frame.recipient, frame.bits()
                )
        pending.extend(out)
        metrics.end_round()
        if (
            checkpoint_dir is not None
            and checkpoint_interval > 0
            and engine.next_round % checkpoint_interval == 0
        ):
            checkpoint = engine.snapshot(
                staged=pending,
                tallies={
                    p: metrics.tally_of(p) for p in engine.party_ids
                },
            )
            save_checkpoint(checkpoint_dir, checkpoint_name, checkpoint)
            if engine.trace is not None:
                engine.trace.dump_dir(
                    _trace_dir(checkpoint_dir, checkpoint_name)
                )
    raise ClusterError(f"shard did not terminate in {max_rounds} rounds")


def run_shard_locally(
    parties: Sequence[Party],
    *,
    metrics: Optional[CommunicationMetrics] = None,
    trace: Optional[TraceRecorder] = None,
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_interval: int = 0,
    checkpoint_name: str = "shard-0",
) -> RuntimeResult:
    """Run a full party set through a :class:`ShardEngine` in-process.

    Semantically equivalent to a fault-free
    :func:`~repro.runtime.synchronizer.run_parties` (same outputs, same
    metrics, same trace), without an event loop.  With
    ``checkpoint_dir`` and a positive ``checkpoint_interval`` the run
    durably checkpoints every ``interval`` rounds —
    :func:`resume_shard_locally` then continues an interrupted run to a
    byte-identical conclusion.
    """
    engine = ShardEngine(parties, trace=trace)
    return _drive(
        engine,
        [],
        metrics if metrics is not None else CommunicationMetrics(),
        until,
        max_rounds,
        checkpoint_dir,
        checkpoint_interval,
        checkpoint_name,
    )


def resume_shard_locally(
    checkpoint_dir: Union[str, Path],
    checkpoint_name: str = "shard-0",
    *,
    metrics: Optional[CommunicationMetrics] = None,
    trace: Optional[TraceRecorder] = None,
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
    checkpoint_interval: int = 0,
) -> RuntimeResult:
    """Continue an interrupted :func:`run_shard_locally` execution.

    Loads the named checkpoint, rebuilds the engine (parties, send/trace
    sequence counters, staged frames), pre-charges the fresh ledger with
    the checkpointed tallies and empty closed rounds, and — when a
    recorder is supplied — preloads the checkpointed trace streams so
    the final trace fingerprint equals an uninterrupted run's.
    """
    checkpoint = load_checkpoint(checkpoint_dir, checkpoint_name)
    if checkpoint is None:
        raise ClusterError(
            f"no checkpoint named {checkpoint_name!r} in {checkpoint_dir}"
        )
    if trace is not None:
        trace_dir = _trace_dir(checkpoint_dir, checkpoint_name)
        if trace_dir.is_dir():
            for path in sorted(trace_dir.glob("party-*.jsonl")):
                party_id = int(path.stem.split("-", 1)[1])
                trace.preload(party_id, load_jsonl(path))
    engine = ShardEngine.restore(checkpoint, trace=trace)
    ledger = metrics if metrics is not None else CommunicationMetrics()
    for record in checkpoint.parties:
        ledger.absorb_tally(record.party_id, record.tally)
    # Close the already-executed rounds so `rounds_completed` (and the
    # snapshot's `rounds`) match an uninterrupted run.  Per-round *bit*
    # history before the checkpoint is not reconstructed (the tallies
    # carry the totals).
    for _ in range(checkpoint.next_round):
        ledger.end_round()
    return _drive(
        engine,
        list(checkpoint.staged),
        ledger,
        until,
        max_rounds,
        checkpoint_dir,
        checkpoint_interval,
        checkpoint_name,
    )
