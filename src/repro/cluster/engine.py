"""The deterministic single-shard round executor.

:class:`ShardEngine` is the *inner loop* of a cluster worker: the
sharded placement of :class:`~repro.net.rounds.RoundCore` (which holds
the model, the determinism contract and every frame until it is due —
each party's stream depends only on its own inbox and program order, so
sharding the party set across engines changes nothing).  It holds the
frames that reach its shard, steps its shard's parties and returns the
frames they emit; on top of the core it adds only what a shard needs:
validation that the worker loop and the mesh handed it the right round
and the right parties' frames, and :meth:`snapshot` / :meth:`restore`
so a checkpoint (:mod:`repro.cluster.checkpoint`) captures its complete
state — party snapshots, per-sender send sequence counters, trace
sequence offsets, the frames still in flight.
It is deliberately a plain synchronous object — no sockets, no clocks,
no randomness.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ClusterError
from repro.net.party import Frame, Party
from repro.net.rounds import RoundCore
from repro.runtime.trace import TraceRecorder
from repro.cluster.checkpoint import ClusterCheckpoint, PartyCheckpoint


class ShardEngine:
    """Steps one shard of parties through synchronous rounds.

    The engine does **not** own a metrics ledger: charging is the
    caller's job (the supervisor replays worker digests into the
    authoritative ledger), so a sharded run cannot double-charge.
    """

    def __init__(
        self,
        parties: Sequence[Party],
        trace: Optional[TraceRecorder] = None,
        first_round: int = 0,
    ) -> None:
        self.core = RoundCore(
            parties,
            trace=trace,
            first_round=first_round,
            whole_network=False,
            error=ClusterError,
        )
        self.parties: Dict[int, Party] = self.core.parties
        self.trace = trace

    # -- queries ---------------------------------------------------------------

    @property
    def next_round(self) -> int:
        return self.core.round_index

    @property
    def party_ids(self) -> List[int]:
        return sorted(self.parties)

    def outputs(self) -> Dict[int, object]:
        """Outputs of this shard's halted parties (simulator API)."""
        return self.core.outputs()

    # -- one round --------------------------------------------------------------

    def hold(self, frames: Iterable[Frame]) -> None:
        """Hand the core frames for this shard's parties, due or not."""
        frames = list(frames)
        for frame in frames:
            if frame.recipient not in self.parties:
                raise ClusterError(
                    f"frame for party {frame.recipient} routed to a shard "
                    f"holding {self.party_ids}"
                )
        self.core.hold(frames)

    def step_round(self, round_index: int) -> List[Frame]:
        """Execute one synchronous round for this shard.

        Returns the frames the shard emits (recipients may live on any
        shard — routing is the caller's job).
        """
        if round_index != self.next_round:
            raise ClusterError(
                f"shard is at round {self.next_round}, "
                f"asked to step round {round_index}"
            )
        return self.core.step_round(round_index)

    # -- checkpoint/restore -----------------------------------------------------

    def snapshot(self) -> ClusterCheckpoint:
        """Freeze the shard at its current round barrier, the frames its
        core still holds included."""
        records: List[PartyCheckpoint] = []
        for party_id in sorted(self.parties):
            records.append(
                PartyCheckpoint.of(
                    self.parties[party_id],
                    send_seq=self.core.send_seq[party_id],
                    trace_seq=(
                        self.trace.seq_of(party_id)
                        if self.trace is not None
                        else 0
                    ),
                )
            )
        return ClusterCheckpoint(
            next_round=self.next_round,
            parties=records,
            staged=self.core.held(),
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
        numbering of the interrupted run; its staged frames are held
        again.
        """
        parties = [record.restore_party() for record in checkpoint.parties]
        engine = cls(
            parties, trace=trace, first_round=checkpoint.next_round
        )
        for record in checkpoint.parties:
            engine.core.send_seq[record.party_id] = record.send_seq
            if trace is not None:
                trace.prime(record.party_id, record.trace_seq)
        engine.hold(checkpoint.staged)
        return engine
