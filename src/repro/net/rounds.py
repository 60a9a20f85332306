"""The lockstep round: the paper's one network model, implemented once.

Model (§1): a complete synchronous network of authenticated channels
among ``n`` parties.  A message sent in round ``r`` is delivered by the
start of round ``r + 1``; the channel — never the party — names the
sender, so a Byzantine party can lie in its *payload* but cannot spoof
who it is.

:class:`RoundCore` is the only place in ``src/`` that holds a frame
until its delivery round, orders an inbox, calls :meth:`Party.step
<repro.net.party.Party.step>`, builds one
:class:`~repro.net.party.Frame` from each
:class:`~repro.net.party.Envelope` a party returns (two separate named
tuples: a frame is not an envelope, and the recipient is handed the
frame itself), consults a :class:`~repro.runtime.faults.FaultPlan` when
it holds one and emits trace events.  The executors are *placements* of
it and own only how a frame reaches the core that holds its recipient:

* :func:`run_in_process` — the emitted frames go straight back to the
  same core;
* :class:`~repro.runtime.synchronizer.RoundSynchronizer` — they cross
  an asyncio :class:`~repro.runtime.transport.Transport` (local buffers
  or TCP);
* :class:`~repro.cluster.engine.ShardEngine` — one shard of a cluster,
  whose worker routes frames over the mesh.

Determinism contract.  A party's inbox is presented in the canonical
``(sent_round, sender, seq)`` order, parties step in ascending id order,
and every emitted frame carries the true sender, the sender's next
sequence number, ``deliver_round = sent_round + 1 + delay``, the bits
its envelope declared, and the phase ``envelope.phase or current_phase()
or ""``.  Each party's trace stream (round-barrier, recvs, sends/drops,
halt) therefore depends only on its own inbox and program order — so the
placements agree message for message, tally for tally and trace byte for
trace byte *by construction*, and sharding the party set across cores
changes nothing.  A fault plan perturbs this only inside the freedom the
model leaves (plus explicitly modelled faults), and all of its choices
are keyed by message coordinates, never by call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Type,
)

from repro.errors import NetworkError, ReproError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame, Party
from repro.obs.spans import current_phase

if TYPE_CHECKING:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.trace import TraceRecorder

#: The inbox order of the determinism contract; a transport's barrier
#: charges a round's landed frames in it too.
CANONICAL_ORDER = attrgetter("sent_round", "sender", "seq")
#: The order :meth:`RoundCore.held` reports waiting frames in (a shard
#: checkpoint stores them so).
HELD_ORDER = attrgetter("deliver_round", "sender", "seq")

# Trace event kinds (the schema is :mod:`repro.runtime.trace`'s; they
# are defined beside their one lockstep emitter).
SEND = "send"
RECV = "recv"
ROUND_BARRIER = "round-barrier"
HALT = "halt"
CRASH = "crash"
DROP = "drop"


def _perturbed(
    policy: FaultPlan, round_index: int, party_id: int, inbox: List[Frame]
) -> List[Frame]:
    """The policy's duplication and reordering of a canonical inbox."""
    delivered: List[Frame] = []
    for frame in inbox:
        delivered.append(frame)
        if policy.duplicates(
            frame.sent_round, frame.sender, frame.recipient, frame.seq
        ):
            delivered.append(frame)
    return policy.inbox_order(round_index, party_id, delivered)


class RoundCore:
    """Steps a set of parties through one synchronous round at a time.

    The core owns no ledger: a placement hands it (:meth:`hold`) every
    frame that reaches its parties, whatever its ``deliver_round``;
    :meth:`step_round` delivers the frames that are due, keeps the rest
    and returns the frames the parties emit.  Moving and charging those
    is the placement's job, so a sharded run cannot double-charge.

    ``policy=None`` is §1's lockstep delivery, and a fault plan is the
    only other.  ``whole_network=False`` marks the party set as one
    shard of a larger network (recipients may live elsewhere, so they
    cannot be checked here); ``error`` is the exception class misuse is
    reported with.
    """

    def __init__(
        self,
        parties: Sequence[Party],
        policy: Optional[FaultPlan] = None,
        trace=None,
        first_round: int = 0,
        whole_network: bool = True,
        error: Type[ReproError] = NetworkError,
    ) -> None:
        self._error = error
        self.parties: Dict[int, Party] = {}
        for party in parties:
            if party.party_id in self.parties:
                raise error(f"duplicate party id {party.party_id}")
            self.parties[party.party_id] = party
        self.policy = policy
        self.trace = trace
        #: The next round to execute.
        self.round_index = first_round
        #: Per-sender sequence number of the next emitted frame.
        self.send_seq: Dict[int, int] = {p: 0 for p in self.parties}
        self._whole_network = whole_network
        self._crash_traced: set = set()
        self._held: List[Frame] = []

    # -- frames in flight ------------------------------------------------------

    def hold(self, frames: Iterable[Frame]) -> None:
        """Take frames for this core's parties, in any order; each waits
        here until its ``deliver_round``."""
        self._held.extend(frames)

    def held(self) -> List[Frame]:
        """The frames not yet delivered, in :data:`HELD_ORDER`."""
        return sorted(self._held, key=HELD_ORDER)

    # -- one round -------------------------------------------------------------

    def step_round(self, round_index: int) -> List[Frame]:
        """Execute round ``round_index``; returns the emitted frames.

        Delivers the held frames whose ``deliver_round`` has arrived and
        keeps the rest.  Frames for a halted, crashed or absent party
        are discarded.
        """
        inboxes: Dict[int, List[Frame]] = {}
        later: List[Frame] = []
        for frame in self._held:
            if frame.deliver_round > round_index:
                later.append(frame)
            else:
                inboxes.setdefault(frame.recipient, []).append(frame)
        self._held = later
        parties, policy, trace = self.parties, self.policy, self.trace
        next_round = round_index + 1
        emitted: List[Frame] = []
        for party_id in sorted(parties):
            party = parties[party_id]
            if policy is not None:
                if policy.is_crashed(party_id, round_index):
                    if party_id not in self._crash_traced:
                        self._crash_traced.add(party_id)
                        self._trace(party_id, CRASH, round_index)
                    continue
                if policy.is_absent(party_id, round_index):
                    continue
            if party.halted:
                continue
            # The party is handed the delivered frames themselves.
            inbox = inboxes.get(party_id, [])
            inbox.sort(key=CANONICAL_ORDER)
            if policy is not None:
                inbox = _perturbed(policy, round_index, party_id, inbox)
            if trace is not None:
                trace.record(
                    party_id, ROUND_BARRIER, round_index, queue_depth=len(inbox)
                )
                for frame in inbox:
                    trace.record(
                        party_id, RECV, round_index, peer=frame.sender,
                        bits=frame.bits(),
                    )
            outgoing = party.step(round_index, inbox)
            # The party's own spans closed with its step, so one read of
            # the span stack serves every envelope it returned.
            span_phase = current_phase() or ""
            seq = self.send_seq[party_id]
            for envelope in outgoing:
                recipient = envelope.recipient
                if self._whole_network and recipient not in parties:
                    raise self._error(f"unknown recipient {recipient}")
                # Charge exactly what the envelope declares: 8 * len(payload)
                # for plain envelopes; replayed ones carry an analytic count.
                bits = envelope.charge_bits
                if bits < 0:
                    bits = 8 * len(envelope.payload)
                deliver_round = next_round
                if policy is not None:
                    if policy.drops(round_index, party_id, recipient):
                        # The link is down: nothing crosses it, nothing is charged.
                        self._trace(
                            party_id, DROP, round_index, peer=recipient, bits=bits
                        )
                        continue
                    deliver_round += policy.delay_of(
                        round_index, party_id, recipient, seq
                    )
                    if policy.is_absent(recipient, deliver_round):
                        # Churn: nobody is listening yet at the delivery round.
                        seq += 1
                        self._trace(
                            party_id, DROP, round_index, peer=recipient, bits=bits
                        )
                        continue
                if trace is not None:
                    trace.record(party_id, SEND, round_index, peer=recipient, bits=bits)
                # Authenticated channels: the true sender, whatever the
                # envelope claims.  Flow attribution: replayed and
                # event-driven envelopes carry their phase; live ones get
                # the span open right now.
                emitted.append(Frame(
                    party_id, recipient, envelope.payload, round_index,
                    deliver_round, bits, seq, envelope.phase or span_phase,
                ))
                seq += 1
            self.send_seq[party_id] = seq
            if party.halted:
                self._trace(
                    party_id, HALT, round_index, output=repr(party.output)
                )
        self.round_index = next_round
        return emitted

    def _trace(self, party_id: int, kind: str, round_index: int, **fields) -> None:
        if self.trace is not None:
            self.trace.record(party_id, kind, round_index, **fields)

    # -- termination -----------------------------------------------------------

    def rounds(
        self, until: Optional[Iterable[int]] = None, max_rounds: int = 10_000
    ) -> Iterator[int]:
        """Yield the index of each round the placement must now execute.

        Stops once the ``until`` parties have all halted (default:
        every party has halted or crashed for good).  Unknown targets
        and a run that outlives ``max_rounds`` raise the core's error
        class.  The cap exists because Byzantine parties may never
        halt; drivers normally pass the honest ids as ``until``.
        """
        targets = None if until is None else list(until)
        unknown = [p for p in targets or () if p not in self.parties]
        if unknown:
            raise self._error(
                f"unknown target party id(s) {sorted(unknown)}; "
                f"known ids are {sorted(self.parties)}"
            )
        policy = self.policy
        for _ in range(max_rounds):
            if targets is None:
                now = self.round_index
                done = all(
                    party.halted or (policy is not None and policy.is_crashed(p, now))
                    for p, party in self.parties.items()
                )
            else:
                done = all(self.parties[p].halted for p in targets)
            if done:
                return
            yield self.round_index
        raise self._error(
            f"protocol did not terminate in {max_rounds} rounds"
        )

    def outputs(self) -> Dict[int, object]:
        """Map of party id to its recorded output (halted parties only)."""
        return {
            party_id: party.output
            for party_id, party in self.parties.items()
            if party.halted
        }


@dataclass
class RuntimeResult:
    """Outcome of one run on any placement."""

    outputs: Dict[int, object]
    metrics: CommunicationMetrics
    rounds: int
    trace: Optional[TraceRecorder]


def run_in_process(
    parties: Sequence[Party],
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
    *,
    metrics: Optional[CommunicationMetrics] = None,
    trace: Optional[TraceRecorder] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> RuntimeResult:
    """The in-process placement: each round's frames are charged in the
    round they were sent and handed straight back to the core."""
    core = RoundCore(parties, policy=fault_plan, trace=trace)
    metrics = metrics if metrics is not None else CommunicationMetrics()
    for round_index in core.rounds(until, max_rounds):
        emitted = core.step_round(round_index)
        metrics.record_frames(emitted)
        metrics.end_round()
        core.hold(emitted)
    return RuntimeResult(core.outputs(), metrics, core.round_index, trace)
