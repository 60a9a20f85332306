"""Wire replay: turn a metered execution into Party state machines.

The big protocol π_ba (Fig. 3) is implemented in the hybrid model: it
charges every wire message to a :class:`CommunicationMetrics` ledger but
never routes bytes through a network object.  To exercise π_ba's traffic
over a *real* transport (and to check the runtime against the
synchronous simulator on exactly the paper's headline workload), this
module records the ledger's charge stream as a **replay script** and
re-executes it as :class:`~repro.net.party.Party` state machines:

1. run π_ba (or any metered execution) with a :class:`RecordingLedger`
   — the protocol computes its outputs exactly as before, while every
   ``record_exchange`` / ``charge_functionality`` call is also appended
   to a script — with the phase label the ledger filed it under —
   segmented into replay rounds;
2. build one :class:`ReplayParty` per party; its round-``k`` step emits
   precisely the wire messages the original execution sent in segment
   ``k`` (as zero-filled payloads of the exact charged size);
3. run the replay parties on any placement row — in-process, the async
   runtime or the mesh — every frame crosses the chosen substrate and is
   charged to a fresh ledger under its recorded phase, which must
   reproduce the original per-party tallies and phase breakdown
   bit-for-bit.

Analytic hybrid charges (``charge_functionality``) are not wire traffic;
the replay applies them verbatim to the target ledger via
:func:`apply_func_ops`, so full-ledger parity (not just wire parity)
holds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Envelope, Frame, Party


#: One recorded wire send: ``(recipient, bits, phase)``.
Send = Tuple[int, int, str]


@dataclass(frozen=True)
class FuncOp:
    """One recorded ``charge_functionality`` invocation.

    ``phase`` is the label the recording ledger filed the charge under;
    the replay charges under the same one.
    """

    participants: Tuple[int, ...]
    bits_per_party: int
    peers_per_party: int
    rounds: int
    peer_pool: Optional[Tuple[int, ...]]
    phase: str = ""

    def apply(self, metrics: CommunicationMetrics) -> None:
        metrics.charge_functionality(
            self.participants,
            self.bits_per_party,
            self.peers_per_party,
            rounds=self.rounds,
            peer_pool=self.peer_pool,
            phase=self.phase,
        )


@dataclass
class ReplaySegment:
    """One replay round: per-sender wire sends plus attached hybrid ops.

    A send is ``(recipient, bits, phase)`` — ``phase`` being the label it
    was filed under when recorded (``""`` leaves attribution to the
    replaying context's spans).
    """

    sends: Dict[int, List[Send]] = field(default_factory=dict)
    funcs: List[FuncOp] = field(default_factory=list)

    @property
    def num_messages(self) -> int:
        return sum(len(v) for v in self.sends.values())


@dataclass
class ReplayScript:
    """The full recorded charge stream of one execution."""

    segments: List[ReplaySegment]

    @property
    def num_messages(self) -> int:
        return sum(segment.num_messages for segment in self.segments)

    @property
    def num_rounds(self) -> int:
        return len(self.segments)

    def party_ids(self) -> List[int]:
        """Every party that appears as sender, recipient, or participant."""
        ids = set()
        for segment in self.segments:
            for sender, sends in segment.sends.items():
                ids.add(sender)
                ids.update(recipient for recipient, _, _ in sends)
            for func in segment.funcs:
                ids.update(func.participants)
                if func.peer_pool is not None:
                    ids.update(func.peer_pool)
        return sorted(ids)


class RecordingLedger(CommunicationMetrics):
    """A metrics ledger that additionally records a replay script.

    Charging behaviour is *identical* to the base ledger (the recorded
    execution's snapshot is unchanged); recording is a pure side channel.
    Segmentation: wire messages accumulate into the current segment; a
    ``charge_functionality`` call (the protocols' natural phase marks)
    or an explicit ``end_round`` closes a segment that already holds
    wire traffic.
    """

    def __init__(self) -> None:
        super().__init__()
        self._segments: List[ReplaySegment] = []
        self._current = ReplaySegment()

    def record_exchange(
        self,
        senders: Sequence[int],
        recipients: Sequence[int],
        num_bits: int,
        phase: str = "",
        kind: str = "",
        skip_self: bool = False,
    ) -> str:
        phase = super().record_exchange(
            senders, recipients, num_bits,
            phase=phase, kind=kind, skip_self=skip_self,
        )
        sends = [(recipient, num_bits, phase) for recipient in recipients]
        for sender in senders:
            mine = (
                [send for send in sends if send[0] != sender]
                if skip_self else sends
            )
            if mine:
                self._current.sends.setdefault(sender, []).extend(mine)
        return phase

    def charge_functionality(
        self,
        participants,
        bits_per_party: int,
        peers_per_party: int,
        rounds: int = 1,
        peer_pool=None,
        phase: str = "",
        kind: str = "",
    ) -> str:
        participants = list(participants)
        pool = list(peer_pool) if peer_pool is not None else None
        phase = super().charge_functionality(
            participants, bits_per_party, peers_per_party,
            rounds=rounds, peer_pool=pool, phase=phase, kind=kind,
        )
        if self._current.sends:
            self._segments.append(self._current)
            self._current = ReplaySegment()
        self._current.funcs.append(
            FuncOp(
                participants=tuple(participants),
                bits_per_party=bits_per_party,
                peers_per_party=peers_per_party,
                rounds=rounds,
                peer_pool=tuple(pool) if pool is not None else None,
                phase=phase,
            )
        )
        return phase

    def end_round(self) -> None:
        super().end_round()
        if self._current.sends or self._current.funcs:
            self._segments.append(self._current)
            self._current = ReplaySegment()

    def script(self) -> ReplayScript:
        """The script recorded so far (current partial segment included)."""
        segments = list(self._segments)
        if self._current.sends or self._current.funcs:
            segments.append(self._current)
        return ReplayScript(segments=segments)


class ReplayParty(Party):
    """Replays one party's recorded send schedule, round by round."""

    def __init__(
        self,
        party_id: int,
        per_round_sends: Sequence[Sequence[Send]],
        total_rounds: int,
    ) -> None:
        super().__init__(party_id)
        if len(per_round_sends) > total_rounds:
            raise NetworkError("send schedule longer than the replay run")
        self._sends = [list(round_sends) for round_sends in per_round_sends]
        self._total_rounds = total_rounds
        self.received_bits = 0

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        self.received_bits += sum(frame.bits() for frame in inbox)
        if round_index >= self._total_rounds:
            return self.halt(self.received_bits)
        if round_index >= len(self._sends):
            return []
        # Zero-filled filler of ceil(bits / 8) bytes, charged at the
        # recorded count (for π_ba's wire messages a byte multiple, so
        # filler and charge agree) under the recorded phase.
        return [
            Envelope(self.party_id, recipient, bytes((bits + 7) // 8), phase, bits)
            for recipient, bits, phase in self._sends[round_index]
        ]


def build_replay_parties(script: ReplayScript, n: int) -> List[ReplayParty]:
    """One :class:`ReplayParty` per party id in ``range(n)``.

    Round ``k`` of the replay corresponds to script segment ``k``; all
    parties halt at round ``num_rounds`` (after the last deliveries).
    """
    total = script.num_rounds
    per_party: Dict[int, List[List[Send]]] = {
        party: [[] for _ in range(total)] for party in range(n)
    }
    for index, segment in enumerate(script.segments):
        for sender, sends in segment.sends.items():
            if sender not in per_party:
                raise NetworkError(
                    f"script references party {sender} outside range({n})"
                )
            per_party[sender][index] = list(sends)
    return [
        ReplayParty(party, per_party[party], total) for party in range(n)
    ]


def apply_func_ops(
    script: ReplayScript, metrics: CommunicationMetrics
) -> int:
    """Apply every recorded hybrid charge to a ledger; returns the count."""
    count = 0
    for segment in script.segments:
        for func in segment.funcs:
            func.apply(metrics)
            count += 1
    return count


def replay_script(
    script: ReplayScript,
    n: int,
    placement,
    *,
    metrics: Optional[CommunicationMetrics] = None,
    trace=None,
    fault_plan=None,
):
    """Re-run the script's wire traffic on ``placement`` (a row of
    :mod:`repro.runtime.placements`) and apply its hybrid charges to the
    ledger the placement charged; returns the placement's result."""
    result = placement.run(
        build_replay_parties(script, n),
        max_rounds=script.num_rounds + 2,
        metrics=metrics,
        trace=trace,
        fault_plan=fault_plan,
    )
    apply_func_ops(script, result.metrics)
    return result


def record_balanced_ba_script(
    inputs: Dict[int, int],
    plan,
    scheme,
    params,
    rng,
    adversary=None,
    delivery_rng=None,
):
    """Phase 1 of the replay recipe: run Fig. 3 against a
    :class:`RecordingLedger`; returns ``(reference_result, script)``."""
    from repro.protocols.balanced_ba import run_balanced_ba

    recorder = RecordingLedger()
    reference = run_balanced_ba(
        inputs, plan, scheme, params, rng, adversary,
        delivery_rng=delivery_rng, metrics=recorder,
    )
    return reference, recorder.script()


def replay_balanced_ba(
    placement,
    inputs: Dict[int, int],
    plan,
    scheme,
    params,
    rng,
    adversary=None,
    *,
    fault_plan=None,
    trace=None,
    metrics: Optional[CommunicationMetrics] = None,
):
    """π_ba on any row of :mod:`repro.runtime.placements`.

    Phase 1 executes Fig. 3 exactly as
    :func:`~repro.protocols.balanced_ba.run_balanced_ba` does, against a
    :class:`RecordingLedger` (outputs, certificate and reference
    snapshot untouched); phase 2 replays the recorded wire traffic on
    ``placement``, charging a fresh ledger (or the caller's
    ``metrics``, so an attached flow ledger observes the wire) where
    the frames crossed, with the hybrid charges applied verbatim.

    If the fault plan reorders within a round, Fig. 3 itself also
    consumes every inbox in a permuted order (the ``delivery_rng``
    seam), so the honest logic — not just the replay — runs under the
    scheduling adversary.

    Returns ``(ba_result, placement_result)`` where ``ba_result`` is the
    reference result with its metrics replaced by the snapshot of the
    *placement-charged* ledger — comparable bit for bit across
    placements and with the reference.
    """
    delivery_rng = None
    if fault_plan is not None and fault_plan.reorder:
        assert fault_plan.rng is not None
        delivery_rng = fault_plan.rng.fork("balanced-ba-delivery")
    reference, script = record_balanced_ba_script(
        inputs, plan, scheme, params, rng, adversary, delivery_rng
    )
    result = replay_script(
        script, len(reference.outputs), placement,
        metrics=metrics, trace=trace, fault_plan=fault_plan,
    )
    ba_result = dataclasses.replace(
        reference, metrics=result.metrics.snapshot()
    )
    return ba_result, result


def replay_over_simulator(
    script: ReplayScript,
    n: int,
    metrics: Optional[CommunicationMetrics] = None,
) -> CommunicationMetrics:
    """:func:`replay_script` on the in-process placement; returns the
    freshly charged ledger."""
    from repro.runtime.placements import IN_PROCESS

    return replay_script(script, n, IN_PROCESS, metrics=metrics).metrics


def tallies_equal(
    a: CommunicationMetrics,
    b: CommunicationMetrics,
    party_ids: Iterable[int],
) -> bool:
    """Whether two ledgers agree on every per-party counter.

    (Round *counts* may differ — a replay imposes its own round
    segmentation — but bits, message counts, and localities must not.)
    """
    for party in party_ids:
        ta, tb = a.tally_of(party), b.tally_of(party)
        if (
            ta.bits_sent,
            ta.bits_received,
            ta.messages_sent,
            ta.messages_received,
            ta.sent_mask,
            ta.received_mask,
        ) != (
            tb.bits_sent,
            tb.bits_received,
            tb.messages_sent,
            tb.messages_received,
            tb.sent_mask,
            tb.received_mask,
        ):
            return False
    return True
