"""Per-party communication accounting.

This is the measurement instrument for the paper's headline quantity:
*maximum bits communicated by any single party*.  Every wire transfer in
the simulator (and every charge made by a hybrid-model functionality) is
recorded here, per party, as sent/received bits, message counts, and the
set of distinct peers (communication locality, à la Boyle et al. [13]),
kept as a bitmask of party ids.

Every charge gets one ``(phase, kind)`` label from
:func:`repro.obs.spans.charge_label`; ``bits_by_phase`` /
``phase_breakdown`` and the attached flow ledger's cells both use it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby, islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import NetworkError
from repro.net.party import Frame
from repro.obs.flow import FUNCTIONALITY, FlowLedger
from repro.obs.spans import charge_label


def _charge_key(frame: Frame) -> Tuple[int, int, str]:
    """What two consecutive frames must share to be one multicast charge."""
    return frame.sender, frame.bits(), frame.phase


def multicast_runs(
    frames: Iterable[Frame],
) -> Iterator[Tuple[int, int, str, List[int]]]:
    """A frame batch as its multicast charges, in order.

    Consecutive frames with equal ``(sender, bits, phase)`` — a party's
    fan-out, as the round core emits it — form one
    ``(sender, bits, phase, recipients)`` run.
    """
    for (sender, num_bits, phase), run in groupby(frames, _charge_key):
        yield sender, num_bits, phase, [frame.recipient for frame in run]


def _mask(party_ids: Iterable[int]) -> int:
    """The bitmask with bit ``p`` set for every listed party ``p``."""
    mask = 0
    for party_id in party_ids:
        mask |= 1 << party_id
    return mask


def _synthetic_peer_masks(
    pool: Sequence[int], peers: int
) -> Callable[[int], int]:
    """``party -> mask`` of the first ``peers`` pool entries other than
    ``party``: a hybrid charge's synthetic peers.

    Every mask comes from the one prefix ``pool[:peers]``.  A party
    absent from it gets the prefix's mask; a party that sits in it
    ``c`` times (the pool may repeat ids) loses its own bit and gains
    the next ``c`` entries past the prefix that are not itself.  A
    charge pays one pass over the prefix and one mask per participant,
    not one pass over the pool per participant.
    """
    head = pool[:peers]
    head_mask = _mask(head)
    in_head = Counter(head)

    def others(party: int) -> int:
        missing = in_head[party]
        if not missing:
            return head_mask
        mask = head_mask & ~(1 << party)
        for peer in islice(pool, peers, None):
            if peer != party:
                mask |= 1 << peer
                missing -= 1
                if not missing:
                    break
        return mask

    return others


def _members(mask: int) -> Set[int]:
    """The party ids whose bits are set in ``mask``."""
    lowest_first = bin(mask)[2:][::-1]
    return {party_id for party_id, bit in enumerate(lowest_first) if bit == "1"}


@dataclass
class PartyTally:
    """Mutable per-party counters.

    Distinct peers are bitmasks (bit ``p`` set: party ``p`` was sent to,
    or received from).  A party's peers are a union of a few committees,
    so an int is far smaller than a set of ~n ints and merges a whole
    committee in one ``|``; the sets are built only when read.
    """

    bits_sent: int = 0
    bits_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    sent_mask: int = 0
    received_mask: int = 0

    @property
    def bits_total(self) -> int:
        """Bits communicated (sent + received)."""
        return self.bits_sent + self.bits_received

    @property
    def peers_sent_to(self) -> Set[int]:
        """The distinct parties this party sent to (a fresh set)."""
        return _members(self.sent_mask)

    @property
    def peers_received_from(self) -> Set[int]:
        """The distinct parties this party received from (a fresh set)."""
        return _members(self.received_mask)

    @property
    def locality(self) -> int:
        """Number of distinct parties this party exchanged messages with."""
        # int.bit_count needs Python 3.10.
        return bin(self.sent_mask | self.received_mask).count("1")


class CommunicationMetrics:
    """The ledger of all communication in one protocol execution.

    Charges come from two sources that are deliberately kept in one
    ledger: actual envelopes routed by the simulator, and analytic charges
    made by hybrid-model functionalities (whose realizations' costs are
    documented in §3.1 of the paper).  Benchmarks read the aggregate
    properties; tests can inspect individual tallies.
    """

    def __init__(self) -> None:
        self._tallies: Dict[int, PartyTally] = {}
        self._round_bits: List[int] = []
        self._current_round_bits = 0
        self.rounds_completed = 0
        # The label dimension (repro.obs): per-party bits_total broken
        # down by the charge's phase label, plus per-phase message
        # counts.  Unlabeled callers see byte-for-byte identical
        # aggregates — these dicts are pure side accounting.
        self._phase_bits: Dict[int, Dict[str, int]] = {}
        self._phase_messages: Dict[str, int] = {}
        # The flow dimension (repro.obs.flow): every charge is refined
        # into a (round, phase, src, dst, kind) cell under the same
        # label when a ledger is attached.  Pure side accounting.
        self._flow: Optional[FlowLedger] = None

    def __getstate__(self) -> Dict[str, object]:
        # The attached flow ledger never pickles (it may hold an open
        # spill file); checkpoint resume
        # re-attaches the caller's ledger and grafts the carried tallies
        # into it (see repro.cluster.supervisor._load_state).
        state = dict(self.__dict__)
        state["_flow"] = None
        return state

    def attach_flow(self, ledger: Optional[FlowLedger]) -> None:
        """Attach (or detach, with ``None``) a wire-level flow ledger.

        Every subsequent :meth:`record_exchange` /
        :meth:`charge_functionality` is mirrored into the ledger as
        traffic-matrix cells carrying the charge's label.
        """
        self._flow = ledger

    @property
    def flow(self) -> Optional[FlowLedger]:
        """The attached flow ledger, if any."""
        return self._flow

    # -- recording -----------------------------------------------------------

    def record_message(
        self,
        sender: int,
        recipient: int,
        num_bits: int,
        phase: str = "",
        kind: str = "",
    ) -> str:
        """Charge one point-to-point message of ``num_bits`` bits.

        The one-by-one case of :meth:`record_exchange`.
        """
        return self.record_exchange(
            (sender,), (recipient,), num_bits, phase=phase, kind=kind
        )

    def record_multicast(
        self,
        sender: int,
        recipients: Sequence[int],
        num_bits: int,
        phase: str = "",
        kind: str = "",
    ) -> str:
        """Charge the same ``num_bits``-bit message to each recipient.

        The one-sender case of :meth:`record_exchange`: a recipient
        listed twice is sent to twice; none listed charges nothing.
        """
        return self.record_exchange(
            (sender,), recipients, num_bits, phase=phase, kind=kind
        )

    def record_exchange(
        self,
        senders: Sequence[int],
        recipients: Sequence[int],
        num_bits: int,
        phase: str = "",
        kind: str = "",
        skip_self: bool = False,
    ) -> str:
        """Charge every sender sending ``num_bits`` bits to every recipient.

        The ledger's one wire body.  Equal, in every view of the ledger,
        to one point-to-point charge per (sender, recipient) pair, sender
        by sender in the order listed — an id listed twice on either side
        counts twice — but each party's tally moves once per side it is
        on, so a committee-to-committee exchange costs
        O(|senders| + |recipients|) steps, not their product.

        ``skip_self`` describes the traffic, not the bookkeeping: set, a
        party on both sides sends to every *other* recipient (Fig. 3
        step 5b); unset, it is charged for the message to itself like any
        other (step 5d, where a party may sit in both committees).

        ``phase`` is the label the message carries, if it carries one (a
        frame's phase, a digest row's phase) and ``kind`` the wire it
        crossed; :func:`~repro.obs.spans.charge_label` fills in the
        rest.  Returns the phase the charge was filed under.
        """
        if num_bits < 0:
            raise NetworkError("message size cannot be negative")
        phase, kind = charge_label(phase, kind, "wire")
        num_senders, num_recipients = len(senders), len(recipients)
        if not num_senders or not num_recipients:
            return phase
        if skip_self:
            # How often each party is listed on the other side: the
            # sends it skips, and the receipts it misses.
            as_recipient, as_sender = Counter(recipients), Counter(senders)
        # Each side's peers as one bitmask, built once per exchange (a
        # lone peer, the common case, without the loop).
        sent_to = (
            1 << recipients[0] if num_recipients == 1 else _mask(recipients)
        )
        received_from = (
            1 << senders[0] if num_senders == 1 else _mask(senders)
        )
        tallies, phase_bits = self._tallies, self._phase_bits
        messages = 0
        fanout, fanin = num_recipients, num_senders
        for sender in senders:
            if skip_self:
                fanout = num_recipients - as_recipient.get(sender, 0)
                if not fanout:
                    continue
            messages += fanout
            try:
                tally = tallies[sender]
            except KeyError:
                tally = tallies[sender] = PartyTally()
            sent = num_bits * fanout
            tally.bits_sent += sent
            tally.messages_sent += fanout
            # Skipping the message to oneself adds oneself as a peer
            # only if an earlier charge already did.
            if skip_self:
                tally.sent_mask |= sent_to & ~(1 << sender)
            else:
                tally.sent_mask |= sent_to
            try:
                phase_bits[sender][phase] += sent
            except KeyError:
                phase_bits.setdefault(sender, {})[phase] = sent
        if not messages:
            return phase
        for recipient in recipients:
            if skip_self:
                fanin = num_senders - as_sender.get(recipient, 0)
                if not fanin:
                    continue
            try:
                tally = tallies[recipient]
            except KeyError:
                tally = tallies[recipient] = PartyTally()
            received = num_bits * fanin
            tally.bits_received += received
            tally.messages_received += fanin
            if skip_self:
                tally.received_mask |= received_from & ~(1 << recipient)
            else:
                tally.received_mask |= received_from
            try:
                phase_bits[recipient][phase] += received
            except KeyError:
                phase_bits.setdefault(recipient, {})[phase] = received
        flow = self._flow
        if flow is not None:
            # The traffic matrix is per pair by definition; its cells are
            # emitted sender-major, as the per-pair charges would.
            round_index = len(self._round_bits)
            for sender in senders:
                for recipient in recipients:
                    if skip_self and recipient == sender:
                        continue
                    flow.charge(
                        round_index, phase, sender, recipient, num_bits,
                        kind=kind,
                    )
        self._current_round_bits += num_bits * messages
        self._phase_messages[phase] = (
            self._phase_messages.get(phase, 0) + messages
        )
        return phase

    def record_frames(self, frames: Iterable[Frame], kind: str = "") -> None:
        """Charge a batch of frames, each under the phase it carries.

        Equal, in every view of the ledger, to one :meth:`record_message`
        per frame in order.  The lockstep placements charge a round's
        frames in one call: consecutive frames of one sender with equal
        bits and phase (a party's fan-out, as the round core emits it)
        are one :meth:`record_multicast` (see :func:`multicast_runs`).
        """
        for sender, num_bits, phase, recipients in multicast_runs(frames):
            self.record_multicast(
                sender, recipients, num_bits, phase=phase, kind=kind
            )

    def charge_functionality(
        self,
        participants: Iterable[int],
        bits_per_party: int,
        peers_per_party: int,
        rounds: int = 1,
        peer_pool: Optional[Iterable[int]] = None,
        phase: str = "",
        kind: str = "",
    ) -> str:
        """Charge a hybrid-model functionality invocation.

        Every participant is charged ``bits_per_party`` of communication
        (half sent, half received — so per-party ``bits_total`` grows by
        exactly ``bits_per_party``, while the single-counted aggregates
        ``total_bits`` and :attr:`round_bits` grow by the sent halves,
        exactly as they would if the same traffic had flowed through
        :meth:`record_message`) and its locality is widened by
        ``peers_per_party`` synthetic peer slots drawn from ``peer_pool``
        (default: the other participants — pass an explicit pool when
        the charged traffic touches parties outside the participant
        list, e.g. a central hub serving everyone).  A negative
        widening is a :class:`NetworkError`.

        The paper's protocol (Fig. 3) is stated in the (f_ae-comm, f_ba,
        f_ct, f_aggr-sig)-hybrid model with the realizations' costs pinned
        in §3.1; this method is how those costs enter the ledger when a
        functionality is executed functionally rather than as messages.
        ``phase`` / ``kind`` and the return value are as for
        :meth:`record_message` (a replayed op carries its recorded phase).
        """
        if peers_per_party < 0:
            raise NetworkError("peer widening cannot be negative")
        participant_list = list(participants)
        pool = list(peer_pool) if peer_pool is not None else participant_list
        phase, kind = charge_label(phase, kind, "hybrid")
        peer_masks = _synthetic_peer_masks(pool, peers_per_party)
        sent_half = bits_per_party - bits_per_party // 2
        recv_half = bits_per_party // 2
        messages = max(1, peers_per_party)
        flow, round_index = self._flow, len(self._round_bits)
        for party_id in participant_list:
            tally = self._tallies.get(party_id)
            if tally is None:
                tally = self._tallies[party_id] = PartyTally()
            tally.bits_sent += sent_half
            tally.bits_received += recv_half
            tally.messages_sent += messages
            tally.messages_received += messages
            others = peer_masks(party_id)
            tally.sent_mask |= others
            tally.received_mask |= others
            # bits_total grew by exactly bits_per_party (both halves).
            by_phase = self._phase_bits.setdefault(party_id, {})
            by_phase[phase] = by_phase.get(phase, 0) + bits_per_party
            if flow is not None:
                # The flow cells mirror the tally split: the sent half
                # flows p -> FUNCTIONALITY, the received half back, so
                # per-party flow side counters stay bit-identical to
                # bits_sent / bits_received.
                flow.charge(
                    round_index, phase, party_id, FUNCTIONALITY,
                    sent_half, kind=kind,
                )
                flow.charge(
                    round_index, phase, FUNCTIONALITY, party_id,
                    recv_half, kind=kind,
                )
        self._phase_messages[phase] = (
            self._phase_messages.get(phase, 0)
            + len(participant_list) * messages
        )
        # Round accounting follows the record_message convention: each
        # wire transfer is counted once, at the sender, so the round
        # grows by the sum of sent halves — exactly what
        # :attr:`total_bits` (which sums ``bits_sent``) accrues.
        self._current_round_bits += sent_half * len(participant_list)
        self.rounds_completed += rounds
        return phase

    def end_round(self) -> None:
        """Close the current round's tally (called by the simulator)."""
        self._round_bits.append(self._current_round_bits)
        self._current_round_bits = 0
        self.rounds_completed += 1

    # -- aggregate queries ----------------------------------------------------

    def tally_of(self, party_id: int) -> PartyTally:
        """A read-only view of one party's tally (possibly empty).

        Always returns a **defensive copy**: mutating the result never
        changes the ledger.  (Historically an unknown party got a fresh
        mutable ``PartyTally`` that was *not* stored, so callers could
        mutate a phantom tally whose changes were silently dropped —
        while a known party's live tally leaked out.  Both paths now
        behave identically.)
        """
        tally = self._tallies.get(party_id)
        return PartyTally() if tally is None else replace(tally)

    # -- phase-labeled queries (repro.obs) ------------------------------------

    def bits_by_phase(self, party_id: int) -> Dict[str, int]:
        """One party's ``bits_total``, decomposed by protocol phase.

        Keys are the charges' phase labels (see
        :func:`repro.obs.spans.charge_label`); charges that carry no
        phase and are made outside any span land under
        :data:`~repro.obs.spans.UNATTRIBUTED`.  Invariant (pinned
        by tests): ``sum(bits_by_phase(p).values()) ==
        tally_of(p).bits_total`` for every party ``p``.
        """
        return dict(self._phase_bits.get(party_id, {}))

    @property
    def phases(self) -> List[str]:
        """All phase labels that received charges, sorted."""
        labels = set(self._phase_messages)
        for per_party in self._phase_bits.values():
            labels.update(per_party)
        return sorted(labels)

    def phase_breakdown(self) -> Dict[str, "PhaseBreakdown"]:
        """Aggregate per-phase costs across all parties.

        Bits follow the per-party ``bits_total`` convention (sent +
        received — each wire transfer contributes to two parties), so
        ``max_bits_per_party`` here is directly comparable with
        :attr:`max_bits_per_party` and the per-party sums of
        :meth:`bits_by_phase`.
        """
        breakdown: Dict[str, PhaseBreakdown] = {}
        per_phase_party: Dict[str, Dict[int, int]] = {}
        for party_id, phases in self._phase_bits.items():
            for phase, bits in phases.items():
                per_phase_party.setdefault(phase, {})[party_id] = bits
        for phase in self.phases:
            parties = per_phase_party.get(phase, {})
            breakdown[phase] = PhaseBreakdown(
                phase=phase,
                total_bits=sum(parties.values()),
                max_bits_per_party=max(parties.values(), default=0),
                parties=len(parties),
                messages=self._phase_messages.get(phase, 0),
            )
        return breakdown

    @property
    def round_bits(self) -> List[int]:
        """Closed per-round wire-bit totals (record_message convention:
        every transfer counted once, at the sender)."""
        return list(self._round_bits)

    @property
    def current_round_bits(self) -> int:
        """Bits accrued in the still-open round."""
        return self._current_round_bits

    @property
    def party_ids(self) -> List[int]:
        """All parties that ever communicated."""
        return sorted(self._tallies)

    @property
    def total_bits(self) -> int:
        """Total bits over all parties (each message counted once)."""
        return sum(t.bits_sent for t in self._tallies.values())

    @property
    def max_bits_per_party(self) -> int:
        """The paper's headline metric: worst-case per-party communication."""
        if not self._tallies:
            return 0
        return max(t.bits_total for t in self._tallies.values())

    @property
    def mean_bits_per_party(self) -> float:
        """Average per-party communication (amortized metric)."""
        if not self._tallies:
            return 0.0
        return sum(t.bits_total for t in self._tallies.values()) / len(self._tallies)

    @property
    def max_locality(self) -> int:
        """Worst-case communication locality (distinct peers)."""
        if not self._tallies:
            return 0
        return max(t.locality for t in self._tallies.values())

    @property
    def max_messages_per_party(self) -> int:
        """Worst-case number of messages sent by one party."""
        if not self._tallies:
            return 0
        return max(t.messages_sent for t in self._tallies.values())

    def imbalance(self) -> float:
        """Ratio max/mean bits per party — 1.0 means perfectly balanced.

        This is the quantity behind the paper's title: protocols with
        amortized Õ(1) but Ω(n) "central parties" have imbalance Θ(n) /
        polylog, whereas the SRDS-based protocol stays polylog-flat.
        """
        mean = self.mean_bits_per_party
        if mean == 0:
            return 1.0
        return self.max_bits_per_party / mean

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable summary for benchmark result tables."""
        return MetricsSnapshot(
            total_bits=self.total_bits,
            max_bits_per_party=self.max_bits_per_party,
            mean_bits_per_party=self.mean_bits_per_party,
            max_locality=self.max_locality,
            max_messages_per_party=self.max_messages_per_party,
            rounds=self.rounds_completed,
            num_parties=len(self._tallies),
        )


@dataclass(frozen=True)
class PhaseBreakdown:
    """Aggregate cost of one protocol phase (repro.obs label dimension).

    ``total_bits`` and ``max_bits_per_party`` use the per-party
    ``bits_total`` convention (sent + received); ``messages`` counts
    sender-side emissions charged under this phase.
    """

    phase: str
    total_bits: int
    max_bits_per_party: int
    parties: int
    messages: int


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable aggregate communication summary of one execution."""

    total_bits: int
    max_bits_per_party: int
    mean_bits_per_party: float
    max_locality: int
    max_messages_per_party: int
    rounds: int
    num_parties: int

    @property
    def imbalance(self) -> float:
        """max/mean per-party bits (1.0 = perfectly balanced)."""
        if self.mean_bits_per_party == 0:
            return 1.0
        return self.max_bits_per_party / self.mean_bits_per_party
