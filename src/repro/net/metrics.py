"""Per-party communication accounting.

This is the measurement instrument for the paper's headline quantity:
*maximum bits communicated by any single party*.  Every wire transfer in
the simulator (and every charge made by a hybrid-model functionality) is
recorded here, per party, as sent/received bits, message counts, and the
set of distinct peers (communication locality, à la Boyle et al. [13]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.obs.flow import FUNCTIONALITY, FlowLedger, current_flow_tags
from repro.obs.spans import UNATTRIBUTED, current_phase


@dataclass
class PartyTally:
    """Mutable per-party counters."""

    bits_sent: int = 0
    bits_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    peers_sent_to: Set[int] = field(default_factory=set)
    peers_received_from: Set[int] = field(default_factory=set)

    @property
    def bits_total(self) -> int:
        """Bits communicated (sent + received)."""
        return self.bits_sent + self.bits_received

    @property
    def locality(self) -> int:
        """Number of distinct parties this party exchanged messages with."""
        return len(self.peers_sent_to | self.peers_received_from)


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
        # down by the innermost active span at charge time, plus
        # per-phase message counts.  Unlabeled callers see byte-for-byte
        # identical aggregates — these dicts are pure side accounting.
        self._phase_bits: Dict[int, Dict[str, int]] = {}
        self._phase_messages: Dict[str, int] = {}
        # The flow dimension (repro.obs.flow): every charge is refined
        # into a (round, phase, src, dst, kind) cell when a ledger is
        # attached.  Pure side accounting — aggregates never move.
        self._flow: Optional[FlowLedger] = None

    def __getstate__(self) -> Dict[str, object]:
        # The attached flow ledger never pickles (it may hold an open
        # spill file and live registry instruments); checkpoint resume
        # re-attaches the caller's ledger and uses absorb_tally to keep
        # flow parity (see repro.cluster.supervisor._load_state).
        state = dict(self.__dict__)
        state["_flow"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._flow = None

    def attach_flow(self, ledger: Optional[FlowLedger]) -> None:
        """Attach (or detach, with ``None``) a wire-level flow ledger.

        Every subsequent :meth:`record_message` /
        :meth:`charge_functionality` / :meth:`absorb_tally` is mirrored
        into the ledger as traffic-matrix cells.  The flow phase is the
        innermost obs span unless a :func:`repro.obs.flow.flow_tags`
        override is active (replay backends re-attach recorded phases
        that way); overrides never touch span attribution here.
        """
        self._flow = ledger

    @property
    def flow(self) -> Optional[FlowLedger]:
        """The attached flow ledger, if any."""
        return self._flow

    def _tally(self, party_id: int) -> PartyTally:
        tally = self._tallies.get(party_id)
        if tally is None:
            tally = PartyTally()
            self._tallies[party_id] = tally
        return tally

    def _attribute(self, party_id: int, phase: str, num_bits: int) -> None:
        per_party = self._phase_bits.setdefault(party_id, {})
        per_party[phase] = per_party.get(phase, 0) + num_bits

    # -- recording -----------------------------------------------------------

    def record_message(self, sender: int, recipient: int, num_bits: int) -> None:
        """Charge one point-to-point message of ``num_bits`` bits."""
        if num_bits < 0:
            raise NetworkError("message size cannot be negative")
        sender_tally = self._tally(sender)
        recipient_tally = self._tally(recipient)
        sender_tally.bits_sent += num_bits
        sender_tally.messages_sent += 1
        sender_tally.peers_sent_to.add(recipient)
        recipient_tally.bits_received += num_bits
        recipient_tally.messages_received += 1
        recipient_tally.peers_received_from.add(sender)
        self._current_round_bits += num_bits
        phase = current_phase() or UNATTRIBUTED
        self._attribute(sender, phase, num_bits)
        self._attribute(recipient, phase, num_bits)
        self._phase_messages[phase] = self._phase_messages.get(phase, 0) + 1
        if self._flow is not None:
            tag_phase, tag_kind = current_flow_tags()
            self._flow.charge(
                round_index=len(self._round_bits),
                phase=tag_phase or phase,
                src=sender,
                dst=recipient,
                bits=num_bits,
                kind=tag_kind or "wire",
            )

    def replay_digest(
        self,
        rows: Iterable[Tuple[int, int, int, str]],
        kind: str = "frame",
    ) -> None:
        """Replay a batch of ``(sender, recipient, bits, phase)`` rows.

        The cluster never routes a frame through the supervisor, so
        workers ship a per-round digest home and this method replays
        it into the ledger.  Every row is charged *exactly* as
        :meth:`record_message` under
        ``flow_tags(phase=row_phase, kind=kind)`` would charge it —
        span attribution stays on the supervisor's innermost obs span
        (or ``(unattributed)``), while the flow ledger gets the worker's
        recorded protocol phase — so aggregates, per-phase cells, and
        flow cells are bit-identical to charging each frame as it is
        sent.
        """
        span_phase = current_phase() or UNATTRIBUTED
        flow = self._flow
        flow_round = len(self._round_bits)
        # Hot path: a digest batch carries thousands of rows but only
        # ~n distinct parties, and every ledger update is additive — so
        # accumulate per-party sums locally and apply each party once.
        # Commutativity makes this bit-identical to the per-row loop
        # (sums, counts, peer-set unions, and phase attributions do not
        # depend on application order).
        acc: Dict[int, list] = {}
        total_bits = 0
        row_count = 0
        for sender, recipient, num_bits, row_phase in rows:
            if num_bits < 0:
                raise NetworkError("message size cannot be negative")
            total_bits += num_bits
            row_count += 1
            entry = acc.get(sender)
            if entry is None:
                entry = acc[sender] = [0, 0, 0, 0, set(), set()]
            entry[0] += num_bits
            entry[1] += 1
            entry[4].add(recipient)
            entry = acc.get(recipient)
            if entry is None:
                entry = acc[recipient] = [0, 0, 0, 0, set(), set()]
            entry[2] += num_bits
            entry[3] += 1
            entry[5].add(sender)
            if flow is not None:
                flow.charge(
                    round_index=flow_round,
                    phase=row_phase or span_phase,
                    src=sender,
                    dst=recipient,
                    bits=num_bits,
                    kind=kind,
                )
        for party_id, (sent_bits, sent_msgs, recv_bits, recv_msgs,
                       sent_peers, recv_peers) in acc.items():
            tally = self._tally(party_id)
            tally.bits_sent += sent_bits
            tally.messages_sent += sent_msgs
            tally.peers_sent_to.update(sent_peers)
            tally.bits_received += recv_bits
            tally.messages_received += recv_msgs
            tally.peers_received_from.update(recv_peers)
            # record_message attributes num_bits to both endpoints, so a
            # party's attributed sum is its sent + received aggregate.
            self._attribute(party_id, span_phase, sent_bits + recv_bits)
        self._current_round_bits += total_bits
        if row_count:
            self._phase_messages[span_phase] = (
                self._phase_messages.get(span_phase, 0) + row_count
            )

    def charge_functionality(
        self,
        participants: Iterable[int],
        bits_per_party: int,
        peers_per_party: int,
        rounds: int = 1,
        peer_pool: Optional[Iterable[int]] = None,
    ) -> None:
        """Charge a hybrid-model functionality invocation.

        Every participant is charged ``bits_per_party`` of communication
        (half sent, half received — so per-party ``bits_total`` grows by
        exactly ``bits_per_party``, while the single-counted aggregates
        ``total_bits`` and :attr:`round_bits` grow by the sent halves,
        exactly as they would if the same traffic had flowed through
        :meth:`record_message`) and its
        locality is widened by ``peers_per_party`` synthetic peer slots
        drawn from ``peer_pool`` (default: the other participants — pass
        an explicit pool when the charged traffic touches parties outside
        the participant list, e.g. a central hub serving everyone).

        The paper's protocol (Fig. 3) is stated in the (f_ae-comm, f_ba,
        f_ct, f_aggr-sig)-hybrid model with the realizations' costs pinned
        in §3.1; this method is how those costs enter the ledger when a
        functionality is executed functionally rather than as messages.
        """
        participant_list = list(participants)
        pool = list(peer_pool) if peer_pool is not None else participant_list
        phase = current_phase() or UNATTRIBUTED
        for party_id in participant_list:
            # Phase attribution: a participant's bits_total grows by
            # exactly bits_per_party (sent half + received half).
            self._attribute(party_id, phase, bits_per_party)
        self._phase_messages[phase] = (
            self._phase_messages.get(phase, 0)
            + len(participant_list) * max(1, peers_per_party)
        )
        for party_id in participant_list:
            tally = self._tally(party_id)
            tally.bits_sent += bits_per_party - bits_per_party // 2
            tally.bits_received += bits_per_party // 2
            tally.messages_sent += max(1, peers_per_party)
            tally.messages_received += max(1, peers_per_party)
            # Synthetic peers are drawn from the pool, clipped to the
            # requested locality widening.
            others = [p for p in pool if p != party_id]
            tally.peers_sent_to.update(others[:peers_per_party])
            tally.peers_received_from.update(others[:peers_per_party])
        # Round accounting follows the record_message convention: each
        # wire transfer is counted once, at the sender.  A participant's
        # sent half is ``bits_per_party - bits_per_party // 2``, so the
        # round total is the sum of sent halves — matching exactly what
        # :attr:`total_bits` (which sums ``bits_sent``) accrues from this
        # charge.  (Historically this line added the *full* per-party
        # charge, double-counting hybrid traffic relative to the wire
        # path.)
        self._current_round_bits += sum(
            bits_per_party - bits_per_party // 2 for _ in participant_list
        )
        self.rounds_completed += rounds
        if self._flow is not None:
            # Flow refinement mirrors the tally split exactly: the sent
            # half flows p -> FUNCTIONALITY, the received half flows
            # FUNCTIONALITY -> p, so per-party flow side counters stay
            # bit-identical to bits_sent / bits_received.
            tag_phase, tag_kind = current_flow_tags()
            flow_phase = tag_phase or phase
            flow_kind = tag_kind or "hybrid"
            round_index = len(self._round_bits)
            sent_half = bits_per_party - bits_per_party // 2
            recv_half = bits_per_party // 2
            for party_id in participant_list:
                self._flow.charge(
                    round_index, flow_phase, party_id, FUNCTIONALITY,
                    sent_half, kind=flow_kind,
                )
                self._flow.charge(
                    round_index, flow_phase, FUNCTIONALITY, party_id,
                    recv_half, kind=flow_kind,
                )

    def end_round(self) -> None:
        """Close the current round's tally (called by the simulator)."""
        self._round_bits.append(self._current_round_bits)
        self._current_round_bits = 0
        self.rounds_completed += 1

    def absorb_tally(self, party_id: int, tally: PartyTally) -> None:
        """Merge a previously snapshotted tally into this ledger.

        Used on checkpoint resume (:mod:`repro.cluster`): the fresh
        ledger of a restarted run is pre-charged with each party's
        tally as of the checkpoint, so aggregate queries
        (``max_bits_per_party``, localities, message counts) match an
        uninterrupted run exactly.  Phase attribution cannot be
        reconstructed from a tally, so the absorbed ``bits_total`` lands
        under the currently active span (usually
        :data:`~repro.obs.spans.UNATTRIBUTED`), preserving the
        ``sum(bits_by_phase) == bits_total`` invariant.
        """
        target = self._tally(party_id)
        target.bits_sent += tally.bits_sent
        target.bits_received += tally.bits_received
        target.messages_sent += tally.messages_sent
        target.messages_received += tally.messages_received
        target.peers_sent_to.update(tally.peers_sent_to)
        target.peers_received_from.update(tally.peers_received_from)
        if tally.bits_total:
            phase = current_phase() or UNATTRIBUTED
            self._attribute(party_id, phase, tally.bits_total)
            if self._flow is not None:
                # Keep flow parity across checkpoint resume: the
                # absorbed halves land on FUNCTIONALITY edges under the
                # dedicated "absorbed" kind (resume provenance is not
                # reconstructible per edge from a tally).
                round_index = len(self._round_bits)
                if tally.bits_sent:
                    self._flow.charge(
                        round_index, phase, party_id, FUNCTIONALITY,
                        tally.bits_sent, kind="absorbed",
                    )
                if tally.bits_received:
                    self._flow.charge(
                        round_index, phase, FUNCTIONALITY, party_id,
                        tally.bits_received, kind="absorbed",
                    )

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
        if tally is None:
            return PartyTally()
        return PartyTally(
            bits_sent=tally.bits_sent,
            bits_received=tally.bits_received,
            messages_sent=tally.messages_sent,
            messages_received=tally.messages_received,
            peers_sent_to=set(tally.peers_sent_to),
            peers_received_from=set(tally.peers_received_from),
        )

    # -- phase-labeled queries (repro.obs) ------------------------------------

    def bits_by_phase(self, party_id: int) -> Dict[str, int]:
        """One party's ``bits_total``, decomposed by protocol phase.

        Keys are the innermost active span names at charge time (see
        :func:`repro.obs.spans.span`); charges made outside any span land
        under :data:`~repro.obs.spans.UNATTRIBUTED`.  Invariant (pinned
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
