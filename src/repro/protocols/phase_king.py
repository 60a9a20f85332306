"""Phase-King Byzantine agreement for committees (realizes f_ba).

The paper instantiates the committee-level BA functionality f_ba with the
deterministic Garay–Moses protocol (t+1 rounds, poly communication); any
deterministic t < n/3 BA fits the functionality's interface and cost
envelope, and we implement the classic *King algorithm* of Berman, Garay
and Perry — three rounds per phase, f+1 phases, resilience f < n/3 —
which is simpler and has the same polylog(n) cost when run by a
polylog(n)-size committee.

Per phase (king = a fixed, round-robin party):

1. every party sends its current value to all;
2. a party that saw some value ``w`` at least ``n - f`` times sends
   ``propose(w)`` to all; a party that received more than ``f`` proposals
   for ``w`` adopts ``w``;
3. the king sends its value; a party whose own value gathered fewer than
   ``n - f`` proposals adopts the king's.

This module implements the protocol as real message-passing
:class:`~repro.net.party.Party` state machines (used standalone and in
tests), plus a functional evaluator matching f_ba's ideal behaviour for
the hybrid-model executions of the big protocol.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SerializationError
from repro.net.party import Envelope, Frame, Party
from repro.net.rounds import run_in_process
from repro.obs.spans import span
from repro.utils.serialization import encode_uint

_VALUE_TAG = 0
_PROPOSE_TAG = 1
_KING_TAG = 2


def _encode(tag: int, value: int) -> bytes:
    return encode_uint(tag) + encode_uint(value)


def _decode(payload: bytes) -> Optional[tuple]:
    from repro.utils.serialization import decode_uint

    try:
        tag, pos = decode_uint(payload, 0)
        value, pos = decode_uint(payload, pos)
    except SerializationError:
        return None
    if pos != len(payload):
        return None
    return tag, value


class PhaseKingParty(Party):
    """An honest phase-king participant.

    ``members`` is the ordered committee (party ids); the king of phase k
    is ``members[k - 1]``.  Values are small non-negative ints (bits in
    the BA use-case).
    """

    def __init__(
        self,
        party_id: int,
        members: Sequence[int],
        max_faults: int,
        input_value: int,
    ) -> None:
        super().__init__(party_id)
        if max_faults * 3 >= len(members):
            raise ConfigurationError(
                f"phase king needs f < n/3; got f={max_faults}, n={len(members)}"
            )
        self.members = list(members)
        self.f = max_faults
        self.value = input_value
        self._proposal_support = 0

    # Round layout: phase k (0-based) occupies rounds 3k, 3k+1, 3k+2.

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        phase, subround = divmod(round_index, 3)
        if phase > self.f:
            return self.halt(self.value)
        if subround == 0:
            return self._send_all(_VALUE_TAG, self.value)
        if subround == 1:
            counts = self._tally(inbox, _VALUE_TAG)
            outgoing: List[Envelope] = []
            for candidate, count in counts.items():
                if count >= len(self.members) - self.f:
                    outgoing = self._send_all(_PROPOSE_TAG, candidate)
                    break
            return outgoing
        # subround == 2: process proposals, king speaks.
        proposals = self._tally(inbox, _PROPOSE_TAG)
        adopted = None
        for candidate, count in proposals.items():
            if count > self.f:
                adopted = candidate
                break
        if adopted is not None:
            self.value = adopted
        self._proposal_support = proposals.get(self.value, 0)
        king = self.members[phase % len(self.members)]
        if self.party_id == king:
            return self._send_all(_KING_TAG, self.value)
        return []

    def _post_king(self, inbox: Sequence[Frame], phase: int) -> None:
        king = self.members[phase % len(self.members)]
        king_value = None
        for envelope in inbox:
            decoded = _decode(envelope.payload)
            if decoded and decoded[0] == _KING_TAG and envelope.sender == king:
                king_value = decoded[1]
        if king_value is not None and self._proposal_support < (
            len(self.members) - self.f
        ):
            self.value = king_value

    def _send_all(self, tag: int, value: int) -> List[Envelope]:
        payload = _encode(tag, value)
        return [self.send(peer, payload) for peer in self.members]

    def _tally(self, inbox: Sequence[Frame], wanted_tag: int) -> Counter:
        counts: Counter = Counter()
        seen_senders = set()
        for envelope in inbox:
            if envelope.sender in seen_senders:
                continue
            decoded = _decode(envelope.payload)
            if decoded is None:
                continue
            tag, value = decoded
            if tag != wanted_tag:
                continue
            seen_senders.add(envelope.sender)
            counts[value] += 1
        return counts


class _PhaseKingPartyWrapped(PhaseKingParty):
    """Phase-king party that folds the king round in correctly.

    The king's message of phase k is delivered at round 3k+3 (= round 0
    of the next phase), so honest parties must consume it *before*
    sending their next value.
    """

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        phase, subround = divmod(round_index, 3)
        if subround == 0 and phase > 0:
            self._post_king(inbox, phase - 1)
        return super().step(round_index, inbox)


def make_honest_party(
    party_id: int,
    members: Sequence[int],
    max_faults: int,
    input_value: int,
) -> PhaseKingParty:
    """Factory for an honest phase-king participant."""
    return _PhaseKingPartyWrapped(party_id, members, max_faults, input_value)


class ByzantinePhaseKingParty(Party):
    """A simple malicious participant: equivocates values per recipient
    and proposes both values every phase (a standard stress adversary for
    phase-king implementations)."""

    def __init__(self, party_id: int, members: Sequence[int]) -> None:
        super().__init__(party_id)
        self.members = list(members)

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        phase, subround = divmod(round_index, 3)
        outgoing: List[Envelope] = []
        if subround == 0:
            for position, peer in enumerate(self.members):
                outgoing.append(
                    self.send(peer, _encode(_VALUE_TAG, position % 2))
                )
        elif subround == 1:
            for position, peer in enumerate(self.members):
                outgoing.append(
                    self.send(peer, _encode(_PROPOSE_TAG, position % 2))
                )
        else:
            king = self.members[phase % len(self.members)]
            if self.party_id == king:
                for position, peer in enumerate(self.members):
                    outgoing.append(
                        self.send(peer, _encode(_KING_TAG, position % 2))
                    )
        return outgoing


def _max_faults(n: int) -> int:
    return max(1, (n - 1) // 3)


def build_phase_king(
    inputs: Dict[int, int],
    byzantine: Sequence[int] = (),
    enforce_budget: bool = True,
) -> Tuple[List[Party], List[int], int]:
    """The phase-king party set, built once for every executor.

    Returns ``(parties, honest_ids, max_rounds)``: honest parties run
    the three-round King algorithm, byzantine ones the stock
    equivocator, and the round cap covers f+1 phases plus the halting
    round.  ``enforce_budget=False`` admits more than f byzantine
    parties — the protocol's guarantees are void beyond the threshold,
    which is exactly what the campaign's planted over-threshold cells
    demonstrate (the honest outputs must then *visibly* disagree, never
    silently pass).
    """
    members = sorted(inputs)
    byzantine_set = set(byzantine)
    f = _max_faults(len(members))
    if enforce_budget and len(byzantine_set) > f:
        raise ConfigurationError(
            f"{len(byzantine_set)} byzantine parties exceeds f={f}"
        )
    parties: List[Party] = [
        ByzantinePhaseKingParty(member, members)
        if member in byzantine_set
        else make_honest_party(member, members, f, inputs[member])
        for member in members
    ]
    honest_ids = [m for m in members if m not in byzantine_set]
    return parties, honest_ids, 3 * (f + 2) + 3


def run_phase_king(
    inputs: Dict[int, int],
    byzantine: Sequence[int] = (),
    metrics=None,
):
    """Convenience driver: run phase-king among ``inputs.keys()``.

    Returns ``(outputs, metrics)`` where ``outputs`` maps honest party id
    to its decision.
    """
    parties, honest_ids, max_rounds = build_phase_king(inputs, byzantine)
    with span("phase-king", n=len(inputs), f=_max_faults(len(inputs))):
        result = run_in_process(
            parties, honest_ids, max_rounds, metrics=metrics
        )
    outputs = {member: result.outputs[member] for member in honest_ids}
    return outputs, result.metrics


def ideal_f_ba(inputs: Dict[int, int], num_corrupt: int,
               adversary_choice: int = 0) -> int:
    """The ideal functionality f_ba (§3.1).

    If at least ``n - t`` inputs agree on a value — in particular,
    whenever all honest parties hold the same input — that value is the
    output; otherwise the adversary chooses.  (``>=`` rather than the
    paper's literal "more than": the paper quantifies over the corruption
    *bound* t, while callers pass the actual corrupt count, and honest
    unanimity yields exactly ``n - num_corrupt`` matching inputs.)
    """
    counts = Counter(inputs.values())
    n = len(inputs)
    for value, count in counts.items():
        if count >= n - num_corrupt:
            return value
    return adversary_choice
