"""Gradecast — graded broadcast (Feldman–Micali), t < n/3.

The third classic committee primitive (alongside phase-king BA and
reliable broadcast): a sender distributes a value and every party
outputs a pair ``(value, grade)`` with ``grade ∈ {0, 1, 2}`` such that

* if the sender is honest, every honest party outputs (v, 2);
* if any honest party outputs grade 2 for v, every honest party outputs
  v with grade >= 1 (no honest pair ever holds different values at
  grades >= 1);
* grades of honest parties differ by at most 1.

Gradecast is the standard stepping stone from almost-agreement to
agreement inside committees (it is how several of the Table-1 protocols
structure their committee interactions), and it gives the repo's
committee toolbox full coverage of the classic primitives.

Rounds:

1. the sender sends v to all;
2. every party echoes the value it received to all;
3. every party, having tallied echoes: if some value w was echoed by
   >= n - t parties it *supports* w, sending ``support(w)``; finally it
   grades: >= n - t supports for w → (w, 2); >= t + 1 supports → (w, 1);
   otherwise (default, 0).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SerializationError
from repro.net.party import Envelope, Frame, Party, SilentParty
from repro.net.rounds import run_in_process
from repro.obs.spans import span
from repro.utils.serialization import decode_uint, encode_uint

_VALUE, _ECHO, _SUPPORT = 0, 1, 2
DEFAULT_VALUE = 0


def _encode(tag: int, value: int) -> bytes:
    return encode_uint(tag) + encode_uint(value)


def _decode(payload: bytes) -> Optional[Tuple[int, int]]:
    try:
        tag, pos = decode_uint(payload, 0)
        value, pos = decode_uint(payload, pos)
    except SerializationError:
        return None
    if pos != len(payload) or tag not in (_VALUE, _ECHO, _SUPPORT):
        return None
    return tag, value


class GradecastParty(Party):
    """One participant; output is the pair ``(value, grade)``."""

    def __init__(
        self,
        party_id: int,
        members: Sequence[int],
        max_faults: int,
        sender: int,
        sender_value: Optional[int] = None,
    ) -> None:
        super().__init__(party_id)
        if 3 * max_faults >= len(members):
            raise ConfigurationError("gradecast needs t < n/3")
        self.members = list(members)
        self.t = max_faults
        self.sender = sender
        self.sender_value = sender_value
        self._received: Optional[int] = None
        self._echoes: Counter = Counter()
        self._echo_senders: set = set()
        self._supports: Counter = Counter()
        self._support_senders: set = set()

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        for envelope in inbox:
            decoded = _decode(envelope.payload)
            if decoded is None:
                continue
            tag, value = decoded
            if tag == _VALUE and envelope.sender == self.sender:
                if self._received is None:
                    self._received = value
            elif tag == _ECHO and envelope.sender not in self._echo_senders:
                self._echo_senders.add(envelope.sender)
                self._echoes[value] += 1
            elif (
                tag == _SUPPORT
                and envelope.sender not in self._support_senders
            ):
                self._support_senders.add(envelope.sender)
                self._supports[value] += 1

        n = len(self.members)
        if round_index == 0:
            if self.party_id == self.sender:
                value = (
                    self.sender_value if self.sender_value is not None else 0
                )
                return [
                    self.send(peer, _encode(_VALUE, value))
                    for peer in self.members
                ]
            return []
        if round_index == 1:
            if self._received is None:
                return []
            return [
                self.send(peer, _encode(_ECHO, self._received))
                for peer in self.members
            ]
        if round_index == 2:
            for value, count in self._echoes.items():
                if count >= n - self.t:
                    return [
                        self.send(peer, _encode(_SUPPORT, value))
                        for peer in self.members
                    ]
            return []
        # round 3: grade and halt.
        for value, count in self._supports.items():
            if count >= n - self.t:
                return self.halt((value, 2))
        for value, count in self._supports.items():
            if count >= self.t + 1:
                return self.halt((value, 1))
        return self.halt((DEFAULT_VALUE, 0))


class EquivocatingGradecastSender(GradecastParty):
    """A corrupt sender splitting the committee between two values."""

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0 and self.party_id == self.sender:
            return [
                self.send(peer, _encode(_VALUE, position % 2))
                for position, peer in enumerate(self.members)
            ]
        return super().step(round_index, inbox)


def build_gradecast(
    members: Sequence[int],
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
    equivocating_sender: bool = False,
) -> Tuple[List[Party], List[int], int]:
    """The gradecast party set, built once for every executor.

    Returns ``(parties, honest_ids, max_rounds)``: byzantine parties are
    silent, the designated sender carries the input value (or splits
    the committee when ``equivocating_sender``), everyone else grades
    what they hear.
    """
    members = sorted(members)
    if sender not in members:
        raise ConfigurationError("sender must be a member")
    byzantine_set = set(byzantine)
    t = max(1, (len(members) - 1) // 3)
    if len(byzantine_set) + (1 if equivocating_sender else 0) > t:
        raise ConfigurationError("too many byzantine parties for t < n/3")

    parties: List[Party] = []
    for member in members:
        if member in byzantine_set:
            parties.append(SilentParty(member))
        elif member == sender and equivocating_sender:
            parties.append(
                EquivocatingGradecastSender(
                    member, members, t, sender, sender_value=value
                )
            )
        else:
            parties.append(
                GradecastParty(
                    member, members, t, sender,
                    sender_value=value if member == sender else None,
                )
            )
    honest_ids = [
        m for m in members
        if m not in byzantine_set
        and not (equivocating_sender and m == sender)
    ]
    return parties, honest_ids, 6


def run_gradecast(
    members: Sequence[int],
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
    equivocating_sender: bool = False,
):
    """Convenience driver; returns ``(outputs, metrics)`` with outputs
    mapping honest ids to (value, grade) pairs."""
    parties, honest, max_rounds = build_gradecast(
        members, sender, value, byzantine, equivocating_sender
    )
    with span("gradecast", n=len(parties), sender=sender):
        result = run_in_process(parties, honest, max_rounds)
    outputs = {member: result.outputs[member] for member in honest}
    return outputs, result.metrics


def check_gradecast_guarantees(
    outputs: Dict[int, Tuple[int, int]], sender_honest: bool,
    sender_value: int,
) -> bool:
    """The three gradecast properties, as a checkable predicate."""
    pairs = list(outputs.values())
    if sender_honest:
        if not all(pair == (sender_value, 2) for pair in pairs):
            return False
    grades = [grade for _, grade in pairs]
    if max(grades) - min(grades) > 1:
        return False
    graded_values = {value for value, grade in pairs if grade >= 1}
    if len(graded_values) > 1:
        return False
    if any(grade == 2 for _, grade in pairs):
        if not all(grade >= 1 for _, grade in pairs):
            return False
    return True
