"""Bracha reliable broadcast (echo/ready, t < n/3, no signatures).

The committee-internal sub-protocols (coin toss, f_aggr-sig) are stated
over a broadcast channel; §3.1 realizes it with deterministic BA.  This
module provides the other classic realization — Bracha's three-phase
reliable broadcast — which needs no setup at all and is the standard
building block in the asynchronous-consensus literature the paper's
Table 1 cites (CKS'20, BKLL'20).

Phases for sender s broadcasting v:

* **send**: s sends ``(SEND, v)`` to all;
* **echo**: on first ``(SEND, v)`` from s, send ``(ECHO, v)`` to all;
* **ready**: on ``(ECHO, v)`` from n - t distinct parties, or
  ``(READY, v)`` from t + 1 distinct parties, send ``(READY, v)`` to all
  (once);
* **deliver**: on ``(READY, v)`` from 2t + 1 distinct parties, output v.

Guarantees for t < n/3: if the sender is honest everyone delivers its
value; if *any* honest party delivers v, every honest party delivers v
(totality + agreement), even under sender equivocation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SerializationError
from repro.net.party import Envelope, Frame, Party
from repro.utils.serialization import decode_uint, encode_uint

_SEND, _ECHO, _READY = 0, 1, 2


def _encode(tag: int, value: int) -> bytes:
    return encode_uint(tag) + encode_uint(value)


def _decode(payload: bytes) -> Optional[Tuple[int, int]]:
    try:
        tag, pos = decode_uint(payload, 0)
        value, pos = decode_uint(payload, pos)
    except SerializationError:
        return None
    if pos != len(payload) or tag not in (_SEND, _ECHO, _READY):
        return None
    return tag, value


class BrachaParty(Party):
    """One participant of a single-sender Bracha broadcast."""

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
            raise ConfigurationError("bracha needs t < n/3")
        self.members = list(members)
        self.t = max_faults
        self.sender = sender
        self.sender_value = sender_value
        self._echoed = False
        self._readied = False
        self._echoes: Dict[int, Set[int]] = {}
        self._readies: Dict[int, Set[int]] = {}
        self._accepted_send: Optional[int] = None

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        outgoing: List[Envelope] = []
        if round_index == 0 and self.party_id == self.sender:
            value = self.sender_value if self.sender_value is not None else 0
            for peer in self.members:
                outgoing.append(self.send(peer, _encode(_SEND, value)))

        for envelope in inbox:
            decoded = _decode(envelope.payload)
            if decoded is None:
                continue
            tag, value = decoded
            if tag == _SEND:
                if envelope.sender != self.sender:
                    continue
                if self._accepted_send is None:
                    self._accepted_send = value
            elif tag == _ECHO:
                self._echoes.setdefault(value, set()).add(envelope.sender)
            elif tag == _READY:
                self._readies.setdefault(value, set()).add(envelope.sender)

        n = len(self.members)
        if not self._echoed and self._accepted_send is not None:
            self._echoed = True
            for peer in self.members:
                outgoing.append(
                    self.send(peer, _encode(_ECHO, self._accepted_send))
                )
        if not self._readied:
            for value, echoers in self._echoes.items():
                if len(echoers) >= n - self.t:
                    outgoing.extend(self._go_ready(value))
                    break
            else:
                for value, readiers in self._readies.items():
                    if len(readiers) >= self.t + 1:
                        outgoing.extend(self._go_ready(value))
                        break
        for value, readiers in self._readies.items():
            if len(readiers) >= 2 * self.t + 1:
                return outgoing + self.halt(value)
        if round_index > 8:
            return outgoing + self.halt(None)  # sender never spoke
        return outgoing

    def _go_ready(self, value: int) -> List[Envelope]:
        self._readied = True
        return [
            self.send(peer, _encode(_READY, value)) for peer in self.members
        ]


class EquivocatingBrachaSender(BrachaParty):
    """A corrupt sender sending different values to each half."""

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0 and self.party_id == self.sender:
            outgoing = []
            for position, peer in enumerate(self.members):
                outgoing.append(
                    self.send(peer, _encode(_SEND, position % 2))
                )
            return outgoing
        # Afterwards behave honestly with its own (first) value so the
        # run exercises the echo-quorum intersection argument.
        return super().step(round_index, inbox)


def run_bracha(
    members: Sequence[int],
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
    equivocating_sender: bool = False,
):
    """Convenience driver; returns ``(outputs, metrics)``."""
    from repro.net.metrics import CommunicationMetrics
    from repro.net.party import SilentParty
    from repro.net.simulator import SynchronousNetwork

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
            # A byzantine sender models a crashed/silent sender; honest
            # parties must terminate with None (totality fallback).
            parties.append(SilentParty(member))
        elif member == sender and equivocating_sender:
            parties.append(
                EquivocatingBrachaSender(member, members, t, sender,
                                         sender_value=value)
            )
        else:
            parties.append(
                BrachaParty(
                    member, members, t, sender,
                    sender_value=value if member == sender else None,
                )
            )
    metrics = CommunicationMetrics()
    network = SynchronousNetwork(parties, metrics=metrics)
    honest = [
        m for m in members
        if m not in byzantine_set
        and not (equivocating_sender and m == sender)
    ]
    network.run_until(honest, max_rounds=15)
    outputs = {member: network.parties[member].output for member in honest}
    return outputs, metrics
