"""The party abstraction for the synchronous simulator.

A protocol is a set of :class:`Party` objects; the simulator repeatedly
collects each party's outgoing envelopes for the round and delivers them
at the start of the next round.  Honest protocol logic subclasses
:class:`Party`; Byzantine behaviors subclass it too and simply misbehave
(the simulator treats both identically — corruption is a property of the
object, not of the transport).

:class:`Envelope` is what a party returns; :class:`Frame` is a separate
record, not an :class:`Envelope` subclass: what
:class:`repro.net.rounds.RoundCore` builds from an envelope at emit time
(true sender, sequence number, delivery round, charged bits, obs phase),
what every placement — in-memory list, runtime transport, cluster mesh —
carries to the next round barrier, and what the recipient is handed.
Its one wire encoding is the train body of :mod:`repro.net.trains`.
Both are :class:`~typing.NamedTuple` records: immutable, hashable, one
allocation per message and no instance ``__dict__``.
"""

from __future__ import annotations

import abc
from typing import Any, List, NamedTuple, Optional, Sequence


class Envelope(NamedTuple):
    """One point-to-point message on the simulated wire.

    ``phase`` is the obs phase that produced it, when the producer knows
    better than the span open at ship time: event-driven protocols emit
    outside any round loop and replayed executions carry their recorded
    label, so the phase must travel with the message.  ``charge_bits``
    is what the metrics ledger is charged; ``-1`` means
    ``8 * len(payload)``, and replayed executions carry exact analytic
    counts that need not be byte multiples.
    """

    sender: int
    recipient: int
    payload: bytes
    phase: str = ""
    charge_bits: int = -1

    def size_bits(self) -> int:
        """Size charged by the metrics ledger."""
        return self.charge_bits if self.charge_bits >= 0 else 8 * len(self.payload)


class Frame(NamedTuple):
    """One message in flight between two round barriers — and, once
    delivered, the message its recipient is handed.

    ``sent_round`` is the round the sender emitted it in; ``deliver_round``
    is the earliest round barrier at which the round core hands it to
    the recipient (``sent_round + 1`` plus any fault-plan delay).
    ``charge_bits`` is what the metrics ledger is charged — normally
    ``8 * len(payload)``, but replayed executions may carry exact analytic
    bit counts that are not byte multiples.
    ``seq`` is the per-sender emission sequence number; together with the
    sender id it defines the canonical (simulator-identical) inbox order.
    ``phase`` is the label the frame is charged under (its envelope's
    own, else the span active when it was shipped) — pure attribution
    metadata: it rides the wire (so attribution survives the TCP
    transport's cross-task delivery) but is **never** part of
    ``charge_bits``, which stays exactly the analytic size the protocol
    declared.
    """

    sender: int
    recipient: int
    payload: bytes
    sent_round: int = 0
    deliver_round: int = 1
    charge_bits: int = -1
    seq: int = 0
    phase: str = ""

    def bits(self) -> int:
        """Bits charged to the ledger for this frame."""
        return self.charge_bits if self.charge_bits >= 0 else 8 * len(self.payload)

    def size_bits(self) -> int:
        """:meth:`Envelope.size_bits`, for parties reading their inbox."""
        return self.bits()


class Party(abc.ABC):
    """A state machine driven by the synchronous network.

    Subclasses implement :meth:`step`, which is called once per round with
    the envelopes delivered this round and returns the envelopes to send.
    A party signals completion by setting :attr:`halted`; its
    :attr:`output` is then read by the driver.
    """

    def __init__(self, party_id: int) -> None:
        self.party_id = party_id
        self.halted = False
        self.output: Optional[Any] = None

    @abc.abstractmethod
    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        """Process this round's inbox and return outgoing envelopes."""

    def send(self, recipient: int, payload: bytes) -> Envelope:
        """Convenience constructor for an outgoing envelope."""
        return Envelope(self.party_id, recipient, payload)

    def halt(self, output: Any = None) -> List[Envelope]:
        """Mark this party finished with the given output; returns []."""
        self.halted = True
        self.output = output
        return []


class SilentParty(Party):
    """A party that never sends anything (models a crashed/isolated node)."""

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        return []


class AsyncParty(abc.ABC):
    """A message-driven state machine for the asynchronous model.

    Where :class:`Party` is clocked (one :meth:`~Party.step` per round),
    an :class:`AsyncParty` is *reactive*: the scheduler calls
    :meth:`start` once, then :meth:`on_message` for every delivered
    envelope, in an order the network adversary controls.  There is no
    round barrier and no delivery promise — correctness may rely only on
    eventual delivery.

    Completion is signaled through :attr:`decided` / :attr:`output`
    (set via :meth:`decide`); unlike the synchronous :attr:`Party.halted`
    a decided party keeps processing messages, because asynchronous
    protocols typically need decided parties to keep relaying so that
    stragglers terminate too.
    """

    def __init__(self, party_id: int) -> None:
        self.party_id = party_id
        self.decided = False
        self.output: Optional[Any] = None

    @abc.abstractmethod
    def start(self) -> List[Envelope]:
        """Fire the protocol's initial messages."""

    @abc.abstractmethod
    def on_message(self, envelope: Envelope) -> List[Envelope]:
        """React to one delivered envelope; return outgoing envelopes."""

    def decide(self, output: Any) -> None:
        """Record this party's (irrevocable) decision."""
        if self.decided:
            return
        self.decided = True
        self.output = output

    def send(
        self, recipient: int, payload: bytes, phase: str = ""
    ) -> Envelope:
        """Convenience constructor for an outgoing (phase-tagged) envelope."""
        return Envelope(self.party_id, recipient, payload, phase)
