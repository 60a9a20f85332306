"""MMR14-style common-coin asynchronous binary agreement (ABA).

The asynchronous baseline the paper's synchronous π_ba is compared
against.  This is the Mostéfaoui–Moumen–Raynal (PODC'14) signature-free
binary agreement, structured exactly like the classic HoneyBadgerBFT
realization:

* **BV-broadcast** — each party broadcasts ``BVAL(r, est)``; on ``f+1``
  distinct ``BVAL(r, v)`` it relays ``BVAL(r, v)`` once; on ``2f+1`` it
  adds ``v`` to ``bin_values[r]``.  BV-broadcast guarantees every value
  in any honest ``bin_values`` was proposed by some honest party.
* **AUX** — once ``bin_values[r]`` is non-empty the party broadcasts one
  ``AUX(r, w)`` with ``w ∈ bin_values[r]`` and waits for ``n − f`` AUX
  values inside its (growing) ``bin_values[r]``.
* **CONF** — the party broadcasts the set it collected and waits for
  ``n − f`` CONF sets contained in ``bin_values[r]``; the combined view
  yields ``values ⊆ bin_values[r]``.
* **coin** — a common coin ``b = coin(r)`` (here: the ideal ``f_ct``
  seam shared with :mod:`repro.protocols.coin_toss`, charged through the
  metrics ledger like every other hybrid functionality).  If
  ``values == {v}`` the party adopts ``est = v`` and *decides* ``v``
  when ``v == b``; otherwise it adopts ``est = b`` and starts round
  ``r + 1``.

Agreement/validity hold under any message schedule with ``n > 3f``;
termination holds with probability 1 because each round decides with
probability ≥ 1/2 once the adversary can no longer bias which single
value survives (expected ~4 rounds; the asynchrony benchmarks assert
the observed mean stays within 2× of that).

The state machine is *transport-free*: it subclasses
:class:`~repro.net.party.AsyncParty` and is driven by
:class:`repro.asynchrony.scheduler.AsyncScheduler` — there is no round
synchronizer anywhere in its execution.  All wire traffic is plain
length-charged envelopes tagged with ``aba-bval`` / ``aba-aux`` /
``aba-conf`` phases, so flow ledgers and BENCH records break its cost
down exactly like the synchronous protocols.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SerializationError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import AsyncParty, Envelope
from repro.obs.spans import span
from repro.protocols.coin_toss import ideal_f_ct
from repro.protocols import cost_model
from repro.crypto.hashing import hash_domain
from repro.utils.randomness import Randomness
from repro.utils.serialization import decode_uint, encode_uint

# Wire tags (varint-encoded, followed by round and value/mask varints).
MSG_BVAL = 0
MSG_AUX = 1
MSG_CONF = 2

#: Obs phase names stamped on outgoing envelopes, by message tag.
PHASE_OF_TAG = {MSG_BVAL: "aba-bval", MSG_AUX: "aba-aux", MSG_CONF: "aba-conf"}


def encode_aba_message(tag: int, round_index: int, value: int) -> bytes:
    """``tag ‖ round ‖ value`` as varints (CONF's value is a set mask)."""
    return encode_uint(tag) + encode_uint(round_index) + encode_uint(value)


def decode_aba_message(payload: bytes) -> Tuple[int, int, int]:
    """Inverse of :func:`encode_aba_message`; rejects trailing bytes."""
    tag, offset = decode_uint(payload, 0)
    round_index, offset = decode_uint(payload, offset)
    value, offset = decode_uint(payload, offset)
    if offset != len(payload):
        raise SerializationError("trailing bytes in ABA message")
    return tag, round_index, value


def _mask_of(values: Set[int]) -> int:
    return (1 if 0 in values else 0) | (2 if 1 in values else 0)


def _values_of(mask: int) -> FrozenSet[int]:
    return frozenset(v for v in (0, 1) if mask & (1 << v))


class CommonCoin:
    """The round coin: the ideal ``f_ct`` seam, charged per first query.

    One session seed is drawn from the caller's rng through
    :func:`~repro.protocols.coin_toss.ideal_f_ct` (the same hybrid-model
    functionality π_ba's committee coin uses); round ``r``'s bit is a
    domain-separated hash of the session and ``r``, so every party
    querying the coin sees the same bit without further interaction —
    the functionality's promise.  The realization cost
    (:func:`repro.protocols.cost_model.committee_coin_toss` over the
    given committee) is charged to the ledger on the *first* query of
    each round, under an ``aba-coin`` span.

    ``subscribe`` registers observers — the adaptive-adversary seam:
    a corruption strategy may watch coin outcomes and only then choose
    whom to corrupt (:mod:`repro.asynchrony.adaptive`).
    """

    def __init__(
        self,
        rng: Randomness,
        metrics: Optional[CommunicationMetrics] = None,
        committee: Sequence[int] = (),
    ) -> None:
        self._session = ideal_f_ct(rng.fork("aba/coin-session"))
        self._metrics = metrics
        self._committee = list(committee)
        self._cache: Dict[int, int] = {}
        self._observers: List[Callable[[int, int], None]] = []

    def subscribe(self, observer: Callable[[int, int], None]) -> None:
        """Register ``observer(round_index, bit)`` for each new round."""
        self._observers.append(observer)

    def value(self, round_index: int) -> int:
        """The round's common coin bit (charges on first query)."""
        if round_index not in self._cache:
            digest = hash_domain(
                "aba/coin", self._session, encode_uint(round_index)
            )
            bit = digest[0] & 1
            if self._metrics is not None and self._committee:
                charge = cost_model.committee_coin_toss(len(self._committee))
                with span("aba-coin"):
                    self._metrics.charge_functionality(
                        self._committee,
                        charge.bits_per_party,
                        charge.peers_per_party,
                        charge.rounds,
                    )
            self._cache[round_index] = bit
            for observer in self._observers:
                observer(round_index, bit)
        return self._cache[round_index]


class ABAParty(AsyncParty):
    """One honest MMR14 participant (reactive state machine).

    Messages for *any* round are accepted and buffered — BV-broadcast
    relays fire regardless of the party's current round, so a straggler
    catches up from the buffered evidence the moment it advances.  All
    thresholds count distinct senders, which makes delivery idempotent:
    duplicated or reordered deliveries can never double-count
    (pinned by the dup/reorder Hypothesis properties).
    """

    def __init__(
        self,
        party_id: int,
        party_ids: Sequence[int],
        input_bit: int,
        coin: CommonCoin,
    ) -> None:
        super().__init__(party_id)
        if input_bit not in (0, 1):
            raise ConfigurationError("ABA input must be a bit")
        self.peers = sorted(party_ids)
        if party_id not in self.peers:
            raise ConfigurationError("party_id must be in party_ids")
        self.n = len(self.peers)
        self.f = (self.n - 1) // 3
        self.coin = coin
        self.est = input_bit
        self.round = 0
        # (round, value) -> distinct senders seen.
        self._bval_recv: Dict[Tuple[int, int], Set[int]] = {}
        # (round, value) pairs this party has already BVAL-broadcast.
        self._bval_sent: Set[Tuple[int, int]] = set()
        self._bin_values: Dict[int, Set[int]] = {}
        self._aux_recv: Dict[int, Dict[int, int]] = {}
        self._aux_sent: Set[int] = set()
        self._conf_recv: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._conf_sent: Set[int] = set()

    # -- wire ----------------------------------------------------------------

    def _broadcast(self, tag: int, round_index: int, value: int) -> List[Envelope]:
        payload = encode_aba_message(tag, round_index, value)
        out = [
            self.send(peer, payload, phase=PHASE_OF_TAG[tag])
            for peer in self.peers
            if peer != self.party_id
        ]
        # Loopback: count our own vote immediately — no wire, no charge.
        out.extend(
            self.on_message(
                Envelope(
                    sender=self.party_id,
                    recipient=self.party_id,
                    payload=payload,
                )
            )
        )
        return out

    def _broadcast_bval(self, round_index: int, value: int) -> List[Envelope]:
        self._bval_sent.add((round_index, value))
        return self._broadcast(MSG_BVAL, round_index, value)

    # -- protocol ------------------------------------------------------------

    def start(self) -> List[Envelope]:
        return self._broadcast_bval(0, self.est)

    def on_message(self, envelope: Envelope) -> List[Envelope]:
        try:
            tag, round_index, value = decode_aba_message(envelope.payload)
        except SerializationError:
            return []  # Byzantine garbage: ignore, never crash.
        out: List[Envelope] = []
        if tag == MSG_BVAL and value in (0, 1):
            senders = self._bval_recv.setdefault((round_index, value), set())
            if envelope.sender in senders:
                return []
            senders.add(envelope.sender)
            if (
                len(senders) >= self.f + 1
                and (round_index, value) not in self._bval_sent
            ):
                out.extend(self._broadcast_bval(round_index, value))
            if len(senders) >= 2 * self.f + 1:
                self._bin_values.setdefault(round_index, set()).add(value)
        elif tag == MSG_AUX and value in (0, 1):
            received = self._aux_recv.setdefault(round_index, {})
            if envelope.sender in received:
                return []
            received[envelope.sender] = value
        elif tag == MSG_CONF and value in (1, 2, 3):
            received = self._conf_recv.setdefault(round_index, {})
            if envelope.sender in received:
                return []
            received[envelope.sender] = _values_of(value)
        else:
            return []  # unknown tag / out-of-range value: ignore.
        out.extend(self._advance())
        return out

    def _advance(self) -> List[Envelope]:
        """Drive the current round as far as the evidence allows."""
        out: List[Envelope] = []
        progressed = True
        while progressed:
            progressed = False
            round_index = self.round
            bin_values = self._bin_values.get(round_index, set())
            if round_index not in self._aux_sent and bin_values:
                self._aux_sent.add(round_index)
                out.extend(
                    self._broadcast(MSG_AUX, round_index, min(bin_values))
                )
                progressed = True
                continue
            if (
                round_index in self._aux_sent
                and round_index not in self._conf_sent
            ):
                aux = self._aux_recv.get(round_index, {})
                good = {v for s, v in aux.items() if v in bin_values}
                count = sum(1 for v in aux.values() if v in bin_values)
                if count >= self.n - self.f:
                    self._conf_sent.add(round_index)
                    out.extend(
                        self._broadcast(
                            MSG_CONF, round_index, _mask_of(good)
                        )
                    )
                    progressed = True
                    continue
            if round_index in self._conf_sent:
                values = self._conf_values(round_index, bin_values)
                if values is not None:
                    coin_bit = self.coin.value(round_index)
                    if len(values) == 1:
                        (candidate,) = values
                        if candidate == coin_bit:
                            self.decide(candidate)
                        self.est = candidate
                    else:
                        self.est = coin_bit
                    self.round = round_index + 1
                    if (self.round, self.est) not in self._bval_sent:
                        out.extend(self._broadcast_bval(self.round, self.est))
                    progressed = True
        return out

    def _conf_values(
        self, round_index: int, bin_values: Set[int]
    ) -> Optional[Set[int]]:
        """The CONF-stage output set, or ``None`` if not yet determined."""
        conf = self._conf_recv.get(round_index, {})
        if 1 in bin_values:
            if sum(1 for s in conf.values() if s == {1}) >= self.n - self.f:
                return {1}
        if 0 in bin_values:
            if sum(1 for s in conf.values() if s == {0}) >= self.n - self.f:
                return {0}
        contained = sum(1 for s in conf.values() if s <= bin_values)
        if contained >= self.n - self.f:
            return {0, 1}
        return None


# -- Byzantine behaviors -----------------------------------------------------


class SilentABAParty(AsyncParty):
    """A corrupted participant that never speaks (crash-equivalent)."""

    def start(self) -> List[Envelope]:
        return []

    def on_message(self, envelope: Envelope) -> List[Envelope]:
        return []


class EquivocatingABAParty(AsyncParty):
    """A corrupted participant that votes both ways every round.

    For every round it learns of, it broadcasts *both* ``BVAL(r, 0)``
    and ``BVAL(r, 1)`` and sends each recipient a recipient-dependent
    ``AUX(r, recipient & 1)`` — the strongest split-the-vote behavior
    BV-broadcast is designed to neutralize (any value reaching an honest
    ``bin_values`` still needs ``2f+1`` distinct senders).
    """

    def __init__(self, party_id: int, party_ids: Sequence[int]) -> None:
        super().__init__(party_id)
        self.peers = sorted(party_ids)
        self._spammed: Set[int] = set()

    def _spam_round(self, round_index: int) -> List[Envelope]:
        if round_index in self._spammed:
            return []
        self._spammed.add(round_index)
        out: List[Envelope] = []
        for peer in self.peers:
            if peer == self.party_id:
                continue
            for value in (0, 1):
                out.append(
                    self.send(
                        peer,
                        encode_aba_message(MSG_BVAL, round_index, value),
                        phase=PHASE_OF_TAG[MSG_BVAL],
                    )
                )
            out.append(
                self.send(
                    peer,
                    encode_aba_message(MSG_AUX, round_index, peer & 1),
                    phase=PHASE_OF_TAG[MSG_AUX],
                )
            )
        return out

    def start(self) -> List[Envelope]:
        return self._spam_round(0)

    def on_message(self, envelope: Envelope) -> List[Envelope]:
        try:
            _tag, round_index, _value = decode_aba_message(envelope.payload)
        except SerializationError:
            return []
        return self._spam_round(round_index)
