"""Committee coin tossing from verifiable secret sharing (realizes f_ct).

The Chor–Goldwasser–Micali–Awerbuch paradigm the paper cites in §3.1:
every committee member verifiably secret-shares a random field element;
after the sharing phase completes the shares are revealed, every
qualified dealer's secret is reconstructed, and the coin is the hash of
the XOR/sum of all reconstructed secrets.  VSS makes the coin
unbiasable by a minority: a corrupt dealer's contribution is *fixed* at
sharing time (the honest parties hold enough consistent shares to
reconstruct it with or without the dealer), so rushing at reveal time
changes nothing.

The protocol is stated over a broadcast channel (realized by f_ba per
§3.1); the implementation uses the simulator's send-to-all with honest
parties echoing nothing — dealer equivocation on *commitments* is
handled by the complaint round, and share reveals are publicly
verifiable against the commitment, which is what actually protects the
output.

Rounds:

1. **deal** — dealer i sends ``share_ij`` privately to each j and its
   Feldman commitment to all;
2. **complain** — each party announces the dealer ids whose share failed
   verification (or never arrived);
3. **resolve + reveal** — dealers with more than f complaints are
   disqualified by everyone; each party sends all its (commitment-valid)
   shares of qualified dealers to all;
4. **reconstruct** — each party reconstructs every qualified dealer's
   secret from commitment-verified revealed shares and outputs
   ``H(sum of secrets)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto import ec, vss
from repro.crypto.hashing import hash_domain
from repro.crypto.shamir import Share
from repro.errors import MALFORMED_INPUT_ERRORS, ConfigurationError
from repro.fields.prime_field import FieldElement, default_field
from repro.net.party import Envelope, Frame, Party
from repro.net.rounds import run_in_process
from repro.utils.randomness import Randomness
from repro.utils.serialization import (
    canonical_tuple,
    decode_sequence,
    decode_uint,
    encode_bytes,
    encode_uint,
    int_to_fixed_bytes,
)

_MSG_SHARE = 0
_MSG_COMMIT = 1
_MSG_COMPLAIN = 2
_MSG_REVEAL = 3


def _encode_commitment(commitment: vss.VSSCommitment) -> bytes:
    return canonical_tuple(
        *[point.encode() for point in commitment.coefficient_points]
    )


def _decode_commitment(data: bytes) -> vss.VSSCommitment:
    encoded_points, _ = decode_sequence(data, 0)
    return vss.VSSCommitment(
        coefficient_points=tuple(ec.decode_point(p) for p in encoded_points)
    )


class CoinTossParty(Party):
    """An honest VSS coin-toss participant."""

    def __init__(
        self,
        party_id: int,
        members: Sequence[int],
        max_faults: int,
        rng: Randomness,
    ) -> None:
        super().__init__(party_id)
        if max_faults * 3 >= len(members):
            raise ConfigurationError(
                f"coin toss needs f < n/3; got f={max_faults}, n={len(members)}"
            )
        self.members = list(members)
        self.f = max_faults
        self._rng = rng
        self._field = default_field()
        self._my_index = self.members.index(party_id) + 1  # Shamir x-coord
        self._received_shares: Dict[int, Share] = {}
        self._commitments: Dict[int, vss.VSSCommitment] = {}
        self._share_verdicts: Dict[int, bool] = {}
        self._complaints: Dict[int, Set[int]] = {}
        self._revealed: Dict[int, List[Share]] = {}

    # -- round machine ---------------------------------------------------------

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0:
            return self._deal()
        if round_index == 1:
            self._collect_deals(inbox)
            return self._complain()
        if round_index == 2:
            self._collect_complaints(inbox)
            return self._reveal()
        if round_index == 3:
            self._collect_reveals(inbox)
            return self.halt(self._reconstruct())
        return []

    def _deal(self) -> List[Envelope]:
        secret = self._field.random_element(self._rng).value
        dealing = vss.deal_verifiable(
            secret, len(self.members), self.f, self._rng
        )
        outgoing: List[Envelope] = []
        commitment_payload = encode_uint(_MSG_COMMIT) + _encode_commitment(
            dealing.commitment
        )
        for position, peer in enumerate(self.members):
            share = dealing.shares[position]
            share_payload = encode_uint(_MSG_SHARE) + canonical_tuple(
                int_to_fixed_bytes(share.x.value, 32),
                int_to_fixed_bytes(share.y.value, 32),
            )
            outgoing.append(self.send(peer, share_payload))
            outgoing.append(self.send(peer, commitment_payload))
        return outgoing

    def _collect_deals(self, inbox: Sequence[Frame]) -> None:
        for envelope in inbox:
            try:
                tag, pos = decode_uint(envelope.payload, 0)
                body = envelope.payload[pos:]
                if tag == _MSG_SHARE:
                    fields, _ = decode_sequence(body, 0)
                    x = int.from_bytes(fields[0], "big")
                    y = int.from_bytes(fields[1], "big")
                    self._received_shares.setdefault(
                        envelope.sender,
                        Share(
                            x=self._field.element(x),
                            y=self._field.element(y),
                        ),
                    )
                elif tag == _MSG_COMMIT:
                    self._commitments.setdefault(
                        envelope.sender, _decode_commitment(body)
                    )
            except MALFORMED_INPUT_ERRORS:
                continue

    def _share_verifies(self, dealer: int) -> bool:
        """Whether the share this party holds from ``dealer`` matches the
        dealer's commitment; both are fixed once dealt, so checked once."""
        verdict = self._share_verdicts.get(dealer)
        if verdict is None:
            verdict = vss.verify_share(
                self._received_shares[dealer], self._commitments[dealer]
            )
            self._share_verdicts[dealer] = verdict
        return verdict

    def _complain(self) -> List[Envelope]:
        bad: List[int] = []
        for dealer in self.members:
            share = self._received_shares.get(dealer)
            commitment = self._commitments.get(dealer)
            if (
                share is None
                or commitment is None
                or commitment.threshold != self.f
                or share.x.value != self._my_index
                or not self._share_verifies(dealer)
            ):
                bad.append(dealer)
        payload = encode_uint(_MSG_COMPLAIN) + canonical_tuple(
            *[encode_uint(d) for d in bad]
        )
        return [self.send(peer, payload) for peer in self.members]

    def _collect_complaints(self, inbox: Sequence[Frame]) -> None:
        for envelope in inbox:
            try:
                tag, pos = decode_uint(envelope.payload, 0)
                if tag != _MSG_COMPLAIN:
                    continue
                encoded, _ = decode_sequence(envelope.payload, pos)
                for blob in encoded:
                    dealer, _ = decode_uint(blob, 0)
                    self._complaints.setdefault(dealer, set()).add(
                        envelope.sender
                    )
            except MALFORMED_INPUT_ERRORS:
                continue

    def _qualified(self) -> List[int]:
        return [
            dealer
            for dealer in self.members
            if len(self._complaints.get(dealer, set())) <= self.f
            and dealer in self._commitments
        ]

    def _reveal(self) -> List[Envelope]:
        outgoing: List[Envelope] = []
        for dealer in self._qualified():
            share = self._received_shares.get(dealer)
            commitment = self._commitments.get(dealer)
            if share is None or commitment is None:
                continue
            if not self._share_verifies(dealer):
                continue
            payload = encode_uint(_MSG_REVEAL) + canonical_tuple(
                encode_uint(dealer),
                int_to_fixed_bytes(share.x.value, 32),
                int_to_fixed_bytes(share.y.value, 32),
            )
            for peer in self.members:
                outgoing.append(self.send(peer, payload))
        return outgoing

    def _collect_reveals(self, inbox: Sequence[Frame]) -> None:
        seen: Set[Tuple[int, int]] = set()
        for envelope in inbox:
            try:
                tag, pos = decode_uint(envelope.payload, 0)
                if tag != _MSG_REVEAL:
                    continue
                fields, _ = decode_sequence(envelope.payload, pos)
                dealer, _ = decode_uint(fields[0], 0)
                x = int.from_bytes(fields[1], "big")
                y = int.from_bytes(fields[2], "big")
            except MALFORMED_INPUT_ERRORS:
                continue
            if (dealer, x) in seen:
                continue
            commitment = self._commitments.get(dealer)
            if commitment is None:
                continue
            share = Share(
                x=self._field.element(x), y=self._field.element(y)
            )
            if not vss.verify_share(share, commitment):
                continue
            seen.add((dealer, x))
            self._revealed.setdefault(dealer, []).append(share)

    def _reconstruct(self) -> bytes:
        total = self._field.zero()
        for dealer in self._qualified():
            shares = self._revealed.get(dealer, [])
            if len(shares) < self.f + 1:
                # A qualified dealer has at least n - f >= 2f + 1 honest
                # shareholders whose shares verified, so this cannot
                # happen for them; skip defensively.
                continue
            total = total + vss.reconstruct_verified(
                shares, self._commitments[dealer], self._field
            )
        return coin_from_field_element(total)


def coin_from_field_element(element: FieldElement) -> bytes:
    """Map the summed secret into the kappa-bit coin (hash-extracted)."""
    return hash_domain("coin-toss/output", int_to_fixed_bytes(element.value, 32))


class SilentCoinTossParty(Party):
    """A corrupt participant that contributes nothing (worst case for
    robustness: it gets disqualified and the coin remains uniform)."""

    def __init__(self, party_id: int) -> None:
        super().__init__(party_id)

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        return []


def build_coin_toss(
    members: Sequence[int],
    rng: Randomness,
    byzantine: Sequence[int] = (),
) -> Tuple[List[Party], List[int], int]:
    """The coin-toss party set, built once for every executor.

    Returns ``(parties, honest_ids, max_rounds)``: honest members deal
    from their own fork of ``rng``, byzantine ones stay silent.
    """
    members = sorted(members)
    byzantine_set = set(byzantine)
    f = max(1, (len(members) - 1) // 3)
    if len(byzantine_set) > f:
        raise ConfigurationError(
            f"{len(byzantine_set)} byzantine parties exceeds f={f}"
        )
    parties: List[Party] = []
    for member in members:
        if member in byzantine_set:
            parties.append(SilentCoinTossParty(member))
        else:
            parties.append(
                CoinTossParty(member, members, f, rng.fork(f"ct-{member}"))
            )
    honest_ids = [m for m in members if m not in byzantine_set]
    return parties, honest_ids, 8


def run_coin_toss(
    members: Sequence[int],
    rng: Randomness,
    byzantine: Sequence[int] = (),
    metrics=None,
):
    """Convenience driver; returns ``(outputs, metrics)``.

    ``outputs`` maps each honest member to its kappa-bit coin; agreement
    among them is a protocol guarantee the tests assert.
    """
    parties, honest_ids, max_rounds = build_coin_toss(members, rng, byzantine)
    result = run_in_process(parties, honest_ids, max_rounds, metrics=metrics)
    outputs = {member: result.outputs[member] for member in honest_ids}
    return outputs, result.metrics


def ideal_f_ct(rng: Randomness) -> bytes:
    """The ideal functionality f_ct: a uniform kappa-bit string."""
    return rng.random_bytes(32)
