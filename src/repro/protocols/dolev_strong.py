"""Dolev–Strong authenticated broadcast (t+1 rounds, any t < n).

The classic signature-chain protocol, included as (a) an alternative
realization of the broadcast channel that committee sub-protocols assume
(§3.1 realizes it via deterministic BA; Dolev–Strong trades rounds for
signatures and tolerates *any* number of corruptions), and (b) the
canonical example of a protocol whose per-party communication is
Theta(n) *per instance* — the regime the paper escapes.

Protocol (sender s, value v, rounds 0..t):

* round 0: the sender signs v and sends ``(v, sig_s)`` to everyone;
* round r: a party that newly *extracted* a value carried by a chain of
  r+1 distinct valid signatures (starting with the sender's) appends its
  own signature and forwards the chain to everyone;
* decision: a party that extracted exactly one value outputs it; zero or
  two or more extracted values output the default (sender caught
  equivocating).

Signatures are Schnorr over secp256k1 (real crypto); chains carry the
full signer path, which is what makes the instance cost Theta(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto import schnorr
from repro.errors import MALFORMED_INPUT_ERRORS, ConfigurationError
from repro.net.party import Envelope, Frame, Party, SilentParty
from repro.net.rounds import run_in_process
from repro.utils.randomness import Randomness
from repro.utils.serialization import (
    canonical_tuple,
    decode_sequence,
    decode_uint,
    encode_bytes,
    encode_uint,
)

DEFAULT_VALUE = 0


def _chain_message(value: int, signers: Sequence[int]) -> bytes:
    """What the next signer signs: the value and the path so far."""
    return canonical_tuple(
        encode_uint(value), *[encode_uint(s) for s in signers]
    )


@dataclass(frozen=True)
class SignatureChain:
    """A value plus an ordered path of signatures over it."""

    value: int
    signers: Tuple[int, ...]
    signatures: Tuple[bytes, ...]

    def encode(self) -> bytes:
        parts = [encode_uint(self.value), encode_uint(len(self.signers))]
        for signer, signature in zip(self.signers, self.signatures):
            parts.append(encode_uint(signer))
            parts.append(encode_bytes(signature))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "SignatureChain":
        value, pos = decode_uint(data, 0)
        count, pos = decode_uint(data, pos)
        signers: List[int] = []
        signatures: List[bytes] = []
        for _ in range(count):
            signer, pos = decode_uint(data, pos)
            signers.append(signer)
            from repro.utils.serialization import decode_bytes

            signature, pos = decode_bytes(data, pos)
            signatures.append(signature)
        return cls(
            value=value, signers=tuple(signers),
            signatures=tuple(signatures),
        )

    def is_valid(self, sender: int, round_index: int,
                 public_keys: Dict[int, bytes]) -> bool:
        """Check the Dolev–Strong chain conditions at a given round."""
        if len(self.signers) != round_index + 1:
            return False
        if not self.signers or self.signers[0] != sender:
            return False
        if len(set(self.signers)) != len(self.signers):
            return False
        from repro.srds.base_sigs import SchnorrBase

        verifier = SchnorrBase()
        for position, (signer, signature) in enumerate(
            zip(self.signers, self.signatures)
        ):
            key = public_keys.get(signer)
            if key is None:
                return False
            message = _chain_message(self.value, self.signers[:position])
            if not verifier.verify(key, message, signature):
                return False
        return True


class DolevStrongParty(Party):
    """One participant (the sender included) of a Dolev–Strong run."""

    def __init__(
        self,
        party_id: int,
        members: Sequence[int],
        max_faults: int,
        sender: int,
        keypair: schnorr.SchnorrKeyPair,
        public_keys: Dict[int, bytes],
        sender_value: Optional[int] = None,
    ) -> None:
        super().__init__(party_id)
        self.members = list(members)
        self.t = max_faults
        self.sender = sender
        self.keypair = keypair
        self.public_keys = public_keys
        self.sender_value = sender_value
        self.extracted: Set[int] = set()
        self._pending_forward: List[SignatureChain] = []

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        outgoing: List[Envelope] = []
        if round_index == 0:
            if self.party_id == self.sender:
                value = self.sender_value if self.sender_value is not None else 0
                self.extracted.add(value)
                chain = self._extend(
                    SignatureChain(value=value, signers=(), signatures=()),
                )
                for peer in self.members:
                    outgoing.append(self.send(peer, chain.encode()))
            return outgoing

        # Rounds 1..t+1: process chains from round r-1, forward new
        # extractions (a chain arriving in round r carries r signatures).
        for envelope in inbox:
            try:
                chain = SignatureChain.decode(envelope.payload)
            except MALFORMED_INPUT_ERRORS:
                continue
            if not chain.is_valid(self.sender, round_index - 1,
                                  self.public_keys):
                continue
            if chain.value in self.extracted:
                continue
            if self.party_id in chain.signers:
                continue
            self.extracted.add(chain.value)
            if round_index <= self.t:
                extended = self._extend(chain)
                for peer in self.members:
                    outgoing.append(self.send(peer, extended.encode()))

        if round_index >= self.t + 1:
            if len(self.extracted) == 1:
                return outgoing + self.halt(next(iter(self.extracted)))
            return outgoing + self.halt(DEFAULT_VALUE)
        return outgoing

    def _extend(self, chain: SignatureChain) -> SignatureChain:
        message = _chain_message(chain.value, chain.signers)
        signature = schnorr.sign(self.keypair, message).encode()
        return SignatureChain(
            value=chain.value,
            signers=chain.signers + (self.party_id,),
            signatures=chain.signatures + (signature,),
        )


class EquivocatingSender(DolevStrongParty):
    """A corrupt sender that signs different values for different peers."""

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0 and self.party_id == self.sender:
            outgoing = []
            for position, peer in enumerate(self.members):
                value = position % 2
                chain = self._extend(
                    SignatureChain(value=value, signers=(), signatures=())
                )
                outgoing.append(self.send(peer, chain.encode()))
            return outgoing
        return super().step(round_index, inbox)


def build_dolev_strong(
    members: Sequence[int],
    sender: int,
    value: int,
    rng: Randomness,
    max_faults: Optional[int] = None,
    equivocating_sender: bool = False,
    byzantine: Sequence[int] = (),
) -> Tuple[List[Party], List[int], int]:
    """The Dolev–Strong party set, built once for every executor.

    Returns ``(parties, honest_ids, max_rounds)``: every member holds a
    Schnorr key pair from its own fork of ``rng``; ``byzantine`` parties
    simply stay silent (worst case for liveness), and an equivocating
    *sender* is modeled by ``equivocating_sender``.
    """
    members = sorted(members)
    if sender not in members:
        raise ConfigurationError("sender must be a member")
    t = max_faults if max_faults is not None else (len(members) - 1) // 3
    byzantine_set = set(byzantine)

    keypairs = {
        member: schnorr.keygen(rng.fork(f"ds-key-{member}"))
        for member in members
    }
    public_keys = {
        member: keypair.public_bytes
        for member, keypair in keypairs.items()
    }

    parties: List[Party] = []
    for member in members:
        if member in byzantine_set and member != sender:
            parties.append(SilentParty(member))
            continue
        cls = (
            EquivocatingSender
            if (equivocating_sender and member == sender)
            else DolevStrongParty
        )
        parties.append(
            cls(
                member, members, t, sender, keypairs[member], public_keys,
                sender_value=value if member == sender else None,
            )
        )
    honest = [m for m in members if m not in byzantine_set]
    if equivocating_sender:
        honest = [m for m in honest if m != sender]
    return parties, honest, t + 4


def run_dolev_strong(
    members: Sequence[int],
    sender: int,
    value: int,
    rng: Randomness,
    max_faults: Optional[int] = None,
    equivocating_sender: bool = False,
    byzantine: Sequence[int] = (),
):
    """Convenience driver; returns ``(outputs, metrics)``."""
    parties, honest, max_rounds = build_dolev_strong(
        members, sender, value, rng, max_faults, equivocating_sender,
        byzantine,
    )
    result = run_in_process(parties, honest, max_rounds)
    outputs = {member: result.outputs[member] for member in honest}
    return outputs, result.metrics
