"""SRDS in the registered-PKI model: the "natural approach" of §1.2.

The paper discusses an intermediate setup model — *registered PKI*,
where parties choose their own keys but must prove knowledge of the
secret key to publish (footnote 13) — and the natural SRDS candidate in
it: take a multi-signature (constructible from falsifiable assumptions
in registered PKI, e.g. LOSSW'13) and augment it "with some method of
succinctly convincing the verifier that a given multi-signature is
composed of signatures from sufficiently many parties".  The full
version then shows this method *necessitates* SNARG-like tools.

This module is that candidate, built and plugged into the same SRDS
interface pi_ba consumes.  Base signatures are XOR-homomorphic
designated-verifier tags (the HashRegistry substitution recorded in
DESIGN.md); aggregation combines tags and certifies the contributor
*count* with two SNARG circuits in the PCD pattern of Thm 2.8:

* **leaf**: "I know ``count`` distinct valid per-party tags with indices
  in ``[lo, hi]`` XOR-ing to the combined tag" — validity of a tag is
  checked against the party's registered key;
* **internal**: "I know child certificates with verifying proofs and
  pairwise-disjoint index ranges whose counts sum to ``count`` and whose
  tags XOR to the combined tag" — the counting skeleton's relation
  (:mod:`repro.srds.pcd`), shared with Thm 2.8's scheme; the accumulator
  here is the XOR of tags.

The visible moral of the construction (= the paper's barrier): strip the
SNARG out and the only ways left to convince a verifier of the count are
shipping the Theta(n) contributor list (the multisig bitmap baseline) or
having it solve an average-case Subset-XOR instance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.prf import prf
from repro.crypto.snark import Proof, SnarkSystem
from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ConfigurationError,
    SignatureError,
)
from repro.pki.registry import PKIMode
from repro.srds import pcd
from repro.srds.base import (
    PublicParameters,
    SRDSScheme,
    SRDSSignature,
    ensure_same_message_space,
)
from repro.utils.serialization import (
    canonical_tuple,
    decode_sequence,
    decode_uint,
    encode_once,
    encode_sequence,
    encode_uint,
)

_LEAF_RELATION = "registered-srds/leaf"
_INTERNAL_RELATION = "registered-srds/internal"
TAG_BYTES = 32


def _xor_all(tags: Iterable[bytes]) -> bytes:
    """The accumulator: the XOR of per-party (or child) tags."""
    running = 0
    for tag in tags:
        if len(tag) != TAG_BYTES:
            raise SignatureError("multisig tag of the wrong size")
        running ^= int.from_bytes(tag, "big")
    return running.to_bytes(TAG_BYTES, "big")


def proof_of_possession(secret: bytes, verification_key: bytes) -> bytes:
    """The registered-PKI PoP: a tag only the secret holder can form."""
    return prf(secret, "registered-srds/pop", verification_key)


@encode_once
@dataclass(frozen=True)
class RegisteredBaseSignature(SRDSSignature):
    """A base contribution: index + message-bound multisig tag."""

    index: int
    tag: bytes

    @property
    def min_index(self) -> int:
        return self.index

    @property
    def max_index(self) -> int:
        return self.index

    def _base_marker(self) -> bool:
        return True

    def encode(self) -> bytes:
        return encode_uint(self.index) + self.tag


@encode_once
@dataclass(frozen=True)
class RegisteredAggregateSignature(pcd.CountAggregate):
    """A constant-size aggregate: combined tag, count, range, proof.

    ``board_digest`` binds the aggregate to the exact bulletin-board
    snapshot it was formed against (the public input of the relation):
    a tag is only valid if the secret behind it belongs to the key
    registered at that index on *that* board.
    """

    count: int
    lo: int
    hi: int
    combined_tag: bytes
    board_digest: bytes
    message_digest: bytes
    proof: Proof

    accumulator = property(attrgetter("combined_tag"))
    board = property(attrgetter("board_digest"))
    message_binding = property(attrgetter("message_digest"))

    def encode(self) -> bytes:
        return canonical_tuple(
            encode_uint(self.count),
            encode_uint(self.lo),
            encode_uint(self.hi),
            self.combined_tag,
            self.message_digest,
            self.board_digest,
            self.proof.encode(),
        )


def decode_aggregate(data: bytes) -> RegisteredAggregateSignature:
    """Decode a :class:`RegisteredAggregateSignature` from its wire form."""
    count, lo, hi, combined, message_digest, board_digest, proof = (
        pcd.decode_wire_fields(data, _LEAF_RELATION)
    )
    return RegisteredAggregateSignature(
        count, lo, hi, combined, board_digest, message_digest, proof
    )


@dataclass(frozen=True)
class FilteredItem:
    """Aggregate1 output item: a validated contribution plus context.

    Carries the message and board fingerprint Aggregate2 needs (keeping
    its circuit free of the n-key board, per Def. 2.2) while exposing the
    ``encode``/``min_index``/``max_index`` surface the committee
    functionality (f_aggr-sig majority filter) and the Fig. 3 range
    checks consume.
    """

    kind: str                     # "base" | "agg"
    payload: object
    message: bytes
    board_digest: bytes

    def encode(self) -> bytes:
        return self.payload.encode()

    @property
    def min_index(self) -> int:
        return self.payload.min_index

    @property
    def max_index(self) -> int:
        return self.payload.max_index


class RegisteredSRDS(SRDSScheme):
    """SRDS from multisig tags + subset-SNARG, registered PKI + CRS."""

    name = "srds-registered-multisig-snarg"
    pki_mode = PKIMode.REGISTERED
    assumptions = "multisig+subset-snarg"
    needs_crs = True

    #: What this scheme plugs into the counting skeleton.
    certificate = pcd.Certificate(
        leaf=_LEAF_RELATION,
        internal=_INTERNAL_RELATION,
        aggregate=RegisteredAggregateSignature,
        decode=decode_aggregate,
        fold=_xor_all,
    )

    def __init__(self) -> None:
        self._secrets_by_vk: Dict[bytes, bytes] = {}
        # Bulletin-board snapshots by digest: the leaf circuit's public
        # input.
        self._boards: Dict[bytes, Dict[int, bytes]] = {}

    def _fingerprint_board(
        self, verification_keys: Dict[int, bytes]
    ) -> bytes:
        """Digest a bulletin-board snapshot and keep it for the leaf
        circuit (Theta(n): reached through ``pcd.board_binding``)."""
        digest = prf(
            b"", "registered-srds/board",
            *[
                encode_uint(index) + key
                for index, key in sorted(verification_keys.items())
            ],
        )
        self._boards.setdefault(digest, dict(verification_keys))
        return digest

    # -- Def. 2.1 algorithms ---------------------------------------------------

    def setup(self, num_parties: int, rng) -> PublicParameters:
        if num_parties < 2:
            raise ConfigurationError("need at least 2 parties")
        snark_system = SnarkSystem(crs_seed=rng.random_bytes(32))

        snark_system.register_circuit(_LEAF_RELATION, self._leaf_circuit)
        # Held weakly, as in SnarkSRDS.setup: the system owns this
        # circuit, so a strong reference would be a cycle that keeps a
        # dropped setup (this scheme and its boards with it) alive until
        # the next full garbage collection.
        snark_system.register_circuit(_INTERNAL_RELATION, partial(
            pcd.internal_circuit, weakref.proxy(snark_system), self.certificate
        ))
        return PublicParameters(
            num_parties=num_parties,
            security_bits=256,
            acceptance_threshold=num_parties // 2 + 1,
            extra={"snark": snark_system},
        )

    def keygen(self, pp: PublicParameters, rng) -> Tuple[bytes, object]:
        """Local keygen; registration carries a proof of possession."""
        secret = rng.random_bytes(32)
        verification_key = prf(secret, "registered-srds/vk")
        self._secrets_by_vk[verification_key] = secret
        return verification_key, secret

    def pop_check(self, verification_key: bytes, pop: bytes) -> bool:
        """The knowledge check a registered-PKI bulletin board runs."""
        secret = self._secrets_by_vk.get(verification_key)
        if secret is None:
            return False
        return proof_of_possession(secret, verification_key) == pop

    def sign(
        self,
        pp: PublicParameters,
        index: int,
        signing_key: object,
        message: bytes,
    ) -> Optional[RegisteredBaseSignature]:
        message = ensure_same_message_space(message)
        if signing_key is None:
            return None
        if not isinstance(signing_key, bytes):
            raise SignatureError("wrong signing-key type for RegisteredSRDS")
        tag = prf(signing_key, "registered-srds/tag",
                  encode_uint(index), message)
        return RegisteredBaseSignature(index=index, tag=tag)

    def _tag_valid(self, verification_key: Optional[bytes], index: int,
                   message: bytes, tag: bytes) -> bool:
        if verification_key is None:
            return False
        secret = self._secrets_by_vk.get(verification_key)
        if secret is None:
            return False
        expected = prf(
            secret, "registered-srds/tag", encode_uint(index), message
        )
        return expected == tag

    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[object]:
        """Validate base tags against the board; keep disjoint aggregates.

        Each surviving base signature is wrapped with (index, message) so
        Aggregate2's circuit never touches the n-key board (Def. 2.2) —
        validity travels as the SNARG witness.
        """
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        digest = prf(b"", "registered-srds/msg", message)
        board_digest = pcd.board_binding(
            pp, verification_keys, self._fingerprint_board
        )
        bases: Dict[int, RegisteredBaseSignature] = {}
        aggregates: List[RegisteredAggregateSignature] = []
        for signature in signatures:
            if isinstance(signature, RegisteredBaseSignature):
                if not 0 <= signature.index < pp.num_parties:
                    continue
                if signature.index in bases:
                    continue
                if self._tag_valid(
                    verification_keys.get(signature.index),
                    signature.index, message, signature.tag,
                ):
                    bases[signature.index] = signature
            elif isinstance(signature, RegisteredAggregateSignature):
                if pcd.admits(snark_system, self.certificate, signature,
                              digest, digest, board_digest):
                    aggregates.append(signature)
            else:
                raise SignatureError(
                    f"foreign signature type {type(signature).__name__}"
                )
        uncovered, chosen = pcd.select_disjoint(
            aggregates, bases, self.certificate.precedes
        )
        return [
            FilteredItem("base", bases[index], message, board_digest)
            for index in uncovered
        ] + [
            FilteredItem("agg", aggregate, message, board_digest)
            for aggregate in chosen
        ]

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[RegisteredAggregateSignature]:
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        digest = prf(b"", "registered-srds/msg", message)
        items = [item for item in filtered if isinstance(item, FilteredItem)]
        parts = [item.payload for item in items if item.kind == "agg"]
        bases = sorted(
            (item.payload for item in items if item.kind == "base"),
            key=attrgetter("index"),
        )
        if bases:
            # The leaf prover: tags in index order, with the message; the
            # public input is the message digest and the board digest.
            parts.append(pcd.seal(
                snark_system, self.certificate, _LEAF_RELATION,
                canonical_tuple(digest, items[-1].board_digest), digest,
                canonical_tuple(
                    message,
                    encode_sequence([base.encode() for base in bases]),
                ),
            ))
        return pcd.combine(snark_system, self.certificate, digest, parts)

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        message = ensure_same_message_space(message)
        digest = prf(b"", "registered-srds/msg", message)
        return pcd.verify(
            pp, self.certificate, signature, digest, digest,
            pcd.board_binding(pp, verification_keys, self._fingerprint_board),
        )

    # -- the leaf circuit ---------------------------------------------------------

    def _leaf_circuit(self, public: bytes, witness: bytes) -> Optional[bytes]:
        """The statement the witness proves about ``public`` — the
        message digest and the board digest — or ``None``."""
        try:
            (digest, board_digest), _ = decode_sequence(public, 0)
            (message, encoded_bases_blob), _ = decode_sequence(witness, 0)
            encoded_bases, _ = decode_sequence(encoded_bases_blob, 0)
        except MALFORMED_INPUT_ERRORS:
            return None
        board = self._boards.get(board_digest)
        if board is None:
            return None
        if prf(b"", "registered-srds/msg", message) != digest:
            return None
        if not encoded_bases:
            return None
        tags = []
        indices = set()
        for blob in encoded_bases:
            try:
                index, pos = decode_uint(blob, 0)
            except MALFORMED_INPUT_ERRORS:
                return None
            tag = blob[pos:]
            if len(tag) != TAG_BYTES or index in indices:
                return None
            # Tag validity against the key registered at this index on
            # the statement's board: this is the multisig verification
            # circuit, with the board as public input.
            if not self._tag_valid(board.get(index), index, message, tag):
                return None
            indices.add(index)
            tags.append(tag)
        return pcd.encode_statement(
            digest, len(tags), min(indices), max(indices), _xor_all(tags),
            board_digest,
        )
