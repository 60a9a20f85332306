"""Merkle trees over the CRH substrate.

The SNARK-based SRDS commits to the set of base signatures seen at a leaf
committee with a Merkle root; inclusion proofs let experiments audit a
claimed count without shipping the whole set (succinctness, Def. 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import hash_domain
from repro.errors import CryptoError
from repro.utils.serialization import (
    decode_bytes,
    decode_uint,
    encode_bytes,
    encode_once,
    encode_uint,
)

_LEAF_DOMAIN = "merkle/leaf"
_NODE_DOMAIN = "merkle/node"
_EMPTY_DOMAIN = "merkle/empty"


@encode_once
@dataclass(frozen=True)
class MerkleProof:
    """An authentication path for one leaf.

    Attributes:
        leaf_index: position of the proven leaf in the original sequence.
        siblings: bottom-up list of ``(sibling_digest, sibling_is_right)``.
    """

    leaf_index: int
    siblings: Tuple[Tuple[bytes, bool], ...]

    def encode(self) -> bytes:
        """Canonical wire form: index, sibling count, (digest, side) pairs."""
        parts = [encode_uint(self.leaf_index), encode_uint(len(self.siblings))]
        for digest, is_right in self.siblings:
            parts.append(encode_bytes(digest))
            parts.append(encode_uint(1 if is_right else 0))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> Tuple["MerkleProof", int]:
        """Inverse of :meth:`encode`; returns ``(proof, next_offset)``."""
        leaf_index, pos = decode_uint(data, offset)
        count, pos = decode_uint(data, pos)
        siblings = []
        for _ in range(count):
            digest, pos = decode_bytes(data, pos)
            flag, pos = decode_uint(data, pos)
            siblings.append((digest, bool(flag)))
        return cls(leaf_index=leaf_index, siblings=tuple(siblings)), pos

    def size_bytes(self) -> int:
        """Wire size of the proof."""
        return len(self.encode())


class MerkleTree:
    """A binary Merkle tree over an ordered sequence of byte-string leaves.

    Odd levels are padded by promoting the unpaired node (Bitcoin-style
    duplication is avoided because it admits mutation attacks; promotion
    keeps the root injective in the leaf sequence).
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self.leaf_count = len(leaves)
        self._levels: List[List[bytes]] = []
        level = [hash_domain(_LEAF_DOMAIN, leaf) for leaf in leaves]
        if not level:
            self._root = hash_domain(_EMPTY_DOMAIN)
            return
        self._levels.append(level)
        while len(level) > 1:
            next_level: List[bytes] = []
            for i in range(0, len(level) - 1, 2):
                next_level.append(hash_domain(_NODE_DOMAIN, level[i], level[i + 1]))
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            self._levels.append(next_level)
            level = next_level
        self._root = level[0]

    @property
    def root(self) -> bytes:
        """The Merkle root digest."""
        return self._root

    def prove(self, leaf_index: int) -> MerkleProof:
        """Produce an authentication path for the leaf at ``leaf_index``."""
        if not 0 <= leaf_index < self.leaf_count:
            raise CryptoError(f"leaf index {leaf_index} out of range")
        siblings: List[Tuple[bytes, bool]] = []
        index = leaf_index
        for level in self._levels[:-1]:
            if index % 2 == 0:
                if index + 1 < len(level):
                    siblings.append((level[index + 1], True))
                # Unpaired node is promoted: no sibling at this level.
            else:
                siblings.append((level[index - 1], False))
            index //= 2
        return MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))


def root_from_proof(leaf: bytes, proof: MerkleProof) -> bytes:
    """The root implied by a leaf and an authentication path."""
    digest = hash_domain(_LEAF_DOMAIN, leaf)
    for sibling, sibling_is_right in proof.siblings:
        if sibling_is_right:
            digest = hash_domain(_NODE_DOMAIN, digest, sibling)
        else:
            digest = hash_domain(_NODE_DOMAIN, sibling, digest)
    return digest


def verify_inclusion(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check a Merkle inclusion proof against a root."""
    return root_from_proof(leaf, proof) == root


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Convenience: the root of a one-shot tree."""
    return MerkleTree(leaves).root
