"""Merkle trees over the CRH substrate.

The SNARK-based SRDS commits to the verification-key vector with a Merkle
root; a leaf committee's Aggregate2 input authenticates the keys of its
whole batch of base signatures with one batch opening
(:class:`MerkleMultiProof`) without touching the other keys
(succinctness, Def. 2.2).  Single authentication paths
(:class:`MerkleProof`) open one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.crypto.hashing import DIGEST_BYTES, domain_hasher, hash_domain
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

_leaf_hash = domain_hasher(_LEAF_DOMAIN)
_node_hash = domain_hasher(_NODE_DOMAIN, trailing=2)


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


@encode_once
@dataclass(frozen=True)
class MerkleMultiProof:
    """One batch opening: the leaves at ``indices`` authenticate together.

    Paths of nearby leaves share almost every node, so the opening
    carries each needed node once: a digest is listed only when it can
    be computed neither from the opened leaves nor from digests below
    it.  Which nodes those are follows from ``leaf_count`` and
    ``indices`` alone (the tree's promotion rule), so the siblings need
    no side flags — they are listed level by level bottom-up, left to
    right within a level.

    ``leaf_count`` fixes the shape the verifier walks; the root does not
    commit to it, so a verifier that knows the width of the committed
    vector must compare it (an index is only as bound to its position
    as the leaf content makes it — exactly as with :class:`MerkleProof`).

    Attributes:
        leaf_count: width of the tree the opening was cut from.
        indices: the opened leaf positions, strictly ascending.
        siblings: the digests the verifier cannot derive.
    """

    leaf_count: int
    indices: Tuple[int, ...]
    siblings: Tuple[bytes, ...]

    def encode(self) -> bytes:
        """Canonical wire form: width, indices, sibling digests."""
        parts = [encode_uint(self.leaf_count), encode_uint(len(self.indices))]
        parts.extend(encode_uint(index) for index in self.indices)
        parts.append(encode_uint(len(self.siblings)))
        parts.extend(encode_bytes(digest) for digest in self.siblings)
        return b"".join(parts)

    @classmethod
    def decode(
        cls, data: bytes, offset: int = 0
    ) -> Tuple["MerkleMultiProof", int]:
        """Inverse of :meth:`encode`; returns ``(proof, next_offset)``.

        Strict: anything :func:`root_from_multiproof` would refuse on
        shape alone (no index, an index not above its predecessor or not
        below ``leaf_count``), a sibling that is not a digest and any
        count the remaining bytes cannot hold is a :class:`CryptoError`
        here, before anything is built from it.
        """
        leaf_count, pos = decode_uint(data, offset)
        count, pos = decode_uint(data, pos)
        if count > len(data) - pos:
            raise CryptoError("multiproof index count out of range")
        indices = []
        for _ in range(count):
            index, pos = decode_uint(data, pos)
            indices.append(index)
        _check_opened_indices(leaf_count, indices)
        count, pos = decode_uint(data, pos)
        if count > len(data) - pos:
            raise CryptoError("multiproof sibling count out of range")
        siblings = []
        for _ in range(count):
            digest, pos = decode_bytes(data, pos)
            if len(digest) != DIGEST_BYTES:
                raise CryptoError("multiproof sibling is not a digest")
            siblings.append(digest)
        return cls(leaf_count, tuple(indices), tuple(siblings)), pos

    def size_bytes(self) -> int:
        """Wire size of the opening."""
        return len(self.encode())


def _check_opened_indices(leaf_count: int, indices: Sequence[int]) -> None:
    if not indices:
        raise CryptoError("a batch opening opens at least one leaf")
    previous = -1
    for index in indices:
        if not previous < index < leaf_count:
            raise CryptoError(
                "opened indices must be strictly ascending and in range"
            )
        previous = index


#: How a node met at one level of a batch opening gets its parent.
_PROMOTED, _JOINED, _SUPPLIED = range(3)


def _opening_walk(
    leaf_count: int, indices: Sequence[int]
) -> Iterator[List[Tuple[int, int]]]:
    """The walk of a batch opening of ``indices``, level by level
    bottom-up: for every parent to compute, left to right, its first
    known child's position and how that child is completed —
    ``_JOINED`` with the next known node, ``_SUPPLIED`` a sibling by the
    opening, or ``_PROMOTED`` alone (the unpaired last node).

    The one statement of which digests an opening carries: the prover
    reads the supplied ones off the tree, the verifier consumes them in
    this order.  ``indices`` must be strictly ascending and in range.
    """
    width, known = leaf_count, list(indices)
    while width > 1:
        steps: List[Tuple[int, int]] = []
        position = 0
        while position < len(known):
            node = known[position]
            sibling = node ^ 1
            if (
                sibling > node
                and position + 1 < len(known)
                and known[position + 1] == sibling
            ):
                steps.append((node, _JOINED))
                position += 1
            elif sibling < width:
                steps.append((node, _SUPPLIED))
            else:
                steps.append((node, _PROMOTED))
            position += 1
        yield steps
        width, known = (width + 1) >> 1, [node >> 1 for node, _ in steps]


class MerkleTree:
    """A binary Merkle tree over an ordered sequence of byte-string leaves.

    Odd levels are padded by promoting the unpaired node (Bitcoin-style
    duplication is avoided because it admits mutation attacks; promotion
    keeps the root injective in the leaf sequence).
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self.leaf_count = len(leaves)
        self._levels: List[List[bytes]] = []
        level = [_leaf_hash(leaf) for leaf in leaves]
        if not level:
            self._root = hash_domain(_EMPTY_DOMAIN)
            return
        self._levels.append(level)
        while len(level) > 1:
            next_level: List[bytes] = []
            for i in range(0, len(level) - 1, 2):
                next_level.append(_node_hash(level[i], level[i + 1]))
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

    def prove_many(self, indices: Sequence[int]) -> MerkleMultiProof:
        """One batch opening for the leaves at ``indices``.

        ``indices`` must be non-empty, strictly ascending and in range.
        Never larger than the single paths of the same leaves together,
        and at most two siblings per level for a contiguous run.
        """
        indices = tuple(indices)
        _check_opened_indices(self.leaf_count, indices)
        siblings: List[bytes] = []
        for level, steps in zip(
            self._levels, _opening_walk(self.leaf_count, indices)
        ):
            siblings.extend(
                level[node ^ 1] for node, how in steps if how == _SUPPLIED
            )
        return MerkleMultiProof(
            leaf_count=self.leaf_count,
            indices=indices,
            siblings=tuple(siblings),
        )


def root_from_proof(leaf: bytes, proof: MerkleProof) -> bytes:
    """The root implied by a leaf and an authentication path."""
    digest = _leaf_hash(leaf)
    for sibling, sibling_is_right in proof.siblings:
        if sibling_is_right:
            digest = _node_hash(digest, sibling)
        else:
            digest = _node_hash(sibling, digest)
    return digest


def root_from_multiproof(
    leaves: Sequence[bytes], proof: MerkleMultiProof
) -> bytes:
    """The root implied by the leaves at ``proof.indices`` (in that
    order) and a batch opening.

    Raises :class:`CryptoError` unless the opening is well formed for
    its own ``leaf_count``: one leaf per index, indices strictly
    ascending and in range, and exactly the siblings the walk consumes.
    """
    _check_opened_indices(proof.leaf_count, proof.indices)
    if len(leaves) != len(proof.indices):
        raise CryptoError("a batch opening needs one leaf per opened index")
    digests = [_leaf_hash(leaf) for leaf in leaves]
    siblings = iter(proof.siblings)
    try:
        for steps in _opening_walk(proof.leaf_count, proof.indices):
            known = iter(digests)
            digests = []
            for node, how in steps:
                digest = next(known)
                if how == _JOINED:
                    digest = _node_hash(digest, next(known))
                elif how == _SUPPLIED and node & 1:
                    digest = _node_hash(next(siblings), digest)
                elif how == _SUPPLIED:
                    digest = _node_hash(digest, next(siblings))
                digests.append(digest)
    except StopIteration:
        raise CryptoError("batch opening is missing siblings") from None
    if next(siblings, None) is not None:
        raise CryptoError("batch opening carries unused siblings")
    return digests[0]


def verify_inclusion(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check a Merkle inclusion proof against a root."""
    return root_from_proof(leaf, proof) == root


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Convenience: the root of a one-shot tree."""
    return MerkleTree(leaves).root
