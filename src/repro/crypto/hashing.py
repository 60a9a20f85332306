"""Collision-resistant hashing (CRH) substrate.

The paper's SNARK-based SRDS construction relies on a CRH to chain
transcript commitments so the same base signature cannot be aggregated
twice (§2.2).  We instantiate the CRH with SHA-256 and provide a small
domain-separation discipline: every use site tags its input with a
distinct ASCII label, so hashes from different contexts can never be
confused for one another.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.utils.serialization import tagged_tuple

DIGEST_BYTES = 32


def hash_bytes(data: bytes) -> bytes:
    """Plain SHA-256 of a byte string."""
    return hashlib.sha256(data).digest()


def hash_domain(domain: str, *fields: bytes) -> bytes:
    """Domain-separated hash of a tuple of byte strings.

    The encoding is injective (length-prefixed fields), so two different
    tuples under the same domain never collide, and two different domains
    never produce confusable preimages.
    """
    return hashlib.sha256(tagged_tuple(domain, fields)).digest()


def hash_to_int(domain: str, *fields: bytes) -> int:
    """Domain-separated hash interpreted as a 256-bit integer."""
    return int.from_bytes(hash_domain(domain, *fields), "big")


def hash_chain(domain: str, digests: Iterable[bytes]) -> bytes:
    """Fold a sequence of digests into one running commitment.

    Used by the SNARK-based SRDS to commit to the *ordered* multiset of
    base signatures aggregated so far: the chained structure means an
    adversary cannot re-order or replay contributions without finding a
    collision.
    """
    accumulator = hash_domain(domain, b"chain-init")
    for digest in digests:
        accumulator = hash_domain(domain, accumulator, digest)
    return accumulator


def truncated_hash(domain: str, width_bytes: int, *fields: bytes) -> bytes:
    """A hash truncated to ``width_bytes`` (for sized commitments).

    Truncation below 16 bytes is refused: the library never trades
    collision resistance for space anywhere the adversary has influence.
    """
    if width_bytes < 16:
        raise ValueError("refusing to truncate a CRH below 128 bits")
    if width_bytes >= DIGEST_BYTES:
        return hash_domain(domain, *fields)
    return hash_domain(domain, *fields)[:width_bytes]
