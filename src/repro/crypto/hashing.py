"""Collision-resistant hashing (CRH) substrate.

The paper's SNARK-based SRDS construction relies on a CRH to chain
transcript commitments so the same base signature cannot be aggregated
twice (§2.2).  We instantiate the CRH with SHA-256 and provide a small
domain-separation discipline: every use site tags its input with a
distinct ASCII label, so hashes from different contexts can never be
confused for one another.

The definition of a domain-separated hash is SHA-256 of the
:func:`~repro.utils.serialization.tagged_tuple` of its domain and
fields.  SHA-256 is a streaming function, so this module never builds
that preimage: *a domain is a midstate*.  The bytes that precede the fields
(:func:`~repro.utils.serialization.tagged_head`) are absorbed once per
``(domain, arity)`` and every hash starts from a copy of that state;
:func:`domain_hasher` extends the same idea to constant leading fields
(a PRG's seed, a W-OTS chunk index).

Midstates are process-local scratch, never part of a value: they live
in bounded module-level caches or in locals, a cached state is only
ever ``copy()``-ed (so threads share it freely), and nothing that is
pickled, compared or sent holds one.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, Callable, Iterable

from repro.utils.serialization import ONE_BYTE_UINTS, encode_uint, tagged_head

if TYPE_CHECKING:
    _Sha256 = hashlib._Hash

DIGEST_BYTES = 32


def hash_bytes(data: bytes) -> bytes:
    """Plain SHA-256 of a byte string."""
    return hashlib.sha256(data).digest()


@functools.lru_cache(maxsize=1024)
def _midstate(domain: str, arity: int) -> "_Sha256":
    """SHA-256 having absorbed everything of an ``arity``-field tagged
    tuple under ``domain`` that precedes the fields.  Read-only once
    built: callers ``copy()`` it."""
    return hashlib.sha256(tagged_head(domain, arity))


def hash_domain(domain: str, *fields: bytes) -> bytes:
    """Domain-separated hash of a tuple of byte strings: SHA-256 of
    their :func:`~repro.utils.serialization.tagged_tuple`, streamed.

    The encoding is injective (length-prefixed fields), so two different
    tuples under the same domain never collide, and two different domains
    never produce confusable preimages.
    """
    state = _midstate(domain, len(fields)).copy()
    for item in fields:
        size = len(item)
        state.update(ONE_BYTE_UINTS[size] if size < 0x80 else encode_uint(size))
        state.update(item)
    return state.digest()


def domain_hasher(
    domain: str, *prefix: bytes, trailing: int = 1
) -> Callable[..., bytes]:
    """``hash_domain`` with its constant part absorbed once.

    Returns ``finish`` with ``finish(*rest) == hash_domain(domain,
    *prefix, *rest)`` for exactly ``trailing`` fields ``rest``.  For a
    family of hashes that differ only in their last fields — the blocks
    of one PRG seed, the nodes of a Merkle tree, one Lamport row after
    another — the domain head and ``prefix`` are hashed when the hasher
    is made, not once per call.

    The closure owns a SHA-256 state it only ever copies, so it may be
    shared between threads; hold it in a local, a module constant or a
    bounded module-level cache — never in a field of a value.
    """
    state = _midstate(domain, len(prefix) + trailing).copy()
    for item in prefix:
        state.update(encode_uint(len(item)))
        state.update(item)
    fork = state.copy

    if trailing == 1:
        # The inner loop of every one-time key expansion; spelled out,
        # it is ~15 % cheaper than the general closure's argument tuple
        # and loop.
        def finish_one(item: bytes) -> bytes:
            state = fork()
            size = len(item)
            state.update(
                ONE_BYTE_UINTS[size] if size < 0x80 else encode_uint(size)
            )
            state.update(item)
            return state.digest()

        return finish_one

    def finish(*rest: bytes) -> bytes:
        if len(rest) != trailing:
            raise ValueError(
                f"hasher under {domain!r} takes {trailing} fields, "
                f"got {len(rest)}"
            )
        state = fork()
        for item in rest:
            size = len(item)
            state.update(
                ONE_BYTE_UINTS[size] if size < 0x80 else encode_uint(size)
            )
            state.update(item)
        return state.digest()

    return finish


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
    step = domain_hasher(domain, trailing=2)
    accumulator = hash_domain(domain, b"chain-init")
    for digest in digests:
        accumulator = step(accumulator, digest)
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
