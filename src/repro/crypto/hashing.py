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
:func:`domain_hasher` holds such a state, with any constant leading
fields absorbed too, for hashes made one at a time (a Merkle tree's
leaves and nodes).

A one-time key is a few hundred hashes that differ only in their last
field, so it is hashed through one batch door, :func:`hash_each`: one
loop over one absorbed state, where each hash is a ``copy``, one
``update`` and a ``digest`` — the length prefix of fields of one width
is absorbed once, not once per field.  :func:`domain_walker` is its
sequential sibling: a W-OTS hash chain under one chunk index.

Midstates are process-local scratch, never part of a value: they live
in bounded module-level caches, in locals, or in per-instance scratch
that copies and pickles leave out (a hash-registry base scheme's
per-key MAC states, :class:`repro.crypto.prf.KeyedPrf`); a cached state
is only ever ``copy()``-ed (so threads share it freely), and nothing
that is pickled, compared or sent holds one.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence

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


def _absorbed(domain: str, prefix: Sequence[bytes], trailing: int) -> "_Sha256":
    """A fresh state having absorbed ``domain``'s head for
    ``len(prefix) + trailing`` fields and then ``prefix``."""
    state = _midstate(domain, len(prefix) + trailing).copy()
    for item in prefix:
        state.update(encode_uint(len(item)))
        state.update(item)
    return state


def domain_hasher(
    domain: str, *prefix: bytes, trailing: int = 1
) -> Callable[..., bytes]:
    """``hash_domain`` with its constant part absorbed once.

    Returns ``finish`` with ``finish(*rest) == hash_domain(domain,
    *prefix, *rest)`` for exactly ``trailing`` fields ``rest``.  For a
    family of hashes that differ only in their last fields — the nodes
    of a Merkle tree — the domain head and
    ``prefix`` are hashed when the hasher is made, not once per call.
    (A batch known up front goes through :func:`hash_each` instead.)

    The closure owns a SHA-256 state it only ever copies, so it may be
    shared between threads; hold it in a local, a module constant or a
    bounded module-level cache — never in a field of a value.
    """
    fork = _absorbed(domain, prefix, trailing).copy

    if trailing == 1:
        # Merkle leaves; spelled out, it is ~15 % cheaper than the
        # general closure's argument tuple and loop.
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


def hash_each(
    domain: str, prefix: Sequence[bytes], fields: Iterable[bytes]
) -> List[bytes]:
    """``[hash_domain(domain, *prefix, field) for field in fields]``, in
    one loop over one absorbed state.

    The batch door of the one-time keys: a PRG's blocks, the public rows
    of a Lamport key, the preimages a Lamport signature reveals.  The
    domain head and ``prefix`` are absorbed once per call and a field's
    length prefix once per run of fields of one width (a key's 32-byte
    rows are one run, a PRG's counters one run per varint width), so a
    hash costs a ``copy``, one ``update`` and a ``digest``.  Widths are
    read off the fields; any mix of them is hashed as ``hash_domain``
    would.
    """
    state = _absorbed(domain, prefix, 1)
    digests: List[bytes] = []
    append = digests.append
    width = -1
    for field in fields:
        if len(field) != width:
            width = len(field)
            run = state.copy()
            run.update(encode_uint(width))
            fork = run.copy
        each = fork()
        each.update(field)
        append(each.digest())
    return digests


def domain_walker(domain: str, *prefix: bytes) -> Callable[[bytes, int], bytes]:
    """A hash chain under ``domain`` and a constant ``prefix``.

    Returns ``walk`` with ``walk(value, times)`` equal to ``times``
    applications of ``v -> hash_domain(domain, *prefix, v)`` to
    ``value`` — one W-OTS chain.  Every link after the first hashes a
    digest, so the digest's length prefix is absorbed with ``prefix``
    when the walker is made, and a link is a ``copy``, one ``update``
    and a ``digest`` in one loop.  Hold it as :func:`domain_hasher`'s
    closures are held.
    """
    state = _absorbed(domain, prefix, 1)
    state.update(ONE_BYTE_UINTS[DIGEST_BYTES])
    fork = state.copy

    def walk(value: bytes, times: int) -> bytes:
        if times > 0 and len(value) != DIGEST_BYTES:
            value = hash_domain(domain, *prefix, value)
            times -= 1
        for _ in range(times):
            link = fork()
            link.update(value)
            value = link.digest()
        return value

    return walk


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
