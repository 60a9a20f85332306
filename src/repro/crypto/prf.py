"""Pseudorandom functions.

Step 7 of the BA protocol (Fig. 3) has every party send its certified pair
``(y, s)`` to the pseudorandom recipient set ``F_s(i)``; step 8 has
receivers check membership ``j in F_s(i)``.  Both directions are served by
:class:`SubsetPRF`.  The generic keyed PRF is HMAC-SHA256.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, List, Set, Tuple

from repro.utils.serialization import (
    ONE_BYTE_UINTS,
    encode_bytes,
    encode_uint,
    tagged_head,
    tagged_tuple,
)

if TYPE_CHECKING:
    _Sha256 = hashlib._Hash

_BLOCK_BYTES = 64  # SHA-256's block: HMAC pads (or first hashes) the key to it
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def _key_schedule(key: bytes) -> Tuple["_Sha256", "_Sha256"]:
    """HMAC(k, m) = H((k' ^ opad) || H((k' ^ ipad) || m)): both
    padded-key blocks are constant per key, so each is compressed once
    and a MAC costs the two short tails.  Read-only: callers copy."""
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK_BYTES, b"\0")
    return (
        hashlib.sha256(block.translate(_INNER_PAD)),
        hashlib.sha256(block.translate(_OUTER_PAD)),
    )


# Bounded — a long-lived process keeps only its recent keys.  A key used
# for many MACs over a known lifetime is better held as a `KeyedPrf`.
_keyed_states = functools.lru_cache(maxsize=256)(_key_schedule)


def prf(key: bytes, domain: str, *fields: bytes) -> bytes:
    """HMAC-SHA256 with injective, domain-separated input encoding:
    ``hmac.digest(key, tagged_tuple(domain, fields), "sha256")``."""
    inner, outer = _keyed_states(key)
    inner = inner.copy()
    inner.update(tagged_tuple(domain, fields))
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class KeyedPrf:
    """``prf`` under one key, its key schedule computed once, here:
    ``KeyedPrf(key)(domain, *fields) == prf(key, domain, *fields)``.

    A handle owns the key's two padded-key states and only ever copies
    them.  Like a :func:`~repro.crypto.hashing.domain_hasher`, hold it
    in a local or in per-instance scratch that copies and pickles leave
    out — never in a field of a value.  Slots, not a closure: a scheme
    keeps one per registered key (about 0.5 KB each, nearly all of it
    the two SHA-256 states).
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        self._inner, self._outer = _key_schedule(key)

    def __call__(self, domain: str, *fields: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(tagged_tuple(domain, fields))
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


_PRF_RANGE = 1 << 256


def prf_int(key: bytes, domain: str, upper_exclusive: int, *fields: bytes) -> int:
    """A PRF output reduced to ``[0, upper_exclusive)``.

    Rejection sampling over successive counters removes modulo bias; with a
    256-bit PRF output the expected number of iterations is < 2.
    """
    if not 0 < upper_exclusive <= _PRF_RANGE:
        raise ValueError("upper_exclusive must lie in [1, 2**256]")
    bound = _PRF_RANGE - (_PRF_RANGE % upper_exclusive)
    counter = 0
    while True:
        sample = int.from_bytes(
            prf(key, domain, encode_uint(counter), *fields), "big"
        )
        if sample < bound:
            return sample % upper_exclusive
        counter += 1


class SubsetPRF:
    """The committee-selection PRF family F_s of Fig. 3.

    ``F_s`` maps a party id ``i`` in ``[n]`` to a size-``k`` subset of
    ``[n]``.  The subset is derived by PRF-driven sampling without
    replacement so membership can be recomputed by any holder of the seed.
    """

    def __init__(self, seed: bytes, n: int, subset_size: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 < subset_size <= n:
            raise ValueError("subset size must lie in [1, n]")
        self._seed = seed
        self._n = n
        self._k = subset_size

    def subset(self, party_id: int) -> List[int]:
        """The recipient set F_s(party_id), sorted ascending."""
        return list(_subset(self._seed, self._n, self._k, party_id))

    def contains(self, party_id: int, candidate: int) -> bool:
        """Membership test ``candidate in F_s(party_id)`` (step 8, Fig. 3)."""
        return candidate in _subset(self._seed, self._n, self._k, party_id)


# F_s(i) is a pure function of (s, n, k, i), and step 8 re-derives
# F_s(sender) for every message a party receives: one run asks for each
# of its n sets about k + 1 times.  Bounded, so a long-lived process
# (the gateway) keeps only its recent seeds.
@functools.lru_cache(maxsize=1 << 14)
def _subset(seed: bytes, n: int, k: int, party_id: int) -> Tuple[int, ...]:
    """The distinct values among ``prf_int(seed, "subset-prf", n,
    encode_uint(party_id), encode_uint(c))`` for c = 0, 1, … until there
    are ``k``, sorted.

    Every candidate's first try MACs the same tagged tuple up to its last
    field — the domain, rejection counter 0 and the party id — so that
    prefix is absorbed once; a candidate costs one state copy, its
    counter and the two digests.  A sample that try rejects (possible
    only when ``n`` does not divide 2**256) is redrawn by ``prf_int``
    itself, which starts again from rejection counter 0.
    """
    inner_key, outer_key = _keyed_states(seed)
    prefix = inner_key.copy()
    party = encode_uint(party_id)
    prefix.update(
        tagged_head("subset-prf", 3)
        + encode_bytes(ONE_BYTE_UINTS[0])
        + encode_bytes(party)
    )
    fork_inner, fork_outer = prefix.copy, outer_key.copy
    bound = _PRF_RANGE - (_PRF_RANGE % n)
    taken: Set[int] = set()
    counter = 0
    while len(taken) < k:
        index = encode_uint(counter)
        inner = fork_inner()
        inner.update(encode_bytes(index))
        outer = fork_outer()
        outer.update(inner.digest())
        sample = int.from_bytes(outer.digest(), "big")
        if sample < bound:
            taken.add(sample % n)
        else:
            taken.add(prf_int(seed, "subset-prf", n, party, index))
        counter += 1
    return tuple(sorted(taken))
