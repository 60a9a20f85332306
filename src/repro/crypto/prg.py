"""A hash-chain pseudorandom generator.

Used to expand short seeds into long key material (Lamport key
generation) deterministically, so an oblivious verification key can be
re-derived from the public seed alone.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.crypto.hashing import DIGEST_BYTES, hash_each
from repro.utils.serialization import encode_uint


@functools.lru_cache(maxsize=16)
def _counters(count: int) -> Tuple[bytes, ...]:
    """The encoded indices ``0 .. count - 1``, tabled once per count (a
    key expansion reads the same few counts over and over)."""
    return tuple(map(encode_uint, range(count)))


class PRG:
    """Counter-mode expansion of a seed into pseudorandom blocks."""

    def __init__(self, seed: bytes, domain: str = "prg") -> None:
        self._seed = seed
        self._domain = domain

    def block(self, index: int) -> bytes:
        """The 32-byte block at position ``index`` (random access)."""
        return hash_each(self._domain, (self._seed,), (encode_uint(index),))[0]

    def blocks(self, count: int) -> List[bytes]:
        """Blocks ``0 .. count - 1``, in one pass over one absorbed seed."""
        return hash_each(self._domain, (self._seed,), _counters(count))

    def expand(self, num_bytes: int) -> bytes:
        """The first ``num_bytes`` of the output stream."""
        count = -(-num_bytes // DIGEST_BYTES)
        return b"".join(self.blocks(count))[:num_bytes]
