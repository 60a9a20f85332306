"""A hash-chain pseudorandom generator.

Used to expand short seeds into long key material (Lamport key
generation) deterministically, so an oblivious verification key can be
re-derived from the public seed alone.
"""

from __future__ import annotations

import functools
from typing import Callable, List

from repro.crypto.hashing import DIGEST_BYTES, domain_hasher
from repro.utils.serialization import encode_uint


# Block ``i`` is ``hash_domain(domain, seed, encode_uint(i))``: all but
# the index is constant per generator.  The absorbed state is kept here
# and not on the instance — a PRG stays a plain (seed, domain) value that
# pickles and copies.  A key expansion uses its seed once (one
# ``blocks`` pass), so the cache only has to span the generators being
# read block by block at one time; it is small because seeds are secrets.
@functools.lru_cache(maxsize=16)
def _block_hasher(domain: str, seed: bytes) -> Callable[[bytes], bytes]:
    return domain_hasher(domain, seed)


class PRG:
    """Counter-mode expansion of a seed into pseudorandom blocks."""

    def __init__(self, seed: bytes, domain: str = "prg") -> None:
        self._seed = seed
        self._domain = domain

    def block(self, index: int) -> bytes:
        """The 32-byte block at position ``index`` (random access)."""
        return _block_hasher(self._domain, self._seed)(encode_uint(index))

    def blocks(self, count: int) -> List[bytes]:
        """Blocks ``0 .. count - 1``, in one pass over one absorbed seed."""
        block = _block_hasher(self._domain, self._seed)
        return [block(encode_uint(index)) for index in range(count)]

    def expand(self, num_bytes: int) -> bytes:
        """The first ``num_bytes`` of the output stream."""
        count = -(-num_bytes // DIGEST_BYTES)
        return b"".join(self.blocks(count))[:num_bytes]
