"""Pseudorandom functions.

Step 7 of the BA protocol (Fig. 3) has every party send its certified pair
``(y, s)`` to the pseudorandom recipient set ``F_s(i)``; step 8 has
receivers check membership ``j in F_s(i)``.  Both directions are served by
:class:`SubsetPRF`.  The generic keyed PRF is HMAC-SHA256.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, List, Tuple

from repro.utils.serialization import encode_uint, tagged_tuple

if TYPE_CHECKING:
    _Sha256 = hashlib._Hash

_BLOCK_BYTES = 64  # SHA-256's block: HMAC pads (or first hashes) the key to it
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


# HMAC(k, m) = H((k' ^ opad) || H((k' ^ ipad) || m)): both padded-key
# blocks are constant per key, so each is compressed once and a call
# costs the two short tails.  Bounded — a long-lived process keeps only
# its recent keys — and read-only: callers copy.
@functools.lru_cache(maxsize=256)
def _keyed_states(key: bytes) -> Tuple["_Sha256", "_Sha256"]:
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK_BYTES, b"\0")
    return (
        hashlib.sha256(block.translate(_INNER_PAD)),
        hashlib.sha256(block.translate(_OUTER_PAD)),
    )


def prf(key: bytes, domain: str, *fields: bytes) -> bytes:
    """HMAC-SHA256 with injective, domain-separated input encoding:
    ``hmac.digest(key, tagged_tuple(domain, fields), "sha256")``."""
    inner, outer = _keyed_states(key)
    inner = inner.copy()
    inner.update(tagged_tuple(domain, fields))
    outer = outer.copy()
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
    chosen: List[int] = []
    taken = set()
    counter = 0
    while len(chosen) < k:
        candidate = prf_int(
            seed,
            "subset-prf",
            n,
            encode_uint(party_id),
            encode_uint(counter),
        )
        counter += 1
        if candidate not in taken:
            taken.add(candidate)
            chosen.append(candidate)
    return tuple(sorted(chosen))
