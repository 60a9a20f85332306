"""Amortized SRDS setup: the gateway's cross-session key cache.

Corollary 1.2 of the paper gets Õ(1) bits per party for *repeated*
invocations because the expensive trusted setup — SRDS public
parameters plus one key pair per virtual identity — is paid once and
reused.  :class:`SetupCache` is that amortization made operational: it
keys :class:`~repro.protocols.balanced_ba.SRDSSetupMaterial` (and the
scheme instance whose internal verify-memoization the material belongs
with) by ``(scheme label, n, session seed)`` and serves it to every
session that shares the key.

Correctness relies on two facts pinned by tests:

* setup/keygen charge **nothing** to the communication ledger, so a
  cache hit cannot perturb any per-party bit tally; and
* :func:`~repro.protocols.balanced_ba.compute_srds_setup` derives all
  key material from stateless, label-derived randomness forks, so the
  cached material is byte-identical to what the session would have
  computed in line.

Hit/miss counters (on the cache object, and on ``/metrics`` as
``repro_gateway_setup_cache_{hits,misses}_total``) are the observable
proof of the amortization: the first session on a key
records a miss and pays keygen, every later one records a hit and
skips it.  The gateway runs one cache per session lane
(:mod:`repro.serve.lanes`): each lane leases from its own copy, and the
gateway's own cache only counts what the lanes report
(:meth:`SetupCache.count`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GatewayError
from repro.protocols.balanced_ba import (
    SRDSSetupMaterial,
    compute_srds_setup,
)
from repro.srds.base import SRDSScheme
from repro.utils.randomness import Randomness

#: (scheme label, n, seed): one long-lived setup domain.
SetupKey = Tuple[str, int, int]

#: The gateway's scheme labels — ``snark`` is the real-crypto default
#: (Schnorr base signatures), ``snark-hash`` the simulated-base
#: accelerator for large sweeps, ``owf`` the Lamport/sortition scheme.
SCHEME_LABELS = ("snark", "snark-hash", "owf")


def scheme_for(label: str) -> SRDSScheme:
    """Construct a fresh scheme instance for a gateway scheme label."""
    if label == "snark":
        from repro.srds.snark_based import SnarkSRDS

        return SnarkSRDS()
    if label == "snark-hash":
        from repro.srds.base_sigs import HashRegistryBase
        from repro.srds.snark_based import SnarkSRDS

        return SnarkSRDS(base_scheme=HashRegistryBase())
    if label == "owf":
        from repro.srds.owf import OwfSRDS

        return OwfSRDS(message_bits=64)
    raise GatewayError(
        f"unknown scheme label {label!r} (expected one of {SCHEME_LABELS})"
    )


@dataclass
class _Entry:
    """One cached setup domain: the scheme instance + lazy material."""

    scheme: SRDSScheme
    material: Optional[SRDSSetupMaterial] = None


class SetupLease:
    """One session's handle on a cache entry.

    ``scheme`` is the shared instance for the key (its verify-memo
    caches warm up across sessions); :meth:`provider` plugs into
    :func:`~repro.protocols.balanced_ba.run_balanced_ba` as its
    ``setup_provider``.  Per-lease ``hits``/``misses`` expose the
    session-local amortization delta for result payloads.
    """

    def __init__(self, cache: "SetupCache", key: SetupKey,
                 entry: _Entry) -> None:
        self._cache = cache
        self._key = key
        self._entry = entry
        self.hits = 0
        self.misses = 0

    @property
    def scheme(self) -> SRDSScheme:
        return self._entry.scheme

    @property
    def material(self) -> Optional[SRDSSetupMaterial]:
        """The entry's cached setup (``None`` until the first miss)."""
        return self._entry.material

    def provider(
        self, scheme: SRDSScheme, num_virtual: int, rng: Randomness
    ) -> SRDSSetupMaterial:
        """Serve cached material, computing (and storing) it on miss.

        Material whose ``(num_virtual, rng seed)`` does not match the
        run is recomputed rather than served — a wrong-key hit would
        corrupt parity, which defeats the cache's whole purpose.
        """
        material = self._entry.material
        if (
            material is not None
            and material.num_virtual == num_virtual
            and material.rng_seed == rng.seed
        ):
            self.hits += 1
            self._cache.count(hits=1)
            return material
        material = compute_srds_setup(scheme, num_virtual, rng)
        self._entry.material = material
        self.misses += 1
        self._cache.count(misses=1)
        return material


class SetupCache:
    """LRU cache of SRDS setup domains shared by one lane's sessions.

    ``max_entries`` bounds resident key material; evicting a domain only
    costs the next session on that key one fresh keygen (a miss), never
    correctness.
    """

    def __init__(
        self,
        max_entries: int = 8,
        scheme_factory: Callable[[str], SRDSScheme] = scheme_for,
    ) -> None:
        if max_entries < 1:
            raise GatewayError("setup cache needs at least one entry")
        self._max_entries = max_entries
        self._scheme_factory = scheme_factory
        self._entries: "OrderedDict[SetupKey, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lease(self, scheme_label: str, n: int, seed: int) -> SetupLease:
        """Take a lease on the setup domain ``(scheme_label, n, seed)``.

        Constructs the scheme instance on first use of a key; touching
        an existing key refreshes its LRU position.
        """
        key: SetupKey = (scheme_label, n, seed)
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(scheme=self._scheme_factory(scheme_label))
            self._entries[key] = entry
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return SetupLease(self, key, entry)

    def count(self, hits: int = 0, misses: int = 0) -> None:
        """Add lease hits and misses to the counters."""
        self.hits += hits
        self.misses += misses

    def keys(self) -> List[SetupKey]:
        """The resident setup domains, least recently used first."""
        return list(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy for ``status`` responses and benches."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "max_entries": self._max_entries,
        }
