"""SetupCache: hit/miss accounting, LRU, and byte-identical material."""

import pytest

from repro.errors import GatewayError
from repro.protocols.balanced_ba import compute_srds_setup
from repro.serve.setup_cache import SCHEME_LABELS, SetupCache, scheme_for
from repro.utils.randomness import Randomness


class TestSchemeFactory:
    @pytest.mark.parametrize("label", SCHEME_LABELS)
    def test_known_labels_construct(self, label):
        scheme = scheme_for(label)
        assert scheme is not scheme_for(label)  # fresh instance each call

    def test_unknown_label_rejected(self):
        with pytest.raises(GatewayError, match="unknown scheme label"):
            scheme_for("rsa")


class TestLeaseProvider:
    def test_first_use_misses_then_hits(self):
        cache = SetupCache()
        lease = cache.lease("snark-hash", 6, 11)
        rng = Randomness(11).fork("session").fork("srds")
        first = lease.provider(lease.scheme, 24, rng)
        second = lease.provider(lease.scheme, 24, rng)
        assert first is second
        assert (lease.misses, lease.hits) == (1, 1)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_cached_material_matches_inline_computation(self):
        # The amortization's correctness claim: cache-served material is
        # byte-identical to what the session would have computed itself.
        cache = SetupCache()
        lease = cache.lease("snark-hash", 6, 11)
        rng_seed = Randomness(11).fork("x")
        cached = lease.provider(lease.scheme, 24, rng_seed)
        inline = compute_srds_setup(scheme_for("snark-hash"), 24,
                                    Randomness(11).fork("x"))
        assert cached.rng_seed == inline.rng_seed
        assert cached.verification_keys == inline.verification_keys

    def test_mismatched_run_parameters_recompute(self):
        cache = SetupCache()
        lease = cache.lease("snark-hash", 6, 11)
        rng = Randomness(11).fork("x")
        lease.provider(lease.scheme, 24, rng)
        lease.provider(lease.scheme, 48, rng)  # different num_virtual
        assert lease.misses == 2 and lease.hits == 0

    def test_leases_on_same_key_share_material(self):
        # The cross-session amortization: session 2 pays nothing.
        cache = SetupCache()
        rng = Randomness(3).fork("x")
        first = cache.lease("snark-hash", 6, 3)
        second = cache.lease("snark-hash", 6, 3)
        assert first.scheme is second.scheme
        material = first.provider(first.scheme, 24, rng)
        assert second.provider(second.scheme, 24, rng) is material
        assert (second.misses, second.hits) == (0, 1)

    def test_distinct_keys_do_not_share(self):
        cache = SetupCache()
        a = cache.lease("snark-hash", 6, 3)
        b = cache.lease("snark-hash", 6, 4)
        assert a.scheme is not b.scheme


class TestCachePolicy:
    def test_lru_eviction_costs_a_miss_not_correctness(self):
        cache = SetupCache(max_entries=1)
        rng = Randomness(3).fork("x")
        first = cache.lease("snark-hash", 6, 3)
        first.provider(first.scheme, 24, rng)
        cache.lease("snark-hash", 6, 4)  # evicts the (6, 3) domain
        again = cache.lease("snark-hash", 6, 3)
        material = again.provider(again.scheme, 24, rng)
        assert again.misses == 1
        assert material.verification_keys  # fully recomputed, still valid
        assert cache.stats()["entries"] == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(GatewayError, match="at least one"):
            SetupCache(max_entries=0)

    def test_stats_shape(self):
        stats = SetupCache(max_entries=4).stats()
        assert stats == {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 4,
        }

