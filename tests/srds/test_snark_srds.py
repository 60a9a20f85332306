"""Tests for the CRH + SNARK + bare-PKI SRDS construction (Thm 2.8)."""

import pytest

from repro.crypto.snark import forge_random_proof
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.snark_based import (
    CertifiedBaseSignature,
    SnarkAggregateSignature,
    SnarkBaseSignature,
    SnarkSRDS,
    decode_aggregate,
    vk_merkle_tree,
)
from repro.utils.randomness import Randomness

N = 120


@pytest.fixture(scope="module")
def deployment():
    rng = Randomness(88)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    pp = scheme.setup(N, rng.fork("setup"))
    verification_keys = {}
    signing_keys = {}
    for index in range(N):
        vk, sk = scheme.keygen(pp, rng.fork(f"kg-{index}"))
        verification_keys[index] = vk
        signing_keys[index] = sk
    return scheme, pp, verification_keys, signing_keys


def _sign_range(deployment, message, indices):
    scheme, pp, _, sks = deployment
    return [scheme.sign(pp, i, sks[i], message) for i in indices]


class TestLeafAggregation:
    def test_leaf_flow(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"leaf"
        signatures = _sign_range(deployment, message, range(40))
        aggregate = scheme.aggregate(pp, vks, message, signatures)
        assert isinstance(aggregate, SnarkAggregateSignature)
        assert aggregate.count == 40
        assert (aggregate.lo, aggregate.hi) == (0, 39)

    def test_duplicate_base_not_double_counted(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"dup"
        signatures = _sign_range(deployment, message, range(10))
        aggregate = scheme.aggregate(
            pp, vks, message, signatures + signatures
        )
        assert aggregate.count == 10

    def test_invalid_base_filtered(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"filter"
        signatures = _sign_range(deployment, message, range(10))
        bogus = SnarkBaseSignature(index=5, signature_bytes=b"junk")
        aggregate = scheme.aggregate(pp, vks, message, signatures + [bogus])
        assert aggregate.count == 10

    def test_out_of_universe_index_filtered(self, deployment):
        scheme, pp, vks, sks = deployment
        good = scheme.sign(pp, 0, sks[0], b"m")
        shifted = SnarkBaseSignature(
            index=N + 1, signature_bytes=good.signature_bytes
        )
        assert scheme.aggregate(pp, vks, b"m", [shifted]) is None

    def test_empty_returns_none(self, deployment):
        scheme, pp, vks, _ = deployment
        assert scheme.aggregate(pp, vks, b"m", []) is None


class TestRecursiveAggregation:
    def test_internal_combination(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"internal"
        left = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 50))
        )
        right = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(50, 100))
        )
        combined = scheme.aggregate(pp, vks, message, [left, right])
        assert combined.count == 100
        assert (combined.lo, combined.hi) == (0, 99)
        assert scheme.verify(pp, vks, message, combined) == (
            combined.count >= pp.acceptance_threshold
        )

    def test_overlapping_aggregates_filtered(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"overlap"
        a = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        b = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(20, 50))
        )
        combined = scheme.aggregate(pp, vks, message, [a, b])
        # Greedy disjoint filter keeps the larger; counts never double.
        assert combined.count == 30

    def test_same_aggregate_twice_not_doubled(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"replay"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        combined = scheme.aggregate(pp, vks, message, [aggregate, aggregate])
        assert combined.count == 30

    def test_mixed_bases_and_aggregates(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"mixed"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        loose = _sign_range(deployment, message, range(60, 70))
        combined = scheme.aggregate(pp, vks, message, [aggregate] + loose)
        assert combined.count == 40

    def test_base_inside_aggregate_range_dropped(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"contained"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        inside = _sign_range(deployment, message, [10])
        combined = scheme.aggregate(pp, vks, message, [aggregate] + inside)
        assert combined.count == 30


class TestVerification:
    def test_majority_accepts(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"majority"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        assert scheme.verify(pp, vks, message, aggregate)

    def test_minority_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"minority"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N // 3))
        )
        assert not scheme.verify(pp, vks, message, aggregate)

    def test_wrong_message_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        aggregate = scheme.aggregate(
            pp, vks, b"m1", _sign_range(deployment, b"m1", range(N))
        )
        assert not scheme.verify(pp, vks, b"m2", aggregate)

    def test_base_signature_never_verifies_alone(self, deployment):
        scheme, pp, vks, sks = deployment
        base = scheme.sign(pp, 0, sks[0], b"m")
        assert not scheme.verify(pp, vks, b"m", base)

    def test_forged_count_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"forge-count"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(10))
        )
        inflated = SnarkAggregateSignature(
            count=N,
            lo=aggregate.lo,
            hi=aggregate.hi,
            digest=aggregate.digest,
            vk_root=aggregate.vk_root,
            message_tag=aggregate.message_tag,
            proof=aggregate.proof,
        )
        assert not scheme.verify(pp, vks, message, inflated)

    def test_random_proof_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        rng = Randomness(3)
        tree = vk_merkle_tree(vks, pp.num_parties)
        from repro.crypto.hashing import hash_domain

        forged = SnarkAggregateSignature(
            count=N,
            lo=0,
            hi=N - 1,
            digest=rng.random_bytes(32),
            vk_root=tree.root,
            message_tag=hash_domain("srds/message-tag", b"target"),
            proof=forge_random_proof("srds/internal-sum", rng),
        )
        assert not scheme.verify(pp, vks, b"target", forged)

    def test_stale_vk_root_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"stale-root"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        # Replace one key (bare-PKI move): old aggregates must die.
        mutated = dict(vks)
        mutated[0] = b"replaced-key"
        assert not scheme.verify(pp, mutated, message, aggregate)


class TestEncoding:
    def test_aggregate_roundtrip(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"roundtrip"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        decoded = decode_aggregate(aggregate.encode())
        assert scheme.verify(pp, vks, message, decoded)

    def test_aggregate_size_constant_in_contributors(self, deployment):
        scheme, pp, vks, _ = deployment
        small = scheme.aggregate(
            pp, vks, b"s", _sign_range(deployment, b"s", range(5))
        )
        large = scheme.aggregate(
            pp, vks, b"s", _sign_range(deployment, b"s", range(N))
        )
        assert small.size_bytes() == large.size_bytes()

    def test_metadata(self):
        scheme = SnarkSRDS()
        description = scheme.describe()
        assert description["setup"] == "bare-pki+crs"
        assert "snark" in description["assumptions"]


class TestWithSchnorr:
    def test_real_schnorr_base_scheme(self):
        rng = Randomness(11)
        scheme = SnarkSRDS(base_scheme=SchnorrBase())
        n = 12
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"real-crypto"
        signatures = [scheme.sign(pp, i, sks[i], message) for i in range(n)]
        aggregate = scheme.aggregate(pp, vks, message, signatures)
        assert aggregate.count == n
        assert scheme.verify(pp, vks, message, aggregate)
        assert not scheme.verify(pp, vks, b"other", aggregate)

    def test_forged_base_before_valid_one_keeps_the_valid_one(self):
        """Batching verifies a node's base signatures together, but the
        first *valid* signature per index, in arrival order, still wins."""
        rng = Randomness(12)
        scheme = SnarkSRDS(base_scheme=SchnorrBase())
        n = 6
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"dedupe-order"
        good = [scheme.sign(pp, i, sks[i], message) for i in range(n)]
        flipped = good[3].signature_bytes[:-1] + bytes(
            [good[3].signature_bytes[-1] ^ 1]
        )
        forged = SnarkBaseSignature(index=3, signature_bytes=flipped)
        stale = scheme.sign(pp, 4, sks[4], b"another message")
        filtered = scheme.aggregate1(
            pp, vks, message,
            [good[0], forged, good[1], stale, good[3], good[4], forged, good[3]],
        )
        assert [item.base for item in filtered] == [
            good[0], good[1], good[3], good[4]
        ]
        aggregate = scheme.aggregate(
            pp, vks, message, [forged, stale] + good
        )
        assert aggregate.count == n
        assert scheme.verify(pp, vks, message, aggregate)
