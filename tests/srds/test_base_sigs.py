"""Tests for the pluggable base-signature schemes."""

import pytest

from repro.crypto import schnorr
from repro.errors import KeyError_
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.utils.randomness import Randomness


@pytest.fixture(params=["schnorr", "hash-registry"])
def scheme(request):
    if request.param == "schnorr":
        return SchnorrBase()
    return HashRegistryBase()


class TestBothSchemes:
    def test_sign_verify(self, scheme, rng):
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"message")
        assert scheme.verify(vk, b"message", signature)

    def test_wrong_message_rejected(self, scheme, rng):
        vk, sk = scheme.keygen(rng)
        assert not scheme.verify(vk, b"other", scheme.sign(sk, b"message"))

    def test_wrong_key_rejected(self, scheme, rng):
        vk1, sk1 = scheme.keygen(rng.fork("a"))
        vk2, _ = scheme.keygen(rng.fork("b"))
        assert not scheme.verify(vk2, b"m", scheme.sign(sk1, b"m"))

    def test_garbage_signature_rejected(self, scheme, rng):
        vk, _ = scheme.keygen(rng)
        assert not scheme.verify(vk, b"m", b"garbage")

    def test_garbage_key_rejected(self, scheme, rng):
        _, sk = scheme.keygen(rng)
        assert not scheme.verify(b"garbage", b"m", scheme.sign(sk, b"m"))

    def test_wrong_key_type_raises(self, scheme):
        with pytest.raises(KeyError_):
            scheme.sign(3.14, b"m")

    def test_distinct_keys(self, scheme, rng):
        vk1, _ = scheme.keygen(rng.fork("a"))
        vk2, _ = scheme.keygen(rng.fork("b"))
        assert vk1 != vk2


class TestVerifyMany:
    """``verify_many`` is ``[verify(...) for ...]``, whatever the batch."""

    @pytest.fixture
    def items(self, scheme, rng):
        items = []
        for index in range(5):
            vk, sk = scheme.keygen(rng.fork(f"signer-{index}"))
            items.append((vk, b"agreed", scheme.sign(sk, b"agreed")))
        return items

    @staticmethod
    def _fresh(scheme):
        # Same registry (hash scheme), no remembered verdicts (Schnorr).
        if isinstance(scheme, SchnorrBase):
            scheme._verify_cache.clear()
        return scheme

    def _check(self, scheme, batch, expected):
        assert self._fresh(scheme).verify_many(batch) == expected
        assert [
            self._fresh(scheme).verify(*item) for item in batch
        ] == expected

    def test_empty(self, scheme):
        assert scheme.verify_many([]) == []

    def test_all_valid(self, scheme, items):
        self._check(scheme, items, [True] * 5)

    def test_one_forged_response(self, scheme, items):
        vk, message, signature = items[3]
        forged = signature[:-1] + bytes([signature[-1] ^ 1])
        items[3] = (vk, message, forged)
        self._check(scheme, items, [True, True, True, False, True])

    def test_one_swapped_nonce(self, scheme, items):
        # Item 1 carries item 0's first half (Schnorr's R).
        vk, message, signature = items[1]
        half = len(signature) // 2 + 1
        items[1] = (vk, message, items[0][2][:half] + signature[half:])
        self._check(scheme, items, [True, False, True, True, True])

    def test_malformed_encodings(self, scheme, items):
        items[0] = (items[0][0], b"agreed", b"garbage")
        items[4] = (b"garbage", b"agreed", items[4][2])
        self._check(scheme, items, [False, True, True, True, False])

    def test_duplicated_items(self, scheme, items):
        vk, message, signature = items[2]
        bad = (vk, message, bytes(len(signature)))
        batch = [items[0], bad, items[0], items[2], bad]
        self._check(scheme, batch, [True, False, True, True, False])

    def test_wrong_message_for_one_key(self, scheme, items):
        items[2] = (items[2][0], b"other", items[2][2])
        self._check(scheme, items, [True, True, False, True, True])


class TestSchnorrCache:
    def test_cache_consistency(self, rng):
        scheme = SchnorrBase()
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"m")
        first = scheme.verify(vk, b"m", signature)
        second = scheme.verify(vk, b"m", signature)  # cached path
        assert first is second is True

    def test_cache_negative_result(self, rng):
        scheme = SchnorrBase()
        vk, sk = scheme.keygen(rng)
        assert not scheme.verify(vk, b"x", scheme.sign(sk, b"m"))
        assert not scheme.verify(vk, b"x", scheme.sign(sk, b"m"))


    def test_batch_consults_and_fills_the_cache(self, rng, monkeypatch):
        scheme = SchnorrBase()
        items = []
        for index in range(3):
            vk, sk = scheme.keygen(rng.fork(f"signer-{index}"))
            items.append((vk, b"m", scheme.sign(sk, b"m")))
        assert scheme.verify(*items[0])
        batches = []
        real = schnorr.verify_batch
        monkeypatch.setattr(
            schnorr, "verify_batch",
            lambda batch: batches.append(len(batch)) or real(batch),
        )
        assert scheme.verify_many(items) == [True] * 3
        assert batches == [2]  # item 0 was already settled
        assert scheme.verify_many(items) == [True] * 3
        assert batches == [2]  # and now all three are


class TestHashRegistry:
    def test_unregistered_key_rejected(self, rng):
        scheme = HashRegistryBase()
        other = HashRegistryBase()
        vk, sk = scheme.keygen(rng)
        # `other` never saw this keygen; designated verification fails.
        assert not other.verify(vk, b"m", scheme.sign(sk, b"m"))
