"""Tests for the pluggable base-signature schemes."""

import copy
import pickle

import pytest

from repro.crypto import schnorr
from repro.errors import KeyError_
from repro.srds import base_sigs
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
        # Same keys (the hash scheme's registry), no remembered verdicts.
        scheme._verdicts.clear()
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


class TestBadInputs:
    """``verify`` never raises for bad inputs, whatever the verdicts hold."""

    CASES = {
        "bytearray-key": lambda vk, sig: (bytearray(vk), b"m", sig),
        "bytearray-message": lambda vk, sig: (vk, bytearray(b"m"), sig),
        "bytearray-signature": lambda vk, sig: (vk, b"m", bytearray(sig)),
        "str-message": lambda vk, sig: (vk, "m", sig),
        "int-key": lambda vk, sig: (7, b"m", sig),
        "none-signature": lambda vk, sig: (vk, b"m", None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verify_reads_false(self, scheme, rng, case):
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"m")
        assert scheme.verify(vk, b"m", signature)  # now a kept verdict
        assert scheme.verify(*self.CASES[case](vk, signature)) is False

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verify_many_reads_false_for_that_item_only(
        self, scheme, rng, case
    ):
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"m")
        good = (vk, b"m", signature)
        bad = self.CASES[case](vk, signature)
        assert scheme.verify_many([good, bad, good]) == [True, False, True]
        assert scheme.verify_many([bad]) == [False]

    def test_the_reported_case(self):
        assert HashRegistryBase().verify(bytearray(b"x"), b"m", b"s") is False


class TestVerdicts:
    """Each settled item is checked once per scheme object, and a kept
    verdict never hides a different signature."""

    @staticmethod
    def _count_checks(scheme, monkeypatch):
        checked = []
        real = scheme._check_many
        monkeypatch.setattr(
            scheme, "_check_many",
            lambda items: checked.extend(items) or real(items),
        )
        return checked

    def test_each_item_checked_once(self, scheme, rng, monkeypatch):
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"m")
        checked = self._count_checks(scheme, monkeypatch)
        assert scheme.verify_many([(vk, b"m", signature)] * 3) == [True] * 3
        assert scheme.verify(vk, b"m", signature)
        assert scheme.verify_many([(vk, b"m", signature)]) == [True]
        assert checked == [(vk, b"m", signature)]

    def test_mutated_signature_after_a_kept_verdict(self, scheme, rng):
        vk, sk = scheme.keygen(rng)
        signature = scheme.sign(sk, b"m")
        assert scheme.verify(vk, b"m", signature)
        for position in (0, len(signature) // 2, len(signature) - 1):
            mutated = bytearray(signature)
            mutated[position] ^= 0x01
            assert not scheme.verify(vk, b"m", bytes(mutated))
        assert not scheme.verify(vk, b"other", signature)

    def test_the_verdicts_stay_bounded(self, scheme, rng, monkeypatch):
        monkeypatch.setattr(base_sigs, "_VERDICT_MEMO", 3)
        items = []
        for index in range(4):
            vk, sk = scheme.keygen(rng.fork(f"signer-{index}"))
            signature = scheme.sign(sk, b"m")
            items += [(vk, b"m", signature), (vk, b"m", bytes(len(signature)))]
        expected = [True, False] * 4
        assert scheme.verify_many(items) == expected
        assert len(scheme._verdicts) <= 3
        assert [scheme.verify(*item) for item in items] == expected
        assert len(scheme._verdicts) <= 3

    def test_no_verdict_outlives_its_scheme(self, scheme, rng):
        vk, sk = scheme.keygen(rng)
        scheme.verify(vk, b"m", scheme.sign(sk, b"m"))
        assert scheme._verdicts
        assert not type(scheme)()._verdicts


class TestHashRegistryScratch:
    def test_unregistered_then_registered_flips_to_true(self, rng):
        signer = HashRegistryBase()
        verifier = HashRegistryBase()
        vk, sk = signer.keygen(rng)
        signature = signer.sign(sk, b"m")
        assert not verifier.verify(vk, b"m", signature)
        assert verifier.verify_many([(vk, b"m", signature)]) == [False]
        assert not verifier._verdicts  # not kept: the key may yet register
        # The adversary-style registration of someone else's (vk, sk).
        verifier._registry[vk] = sk
        assert verifier.verify(vk, b"m", signature)
        assert verifier.verify_many([(vk, b"m", signature)]) == [True]

    def test_wrong_tag_under_a_registered_key_is_kept(self, rng):
        scheme = HashRegistryBase()
        vk, _ = scheme.keygen(rng)
        assert not scheme.verify(vk, b"m", bytes(32))
        assert scheme._verdicts == {(vk, b"m", bytes(32)): False}

    @pytest.mark.parametrize(
        "clone",
        [
            lambda scheme: pickle.loads(pickle.dumps(scheme)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_clone_leaves_scratch_out_and_verifies_the_same(
        self, rng, clone
    ):
        scheme = HashRegistryBase()
        items = []
        for index in range(4):
            vk, sk = scheme.keygen(rng.fork(f"signer-{index}"))
            signature = scheme.sign(sk, b"m")
            items.append((vk, b"m", signature))
            items.append((vk, b"m", signature[:-1] + b"\0"))
        verdicts = scheme.verify_many(items)
        assert scheme._verdicts and scheme._macs  # scratch filled
        twin = clone(scheme)
        assert twin._verdicts == {} and twin._macs == {}
        assert twin._registry == scheme._registry
        assert twin.verify_many(items) == verdicts
        assert [twin.verify(*item) for item in items] == verdicts
        # Signing with a restored secret matches the original's tags.
        _, sk = scheme.keygen(rng.fork("late"))
        assert clone(scheme).sign(sk, b"x") == scheme.sign(sk, b"x")

    def test_the_key_schedules_stay_bounded(self, rng, monkeypatch):
        """Past the bound the scheme drops its handles; a key whose
        handle went signs and verifies the same, keyed again."""
        monkeypatch.setattr(base_sigs, "_VERDICT_MEMO", 3)
        scheme = HashRegistryBase()
        keys = [scheme.keygen(rng.fork(f"signer-{index}")) for index in range(7)]
        assert len(scheme._macs) <= 3
        items = [(vk, b"m", scheme.sign(sk, b"m")) for vk, sk in keys]
        assert [
            signature == HashRegistryBase().sign(sk, b"m")
            for (_, _, signature), (_, sk) in zip(items, keys)
        ] == [True] * 7
        assert scheme.verify_many(items) == [True] * 7
        assert len(scheme._macs) <= 3
        forged = [(vk, message, bytes(32)) for vk, message, _ in items]
        assert scheme.verify_many(forged) == [False] * 7
        assert len(scheme._macs) <= 3

    def test_sign_with_an_unregistered_secret(self):
        scheme = HashRegistryBase()
        tag = scheme.sign(bytes(32), b"m")
        assert tag == HashRegistryBase().sign(bytes(32), b"m")
        assert not scheme._macs


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
