"""Tests for Winternitz one-time signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import winternitz
from repro.errors import ConfigurationError, KeyError_, SignatureError

BITS = 32
W = 4


@pytest.fixture
def keys():
    return winternitz.keygen_from_seed(b"wots-seed" * 2, BITS, W)


class TestSignVerify:
    def test_valid(self, keys):
        vk, sk = keys
        assert winternitz.verify(vk, b"m", winternitz.sign(sk, b"m"))

    def test_wrong_message_rejected(self, keys):
        vk, sk = keys
        assert not winternitz.verify(vk, b"other", winternitz.sign(sk, b"m"))

    def test_wrong_key_rejected(self, keys):
        vk, sk = keys
        vk2, _ = winternitz.keygen_from_seed(b"other-seed", BITS, W)
        assert not winternitz.verify(vk2, b"m", winternitz.sign(sk, b"m"))

    def test_chain_extension_forgery_blocked(self, keys):
        """Extending revealed chains forges the message chunks but breaks
        the checksum chunks — the W-OTS checksum at work."""
        vk, sk = keys
        signature = winternitz.sign(sk, b"m")
        extended = winternitz.WotsSignature(
            values=tuple(
                winternitz._chain(value, 1, index)
                for index, value in enumerate(signature.values)
            )
        )
        assert not winternitz.verify(vk, b"m", extended)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_arbitrary_messages(self, message):
        vk, sk = winternitz.keygen_from_seed(b"prop-seed", BITS, W)
        assert winternitz.verify(vk, message, winternitz.sign(sk, message))

    def test_tampered_value_rejected(self, keys):
        vk, sk = keys
        signature = winternitz.sign(sk, b"m")
        tampered = winternitz.WotsSignature(
            values=(bytes(32),) + signature.values[1:]
        )
        assert not winternitz.verify(vk, b"m", tampered)


class TestObliviousKeygen:
    def test_no_signing_capability(self):
        vk = winternitz.oblivious_keygen(b"obliv", BITS, W)
        _, _, total = winternitz._parameters(BITS, W)
        fake = winternitz.WotsSignature(
            values=tuple(bytes(32) for _ in range(total))
        )
        assert not winternitz.verify(vk, b"m", fake)

    def test_shape_matches_real_key(self):
        real, _ = winternitz.keygen_from_seed(b"a", BITS, W)
        oblivious = winternitz.oblivious_keygen(b"b", BITS, W)
        assert len(real.encode()) == len(oblivious.encode())


class TestParameters:
    def test_invalid_w_rejected(self):
        with pytest.raises(ConfigurationError):
            winternitz.keygen_from_seed(b"s", BITS, 0)
        with pytest.raises(ConfigurationError):
            winternitz.keygen_from_seed(b"s", BITS, 9)

    def test_indivisible_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            winternitz.keygen_from_seed(b"s", 30, 4)

    def test_checksum_chunk_count(self):
        message_chunks, checksum_chunks, total = winternitz._parameters(128, 4)
        assert message_chunks == 32
        # max checksum = 32 * 15 = 480 < 16^3; needs 3 chunks.
        assert checksum_chunks == 3
        assert total == 35

    def test_signature_smaller_than_lamport(self):
        from repro.crypto import lamport

        vk, sk = winternitz.keygen_from_seed(b"s", 128, 4)
        wots_size = winternitz.sign(sk, b"m").size_bytes()
        _, lamport_sk = lamport.keygen_from_seed(b"s" * 8, 128)
        lamport_size = lamport.sign(lamport_sk, b"m").size_bytes()
        assert wots_size * 3 < lamport_size  # 35*32 vs 128*32


class TestEncoding:
    def test_signature_roundtrip(self, keys):
        _, sk = keys
        signature = winternitz.sign(sk, b"m")
        decoded = winternitz.decode_signature(signature.encode(), BITS, W)
        assert decoded == signature

    def test_key_roundtrip(self, keys):
        vk, _ = keys
        decoded = winternitz.decode_verification_key(vk.encode(), BITS, W)
        assert decoded == vk

    def test_malformed_rejected(self):
        with pytest.raises(SignatureError):
            winternitz.decode_signature(b"short", BITS, W)
        with pytest.raises(KeyError_):
            winternitz.decode_verification_key(b"short", BITS, W)


class TestHostileInputs:
    """Verification answers False, and never raises, whatever it is
    handed; a flip in any chain value or endpoint is caught."""

    def test_wrong_lengths_and_types(self, keys):
        vk, sk = keys
        values = winternitz.sign(sk, b"m").values
        for bad in (
            values[:-1],
            values + (values[0],),
            values[:-1] + (values[-1][:-1],),
            values[:-1] + (values[-1] + b"\0",),
            values[:-1] + (None,),
            values[:-1] + (7,),
        ):
            signature = winternitz.WotsSignature(values=bad)
            assert winternitz.verify(vk, b"m", signature) is False
        signature = winternitz.sign(sk, b"m")
        assert winternitz.verify(vk, "m", signature) is False
        assert winternitz.verify(vk, None, signature) is False
        wrong_width = winternitz.WotsVerificationKey(BITS, 2, vk.endpoints)
        assert winternitz.verify(wrong_width, b"m", signature) is False

    def test_a_flipped_byte_in_any_value_or_endpoint(self, keys):
        vk, sk = keys
        signature = winternitz.sign(sk, b"m")
        for index in range(len(signature.values)):
            values = list(signature.values)
            endpoints = list(vk.endpoints)
            values[index] = bytes([values[index][0] ^ 0x80]) + values[index][1:]
            endpoints[index] = endpoints[index][:-1] + bytes(
                [endpoints[index][-1] ^ 0x01]
            )
            assert not winternitz.verify(
                vk, b"m", winternitz.WotsSignature(values=tuple(values))
            )
            bad_key = winternitz.WotsVerificationKey(BITS, W, tuple(endpoints))
            assert not winternitz.verify(bad_key, b"m", signature)

    def test_swapped_values(self, keys):
        vk, sk = keys
        values = winternitz.sign(sk, b"m").values
        swapped = (values[1], values[0]) + values[2:]
        assert not winternitz.verify(
            vk, b"m", winternitz.WotsSignature(values=swapped)
        )
