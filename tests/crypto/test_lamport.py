"""Tests for Lamport one-time signatures with oblivious keygen."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import lamport
from repro.errors import KeyError_, SignatureError

BITS = 32  # small keys keep the suite fast; structure is identical


@pytest.fixture
def keys():
    return lamport.keygen_from_seed(b"seed" * 8, BITS)


class TestSignVerify:
    def test_valid(self, keys):
        vk, sk = keys
        assert lamport.verify(vk, b"m", lamport.sign(sk, b"m"))

    def test_wrong_message_rejected(self, keys):
        vk, sk = keys
        assert not lamport.verify(vk, b"other", lamport.sign(sk, b"m"))

    def test_wrong_key_rejected(self, keys):
        vk, sk = keys
        vk2, _ = lamport.keygen_from_seed(b"other" * 8, BITS)
        assert not lamport.verify(vk2, b"m", lamport.sign(sk, b"m"))

    def test_truncated_signature_rejected(self, keys):
        vk, sk = keys
        signature = lamport.sign(sk, b"m")
        short = lamport.LamportSignature(preimages=signature.preimages[:-1])
        assert not lamport.verify(vk, b"m", short)

    def test_tampered_preimage_rejected(self, keys):
        vk, sk = keys
        signature = lamport.sign(sk, b"m")
        tampered = lamport.LamportSignature(
            preimages=(bytes(32),) + signature.preimages[1:]
        )
        assert not lamport.verify(vk, b"m", tampered)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_arbitrary_messages(self, message):
        vk, sk = lamport.keygen_from_seed(b"prop" * 8, BITS)
        assert lamport.verify(vk, message, lamport.sign(sk, message))


class TestObliviousKeygen:
    def test_no_signing_capability(self):
        vk = lamport.oblivious_keygen(b"obliv" * 8, BITS)
        # All-zero preimages (or any guess) must fail to verify.
        fake = lamport.LamportSignature(preimages=tuple(bytes(32) for _ in range(BITS)))
        assert not lamport.verify(vk, b"m", fake)

    def test_shape_matches_real_key(self):
        real, _ = lamport.keygen_from_seed(b"a" * 16, BITS)
        oblivious = lamport.oblivious_keygen(b"b" * 16, BITS)
        assert real.message_bits == oblivious.message_bits
        assert len(real.encode()) == len(oblivious.encode())

    def test_deterministic(self):
        assert lamport.oblivious_keygen(b"x" * 8, BITS).encode() == (
            lamport.oblivious_keygen(b"x" * 8, BITS).encode()
        )


class TestDeterminism:
    def test_keygen_from_seed_reproducible(self):
        a = lamport.keygen_from_seed(b"s" * 8, BITS)
        b = lamport.keygen_from_seed(b"s" * 8, BITS)
        assert a[0].encode() == b[0].encode()

    def test_distinct_seeds_distinct_keys(self):
        a, _ = lamport.keygen_from_seed(b"s1" * 8, BITS)
        b, _ = lamport.keygen_from_seed(b"s2" * 8, BITS)
        assert a.encode() != b.encode()


class TestEncoding:
    def test_signature_roundtrip(self, keys):
        _, sk = keys
        signature = lamport.sign(sk, b"m")
        decoded = lamport.decode_signature(signature.encode(), BITS)
        assert decoded == signature

    def test_verification_key_roundtrip(self, keys):
        vk, _ = keys
        assert lamport.decode_verification_key(vk.encode(), BITS) == vk

    def test_malformed_signature_rejected(self):
        with pytest.raises(SignatureError):
            lamport.decode_signature(b"short", BITS)

    def test_malformed_key_rejected(self):
        with pytest.raises(KeyError_):
            lamport.decode_verification_key(b"short", BITS)

    def test_sizes(self, keys):
        vk, sk = keys
        assert vk.size_bytes() == 64 * BITS
        assert lamport.sign(sk, b"m").size_bytes() == 32 * BITS


class TestHostileInputs:
    """Verification answers False, and never raises, whatever it is
    handed; a flip anywhere the signature opens is caught."""

    def test_wrong_lengths_and_types_in_a_signature(self, keys):
        vk, sk = keys
        preimages = lamport.sign(sk, b"m").preimages
        for bad in (
            preimages + (preimages[0],),
            preimages[:-1] + (preimages[-1][:-1],),
            preimages[:-1] + (preimages[-1] + b"\0",),
            preimages[:-1] + (None,),
            preimages[:-1] + (7,),
            preimages[:-1] + (preimages[-1].hex(),),
        ):
            signature = lamport.LamportSignature(preimages=bad)
            assert lamport.verify(vk, b"m", signature) is False

    def test_malformed_keys_and_messages(self, keys):
        vk, sk = keys
        signature = lamport.sign(sk, b"m")
        for rows in (vk.rows[:-1], vk.rows[:-1] + ((None, None),), ()):
            key = lamport.LamportVerificationKey(message_bits=BITS, rows=rows)
            assert lamport.verify(key, b"m", signature) is False
        assert lamport.verify(vk, "m", signature) is False
        assert lamport.verify(vk, None, signature) is False

    def test_a_flipped_byte_in_any_preimage(self, keys):
        vk, sk = keys
        preimages = lamport.sign(sk, b"m").preimages
        for index, preimage in enumerate(preimages):
            position = (7 * index) % 32
            flipped = bytearray(preimage)
            flipped[position] ^= 0x01
            bad = preimages[:index] + (bytes(flipped),) + preimages[index + 1:]
            assert not lamport.verify(
                vk, b"m", lamport.LamportSignature(preimages=bad)
            )

    def test_swapped_rows_and_halves(self, keys):
        vk, sk = keys
        signature = lamport.sign(sk, b"m")
        rows = list(vk.rows)
        rows[0], rows[1] = rows[1], rows[0]
        swapped = lamport.LamportVerificationKey(BITS, tuple(rows))
        assert not lamport.verify(swapped, b"m", signature)
        mirrored = lamport.LamportVerificationKey(
            BITS, ((vk.rows[0][1], vk.rows[0][0]),) + vk.rows[1:]
        )
        assert not lamport.verify(mirrored, b"m", signature)
        preimages = signature.preimages
        reordered = (preimages[1], preimages[0]) + preimages[2:]
        assert not lamport.verify(
            vk, b"m", lamport.LamportSignature(preimages=reordered)
        )

    def test_a_signing_key_short_of_rows_is_refused(self, keys):
        _, sk = keys
        short = lamport.LamportSigningKey(message_bits=BITS, rows=sk.rows[:-1])
        with pytest.raises(KeyError_):
            lamport.sign(short, b"m")
