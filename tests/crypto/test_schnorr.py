"""Tests for Schnorr signatures."""

import pytest

from repro.crypto import ec, schnorr
from repro.errors import KeyError_
from repro.utils.randomness import Randomness


@pytest.fixture
def keypair(rng):
    return schnorr.keygen(rng)


class TestSignVerify:
    def test_valid_signature(self, keypair):
        signature = schnorr.sign(keypair, b"message")
        assert schnorr.verify(keypair.public, b"message", signature)

    def test_wrong_message_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"message")
        assert not schnorr.verify(keypair.public, b"other", signature)

    def test_wrong_key_rejected(self, keypair, rng):
        other = schnorr.keygen(rng.fork("other"))
        signature = schnorr.sign(keypair, b"message")
        assert not schnorr.verify(other.public, b"message", signature)

    def test_deterministic_signing(self, keypair):
        assert schnorr.sign(keypair, b"m").encode() == schnorr.sign(
            keypair, b"m"
        ).encode()

    def test_distinct_messages_distinct_nonces(self, keypair):
        sig_a = schnorr.sign(keypair, b"a")
        sig_b = schnorr.sign(keypair, b"b")
        assert sig_a.nonce_point != sig_b.nonce_point

    def test_identity_public_key_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        assert not schnorr.verify(ec.IDENTITY, b"m", signature)

    def test_out_of_range_response_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        bad = schnorr.SchnorrSignature(
            nonce_point=signature.nonce_point, response=ec.N
        )
        assert not schnorr.verify(keypair.public, b"m", bad)

    def test_signature_bytes_pinned(self):
        """Deterministic nonces: the group-law rewrite may not move a byte."""
        pinned = schnorr.keygen(Randomness(2021).fork("pinned-schnorr"))
        assert pinned.public_bytes.hex() == (
            "031bfff972a9763ee766c3e82742138c93d8f75bffa11d13638c9a659c0c769ec8"
        )
        signature = schnorr.sign(pinned, b"breaking the sqrt(n)-bit barrier")
        assert signature.encode().hex() == (
            "02223c8302f0513583da5ce500320629548d0e0bfe1ad32f9dd1d1a206418af851"
            "dea3a5a88c3af6c4cf2ed87c628b5dd8f281fda0bfaa5b2ccc23efe6218047dc"
        )
        assert schnorr.verify(
            pinned.public, b"breaking the sqrt(n)-bit barrier", signature
        )

    def test_identity_nonce_point_rejected(self, keypair):
        # Hand-built, so decode_point never vetted it.
        response = schnorr.sign(keypair, b"m").response
        forged = schnorr.SchnorrSignature(ec.IDENTITY, response)
        assert not schnorr.verify(keypair.public, b"m", forged)

    def test_off_curve_nonce_point_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        nonce = signature.nonce_point
        for bad in (
            ec.Point(nonce.x, (nonce.y + 1) % ec.P),
            ec.Point(nonce.x + ec.P, nonce.y),
        ):
            forged = schnorr.SchnorrSignature(bad, signature.response)
            assert not schnorr.verify(keypair.public, b"m", forged)

    def test_off_curve_public_key_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        bad = ec.Point(keypair.public.x, (keypair.public.y + 1) % ec.P)
        assert not schnorr.verify(bad, b"m", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        tampered = schnorr.SchnorrSignature(
            nonce_point=signature.nonce_point,
            response=(signature.response + 1) % ec.N,
        )
        assert not schnorr.verify(keypair.public, b"m", tampered)


class TestVerifyBatch:
    @pytest.fixture
    def batch(self, rng):
        items = []
        for index in range(4):
            keypair = schnorr.keygen(rng.fork(f"signer-{index}"))
            message = b"message-%d" % (index % 2)
            items.append((keypair.public, message, schnorr.sign(keypair, message)))
        return items

    def test_all_valid(self, batch):
        assert schnorr.verify_batch(batch)
        assert schnorr.verify_batch(batch[:1])
        assert schnorr.verify_batch(batch + batch[:2])  # repeated items

    def test_empty_batch_is_vacuously_valid(self):
        assert schnorr.verify_batch([])

    def test_one_bad_item_fails_the_batch(self, batch):
        public, message, signature = batch[2]
        forged_s = schnorr.SchnorrSignature(
            signature.nonce_point, (signature.response + 1) % ec.N
        )
        swapped_r = schnorr.SchnorrSignature(
            batch[0][2].nonce_point, signature.response
        )
        out_of_range = schnorr.SchnorrSignature(signature.nonce_point, ec.N)
        identity_r = schnorr.SchnorrSignature(ec.IDENTITY, signature.response)
        for bad in (
            (public, message, forged_s),
            (public, message, swapped_r),
            (public, message, out_of_range),
            (public, message, identity_r),
            (public, b"another message", signature),
            (batch[0][0], message, signature),
            (ec.IDENTITY, message, signature),
        ):
            assert not schnorr.verify(*bad)
            assert not schnorr.verify_batch(batch[:2] + [bad] + batch[3:])

    def test_cancelling_forgeries_do_not_pass(self, batch):
        # s1 + d and s2 - d cancel under equal coefficients; the hashed
        # 128-bit coefficients are what stops that.
        (p1, m1, sig1), (p2, m2, sig2) = batch[:2]
        shifted = [
            (p1, m1, schnorr.SchnorrSignature(
                sig1.nonce_point, (sig1.response + 5) % ec.N)),
            (p2, m2, schnorr.SchnorrSignature(
                sig2.nonce_point, (sig2.response - 5) % ec.N)),
        ]
        assert not schnorr.verify_batch(shifted + batch[2:])


class TestEncoding:
    def test_roundtrip(self, keypair):
        signature = schnorr.sign(keypair, b"m")
        decoded = schnorr.SchnorrSignature.decode(signature.encode())
        assert decoded == signature

    def test_wire_size(self, keypair):
        assert len(schnorr.sign(keypair, b"m").encode()) == 65

    def test_malformed_rejected(self):
        with pytest.raises(KeyError_):
            schnorr.SchnorrSignature.decode(b"short")

    def test_public_key_bytes(self, keypair):
        assert len(keypair.public_bytes) == 33


class TestKeygen:
    def test_distinct_keys(self, rng):
        a = schnorr.keygen(rng.fork("a"))
        b = schnorr.keygen(rng.fork("b"))
        assert a.public != b.public

    def test_public_matches_secret(self, keypair):
        assert keypair.public == ec.commit(keypair.secret)
