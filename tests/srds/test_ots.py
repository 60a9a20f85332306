"""Tests for the OTS adapters and the OWF SRDS over each of them."""

import pytest

from repro.errors import ConfigurationError
from repro.srds.ots import LamportOts, WinternitzOts
from repro.srds.owf import OwfSRDS
from repro.utils.randomness import Randomness


@pytest.fixture(params=["lamport", "winternitz"])
def ots(request):
    if request.param == "lamport":
        return LamportOts(message_bits=32)
    return WinternitzOts(message_bits=32, w=4)


class TestAdapters:
    def test_sign_verify(self, ots):
        vk, sk = ots.keygen_from_seed(b"seed-one")
        signature = ots.sign(sk, b"m")
        assert ots.verify(vk, b"m", signature)
        assert not ots.verify(vk, b"x", signature)

    def test_oblivious_key_shape(self, ots):
        real_vk, _ = ots.keygen_from_seed(b"a")
        oblivious_vk = ots.oblivious_keygen(b"b")
        assert len(real_vk) == len(oblivious_vk)
        assert len(real_vk) == ots.verification_key_bytes()

    def test_signature_size_declared(self, ots):
        _, sk = ots.keygen_from_seed(b"a")
        assert len(ots.sign(sk, b"m")) == ots.signature_bytes()

    def test_garbage_rejected(self, ots):
        vk, _ = ots.keygen_from_seed(b"a")
        assert not ots.verify(vk, b"m", b"garbage")
        assert not ots.verify(b"garbage", b"m", b"garbage")

    def test_hostile_encodings_are_false_not_errors(self, ots):
        vk, sk = ots.keygen_from_seed(b"seed-one")
        signature = ots.sign(sk, b"m")
        for key, message, sig in (
            (vk[:-1], b"m", signature),
            (vk + b"\0", b"m", signature),
            (vk, b"m", signature[:-1]),
            (vk, b"m", signature + b"\0"),
            (None, b"m", signature),
            (vk, b"m", None),
            (7, b"m", 7),
            (vk.hex(), b"m", signature),
            (vk, b"m", signature.hex()),
            (vk, "m", signature),
            (vk, None, signature),
        ):
            assert ots.verify(key, message, sig) is False

    def test_a_flipped_byte_in_any_signature_cell(self, ots):
        vk, sk = ots.keygen_from_seed(b"seed-one")
        signature = ots.sign(sk, b"m")
        for start in range(0, len(signature), 32):
            position = start + (start // 32) % 32
            flipped = bytearray(signature)
            flipped[position] ^= 0x01
            assert not ots.verify(vk, b"m", bytes(flipped))

    def test_a_flipped_byte_in_a_key_half_the_signature_opens(self, ots):
        """Every W-OTS endpoint is checked; a Lamport signature opens one
        half per row, so a flip there is caught and a flip in the other
        half is not read at all."""
        vk, sk = ots.keygen_from_seed(b"seed-one")
        signature = ots.sign(sk, b"m")
        verdicts = []
        for start in range(0, len(vk), 32):
            flipped = bytearray(vk)
            flipped[start + 5] ^= 0x10
            verdicts.append(ots.verify(bytes(flipped), b"m", signature))
        if ots.name == "winternitz":
            assert verdicts == [False] * len(verdicts)
        else:
            assert verdicts.count(False) == ots.message_bits
            assert verdicts.count(True) == ots.message_bits

    def test_swapped_cells(self, ots):
        vk, sk = ots.keygen_from_seed(b"seed-one")
        signature = ots.sign(sk, b"m")
        swapped = signature[32:64] + signature[:32] + signature[64:]
        assert not ots.verify(vk, b"m", swapped)
        rows = vk[64:128] + vk[:64] + vk[128:]
        assert not ots.verify(rows, b"m", signature)

    def test_winternitz_smaller(self):
        lamport = LamportOts(message_bits=128)
        wots = WinternitzOts(message_bits=128, w=4)
        assert wots.signature_bytes() * 3 < lamport.signature_bytes()


class TestOwfSrdsOverOts:
    def _full_flow(self, scheme, n=128):
        rng = Randomness(55)
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"ots-flow"
        signatures = [
            s for s in (
                scheme.sign(pp, i, sks[i], message) for i in range(n)
            )
            if s is not None
        ]
        aggregate = scheme.aggregate(pp, vks, message, signatures)
        return scheme, pp, vks, message, aggregate

    def test_winternitz_instantiation_verifies(self):
        scheme = OwfSRDS(ots=WinternitzOts(message_bits=32, w=4))
        scheme, pp, vks, message, aggregate = self._full_flow(scheme)
        assert scheme.verify(pp, vks, message, aggregate)
        assert not scheme.verify(pp, vks, b"other", aggregate)

    def test_winternitz_aggregate_smaller_than_lamport(self):
        lamport_scheme = OwfSRDS(ots=LamportOts(message_bits=128))
        wots_scheme = OwfSRDS(ots=WinternitzOts(message_bits=128, w=4))
        _, _, _, _, lamport_aggregate = self._full_flow(lamport_scheme)
        _, _, _, _, wots_aggregate = self._full_flow(wots_scheme)
        assert (
            wots_aggregate.size_bytes() * 3 < lamport_aggregate.size_bytes()
        )

    def test_conflicting_config_rejected(self):
        with pytest.raises(ConfigurationError):
            OwfSRDS(message_bits=64, ots=LamportOts(message_bits=64))

    def test_ots_name_in_pp(self):
        scheme = OwfSRDS(ots=WinternitzOts(message_bits=32, w=4))
        pp = scheme.setup(64, Randomness(1))
        assert pp.extra["ots_name"] == "winternitz"
