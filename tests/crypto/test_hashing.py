"""Tests for the CRH substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import hashing


class TestHashDomain:
    def test_deterministic(self):
        assert hashing.hash_domain("d", b"x") == hashing.hash_domain("d", b"x")

    def test_domain_separation(self):
        assert hashing.hash_domain("a", b"x") != hashing.hash_domain("b", b"x")

    def test_digest_width(self):
        assert len(hashing.hash_domain("d", b"x")) == hashing.DIGEST_BYTES

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=4),
           st.lists(st.binary(max_size=32), min_size=1, max_size=4))
    def test_tuple_injective(self, a, b):
        if a != b:
            assert hashing.hash_domain("d", *a) != hashing.hash_domain("d", *b)

    def test_field_boundary_shift_distinct(self):
        assert hashing.hash_domain("d", b"ab", b"c") != hashing.hash_domain(
            "d", b"a", b"bc"
        )


class TestHashToInt:
    def test_range(self):
        value = hashing.hash_to_int("d", b"x")
        assert 0 <= value < 1 << 256

    def test_matches_bytes(self):
        assert hashing.hash_to_int("d", b"x") == int.from_bytes(
            hashing.hash_domain("d", b"x"), "big"
        )


class TestHashChain:
    def test_empty_chain_defined(self):
        assert len(hashing.hash_chain("d", [])) == 32

    def test_order_sensitive(self):
        assert hashing.hash_chain("d", [b"a", b"b"]) != hashing.hash_chain(
            "d", [b"b", b"a"]
        )

    def test_extension_changes_digest(self):
        short = hashing.hash_chain("d", [b"a"])
        long = hashing.hash_chain("d", [b"a", b"b"])
        assert short != long

    def test_incremental_equals_batch(self):
        batch = hashing.hash_chain("d", [b"a", b"b", b"c"])
        running = hashing.hash_domain("d", b"chain-init")
        for item in (b"a", b"b", b"c"):
            running = hashing.hash_domain("d", running, item)
        assert running == batch


class TestTruncatedHash:
    def test_full_width_passthrough(self):
        assert hashing.truncated_hash("d", 32, b"x") == hashing.hash_domain("d", b"x")

    def test_truncation(self):
        assert len(hashing.truncated_hash("d", 16, b"x")) == 16

    def test_below_128_bits_refused(self):
        with pytest.raises(ValueError):
            hashing.truncated_hash("d", 8, b"x")


#: Fields on both sides of the one-byte length table (127 | 128) and far
#: beyond it.
_F127 = bytes(range(127))
_F128 = bytes(range(128))
_BIG = bytes(i % 251 for i in range(20000))


class TestKnownAnswers:
    """Digests computed at 59d0be6, before the tagged-tuple encoder: the
    preimage encoding (and so every signature, Merkle root and trace
    fingerprint built on it) must not move by a byte."""

    @pytest.mark.parametrize("fields, digest", [
        ((), "75f8f6777213b940c16e91c0429ccb0e2d9618d93c461f9811a71922eabc21a1"),
        ((b"x",),
         "8af4c571529592e3e90b956ed865d4ae50442a6869501dacc08065c5ed2430ae"),
        ((b"", b"ab", b"\x00" * 32),
         "7a0ac1c7433052a31d13630fac0df7499f0894514a27bb9d0bf72c5b05674eee"),
        ((b"", _F127, _F128, _BIG),
         "a3ae6a82cee3a27c628c9d84acc2ec8496fda86911d0d8039cb8643f749b7608"),
    ])
    def test_hash_domain(self, fields, digest):
        assert hashing.hash_domain("repro/test", *fields).hex() == digest
        assert hashing.hash_to_int("repro/test", *fields) == int(digest, 16)

    def test_non_ascii_domain(self):
        assert hashing.hash_domain("δομή/§3.1", b"x", _F128).hex() == (
            "3041f9af0ac4331ea43ba3db53f463554c4defc899b014eb34cfc76c2eaf3098"
        )

    def test_hash_chain(self):
        assert hashing.hash_chain("repro/chain", []).hex() == (
            "34713cf90614c01c4ff9c1cee9d0a30a34a626b5b92ec5a86521c56957bb9c89"
        )
        assert hashing.hash_chain(
            "repro/chain", [b"a" * 32, b"b" * 32, b""]
        ).hex() == (
            "7a4fe193874556bf6e7b9523cd625bb9eb30b329610755042b1cf900059d72a0"
        )

    def test_truncated_hash(self):
        assert hashing.truncated_hash("repro/test", 16, b"x").hex() == (
            "8af4c571529592e3e90b956ed865d4ae"
        )
        assert hashing.truncated_hash(
            "repro/test", 32, b"", _F127, _F128, _BIG
        ).hex() == (
            "a3ae6a82cee3a27c628c9d84acc2ec8496fda86911d0d8039cb8643f749b7608"
        )
