"""Tests for canonical serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SerializationError
from repro.utils import serialization as ser


class TestVarint:
    def test_zero(self):
        assert ser.encode_uint(0) == b"\x00"
        assert ser.decode_uint(b"\x00") == (0, 1)

    def test_small_values_single_byte(self):
        for value in range(128):
            assert len(ser.encode_uint(value)) == 1

    def test_larger_values_multi_byte(self):
        assert len(ser.encode_uint(128)) == 2
        assert len(ser.encode_uint(1 << 20)) == 3

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            ser.encode_uint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(SerializationError):
            ser.decode_uint(b"\x80")

    def test_empty_rejected(self):
        with pytest.raises(SerializationError):
            ser.decode_uint(b"")

    @given(st.integers(min_value=0, max_value=1 << 64))
    def test_roundtrip(self, value):
        encoded = ser.encode_uint(value)
        decoded, offset = ser.decode_uint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    @given(st.integers(min_value=0, max_value=1 << 32),
           st.integers(min_value=0, max_value=1 << 32))
    def test_concatenated_decode(self, a, b):
        blob = ser.encode_uint(a) + ser.encode_uint(b)
        first, pos = ser.decode_uint(blob)
        second, end = ser.decode_uint(blob, pos)
        assert (first, second) == (a, b)
        assert end == len(blob)


class TestBytes:
    @given(st.binary(max_size=500))
    def test_roundtrip(self, blob):
        encoded = ser.encode_bytes(blob)
        decoded, offset = ser.decode_bytes(encoded)
        assert decoded == blob
        assert offset == len(encoded)

    def test_truncated_rejected(self):
        encoded = ser.encode_bytes(b"hello")
        with pytest.raises(SerializationError):
            ser.decode_bytes(encoded[:-1])

    def test_empty_bytes(self):
        assert ser.decode_bytes(ser.encode_bytes(b"")) == (b"", 1)


class TestSequence:
    # Item lengths straddle the one-byte length table (127 | 128).
    @given(st.lists(st.binary(max_size=300), max_size=20))
    def test_roundtrip(self, items):
        encoded = ser.encode_sequence(items)
        assert encoded == ser.encode_uint(len(items)) + b"".join(
            ser.encode_bytes(item) for item in items
        )
        decoded, offset = ser.decode_sequence(encoded)
        assert decoded == items
        assert offset == len(encoded)

    @given(st.text(max_size=20), st.lists(st.binary(max_size=300), max_size=6))
    def test_tagged_tuple_is_the_canonical_tuple_behind_its_domain(
        self, domain, fields
    ):
        assert ser.tagged_tuple(domain, fields) == ser.canonical_tuple(
            ser.encode_str(domain), *fields
        )
        assert ser.canonical_tuple(*fields) == ser.encode_sequence(fields)

    def test_empty_sequence(self):
        assert ser.decode_sequence(ser.encode_sequence([])) == ([], 1)

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=8),
           st.lists(st.binary(max_size=32), min_size=1, max_size=8))
    def test_injective(self, a, b):
        if a != b:
            assert ser.encode_sequence(a) != ser.encode_sequence(b)


class TestStrings:
    @given(st.text(max_size=100))
    def test_roundtrip(self, text):
        decoded, _ = ser.decode_str(ser.encode_str(text))
        assert decoded == text

    def test_invalid_utf8_rejected(self):
        blob = ser.encode_bytes(b"\xff\xfe")
        with pytest.raises(SerializationError):
            ser.decode_str(blob)


class TestFixedWidth:
    @given(st.integers(min_value=0, max_value=(1 << 256) - 1))
    def test_roundtrip_32_bytes(self, value):
        encoded = ser.int_to_fixed_bytes(value, 32)
        assert len(encoded) == 32
        assert ser.fixed_bytes_to_int(encoded) == value

    def test_overflow_rejected(self):
        with pytest.raises(SerializationError):
            ser.int_to_fixed_bytes(256, 1)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            ser.int_to_fixed_bytes(-5, 4)


class TestCanonicalTuple:
    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=5),
           st.lists(st.binary(max_size=32), min_size=1, max_size=5))
    def test_injective_across_field_boundaries(self, a, b):
        if a != b:
            assert ser.canonical_tuple(*a) != ser.canonical_tuple(*b)

    def test_boundary_shift_distinct(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert ser.canonical_tuple(b"ab", b"c") != ser.canonical_tuple(b"a", b"bc")


def test_bit_length():
    assert ser.bit_length(b"") == 0
    assert ser.bit_length(b"abc") == 24
