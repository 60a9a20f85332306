"""Tests for the PRF and the committee-selection SubsetPRF."""

import pytest

from repro.crypto.prf import SubsetPRF, prf, prf_int


class TestPrf:
    def test_deterministic(self):
        assert prf(b"k", "d", b"x") == prf(b"k", "d", b"x")

    def test_key_separation(self):
        assert prf(b"k1", "d", b"x") != prf(b"k2", "d", b"x")

    def test_domain_separation(self):
        assert prf(b"k", "d1", b"x") != prf(b"k", "d2", b"x")

    def test_output_width(self):
        assert len(prf(b"k", "d")) == 32


class TestPrfInt:
    def test_range(self):
        for upper in (1, 2, 7, 1000):
            value = prf_int(b"k", "d", upper, b"x")
            assert 0 <= value < upper

    def test_deterministic(self):
        assert prf_int(b"k", "d", 100, b"x") == prf_int(b"k", "d", 100, b"x")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            prf_int(b"k", "d", 0)

    def test_range_wider_than_the_prf_output_is_rejected(self):
        # No 256-bit sample is ever below a zero rejection bound: before
        # the check this call never returned.
        with pytest.raises(ValueError):
            prf_int(b"k", "d", (1 << 256) + 1)
        assert 0 <= prf_int(b"k", "d", 1 << 256) < 1 << 256

    def test_spread(self):
        from repro.utils.serialization import encode_uint

        values = {prf_int(b"k", "d", 50, encode_uint(i)) for i in range(300)}
        assert len(values) >= 40  # nearly all residues hit


class TestSubsetPRF:
    def test_subset_size_and_range(self):
        prf_family = SubsetPRF(b"seed", 100, 7)
        subset = prf_family.subset(3)
        assert len(subset) == 7
        assert len(set(subset)) == 7
        assert all(0 <= member < 100 for member in subset)

    def test_sorted_output(self):
        subset = SubsetPRF(b"seed", 100, 7).subset(3)
        assert subset == sorted(subset)

    def test_deterministic_across_instances(self):
        a = SubsetPRF(b"seed", 100, 7).subset(3)
        b = SubsetPRF(b"seed", 100, 7).subset(3)
        assert a == b

    def test_different_parties_differ(self):
        prf_family = SubsetPRF(b"seed", 1000, 10)
        assert prf_family.subset(1) != prf_family.subset(2)

    def test_different_seeds_differ(self):
        assert SubsetPRF(b"s1", 1000, 10).subset(1) != SubsetPRF(
            b"s2", 1000, 10
        ).subset(1)

    def test_contains_matches_subset(self):
        prf_family = SubsetPRF(b"seed", 50, 5)
        subset = prf_family.subset(9)
        for member in range(50):
            assert prf_family.contains(9, member) == (member in subset)

    def test_full_subset(self):
        subset = SubsetPRF(b"seed", 5, 5).subset(0)
        assert subset == [0, 1, 2, 3, 4]

    def test_memo_is_keyed_on_the_seed(self):
        first = SubsetPRF(b"memo seed 1", 1000, 10)
        second = SubsetPRF(b"memo seed 2", 1000, 10)
        assert first.subset(5) != second.subset(5)
        assert first.subset(5) == SubsetPRF(b"memo seed 1", 1000, 10).subset(5)

    def test_mutating_a_returned_subset_does_not_poison_the_next_call(self):
        prf_family = SubsetPRF(b"seed", 100, 7)
        returned = prf_family.subset(3)
        expected = list(returned)
        returned.clear()
        assert prf_family.subset(3) == expected
        assert all(prf_family.contains(3, member) for member in expected)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SubsetPRF(b"s", 0, 1)
        with pytest.raises(ValueError):
            SubsetPRF(b"s", 10, 11)
        with pytest.raises(ValueError):
            SubsetPRF(b"s", 10, 0)


_F127 = bytes(range(127))
_F128 = bytes(range(128))
_BIG = bytes(i % 251 for i in range(20000))


class TestKnownAnswers:
    """MACs, reductions and subsets computed at 59d0be6 (``hmac.new`` over
    ``canonical_tuple(encode_str(domain), *fields)``): step 7's recipient
    sets, and so every boost-round tally, hang on these bytes."""

    @pytest.mark.parametrize("fields, mac", [
        ((), "f5d5ec691e53df9901912dfbd17a3d05363a21eb6ddee0abe0bfc243fc5ca2d4"),
        ((b"x",),
         "c10a4a52faa0f965105cb6226eab1fa5bf99df499dc16045d6ff6c1404905f7a"),
        ((b"", b"ab", b"\x00" * 32),
         "cc007c8e4f4962cb610ccf5a4d5b4482589f52409a67c2593eaeb4c47d7b2c5b"),
        ((b"", _F127, _F128, _BIG),
         "b2bf559ada1aef3019538575f377d56dafc3e9a140c12081ab22929a75a416c4"),
    ])
    def test_prf(self, fields, mac):
        assert prf(b"key", "repro/test", *fields).hex() == mac

    def test_prf_keys_and_domains(self):
        long_key = b"\x00" * 64 + b"long key beyond one block"
        assert prf(long_key, "δομή/§3.1", b"x", _F128).hex() == (
            "3f2322cab2f70ab33dfb34f63d6b51c289848a449156999f8ecdc31b8c7b86eb"
        )
        assert prf(b"", "repro/test", b"x").hex() == (
            "07cd0e70c87b8dd0afd5db4da57e56e568e7ed38fcf28a302f483895606c206c"
        )

    def test_prf_int(self):
        uppers = (1, 2, 7, 1000, 2**64 + 13, 2**255 + 1, 2**256)
        assert [prf_int(b"key", "repro/test", u, b"x") for u in uppers] == [
            0, 1, 6, 293, 10846530982366780762,
            29795019891625517020482561953018726506157091043500833158396242954525900842235,
            58304117872226665567730610427889306619323962458571093119797182382092388383293,
        ]
        assert prf_int(b"key", "δομή/§3.1", 97, b"", _F128, _BIG) == 74

    def test_subsets(self):
        assert SubsetPRF(b"seed", 100, 7).subset(3) == [
            7, 22, 26, 40, 43, 52, 76
        ]
        assert SubsetPRF(b"seed", 100, 7).subset(4) == [
            0, 4, 12, 45, 49, 59, 91
        ]
        assert SubsetPRF(b"other seed", 100, 7).subset(3) == [
            37, 39, 51, 61, 68, 79, 80
        ]
        assert SubsetPRF(b"seed", 8, 8).subset(0) == list(range(8))
        assert SubsetPRF(b"seed", 1024, 12).subset(1023) == [
            81, 173, 419, 440, 478, 518, 554, 611, 842, 881, 915, 974
        ]
