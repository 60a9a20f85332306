"""Tests for the VSS-based committee coin toss (realizing f_ct)."""

import pytest

from repro.crypto import vss
from repro.errors import ConfigurationError
from repro.protocols.coin_toss import ideal_f_ct, run_coin_toss
from repro.utils.randomness import Randomness


class TestAgreement:
    def test_all_honest_agree(self, rng):
        outputs, _ = run_coin_toss(range(7), rng)
        assert len(set(outputs.values())) == 1

    def test_agreement_with_silent_byzantine(self, rng):
        outputs, _ = run_coin_toss(range(7), rng, byzantine=[2, 5])
        assert len(set(outputs.values())) == 1

    def test_output_width(self, rng):
        outputs, _ = run_coin_toss(range(4), rng)
        coin = next(iter(outputs.values()))
        assert isinstance(coin, bytes) and len(coin) == 32

    def test_different_seeds_different_coins(self):
        a, _ = run_coin_toss(range(4), Randomness(1))
        b, _ = run_coin_toss(range(4), Randomness(2))
        assert next(iter(a.values())) != next(iter(b.values()))

    def test_deterministic_given_seed(self):
        a, _ = run_coin_toss(range(4), Randomness(3))
        b, _ = run_coin_toss(range(4), Randomness(3))
        assert a == b


class TestPinnedRuns:
    """Coins, bits and share checks at ``Randomness(2021)``, recorded
    with the affine group law and two share checks the protocol no longer
    repeats (160 / 784 / 2200 ``verify_share`` calls then)."""

    @pytest.mark.parametrize(
        "members, coin, max_bits, share_checks",
        [
            (4, "2fdf8dccba9d322be273f0052ccf8455"
                "ccf3e0d14f0d30e3d5c25e836200d876", 26_880, 112),
            (7, "a396a0583f46fa667721b4f32edc4824"
                "d420c99be63720f45c97c493fcd3da17", 74_368, 539),
            (10, "eaa05b50574edad829a2d91177c0044f"
                 "7b80a66285a43ee079e03dc80affc839", 145_280, 1500),
        ],
    )
    def test_coin_bits_and_share_checks(
        self, monkeypatch, members, coin, max_bits, share_checks
    ):
        checks = []
        real = vss.verify_share
        monkeypatch.setattr(
            vss, "verify_share",
            lambda share, commitment: (
                checks.append(share) or real(share, commitment)
            ),
        )
        outputs, metrics = run_coin_toss(range(members), Randomness(2021))
        assert {value.hex() for value in outputs.values()} == {coin}
        assert metrics.max_bits_per_party == max_bits
        # Per party: m own shares once, m*m reveals, (f+1) per dealer to
        # reconstruct.
        assert len(checks) == share_checks


class TestRobustness:
    def test_byzantine_dealer_does_not_block(self, rng):
        # Silent byzantine members contribute nothing but cannot stop the
        # honest dealers' secrets from reconstructing.
        outputs, _ = run_coin_toss(range(10), rng, byzantine=[0, 3, 9])
        assert all(coin is not None for coin in outputs.values())

    def test_too_many_byzantine_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_coin_toss(range(6), rng, byzantine=[0, 1, 2])


class TestCosts:
    def test_rounds_constant(self, rng):
        _, metrics = run_coin_toss(range(7), rng)
        assert metrics.rounds_completed <= 6

    def test_bits_grow_with_committee(self, rng):
        _, small = run_coin_toss(range(4), rng.fork("s"))
        _, large = run_coin_toss(range(8), rng.fork("l"))
        assert large.max_bits_per_party > small.max_bits_per_party


def test_ideal_f_ct(rng):
    coin = ideal_f_ct(rng)
    assert isinstance(coin, bytes) and len(coin) == 32
