"""Tests for Feldman verifiable secret sharing."""

import pytest

from repro.crypto import ec, vss
from repro.crypto.shamir import Share
from repro.errors import SecretSharingError
from repro.fields.prime_field import default_field


@pytest.fixture
def dealing(rng):
    return vss.deal_verifiable(424242, 6, 2, rng)


class TestDealing:
    def test_all_shares_verify(self, dealing):
        assert all(
            vss.verify_share(share, dealing.commitment)
            for share in dealing.shares
        )

    def test_commitment_size(self, dealing):
        assert len(dealing.commitment.coefficient_points) == 3  # threshold+1
        assert dealing.commitment.threshold == 2

    def test_secret_point_leak(self, dealing):
        assert vss.commitment_to_secret_point(dealing.commitment) == ec.commit(
            424242
        )

    def test_commitment_wire_size(self, dealing):
        assert dealing.commitment.size_bytes() == 3 * 33


class TestVerification:
    def test_tampered_share_rejected(self, dealing):
        field = default_field()
        share = dealing.shares[0]
        tampered = Share(x=share.x, y=share.y + field.one())
        assert not vss.verify_share(tampered, dealing.commitment)

    def test_foreign_share_rejected(self, dealing, rng):
        other = vss.deal_verifiable(1, 6, 2, rng.fork("other"))
        assert not vss.verify_share(other.shares[0], dealing.commitment)

    def test_swapped_x_rejected(self, dealing):
        a, b = dealing.shares[0], dealing.shares[1]
        swapped = Share(x=a.x, y=b.y)
        assert not vss.verify_share(swapped, dealing.commitment)


class TestReconstruction:
    def test_reconstruct_verified(self, dealing):
        secret = vss.reconstruct_verified(
            dealing.shares[:3], dealing.commitment
        )
        assert secret.value == 424242

    def test_reconstruct_filters_bad_shares(self, dealing):
        field = default_field()
        bad = Share(x=dealing.shares[0].x, y=field.element(1))
        mixed = [bad] + list(dealing.shares[1:4])
        secret = vss.reconstruct_verified(mixed, dealing.commitment)
        assert secret.value == 424242

    def test_stops_at_first_threshold_plus_one_consistent(
        self, dealing, monkeypatch
    ):
        field = default_field()
        bad = Share(x=dealing.shares[0].x, y=field.element(1))
        checked = []
        real = vss.verify_share
        monkeypatch.setattr(
            vss, "verify_share",
            lambda share, commitment: (
                checked.append(share) or real(share, commitment)
            ),
        )
        secret = vss.reconstruct_verified(
            [bad] + list(dealing.shares), dealing.commitment
        )
        assert secret.value == 424242
        assert checked == [bad] + list(dealing.shares[:3])

    def test_insufficient_valid_shares_rejected(self, dealing):
        field = default_field()
        bad = [
            Share(x=share.x, y=field.element(i))
            for i, share in enumerate(dealing.shares[:2])
        ]
        with pytest.raises(SecretSharingError):
            vss.reconstruct_verified(
                bad + [dealing.shares[2]], dealing.commitment
            )
