"""Feldman verifiable secret sharing over secp256k1.

The paper's coin-toss functionality f_ct is realized (Chor et al. style)
by having each committee member VSS a random value and XOR the
reconstructed values.  Feldman VSS augments Shamir with public
commitments ``C_j = a_j * G`` to the dealing polynomial's coefficients;
share ``(i, y_i)`` is publicly checkable against
``y_i * G == sum_j i^j * C_j``, so a corrupt dealer cannot hand out
inconsistent shares undetected.

Feldman commitments leak ``secret * G``; for coin tossing this is fine
(the secret is a one-shot random value revealed moments later), which is
why we do not pay for Pedersen's extra blinding here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto import ec
from repro.crypto.shamir import Share, deal_with_polynomial, reconstruct
from repro.errors import SecretSharingError
from repro.fields.prime_field import FieldElement, PrimeField, default_field


@dataclass(frozen=True)
class VSSCommitment:
    """Public commitments to a dealing polynomial's coefficients."""

    coefficient_points: Tuple[ec.Point, ...]

    @property
    def threshold(self) -> int:
        """The privacy threshold of the dealt sharing."""
        return len(self.coefficient_points) - 1

    def size_bytes(self) -> int:
        """Wire size (33 bytes per compressed point)."""
        return sum(len(p.encode()) for p in self.coefficient_points)


@dataclass(frozen=True)
class VSSDealing:
    """Everything a Feldman dealer produces: shares + public commitment."""

    shares: Tuple[Share, ...]
    commitment: VSSCommitment


def deal_verifiable(
    secret: int,
    num_shares: int,
    threshold: int,
    rng,
    field: PrimeField = None,
) -> VSSDealing:
    """Deal a verifiable sharing of ``secret``."""
    field = field or default_field()
    shares, polynomial = deal_with_polynomial(
        field, secret, num_shares, threshold, rng
    )
    commitment = VSSCommitment(
        coefficient_points=tuple(
            ec.commit(coefficient.value)
            for coefficient in polynomial.coefficients
        )
    )
    return VSSDealing(shares=tuple(shares), commitment=commitment)


def verify_share(share: Share, commitment: VSSCommitment) -> bool:
    """Check one share against the dealer's public commitment.

    ``sum_j x^j * C_j - y * G`` is one multi-scalar multiplication whose
    doublings stop at the longest ``x^j`` (a few bits for committee-sized
    ``x``), not at 256.
    """
    terms: List[Tuple[int, ec.Point]] = [(-share.y.value, ec.GENERATOR)]
    x_power = 1
    x = share.x.value
    modulus = share.x.field.modulus
    for point in commitment.coefficient_points:
        terms.append((x_power, point))
        x_power = x_power * x % modulus
    return ec.multi_scalar_mult(terms).is_identity()


def reconstruct_verified(
    shares: Sequence[Share],
    commitment: VSSCommitment,
    field: PrimeField = None,
) -> FieldElement:
    """Reconstruct from the first ``threshold + 1`` shares consistent
    with the commitment (later shares are not looked at).

    Raises :class:`SecretSharingError` if fewer than ``threshold + 1``
    shares survive verification — in the honest-majority settings where
    this is used, that indicates a modeling bug rather than an adversary
    capability, so it is loud.
    """
    field = field or default_field()
    needed = commitment.threshold + 1
    valid: List[Share] = []
    for share in shares:
        if verify_share(share, commitment):
            valid.append(share)
            if len(valid) == needed:
                return reconstruct(field, valid)
    raise SecretSharingError(
        "not enough commitment-consistent shares to reconstruct"
    )


def commitment_to_secret_point(commitment: VSSCommitment) -> ec.Point:
    """The public point ``secret * G`` (Feldman's leak, used in tests)."""
    return commitment.coefficient_points[0]
