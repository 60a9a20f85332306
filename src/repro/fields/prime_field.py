"""Prime-field arithmetic GF(p).

The coin-tossing substrate (Chor et al. VSS, §3.1 of the paper) needs
Shamir secret sharing over a field whose size matches the security
parameter, and the Feldman commitments need the field to be the scalar
field of the secp256k1 group.  Elements are immutable value objects so
they can key dictionaries and be compared in tests.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.errors import ConfigurationError

# The scalar-field order of secp256k1; Feldman VSS commits shares in the
# group, so the default Shamir field must match the group order.
SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141

IntoElement = Union[int, "FieldElement"]


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the bases that cover 64-bit inputs,
    plus a probabilistic tail for larger moduli."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(p) for a prime modulus p."""

    def __init__(self, modulus: int, check_prime: bool = True) -> None:
        if modulus < 2:
            raise ConfigurationError(f"field modulus must be >= 2, got {modulus}")
        if check_prime and not _is_probable_prime(modulus):
            raise ConfigurationError(f"field modulus {modulus} is not prime")
        self.modulus = modulus

    # -- construction -------------------------------------------------------

    def element(self, value: IntoElement) -> "FieldElement":
        """Coerce an int (or element of this field) into a field element."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field.modulus != self.modulus:
                raise ConfigurationError("element belongs to a different field")
            return value
        return FieldElement(self, value % self.modulus)

    def zero(self) -> "FieldElement":
        """The additive identity."""
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        """The multiplicative identity."""
        return FieldElement(self, 1)

    def random_element(self, rng) -> "FieldElement":
        """A uniform element, drawn from a :class:`Randomness` source."""
        return FieldElement(self, rng.random_int(self.modulus))

    def elements_range(self, count: int) -> Iterator["FieldElement"]:
        """The elements 1..count (Shamir evaluation points)."""
        if count >= self.modulus:
            raise ConfigurationError("not enough distinct field points")
        return (FieldElement(self, i) for i in range(1, count + 1))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField(modulus=0x{self.modulus:x})"


class FieldElement:
    """An immutable element of a :class:`PrimeField`."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % field.modulus)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: IntoElement) -> "FieldElement":
        return self.field.element(other)

    def __add__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        return FieldElement(self.field, self.value + rhs.value)

    __radd__ = __add__

    def __sub__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        return FieldElement(self.field, self.value - rhs.value)

    def __rsub__(self, other: IntoElement) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        return FieldElement(self.field, self.value * rhs.value)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.value)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises on zero."""
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(self.field, pow(self.value, -1, self.field.modulus))

    def __truediv__(self, other: IntoElement) -> "FieldElement":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: IntoElement) -> "FieldElement":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(self.field, pow(self.value, exponent, self.field.modulus))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod 0x{self.field.modulus:x})"


def default_field() -> PrimeField:
    """The secp256k1 scalar field, shared by Shamir/VSS and Feldman."""
    return PrimeField(SECP256K1_ORDER, check_prime=False)
