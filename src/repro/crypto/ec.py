"""The secp256k1 elliptic-curve group, implemented from scratch.

The coin-tossing substrate uses Feldman VSS, whose share commitments live
in a prime-order group with hard discrete log; Schnorr signatures (base
signatures for the SNARK-based SRDS) use the same group.

The public face is affine: :class:`Point` is a frozen ``(x, y)`` pair
(``None`` for the identity) with a 33-byte compressed encoding.  Inside
the module every computation runs in Jacobian coordinates — integer
triples ``(X, Y, Z)`` standing for ``(X / Z^2, Y / Z^3)``, ``Z == 0``
the identity — so a group operation is a dozen modular multiplications
and no inversion.  One inversion (:func:`_inverse`) is paid when a result
crosses back to :class:`Point`.

There is one group-law routine, :func:`multi_scalar_mult`: Strauss
interleaving of width-5 wNAF terms over shared doublings that start at
the longest scalar's top bit, with every ``GENERATOR`` term served from a
fixed-base table (64 windows of 15 affine multiples, built on first use)
at zero doublings.  :func:`scalar_mult`, :func:`commit` and
:func:`point_add` are its one- and two-term cases.  Measured on the
2-CPU bench host (EXPERIMENTS.md P2): 0.4 ms per fixed-base and 1.4 ms
per variable-base multiplication, 2.3 ms per Schnorr verification; the
affine double-and-add this replaced (8 ms per multiplication, one
inversion per addition) survives as the test oracle
``tests/crypto/ref_ec.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CryptoError
from repro.utils.serialization import int_to_fixed_bytes

# secp256k1 parameters: y^2 = x^3 + 7 over GF(P), group order N.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``x is None`` encodes the identity."""

    x: Optional[int]
    y: Optional[int]

    def is_identity(self) -> bool:
        """Whether this is the group identity (point at infinity)."""
        return self.x is None

    def __add__(self, other: "Point") -> "Point":
        return point_add(self, other)

    def __mul__(self, scalar: int) -> "Point":
        return scalar_mult(scalar, self)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        if self.is_identity():
            return self
        return Point(self.x, (-self.y) % P)

    def encode(self) -> bytes:
        """Compressed SEC1-style encoding (33 bytes; identity is 1 byte)."""
        if self.is_identity():
            return b"\x00"
        prefix = b"\x03" if self.y % 2 else b"\x02"
        return prefix + int_to_fixed_bytes(self.x, 32)


IDENTITY = Point(None, None)
GENERATOR = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Check the curve equation on canonical coordinates.

    The identity counts as on-curve; a coordinate outside ``[0, P)`` does
    not, so two on-curve points are equal iff they are the same element.
    """
    if point.is_identity():
        return True
    if not (0 <= point.x < P and 0 <= point.y < P):
        return False
    return (point.y * point.y - point.x * point.x * point.x - A * point.x - B) % P == 0


# -- Jacobian internals ------------------------------------------------------

_Jacobian = Tuple[int, int, int]
_INFINITY: _Jacobian = (1, 1, 0)

# wNAF width for variable-base terms: digits are odd and below 2^(w-1)
# in magnitude, so a 256-bit scalar costs ~43 additions from a table of
# at most 8 odd multiples.
_WNAF_WIDTH = 5
# Fixed-base windows over G: 64 windows x 15 nonzero 4-bit digits.
_FIXED_WINDOW_BITS = 4
_FIXED_WINDOWS = 256 // _FIXED_WINDOW_BITS


def _inverse(value: int) -> int:
    """The module's only modular inversion (mod P)."""
    return pow(value, -1, P)


def _to_affine(point: _Jacobian) -> Point:
    x, y, z = point
    if z == 0:
        return IDENTITY
    z_inv = _inverse(z)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _double(point: _Jacobian) -> _Jacobian:
    # dbl-2009-l for a = 0 (2M + 5S).  Z == 0 stays 0; secp256k1 has no
    # point with Y == 0, so no other special case exists.
    x, y, z = point
    a = x * x % P
    b = y * y % P
    c = b * b % P
    t = x + b
    d = 2 * (t * t - a - c) % P
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    return x3, (e * (d - x3) - 8 * c) % P, 2 * y * z % P


def _add_affine(point: _Jacobian, x2: int, y2: int) -> _Jacobian:
    """Mixed addition ``point + (x2, y2)`` (8M + 3S)."""
    x1, y1, z1 = point
    if z1 == 0:
        return x2, y2, 1
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1 * z1z1 - y1) % P
    if h == 0:
        return _double(point) if r == 0 else _INFINITY
    h2 = h * h % P
    h3 = h * h2 % P
    v = x1 * h2 % P
    x3 = (r * r - h3 - 2 * v) % P
    return x3, (r * (v - x3) - y1 * h3) % P, z1 * h % P


def _add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    """Full Jacobian addition (12M + 4S)."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == 0:
        return q
    if z2 == 0:
        return p
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    s1 = y1 * z2 * z2z2 % P
    h = (x2 * z1z1 - u1) % P
    r = (y2 * z1 * z1z1 - s1) % P
    if h == 0:
        return _double(p) if r == 0 else _INFINITY
    h2 = h * h % P
    h3 = h * h2 % P
    v = u1 * h2 % P
    x3 = (r * r - h3 - 2 * v) % P
    return x3, (r * (v - x3) - s1 * h3) % P, z1 * z2 * h % P


def _wnaf(scalar: int) -> List[Tuple[int, int]]:
    """Nonzero width-w NAF digits of ``scalar > 0`` as ``(bit, digit)``."""
    digits: List[Tuple[int, int]] = []
    full = 1 << _WNAF_WIDTH
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (full - 1)
        if digit >= full >> 1:
            digit -= full
        digits.append((position, digit))
        scalar -= digit
    return digits


def _odd_multiples(point: Point, largest: int) -> List[_Jacobian]:
    """``[1, 3, 5, ..., largest] * point`` in Jacobian form."""
    first = (point.x, point.y, 1)
    table = [first]
    if largest > 1:
        twice = _double(first)
        for _ in range(largest >> 1):
            table.append(_add(table[-1], twice))
    return table


@functools.lru_cache(maxsize=None)
def _generator_table() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """``table[i][d - 1] == d * 16^i * G`` as affine ``(x, y)`` pairs.

    Built once, on the first fixed-base multiplication, with a single
    inversion (Montgomery's trick over all 960 Z coordinates).
    """
    per_window = (1 << _FIXED_WINDOW_BITS) - 1
    multiples: List[_Jacobian] = []
    base: _Jacobian = (GX, GY, 1)
    for _ in range(_FIXED_WINDOWS):
        multiple = base
        for _ in range(per_window):
            multiples.append(multiple)
            multiple = _add(multiple, base)
        base = multiple  # 16 * base: the next window's unit
    prefix = [1]
    for _, _, z in multiples:
        prefix.append(prefix[-1] * z % P)
    running = _inverse(prefix[-1])
    affine: List[Tuple[int, int]] = [(0, 0)] * len(multiples)
    for index in range(len(multiples) - 1, -1, -1):
        x, y, z = multiples[index]
        z_inv = running * prefix[index] % P
        running = running * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return tuple(
        tuple(affine[start:start + per_window])
        for start in range(0, len(affine), per_window)
    )


# -- the public group law ----------------------------------------------------


def multi_scalar_mult(pairs: Sequence[Tuple[int, Point]]) -> Point:
    """``sum(scalar * point)`` over ``pairs``; scalars reduced mod N.

    The one group-law routine: every other operation is a case of it.
    """
    fixed = 0
    schedule: Dict[int, List[_Jacobian]] = {}
    for scalar, point in pairs:
        scalar %= N
        if scalar == 0 or point.is_identity():
            continue
        if point == GENERATOR:
            fixed += scalar
            continue
        digits = _wnaf(scalar)
        table = _odd_multiples(point, max(abs(digit) for _, digit in digits))
        for position, digit in digits:
            x, y, z = table[abs(digit) >> 1]
            schedule.setdefault(position, []).append(
                (x, y, z) if digit > 0 else (x, P - y, z)
            )
    accumulator = _INFINITY
    for position in range(max(schedule, default=-1), -1, -1):
        accumulator = _double(accumulator)
        for addend in schedule.get(position, ()):
            accumulator = _add(accumulator, addend)
    fixed %= N
    if fixed:
        mask = (1 << _FIXED_WINDOW_BITS) - 1
        for row in _generator_table():
            digit = fixed & mask
            if digit:
                accumulator = _add_affine(accumulator, *row[digit - 1])
            fixed >>= _FIXED_WINDOW_BITS
    return _to_affine(accumulator)


def point_add(p: Point, q: Point) -> Point:
    """Group addition."""
    return multi_scalar_mult(((1, p), (1, q)))


def scalar_mult(scalar: int, point: Point) -> Point:
    """Scalar multiplication; scalar reduced mod N."""
    return multi_scalar_mult(((scalar, point),))


def commit(scalar: int) -> Point:
    """The Pedersen-free commitment ``scalar * G`` used by Feldman VSS."""
    return multi_scalar_mult(((scalar, GENERATOR),))


def decode_point(data: bytes) -> Point:
    """Inverse of :meth:`Point.encode` (compressed form)."""
    if data == b"\x00":
        return IDENTITY
    if len(data) != 33 or data[0] not in (2, 3):
        raise CryptoError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise CryptoError("point x-coordinate out of range")
    y_squared = (x * x * x + A * x + B) % P
    # P % 4 == 3 so a square root is a straightforward power.
    y = pow(y_squared, (P + 1) // 4, P)
    if y * y % P != y_squared:
        raise CryptoError("x-coordinate is not on the curve")
    if (y % 2 == 1) != (data[0] == 3):
        y = P - y
    point = Point(x, y)
    if not is_on_curve(point):
        raise CryptoError("decoded point fails curve equation")
    return point
