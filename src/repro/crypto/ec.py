"""The secp256k1 elliptic-curve group, implemented from scratch.

The coin-tossing substrate uses Feldman VSS, whose share commitments live
in a prime-order group with hard discrete log; Schnorr signatures (base
signatures for the SNARK-based SRDS) use the same group.

The public face is affine: :class:`Point` is a frozen ``(x, y)`` pair
(``None`` for the identity) with a 33-byte compressed encoding.  Inside
the module the accumulator runs in Jacobian coordinates — integer
triples ``(X, Y, Z)`` standing for ``(X / Z^2, Y / Z^3)``, ``Z == 0``
the identity — so a group operation is a dozen modular multiplications
and no inversion.

There is one group-law routine, :func:`multi_scalar_mult`, and
:func:`scalar_mult`, :func:`commit` and :func:`point_add` are its one-
and two-term cases.  It uses secp256k1's endomorphism
``LAMBDA * (x, y) == (BETA * x, y)`` (GLV): a scalar longer than 128 bits
is split as ``k1 + k2 * LAMBDA`` with both halves below 2^128 in
magnitude, so the doubling chain shared by every term (Strauss
interleaving of width-5 wNAF digits) is ~129 steps, not 256.  A point's
odd-multiple table serves both halves — the second through ``BETA`` —
and one inversion makes every table of a call affine, so each addition
in the chain is a mixed Jacobian + affine one.  ``GENERATOR`` terms never
double: both halves of their summed scalar walk a table of signed 7-bit
windows (19 rows of 64 affine multiples, built on first use in ~10 ms),
again reaching ``LAMBDA * G`` through ``BETA``.  A call pays at most two
inversions (:func:`_inverse`): the tables', and the result's as it
crosses back to :class:`Point`.  A variable point off the curve is
refused with :class:`CryptoError`.

Measured on the 2-CPU bench host (EXPERIMENTS.md P8): 0.23 ms per
fixed-base and 0.86 ms per variable-base multiplication, 1.1 ms per
Schnorr verification.  The affine double-and-add of the first version
(8 ms per multiplication, one inversion per addition) survives as the
test oracle ``tests/crypto/ref_ec.py``.
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


# -- the GLV endomorphism ----------------------------------------------------

# BETA is a cube root of unity mod P and LAMBDA one mod N, paired so that
# LAMBDA * (x, y) == (BETA * x, y) for every point.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A reduced basis (A1, B1), (A2, B2) of {(a, b) : a + b * LAMBDA == 0 mod N};
# its determinant A1 * B2 - A2 * B1 is N.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
# Scalars of at most this many bits are not split.
_HALF_BITS = 128


def _split(scalar: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * LAMBDA == scalar (mod N)``, ``|ki| < 2^128``.

    ``scalar`` is in ``[0, N)``; one of at most 128 bits comes back whole.
    Babai rounding against the basis leaves ``k1 = -(e1*A1 + e2*A2)`` and
    ``k2 = -(e1*B1 + e2*B2)`` with ``|ei| <= 1/2``, below 0.64 * 2^128.
    """
    if scalar.bit_length() <= _HALF_BITS:
        return scalar, 0
    c1 = (_B2 * scalar + (N >> 1)) // N
    c2 = (-_B1 * scalar + (N >> 1)) // N
    return scalar - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


# -- Jacobian internals ------------------------------------------------------

_Jacobian = Tuple[int, int, int]
_INFINITY: _Jacobian = (1, 1, 0)

# wNAF width for variable-base terms: digits are odd and below 2^(w-1)
# in magnitude, so a 128-bit half costs ~22 additions from a table of at
# most 8 odd multiples, which the point's other half shares through BETA.
_WNAF_WIDTH = 5
# The G table: signed 7-bit windows, digits in [-64, 63], over the 19
# windows that hold any GLV half.
_G_WINDOW_BITS = 7
_G_ROWS = 19


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


def _normalise(points: Sequence[_Jacobian]) -> List[Tuple[int, int]]:
    """Affine ``(x, y)`` of every point, none at infinity, for one inversion.

    Montgomery's trick: invert the product of all Z coordinates, then
    peel each ``1 / Z`` off it with two multiplications.
    """
    prefix = [1]
    for _, _, z in points:
        prefix.append(prefix[-1] * z % P)
    running = _inverse(prefix[-1])
    affine: List[Tuple[int, int]] = [(0, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = running * prefix[index] % P
        running = running * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return affine


def _wnaf(scalar: int) -> List[Tuple[int, int]]:
    """Nonzero width-w NAF digits of ``scalar != 0`` as ``(bit, digit)``.

    A negative scalar's digits are its magnitude's, negated.
    """
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


def _signed_windows(scalar: int) -> List[Tuple[int, int]]:
    """Nonzero base-128 digits in ``[-64, 63]`` of ``scalar`` as ``(row, digit)``.

    Either sign; ``sum(digit << 7 * row) == scalar``, and a scalar below
    2^129 in magnitude needs rows 0..18 only.
    """
    digits: List[Tuple[int, int]] = []
    full = 1 << _G_WINDOW_BITS
    row = 0
    while scalar:
        digit = scalar & (full - 1)
        if digit >= full >> 1:
            digit -= full
        if digit:
            digits.append((row, digit))
        scalar = (scalar - digit) >> _G_WINDOW_BITS
        row += 1
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
    """``table[i][d - 1] == d * 128^i * G`` for ``d`` in 1..64, affine.

    Built once, on the first fixed-base multiplication, a row at a time:
    each odd multiple of the row's unit is a mixed addition of the unit,
    each even one (and 128 * unit, the next row's) a doubling, and one
    inversion makes all 65 affine.
    """
    half = 1 << (_G_WINDOW_BITS - 1)
    rows: List[Tuple[Tuple[int, int], ...]] = []
    unit = (GX, GY)
    for _ in range(_G_ROWS):
        multiples = [(unit[0], unit[1], 1)]
        for multiple in range(2, half + 1):
            multiples.append(
                _add_affine(multiples[-1], *unit)
                if multiple % 2
                else _double(multiples[multiple // 2 - 1])
            )
        multiples.append(_double(multiples[-1]))
        affine = _normalise(multiples)
        unit = affine.pop()
        rows.append(tuple(affine))
    return tuple(rows)


# -- the public group law ----------------------------------------------------


def multi_scalar_mult(pairs: Sequence[Tuple[int, Point]]) -> Point:
    """``sum(scalar * point)`` over ``pairs``; scalars reduced mod N.

    The one group-law routine: every other operation is a case of it.
    Raises :class:`CryptoError` for a point off the curve.
    """
    fixed = 0
    # Every variable term's odd-multiple table, and its GLV halves' digits,
    # each half tagged with its table's offset and with whether it
    # multiplies the point or the point's image under BETA.
    tables: List[_Jacobian] = []
    halves: List[Tuple[int, bool, List[Tuple[int, int]]]] = []
    for scalar, point in pairs:
        if point.is_identity():
            continue
        if point == GENERATOR:
            fixed += scalar
            continue
        if not is_on_curve(point):
            raise CryptoError("multi_scalar_mult: point is not on secp256k1")
        largest = 0
        for half, endomorphic in zip(_split(scalar % N), (False, True)):
            if half:
                digits = _wnaf(half)
                halves.append((len(tables), endomorphic, digits))
                largest = max(largest, max(abs(digit) for _, digit in digits))
        if largest:
            tables.extend(_odd_multiples(point, largest))
    schedule: Dict[int, List[Tuple[int, int]]] = {}
    if tables:
        affine = _normalise(tables)
        for offset, endomorphic, digits in halves:
            for position, digit in digits:
                x, y = affine[offset + (abs(digit) >> 1)]
                schedule.setdefault(position, []).append((
                    x * BETA % P if endomorphic else x,
                    y if digit > 0 else P - y,
                ))
    accumulator = _INFINITY
    for position in range(max(schedule, default=-1), -1, -1):
        accumulator = _double(accumulator)
        for x, y in schedule.get(position, ()):
            accumulator = _add_affine(accumulator, x, y)
    fixed %= N
    if fixed:
        rows = _generator_table()
        for half, endomorphic in zip(_split(fixed), (False, True)):
            for row, digit in _signed_windows(half):
                x, y = rows[row][abs(digit) - 1]
                accumulator = _add_affine(
                    accumulator,
                    x * BETA % P if endomorphic else x,
                    y if digit > 0 else P - y,
                )
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
