"""Reference secp256k1 group law: affine addition and double-and-add.

This is the implementation ``repro.crypto.ec`` shipped before it moved to
Jacobian coordinates and one multi-scalar routine.  It pays one modular
inversion per addition and is ~6-25x slower, but every line is the
textbook chord-and-tangent rule, so the tests use it as the oracle the
fast engine must agree with on every input.
"""

from repro.crypto.ec import IDENTITY, A, N, P, Point


def point_add(p: Point, q: Point) -> Point:
    """Group addition."""
    if p.is_identity():
        return q
    if q.is_identity():
        return p
    if p.x == q.x and (p.y + q.y) % P == 0:
        return IDENTITY
    if p.x == q.x:
        # Doubling.
        slope = (3 * p.x * p.x + A) * pow(2 * p.y, -1, P) % P
    else:
        slope = (q.y - p.y) * pow(q.x - p.x, -1, P) % P
    x = (slope * slope - p.x - q.x) % P
    y = (slope * (p.x - x) - p.y) % P
    return Point(x, y)


def scalar_mult(scalar: int, point: Point) -> Point:
    """Double-and-add scalar multiplication; scalar reduced mod N."""
    scalar %= N
    result = IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        scalar >>= 1
    return result


def multi_scalar_mult(pairs) -> Point:
    """Naive multi-scalar multiplication (sum of scalar*point)."""
    result = IDENTITY
    for scalar, point in pairs:
        result = point_add(result, scalar_mult(scalar, point))
    return result
