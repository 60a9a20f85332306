"""Tests for the secp256k1 group implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.errors import CryptoError
from tests.crypto import ref_ec

scalars = st.integers(min_value=1, max_value=ec.N - 1)
small_scalars = st.integers(min_value=1, max_value=1 << 20)

# wNAF and G-window digit boundaries, the group order's neighbourhood and
# the largest 256-bit value, plus a free choice of either size.
edge_scalars = st.sampled_from(
    [0, 1, 2, 15, 16, 17, 31, 32, 63, 64, 65, 127, 128,
     ec.N - 1, ec.N, ec.N + 1, (1 << 256) - 1]
)
any_scalar = st.one_of(
    edge_scalars, small_scalars, st.integers(min_value=0, max_value=ec.N)
)
_P = ref_ec.scalar_mult(0xC0FFEE, ec.GENERATOR)
_Q = ref_ec.scalar_mult(ec.N - 0xBEEF, ec.GENERATOR)
# Repeats and negations inside one call drive the Jacobian formulas into
# their doubling, cancellation and infinity branches.
any_point = st.sampled_from(
    [ec.IDENTITY, ec.GENERATOR, -ec.GENERATOR, _P, -_P, _Q, -_Q]
)
# Where the GLV split starts, LAMBDA's neighbourhood, and a scalar for
# each pattern of (k1 < 0, k2 < 0): N - 1 (yes, no), N - LAMBDA (no, yes),
# 2^128 (yes, yes) and N - 2^128 (no, no).
_HALF = 1 << 128
split_edges = [
    0, 1, ec.N - 1, ec.LAMBDA, ec.N - ec.LAMBDA,
    _HALF - 1, _HALF, _HALF + 1, ec.N - _HALF,
]
glv_scalar = st.one_of(
    st.sampled_from(split_edges), st.integers(min_value=0, max_value=ec.N - 1)
)


class TestGroupLaws:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_identity_on_curve(self):
        assert ec.is_on_curve(ec.IDENTITY)

    def test_identity_neutral(self):
        point = ec.scalar_mult(5, ec.GENERATOR)
        assert ec.point_add(point, ec.IDENTITY) == point
        assert ec.point_add(ec.IDENTITY, point) == point

    def test_inverse(self):
        point = ec.scalar_mult(5, ec.GENERATOR)
        assert ec.point_add(point, -point) == ec.IDENTITY

    def test_group_order(self):
        assert ec.scalar_mult(ec.N, ec.GENERATOR) == ec.IDENTITY

    @settings(max_examples=20, deadline=None)
    @given(small_scalars, small_scalars)
    def test_scalar_mult_homomorphic(self, a, b):
        left = ec.scalar_mult(a + b, ec.GENERATOR)
        right = ec.point_add(
            ec.scalar_mult(a, ec.GENERATOR), ec.scalar_mult(b, ec.GENERATOR)
        )
        assert left == right

    def test_doubling_matches_addition(self):
        point = ec.scalar_mult(7, ec.GENERATOR)
        assert ec.point_add(point, point) == ec.scalar_mult(14, ec.GENERATOR)

    def test_scalar_reduction_mod_order(self):
        assert ec.scalar_mult(5, ec.GENERATOR) == ec.scalar_mult(
            5 + ec.N, ec.GENERATOR
        )

    def test_results_on_curve(self):
        for scalar in (1, 2, 3, 12345, ec.N - 1):
            assert ec.is_on_curve(ec.scalar_mult(scalar, ec.GENERATOR))


class TestKnownAnswers:
    """secp256k1 test vectors (SEC 2 generator multiples)."""

    def test_small_multiples_of_generator(self):
        assert ec.commit(2) == ec.Point(
            0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
            0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
        )
        assert ec.commit(3) == ec.Point(
            0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
            0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
        )

    def test_order_minus_one_is_negated_generator(self):
        assert ec.commit(ec.N - 1) == -ec.GENERATOR == ec.Point(ec.GX, ec.P - ec.GY)

    def test_order_times_generator_is_identity(self):
        assert ec.commit(ec.N) == ec.IDENTITY

    def test_out_of_range_coordinates_are_off_curve(self):
        assert not ec.is_on_curve(ec.Point(ec.GX + ec.P, ec.GY))
        assert not ec.is_on_curve(ec.Point(ec.GX, ec.GY - ec.P))


class TestAgainstAffineReference:
    """The fast engine equals the affine chord-and-tangent oracle."""

    @given(any_scalar, any_point)
    def test_scalar_mult(self, scalar, point):
        assert ec.scalar_mult(scalar, point) == ref_ec.scalar_mult(scalar, point)

    @given(any_scalar)
    def test_commit(self, scalar):
        assert ec.commit(scalar) == ref_ec.scalar_mult(scalar, ec.GENERATOR)

    @given(any_point, any_point)
    def test_point_add(self, p, q):
        assert ec.point_add(p, q) == ref_ec.point_add(p, q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(any_scalar, any_point), min_size=1, max_size=6)
    )
    def test_multi_scalar_mult(self, pairs):
        assert ec.multi_scalar_mult(pairs) == ref_ec.multi_scalar_mult(pairs)

    def test_full_add_keeps_the_other_side_of_infinity(self):
        # Table entries are never infinity for on-curve input, so no
        # public call reaches these two returns.
        point = (_P.x, _P.y, 1)
        assert ec._add(point, ec._INFINITY) == point
        assert ec._add(ec._INFINITY, point) == point

    def test_empty_sum_is_identity(self):
        assert ec.multi_scalar_mult([]) == ec.IDENTITY

    def test_generator_table_rows_are_signed_window_multiples(self):
        table = ec._generator_table()
        assert len(table) == 19
        assert {len(row) for row in table} == {64}
        for window in (0, 1, 9, 18):
            for digit in (1, 2, 3, 63, 64):
                expected = ref_ec.scalar_mult(
                    digit << (7 * window), ec.GENERATOR
                )
                assert table[window][digit - 1] == (expected.x, expected.y)

    @given(st.lists(glv_scalar, min_size=4, max_size=4))
    def test_split_scalars_on_both_signs_of_both_bases(self, scalars):
        # Halves of either sign walk the odd-multiple tables of P, -P and
        # -G and, for G, the G table, all in one call.
        pairs = list(zip(scalars, [_P, -_P, ec.GENERATOR, -ec.GENERATOR]))
        assert ec.multi_scalar_mult(pairs) == ref_ec.multi_scalar_mult(pairs)

    @given(glv_scalar)
    def test_terms_on_one_point_cancel_and_add(self, scalar):
        assert ec.multi_scalar_mult(
            [(scalar, _Q), (ec.N - scalar, _Q)]
        ) == ec.IDENTITY
        assert ec.multi_scalar_mult(
            [(scalar, _Q), (3, _Q)]
        ) == ref_ec.scalar_mult(scalar + 3, _Q)


class TestEndomorphism:
    """GLV: LAMBDA * (x, y) == (BETA * x, y), and the scalar split."""

    def test_nontrivial_cube_roots_of_unity(self):
        assert ec.BETA != 1 and pow(ec.BETA, 3, ec.P) == 1
        assert ec.LAMBDA != 1 and pow(ec.LAMBDA, 3, ec.N) == 1

    @pytest.mark.parametrize("point", [ec.GENERATOR, _P, -_Q])
    def test_lambda_multiplies_x_by_beta(self, point):
        assert ref_ec.scalar_mult(ec.LAMBDA, point) == ec.Point(
            ec.BETA * point.x % ec.P, point.y
        )

    def test_basis_spans_the_kernel_with_determinant_n(self):
        for a, b in ((ec._A1, ec._B1), (ec._A2, ec._B2)):
            assert (a + b * ec.LAMBDA) % ec.N == 0
        assert ec._A1 * ec._B2 - ec._A2 * ec._B1 == ec.N

    @pytest.mark.parametrize("scalar", split_edges)
    def test_split_edges(self, scalar):
        self._check_split(scalar)

    @given(st.integers(min_value=0, max_value=ec.N - 1))
    def test_split(self, scalar):
        self._check_split(scalar)

    def test_edges_cover_every_sign_pattern(self):
        signs = set()
        for scalar in split_edges:
            k1, k2 = ec._split(scalar)
            signs.add((k1 < 0, k2 < 0))
        assert signs == {(False, False), (False, True), (True, False), (True, True)}

    def test_short_scalars_stay_whole(self):
        for scalar in (0, 1, _HALF - 1):
            assert ec._split(scalar) == (scalar, 0)

    @given(
        st.one_of(
            st.integers(min_value=-_HALF, max_value=_HALF),
            st.sampled_from([-1, 1, -15, 15, -16, 16, -17, 17]),
        ).filter(bool)
    )
    def test_wnaf_digits_recompose_either_sign(self, scalar):
        digits = ec._wnaf(scalar)
        assert sum(digit << position for position, digit in digits) == scalar
        assert all(digit % 2 and abs(digit) < 16 for _, digit in digits)

    @given(
        st.one_of(
            st.integers(min_value=1 - 2 * _HALF, max_value=2 * _HALF - 1),
            st.sampled_from([63, 64, -64, -65, 2 * _HALF - 1, 1 - 2 * _HALF]),
        )
    )
    def test_signed_windows_recompose_within_the_g_table(self, scalar):
        digits = ec._signed_windows(scalar)
        assert sum(digit << 7 * row for row, digit in digits) == scalar
        assert all(-64 <= digit < 64 and digit for _, digit in digits)
        assert all(row < len(ec._generator_table()) for row, _ in digits)

    @staticmethod
    def _check_split(scalar):
        k1, k2 = ec._split(scalar)
        assert (k1 + k2 * ec.LAMBDA - scalar) % ec.N == 0
        # The split promises 2^128; 19 signed 7-bit windows hold 2^129.
        assert abs(k1) < _HALF and abs(k2) < _HALF


class TestOffCurveInput:
    """A hand-built point off the curve is refused, never half-computed."""

    _BAD = (
        ec.Point(_P.x, (_P.y + 1) % ec.P),
        ec.Point(ec.GX + ec.P, ec.GY),  # G's element, non-canonical x
        ec.Point(0, 0),
    )

    @pytest.mark.parametrize("bad", _BAD)
    @pytest.mark.parametrize("scalar", [0, 1, 3, ec.N - 1])
    def test_refused_with_crypto_error(self, bad, scalar):
        with pytest.raises(CryptoError):
            ec.multi_scalar_mult([(5, ec.GENERATOR), (scalar, bad)])
        with pytest.raises(CryptoError):
            ec.point_add(_P, bad)

    @given(
        st.integers(min_value=0, max_value=ec.P - 1),
        st.integers(min_value=0, max_value=ec.P - 1),
        any_scalar,
    )
    def test_random_coordinates_never_raise_anything_else(self, x, y, scalar):
        point = ec.Point(x, y)
        if ec.is_on_curve(point):
            assert ec.scalar_mult(scalar, point) == ref_ec.scalar_mult(
                scalar, point
            )
        else:
            with pytest.raises(CryptoError):
                ec.scalar_mult(scalar, point)


class TestEncoding:
    def test_identity_roundtrip(self):
        assert ec.decode_point(ec.IDENTITY.encode()) == ec.IDENTITY

    @settings(max_examples=15, deadline=None)
    @given(small_scalars)
    def test_point_roundtrip(self, scalar):
        point = ec.scalar_mult(scalar, ec.GENERATOR)
        assert ec.decode_point(point.encode()) == point

    def test_encoded_width(self):
        assert len(ec.GENERATOR.encode()) == 33
        assert len(ec.IDENTITY.encode()) == 1

    def test_malformed_rejected(self):
        with pytest.raises(CryptoError):
            ec.decode_point(b"\x05" + bytes(32))
        with pytest.raises(CryptoError):
            ec.decode_point(b"\x02" + bytes(10))

    def test_off_curve_x_rejected(self):
        # x = 5 yields a non-residue y^2 for secp256k1.
        blob = b"\x02" + (5).to_bytes(32, "big")
        with pytest.raises(CryptoError):
            ec.decode_point(blob)

    def test_x_above_field_rejected(self):
        blob = b"\x02" + ec.P.to_bytes(32, "big")
        with pytest.raises(CryptoError):
            ec.decode_point(blob)


class TestOperatorSugar:
    def test_mul_operator(self):
        assert 3 * ec.GENERATOR == ec.scalar_mult(3, ec.GENERATOR)
        assert ec.GENERATOR * 3 == ec.scalar_mult(3, ec.GENERATOR)

    def test_add_operator(self):
        double = ec.GENERATOR + ec.GENERATOR
        assert double == ec.scalar_mult(2, ec.GENERATOR)

    def test_commit_helper(self):
        assert ec.commit(9) == ec.scalar_mult(9, ec.GENERATOR)

    def test_multi_scalar_mult(self):
        point = ec.scalar_mult(4, ec.GENERATOR)
        combined = ec.multi_scalar_mult(((2, ec.GENERATOR), (3, point)))
        assert combined == ec.scalar_mult(14, ec.GENERATOR)
        # Any sequence of pairs, not only a tuple of tuples.
        assert ec.multi_scalar_mult([[2, ec.GENERATOR], (3, point)]) == combined
