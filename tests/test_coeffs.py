"""Exact bivariate polynomial arithmetic, exact division and the Z[q] gcd."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola.coeffs import (
    ONE,
    Q,
    U,
    ZERO,
    PolyQU,
    exact_quotients,
    pack,
    poly_exact_div,
    poly_from_json,
    poly_gcd,
    poly_lcm,
    poly_to_json,
    poly_to_str,
    unpack,
)


@st.composite
def polys(draw, max_terms: int = 4, max_deg: int = 4, max_udeg: int | None = None) -> PolyQU:
    """Sparse polynomials in Z[q,u] with u-degree at most max_udeg
    (max_deg if None)."""
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    acc = ZERO
    for _ in range(n_terms):
        c = draw(st.integers(min_value=-9, max_value=9))
        qd = draw(st.integers(min_value=0, max_value=max_deg))
        ud = draw(st.integers(min_value=0, max_value=max_deg if max_udeg is None else max_udeg))
        acc = acc + PolyQU.monomial(c, qd, ud)
    return acc


def int_polys() -> st.SearchStrategy[PolyQU]:
    """Small polynomials in Z[q,u]."""
    return polys(max_terms=3, max_deg=3)


def q_polys() -> st.SearchStrategy[PolyQU]:
    """Small polynomials in Z[q], the ring of the denominators."""
    return polys(max_terms=3, max_deg=3, max_udeg=0)


def _positive_lead(p: PolyQU) -> PolyQU:
    return -p if p and p.leading()[1] < 0 else p


class TestPolyRingLaws:
    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys())
    @settings(max_examples=40)
    def test_identities_and_negation(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO
        assert a + (-a) == ZERO
        assert a - a == ZERO

    @given(polys(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40)
    def test_pow_is_repeated_mul(self, a, e):
        expected = ONE
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    @given(polys(), polys(), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=60)
    def test_evaluate_is_ring_homomorphism(self, a, b, qv):
        uv = 2
        assert (a + b).evaluate(qv, uv) == a.evaluate(qv, uv) + b.evaluate(qv, uv)
        assert (a * b).evaluate(qv, uv) == a.evaluate(qv, uv) * b.evaluate(qv, uv)

    @given(int_polys())
    @settings(max_examples=40)
    def test_json_roundtrip(self, a):
        assert poly_from_json(poly_to_json(a)) == a

    @pytest.mark.parametrize("cstr,error", [("1/2", ValueError), ("1.5", ValueError),
                                            (1.5, TypeError), (2, TypeError)])
    def test_json_rejects_non_integer_coefficients(self, cstr, error):
        with pytest.raises(error):
            poly_from_json([[cstr, 0, 0]])

    @given(polys())
    @settings(max_examples=40)
    def test_subst_identity(self, a):
        assert a.subst(q=Q, u=U) == a

    @given(polys(), st.sampled_from([1, -1]), st.integers(0, 3),
           st.integers(-3, 3), st.integers(0, 3), st.booleans())
    @settings(max_examples=60)
    def test_subst_monomial_matches_evaluate(self, a, sign, qa, c, ub, keep_u):
        # q -> sign*q^qa and u -> c*u^ub (c = 0 is u -> 0), or u kept
        qval = PolyQU.monomial(sign, qa, 0)
        uval = None if keep_u else PolyQU.monomial(c, 0, ub)
        got = a.subst(q=qval, u=uval)
        for x, y in [(2, 3), (-1, 5), (3, -2), (0, 1)]:
            uy = y if keep_u else c * y**ub
            assert got.evaluate(x, y) == a.evaluate(sign * x**qa, uy)

    @pytest.mark.parametrize("bad", [Q + ONE, U - Q, Q * Q + U, 2])
    def test_subst_refuses_non_monomials(self, bad):
        p = Q**2 * U + ONE
        with pytest.raises(ValueError, match="non-monomial"):
            p.subst(q=bad)
        with pytest.raises(ValueError, match="non-monomial"):
            p.subst(u=bad)


class TestPolyBasics:
    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), Fraction(0), 0.5, 1.0, "1"])
    def test_non_int_coefficient_raises(self, c):
        with pytest.raises(TypeError, match="is not an int"):
            PolyQU({(1, 0): c})
        with pytest.raises(TypeError, match="is not an int"):
            PolyQU([((0, 2), c)])
        with pytest.raises(TypeError, match="is not an int"):
            PolyQU.const(c)
        with pytest.raises(TypeError, match="is not an int"):
            PolyQU.monomial(c, 2, 1)
        # scale keeps the rule: (q + 1).scale(0.5) would hold floats
        for p in (Q + ONE, ZERO):
            with pytest.raises(TypeError, match="not an int"):
                p.scale(c)

    def test_zero_and_truthiness(self):
        assert ZERO.is_zero()
        assert not ZERO
        assert ONE
        assert Q - Q == ZERO

    def test_degrees(self):
        p = Q**3 * U + Q
        assert p.qdeg() == 3
        assert p.udeg() == 1
        assert ZERO.qdeg() == -1

    def test_coeff_accessors(self):
        p = Q**2 * U + Q * U + PolyQU.const(5)
        assert p.terms.get((2, 1), 0) == 1
        assert p.terms.get((0, 0), 0) == 5
        assert p.terms.get((7, 7), 0) == 0
        assert p.coeff_of_u(1) == Q**2 + Q
        assert p.coeff_of_u(0) == PolyQU.const(5)

    def test_scale(self):
        assert (Q + ONE).scale(3) == Q.scale(3) + PolyQU.const(3)
        assert (Q + ONE).scale(0) == ZERO

    def test_subst_q_negation(self):
        p = Q**3 + Q**2 - Q + ONE
        m = p.subst(q=-Q)
        assert m == -(Q**3) + Q**2 + Q + ONE

    def test_evaluate(self):
        p = Q**2 * U + PolyQU.const(3)
        assert p.evaluate(5, 2) == 53
        assert p.evaluate(5) == 3  # u defaults to 0


class TestPolyToStr:
    def test_zero(self):
        assert poly_to_str(ZERO) == "0"

    def test_alternating_signs(self):
        p = Q**5 - Q**4 + Q**3 - Q**2
        assert poly_to_str(p) == "q^5 - q^4 + q^3 - q^2"

    def test_mixed_uq(self):
        p = U * Q + U + Q**3 + Q
        assert poly_to_str(p) == "u*q + u + q^3 + q"

    def test_constants_and_units(self):
        assert poly_to_str(ONE) == "1"
        assert poly_to_str(-ONE) == "-1"
        assert poly_to_str(Q) == "q"
        assert poly_to_str(U**2) == "u^2"
        assert poly_to_str(Q.scale(2) + ONE) == "2*q + 1"


class TestGcdAndDivision:
    # Denominators live in Z[q]: poly_gcd takes two operands in Z[q] and
    # poly_exact_div a divisor in Z[q]; the strategies are narrowed to that
    # on purpose.

    @given(q_polys(), q_polys(), q_polys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, a, b, c):
        g = poly_gcd(a, b)
        if a.is_zero():
            assert g == _positive_lead(b)
        else:
            assert g.udeg() <= 0
            assert poly_exact_div(a, g) is not None
            assert poly_exact_div(b, g) is not None
        # greatest: a common factor c comes out whole
        c = _positive_lead(c)
        if c:
            assert poly_gcd(a * c, b * c) == g * c

    @given(int_polys(), q_polys())
    @settings(max_examples=40, deadline=None)
    def test_exact_div_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert poly_exact_div(a * b, b) == a

    def test_gcd_with_zero_keeps_u(self):
        assert poly_gcd(ZERO, U * Q - U) == U * Q - U
        assert poly_gcd(ZERO, U - U * Q) == U * Q - U
        assert poly_gcd(ZERO, ZERO) == ZERO

    def test_two_u_bearing_operands_raise(self):
        with pytest.raises(ValueError, match=r"gcd of polynomials in u"):
            poly_gcd(U * Q, U + Q)
        with pytest.raises(ValueError, match=r"gcd of polynomials in u"):
            poly_gcd(Q, U + Q)

    @given(q_polys(), q_polys())
    @settings(max_examples=40, deadline=None)
    def test_lcm_is_a_least_common_multiple(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        m = poly_lcm(a, b)
        assert poly_exact_div(m, a) is not None and poly_exact_div(m, b) is not None
        # a * b = gcd * lcm up to sign
        assert a * b in (poly_gcd(a, b) * m, -(poly_gcd(a, b) * m))

    def test_division_by_u_bearing_polynomial_raises(self):
        with pytest.raises(ValueError, match=r"division by a polynomial in u: \(u\)"):
            poly_exact_div(U * Q, U)

    def test_inexact_division_returns_none(self):
        assert poly_exact_div(Q + ONE, Q) is None

    def test_cyclotomic_factors(self):
        q4_minus_1 = Q**4 - ONE
        q2_minus_1 = Q**2 - ONE
        assert poly_exact_div(q4_minus_1, q2_minus_1) == Q**2 + ONE
        assert poly_gcd(q4_minus_1, q2_minus_1) == q2_minus_1 or poly_gcd(
            q4_minus_1, q2_minus_1
        ) == q2_minus_1.scale(-1)


class TestExactDivisionFastPaths:
    """A monomial divisor c*q^s is a shift plus an integer divmod, and any
    other divisor one packed divmod; both give None on any remainder."""

    @given(int_polys(), st.integers(-6, 6).filter(bool), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_monomial_divisor_roundtrip(self, a, c, s):
        m = PolyQU.monomial(c, s, 0)
        assert poly_exact_div(a * m, m) == a

    def test_monomial_divisor_remainders(self):
        assert poly_exact_div(Q**3 + Q, Q**2) is None  # q-degree below s
        assert poly_exact_div(Q.scale(3), Q.scale(2)) is None  # integer remainder
        assert poly_exact_div(Q.scale(-6) * U, Q.scale(2)) == U.scale(-3)
        assert poly_exact_div(ZERO, Q**4) == ZERO

    @given(int_polys(), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_sparse_divisor_roundtrip(self, a, n):
        g = Q**n - ONE
        assert poly_exact_div(a * g, g) == a
        if a:
            assert poly_exact_div(a * g + ONE, g) is None
            assert poly_exact_div(a * g + Q ** (a.qdeg() + n + 1), g) is None


class TestPackedDivision:
    """The packed divmod sizes its digits by Mignotte's bound, and returns
    a quotient only where pack is injective on it times the divisor."""

    BINOMIAL_ROW = PolyQU({(i, 0): math.comb(40, i) for i in range(41)})
    SLICES = (Q**5 + Q.scale(3) + ONE + U * (Q**2).scale(2) - U.scale(7)
              + U**3 * (Q**9 - Q**4 + PolyQU.const(5)))

    @pytest.mark.parametrize("c, b", [
        # quotient coefficients far above the dividend's
        (BINOMIAL_ROW, (Q - ONE) ** 3),
        (BINOMIAL_ROW * U + BINOMIAL_ROW.scale(-3), (Q - ONE) ** 3),
        # u-slices of different q-degree
        (SLICES, Q**2 + Q + ONE),
        (SLICES, (Q - ONE) ** 2 * (Q**3 + ONE)),
        # negative leading coefficients
        (SLICES, ONE - Q),
        (BINOMIAL_ROW, (Q**3).scale(-2) + Q - PolyQU.const(5)),
        # integer content and a power of q
        (SLICES, Q.scale(2) - PolyQU.const(2)),
        (BINOMIAL_ROW * U**2, Q**3 - Q),
        (SLICES.scale(6), (Q**3 - Q).scale(-3)),
    ])
    def test_quotient_and_remainders(self, c, b):
        a = c * b
        assert poly_exact_div(a, b) == c
        db = b.qdeg()
        for r in (ONE, Q ** (db - 1), (U**2 * Q ** (db - 1)).scale(-4) + ONE):
            assert poly_exact_div(a + r, b) is None, r

    def test_binomial_quotient_is_far_above_its_dividend(self):
        a = self.BINOMIAL_ROW * (Q - ONE) ** 3
        top = max(map(abs, a.terms.values()))
        assert max(self.BINOMIAL_ROW.terms.values()) > 10 * top

    @pytest.mark.parametrize("a, b", [
        (U - ONE, Q - ONE),  # divmod exact, quotient 1 fails the degree check
        ((Q**2).scale(2) - PolyQU.const(2), Q.scale(-3) - PolyQU.const(3)),
        (-U - Q**2, (Q**2).scale(2) + Q.scale(2)),
    ])
    def test_checks_reject_what_divmod_accepts(self, a, b):
        # the packed remainder is 0, but the unpacked quotient lies outside
        # the range where pack is injective, so it is not a/b
        assert poly_exact_div(a, b) is None

    def test_batch_shares_one_digit_size(self):
        b = Q**2 - Q.scale(3) + ONE
        nums = [self.BINOMIAL_ROW * b, ONE + Q * b, ZERO, self.SLICES * b, U * b]
        quots = exact_quotients(nums, b)
        assert quots == [self.BINOMIAL_ROW, None, ZERO, self.SLICES, U]
        assert quots == [poly_exact_div(a, b) for a in nums]
        assert exact_quotients([], b) == []


class TestPacking:
    """pack evaluates at q = 2^B, u = 2^(B*W); unpack reads balanced
    base-2^B digits back, exactly while every |coefficient| < 2^(B-1)."""

    @pytest.mark.parametrize("B", [2, 3, 8, 63, 64, 65, 200])
    @pytest.mark.parametrize("W", [1, 3])
    def test_round_trip_at_the_digit_edges(self, B, W):
        top, low = 2 ** (B - 1) - 1, -(2 ** (B - 1))
        # every slot of the first W u-slices, with zero slots between
        # nonzero ones and u-degree up to 3
        cases = [
            {(0, 0): top}, {(0, 0): -top}, {(0, 0): low},
            {(W - 1, 0): low, (0, 1): top},
            {(0, 0): low, (W - 1, 3): low},
            {(i, j): (top, -top, low)[(i + j) % 3] for i in range(W) for j in range(4)},
            {(W - 1, 3): top, (0, 2): -top},
        ]
        for terms in cases:
            p = PolyQU(terms)
            assert unpack(pack(p, B, W), B, W) == p
        assert unpack(0, B, W) == ZERO

    def test_a_coefficient_past_the_edge_is_not_recovered(self):
        p = PolyQU.const(2 ** 7)
        assert unpack(pack(p, 8, 1), 8, 1) != p

    def test_one_bit_digits_are_refused(self):
        with pytest.raises(ValueError, match="digit size 1 below 2"):
            unpack(1, 1, 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_ring_maps(self, data):
        B = data.draw(st.integers(2, 130))
        W = data.draw(st.integers(1, 5))
        edge = 2 ** (B - 1)
        coeffs = st.integers(-edge, edge - 1)
        slots = st.tuples(st.integers(0, W - 1), st.integers(0, 3))
        p = PolyQU(data.draw(st.dictionaries(slots, coeffs, max_size=8)))
        assert unpack(pack(p, B, W), B, W) == p
        a, b = data.draw(int_polys()), data.draw(int_polys())
        # small polynomials: products stay well inside the digits
        assert unpack(pack(a, 16, 7) * pack(b, 16, 7) + 3 * pack(a, 16, 7), 16, 7) == (
            a * b + a.scale(3))
