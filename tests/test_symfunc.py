"""Multi-alphabet symmetric functions and graded series: Hall pairing,
basis changes, Adams operations, and the exponential/logarithm pair."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola.coeffs import ONE, Q, RAT_ONE, RAT_ZERO, ZERO, PolyQU, RatQU, U
from ennola.partitions import enumerate_partitions, multipartitions, z_lambda
from ennola.symfunc import GradedSeries, SymFunc, mobius, schur_symfunc, tensor_expand

from oracles import change_basis_oracle, pairing, schur_coefficient_oracle


def rat(n, d=1) -> RatQU:
    return RatQU.from_frac(Fraction(n, d))


class TestSymFuncBasics:
    def test_zero_and_equality(self):
        z = SymFunc.zero(2, 3)
        assert z.is_zero()
        assert z == SymFunc(2, 3, "p", {})
        f = schur_symfunc(1, ((2, 1),))
        assert not f.is_zero()
        assert f == f

    def test_add_scale(self):
        f = schur_symfunc(1, ((2,),))
        g = schur_symfunc(1, ((1, 1),))
        h = f.add(g)
        # p_(1,1) = s_2 + s_(1,1) minus... check via schur coefficients
        assert h.schur_coefficient(((2,),)) == RAT_ONE
        assert h.schur_coefficient(((1, 1),)) == RAT_ONE
        assert f.add(f.scale(-1)).is_zero()

    def test_schur_orthonormality(self):
        for n in range(1, 7):
            shapes = enumerate_partitions(n)
            fs = {lam: schur_symfunc(1, (lam,)) for lam in shapes}
            for a in shapes:
                for b in shapes:
                    expected = RAT_ONE if a == b else RAT_ZERO
                    assert pairing(fs[a], fs[b]) == expected, (a, b)

    def test_powersum_pairing_is_z(self):
        for n in range(1, 7):
            shapes = enumerate_partitions(n)
            for a in shapes:
                for b in shapes:
                    fa = SymFunc(1, n, "p", {(a,): RAT_ONE})
                    fb = SymFunc(1, n, "p", {(b,): RAT_ONE})
                    got = pairing(fa, fb)
                    expected = rat(z_lambda(a)) if a == b else RAT_ZERO
                    assert got == expected, (a, b)

    def test_two_alphabet_pairing_multiplies(self):
        a = schur_symfunc(2, ((2, 1), (1, 1, 1)))
        b = schur_symfunc(2, ((2, 1), (1, 1, 1)))
        c = schur_symfunc(2, ((2, 1), (3,)))
        assert pairing(a, b) == RAT_ONE
        assert pairing(a, c) == RAT_ZERO

    def test_schur_powersum_roundtrip(self):
        for lam in [(3,), (2, 1), (1, 1, 1), (2, 2), (3, 2)]:
            f = schur_symfunc(1, (lam,))
            back = f.to_schur()
            nonzero = {k: v for k, v in back.coeffs.items() if not v.is_zero()}
            assert nonzero == {(lam,): RAT_ONE}

    def test_multiply_littlewood_richardson(self):
        # s_1 * s_1 = s_2 + s_(1,1)
        s1 = schur_symfunc(1, ((1,),))
        prod = s1.multiply(s1)
        assert prod.schur_coefficient(((2,),)) == RAT_ONE
        assert prod.schur_coefficient(((1, 1),)) == RAT_ONE
        # s_21 * s_1 = s_31 + s_22 + s_211
        s21 = schur_symfunc(1, ((2, 1),))
        prod2 = s21.multiply(s1)
        for target in [(3, 1), (2, 2), (2, 1, 1)]:
            assert prod2.schur_coefficient((target,)) == RAT_ONE
        assert prod2.schur_coefficient(((4,),)) == RAT_ZERO

    def test_adams_on_powersums(self):
        # psi_m is multiplicative: p_rho -> p_{m*rho}
        f = SymFunc(1, 3, "p", {((2, 1),): rat(5)})
        g = f.adams(2)
        assert g.n == 6
        assert g.coeffs == {((4, 2),): rat(5)}

    def test_subst_coeffs(self):
        f = SymFunc(1, 1, "p", {((1,),): RatQU.from_poly(Q + U)})
        g = f.subst_coeffs(q=-Q)
        assert g.coeffs[((1,),)] == RatQU.from_poly(U - Q)

    def test_incompatible_ops_raise(self):
        f = SymFunc.zero(1, 2)
        g = SymFunc.zero(2, 2)
        with pytest.raises(ValueError):
            f.add(g)
        with pytest.raises(ValueError):
            pairing(f, g)


Q_FACTORS = [ONE, Q - ONE, Q + ONE, Q**2 + Q + ONE, Q.scale(2) + ONE.scale(3)]


@st.composite
def symfuncs(draw, basis: str) -> SymFunc:
    """Sparse SymFuncs with k <= 3, n <= 4, numerators in Z[q, u] and
    denominators mixing integers and factors in Z[q]."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    keys = draw(st.lists(st.sampled_from(multipartitions(k, n)), max_size=6, unique=True))
    coeffs = {}
    for key in keys:
        num = ZERO
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            num = num + PolyQU.monomial(
                draw(st.integers(min_value=-5, max_value=5)),
                draw(st.integers(min_value=0, max_value=2)),
                draw(st.integers(min_value=0, max_value=2)),
            )
        den = draw(st.sampled_from(Q_FACTORS)).scale(draw(st.integers(min_value=1, max_value=6)))
        coeffs[key] = RatQU(num, den)
    return SymFunc(k, n, basis, coeffs)


class TestChangeOfBasis:
    """The separable change of basis against the brute-force
    character-product sum of tests/oracles.py."""

    @given(symfuncs("p"))
    @settings(max_examples=40, deadline=None)
    def test_to_schur_matches_reference(self, f):
        assert f.to_schur().coeffs == change_basis_oracle(f).coeffs

    @given(symfuncs("s"))
    @settings(max_examples=40, deadline=None)
    def test_to_powersum_matches_reference(self, f):
        assert f.to_powersum().coeffs == change_basis_oracle(f).coeffs

    @given(symfuncs("p"), st.data())
    @settings(max_examples=40, deadline=None)
    def test_schur_coefficient_matches_reference(self, f, data):
        mu = data.draw(st.sampled_from(multipartitions(f.k, f.n)))
        assert f.schur_coefficient(mu) == schur_coefficient_oracle(f, mu)

    @given(symfuncs("p"), symfuncs("s"))
    @settings(max_examples=40, deadline=None)
    def test_round_trips(self, f, g):
        assert f.to_schur().to_powersum().coeffs == f.coeffs
        assert g.to_powersum().to_schur().coeffs == g.coeffs


class TestTensorExpand:
    FACTORS = [
        [((2,), 2), ((1, 1), 3)],
        [((1,), 5)],
        [((3,), 7), ((2, 1), 11), ((1, 1, 1), 13)],
        [((2,), 17), ((1, 1), 19)],
    ]

    def test_keys_in_product_order_and_coefficients_are_products(self):
        terms = tensor_expand(self.FACTORS, 23)
        combos = list(product(*self.FACTORS))
        assert [key for key, _ in terms] == [tuple(r for r, _ in combo) for combo in combos]
        for (_, c), combo in zip(terms, combos):
            assert c == 23 * math.prod(v for _, v in combo)
        assert tensor_expand([], 23) == [((), 23)]

    def test_prefix_products_are_shared(self):
        class Counted:
            muls = 0

            def __init__(self, v):
                self.v = v

            def __mul__(self, other):
                Counted.muls += 1
                return Counted(self.v * other.v)

        factors = [[(rho, Counted(v)) for rho, v in f] for f in self.FACTORS]
        terms = tensor_expand(factors, Counted(1))
        # factor sizes 2, 1, 3, 2: 2 + 2*1 + 2*1*3 + 2*1*3*2 multiplies
        assert Counted.muls == 2 + 2 + 6 + 12
        assert [c.v for _, c in terms] == [c for _, c in tensor_expand(self.FACTORS, 1)]


class TestMobius:
    def test_values(self):
        expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
        for n, v in expected.items():
            assert mobius(n) == v

    def test_divisor_sum(self):
        for m in range(1, 40):
            total = sum(mobius(d) for d in range(1, m + 1) if m % d == 0)
            assert total == (1 if m == 1 else 0)


def geometric_series(k: int, N: int) -> GradedSeries:
    """1 + f + f^2 + ... truncated, for f = s_1 on each alphabet."""
    one = GradedSeries.one(k, N)
    f = GradedSeries.zero(k, N)
    term = SymFunc(k, 1, "p", {((((1,),) * k)): RAT_ONE})
    coeffs = list(f.coeffs)
    coeffs[1] = term
    f = GradedSeries(k, N, coeffs)
    acc = one
    power = one
    for _ in range(N):
        power = power.mul(f)
        acc = acc.add(power)
    return acc


class TestGradedSeries:
    def test_mul_grading(self):
        s = geometric_series(1, 4)
        # (sum p_1^n) has degree-n coefficient p_1^n = p_(1^n)
        assert s.coeffs[0] == RAT_ONE
        for n in range(1, 5):
            got = s.coeffs[n]
            assert got.coeffs == {((1,) * n,): RAT_ONE}

    def test_exp_log_roundtrip(self):
        f = GradedSeries.zero(2, 5)
        coeffs = list(f.coeffs)
        coeffs[1] = SymFunc(2, 1, "p", {(((1,), (1,))): RatQU.from_poly(Q)})
        coeffs[2] = SymFunc(2, 2, "p", {(((2,), (1, 1))): rat(1, 2)})
        f = GradedSeries(2, 5, coeffs)
        assert f.plain_exp().plain_log() == f
        assert f.pleth_exp().pleth_log() == f

    def test_exp_homomorphism(self):
        # Exp(f+g) = Exp(f) Exp(g), and the same for plain exp
        fa = GradedSeries.zero(1, 5)
        ca = list(fa.coeffs)
        ca[1] = SymFunc(1, 1, "p", {(((1,),)): RAT_ONE})
        fa = GradedSeries(1, 5, ca)
        fb = GradedSeries.zero(1, 5)
        cb = list(fb.coeffs)
        cb[2] = SymFunc(1, 2, "p", {(((2,),)): RatQU.from_poly(U)})
        fb = GradedSeries(1, 5, cb)
        lhs_plain = fa.add(fb).plain_exp()
        rhs_plain = fa.plain_exp().mul(fb.plain_exp())
        assert lhs_plain == rhs_plain
        lhs = fa.add(fb).pleth_exp()
        rhs = fa.pleth_exp().mul(fb.pleth_exp())
        assert lhs == rhs

    def test_pleth_exp_of_p1_counts_partitions(self):
        # Exp(p_1) = sum over all partitions: coefficient of degree n lists
        # every p_rho / z_rho
        f = GradedSeries.zero(1, 5)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, "p", {(((1,),)): RAT_ONE})
        f = GradedSeries(1, 5, c)
        e = f.pleth_exp()
        for n in range(1, 6):
            got = e.coeffs[n]
            expected = {
                (rho,): rat(1, z_lambda(rho)) for rho in enumerate_partitions(n)
            }
            assert got.coeffs == expected

    def test_psi_inverse(self):
        f = GradedSeries.zero(1, 6)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, "p", {(((1,),)): RatQU.from_poly(Q)})
        c[3] = SymFunc(1, 3, "p", {(((2, 1),)): rat(7, 3)})
        f = GradedSeries(1, 6, c)
        assert f.pleth_psi().pleth_psi_inv() == f
        assert f.pleth_psi_inv().pleth_psi() == f

    def test_adams_composition(self):
        f = GradedSeries.zero(1, 6)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, "p", {(((1,),)): RatQU.from_poly(Q + ONE)})
        f = GradedSeries(1, 6, c)
        assert f.adams(2).adams(3) == f.adams(6)

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            GradedSeries.one(1, 3).plain_exp()
        with pytest.raises(ValueError):
            GradedSeries.zero(1, 3).plain_log()
