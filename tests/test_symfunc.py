"""Multi-alphabet symmetric functions and graded series: Hall pairing,
basis changes, Adams operations, and the exponential/logarithm pair."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola.coeffs import ONE, Q, ZERO, NotPolynomialError, PolyQU, U
from ennola.partitions import (
    character_value,
    enumerate_partitions,
    mobius,
    z_lambda,
)
from ennola.symfunc import (
    GradedSeries,
    SymFunc,
    orbit,
    _change_basis,
    _character_rows,
    _merged_orbits,
)
from ennola.types import tensor_expand

from oracles import (
    adams_series,
    change_basis_reference,
    coefficient,
    expand_orbits,
    from_schur_oracle,
    merged_orbits_reference,
    multipartitions,
    multiply_reference,
    pairing,
    pleth_exp,
    pleth_log,
    powersum_of,
    powersum_symfunc,
    scalar,
    schur_coefficient_oracle,
    schur_table_oracle,
    series_equal,
    series_mul,
    series_scale,
    symmetrized,
)

ONE_ = scalar(1)
ZERO_ = scalar(0)


def rat(n, d=1) -> SymFunc:
    return scalar(n, PolyQU.const(d))


def schur_coefficient(f: SymFunc, mu: tuple) -> SymFunc:
    """<f, s_mu> for mu in any order, read at its sorted key, as a scalar."""
    return scalar(f.to_schur().get(tuple(sorted(mu)), ZERO))


class TestSymFuncBasics:
    @pytest.mark.parametrize("call, message", [
        (lambda: mobius(0), "mobius expects a positive integer"),
        (lambda: SymFunc.zero(3, 1).add(SymFunc.zero(3, 2)), "degrees differ"),
        (lambda: GradedSeries(1, 2, [SymFunc.zero(1, n) for n in range(2)]),
         "need exactly N+1 coefficients"),
        (lambda: GradedSeries.zero(1, 2).add(GradedSeries.zero(1, 3)), "series shapes differ"),
    ], ids=["mobius-0", "symfunc-degrees", "series-N-coeffs", "series-shapes"])
    def test_refusals(self, call, message):
        with pytest.raises(AssertionError) as exc:
            call()
        assert str(exc.value) == message

    def test_zero_and_equality(self):
        z = SymFunc.zero(2, 3)
        assert z.is_zero()
        assert z == SymFunc(2, 3, {})
        f = SymFunc.from_schur(1, 3, {((2, 1),): ONE})
        assert not f.is_zero()
        assert f == f

    def test_add_scale(self):
        f = SymFunc.from_schur(1, 2, {((2,),): ONE})
        g = SymFunc.from_schur(1, 2, {((1, 1),): ONE})
        h = f.add(g)
        # p_(1,1) = s_2 + s_(1,1) minus... check via schur coefficients
        assert schur_coefficient(h, ((2,),)) == ONE_
        assert schur_coefficient(h, ((1, 1),)) == ONE_
        assert f.add(f.scale(-1)).is_zero()

    def test_schur_orthonormality(self):
        for n in range(1, 7):
            shapes = enumerate_partitions(n)
            fs = {lam: SymFunc.from_schur(1, n, {(lam,): ONE}) for lam in shapes}
            for a in shapes:
                for b in shapes:
                    expected = ONE_ if a == b else ZERO_
                    assert pairing(fs[a], fs[b]) == expected, (a, b)

    def test_powersum_pairing_is_z(self):
        for n in range(1, 7):
            shapes = enumerate_partitions(n)
            for a in shapes:
                for b in shapes:
                    fa = powersum_symfunc(1, n, {(a,): ONE})
                    fb = powersum_symfunc(1, n, {(b,): ONE})
                    got = pairing(fa, fb)
                    expected = rat(z_lambda(a)) if a == b else ZERO_
                    assert got == expected, (a, b)

    def test_two_alphabet_pairing_multiplies(self):
        # a sorted key stands for its orbit: s_111(x) s_21(y) + s_21(x) s_111(y)
        a = SymFunc.from_schur(2, 3, {((1, 1, 1), (2, 1)): ONE})
        b = SymFunc.from_schur(2, 3, {((1, 1, 1), (2, 1)): ONE})
        c = SymFunc.from_schur(2, 3, {((2, 1), (3,)): ONE})
        d = SymFunc.from_schur(2, 3, {((2, 1), (2, 1)): ONE})
        assert pairing(a, b) == rat(2)
        assert pairing(d, d) == ONE_
        assert pairing(a, c) == ZERO_
        assert pairing(a, d) == ZERO_

    def test_unsorted_key_refused(self):
        for k, key in ((2, ((2, 1), (1, 1, 1))), (3, ((1, 1), (2,), (1, 1))),
                       (4, ((2,), (1, 1), (1, 1), (2,)))):
            with pytest.raises(AssertionError, match="not sorted"):
                SymFunc(k, sum(key[0]), {key: ONE})
            with pytest.raises(AssertionError, match="not sorted"):
                SymFunc.from_schur(k, sum(key[0]), {key: ONE})
        # a zero coefficient is dropped before the check, a sorted key passes
        assert SymFunc(2, 3, {((2, 1), (1, 1, 1)): ZERO}).is_zero()
        assert SymFunc.from_schur(2, 3, {((2, 1), (1, 1, 1)): ZERO}).is_zero()
        # an integer Schur table has integer numerators on b_rho = p_rho / z_rho
        assert SymFunc.from_schur(2, 3, {((1, 1, 1), (2, 1)): ONE}).den == ONE
        # one basis only: a Schur table is a dict, never a SymFunc
        assert not hasattr(SymFunc, "basis")

    def test_schur_powersum_roundtrip(self):
        for lam in [(3,), (2, 1), (1, 1, 1), (2, 2), (3, 2)]:
            f = SymFunc.from_schur(1, sum(lam), {(lam,): ONE})
            assert f.to_schur() == {(lam,): ONE}

    def test_multiply_littlewood_richardson(self):
        # s_1 * s_1 = s_2 + s_(1,1)
        s1 = SymFunc.from_schur(1, 1, {((1,),): ONE})
        prod = s1.multiply(s1)
        assert schur_coefficient(prod, ((2,),)) == ONE_
        assert schur_coefficient(prod, ((1, 1),)) == ONE_
        # s_21 * s_1 = s_31 + s_22 + s_211
        s21 = SymFunc.from_schur(1, 3, {((2, 1),): ONE})
        prod2 = s21.multiply(s1)
        for target in [(3, 1), (2, 2), (2, 1, 1)]:
            assert schur_coefficient(prod2, (target,)) == ONE_
        assert schur_coefficient(prod2, ((4,),)) == ZERO_

    def test_adams_on_powersums(self):
        # adams(m) is psi_m / m, and psi_m sends p_rho to p_{m*rho}; on
        # b_rho = p_rho / z_rho that is b_rho -> m^(l(rho) - 1) b_{m*rho}
        f = powersum_symfunc(1, 3, {((2, 1),): PolyQU.const(5)}, Q - ONE)
        g = f.adams(2)
        assert g.n == 6
        assert g.coeffs == {((4, 2),): PolyQU.const(20)}
        assert g.den == Q**2 - ONE
        assert g.scale(2) == powersum_symfunc(1, 6, {((4, 2),): PolyQU.const(5)}, Q**2 - ONE)
        # three alphabets, l(rho) = 4: the factor 3^3
        key = ((1, 1), (2,), (2,))
        assert SymFunc(3, 2, {key: U}).adams(3).coeffs == {((3, 3), (6,), (6,)): (U**3).scale(27)}
        assert powersum_symfunc(3, 2, {key: U}).adams(3).scale(3) == powersum_symfunc(
            3, 6, {((3, 3), (6,), (6,)): U**3})

    def test_adams_refuses_a_nonzero_degree_zero_piece(self):
        # psi_m / m of a constant would be the constant over m
        with pytest.raises(AssertionError, match="degree-0"):
            ONE_.adams(2)
        assert SymFunc.zero(2, 0).adams(2).is_zero()
        assert ONE_.adams(1) == ONE_

    def test_subst_coeffs(self):
        f = SymFunc(1, 1, {((1,),): Q + U})
        g = f.subst_coeffs(q=-Q)
        assert g.coeffs[((1,),)] == U - Q

    def test_incompatible_ops_raise(self):
        f = SymFunc.zero(1, 2)
        g = SymFunc.zero(2, 2)
        with pytest.raises(AssertionError):
            f.add(g)
        with pytest.raises(ValueError):
            pairing(f, g)


class TestOneDenominator:
    """Integer numerators in Z[q, u] over one denominator in Z[q] per
    piece, rewritten over a known denominator by exact division."""

    def test_equality_across_denominators(self):
        half = rat(1, 2)
        assert half.den == PolyQU.const(2)
        assert half.add(half) == ONE_
        a = SymFunc(1, 1, {((1,),): Q + ONE})
        b = SymFunc(1, 1, {((1,),): Q**2 - ONE}, Q - ONE)
        assert b.den == Q - ONE
        assert a == b
        assert a.to_schur() == b.to_schur() == {((1,),): Q + ONE}
        assert scalar(0) == ZERO_ and ZERO_.is_zero() and not ONE_.is_zero()

    def test_scale_refuses_non_integer_coefficients(self):
        for c in (Fraction(1, 2), Fraction(3), 0.5):
            with pytest.raises(TypeError, match="not an int"):
                ONE_.scale(c)
        # a polynomial with such a coefficient cannot be made at all
        for c in (Fraction(1, 2), Fraction(3)):
            with pytest.raises(TypeError, match="is not an int"):
                PolyQU.monomial(c, 1, 0)
        # phi(2) = (q^2 - q)/2 as a factor: the numerator over d
        from oracles import phi

        num, d = phi(2)
        a = SymFunc(1, 0, {((),): num}, PolyQU.const(d))
        assert (a.coeffs, a.den) == ({((),): Q**2 - Q}, PolyQU.const(2))
        assert all(type(c) is int for c in a.coeffs[((),)].terms.values())
        assert all(type(c) is int for c in a.den.terms.values())

    def test_u_in_denominator_raises(self):
        with pytest.raises(AssertionError, match=r"u in a denominator: \(u \+ q\)"):
            SymFunc(1, 0, {((),): ONE}, U + Q)

    def test_zero_denominator_raises(self):
        for coeffs in ({((),): ONE}, {}):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                SymFunc(1, 0, coeffs, ZERO)

    def test_over_divides_exactly(self):
        f = scalar(Q**2 - ONE, Q - ONE)
        assert f.over(ONE).coeffs == {((),): Q + ONE}
        g = f.over(Q**3 - ONE)
        assert (g.coeffs, g.den) == ({((),): (Q**2 - ONE) * (Q**2 + Q + ONE)}, Q**3 - ONE)
        assert g == f

    def test_non_polynomial_is_a_broken_invariant(self):
        # an AssertionError, like the class-type sum's, so a caller's
        # except ValueError, its refusal handling, does not swallow it
        with pytest.raises(AssertionError) as exc:
            SymFunc(1, 1, {((1,),): ONE}, Q - ONE).over(Q + ONE)
        assert not isinstance(exc.value, ValueError)

    def test_non_polynomial_raises(self):
        with pytest.raises(NotPolynomialError):
            scalar(ONE, Q - ONE).over(ONE)
        with pytest.raises(NotPolynomialError):
            scalar(ONE, Q - ONE).over(Q + ONE)
        with pytest.raises(NotPolynomialError, match="not a polynomial"):
            scalar(ONE, Q - ONE).to_schur()
        with pytest.raises(NotPolynomialError, match="not a polynomial"):
            SymFunc(1, 3, SymFunc.from_schur(1, 3, {((2, 1),): ONE}).coeffs,
                    PolyQU.const(2)).to_schur()

    def test_field_laws(self):
        a = scalar(Q, Q**2 - ONE)
        b = scalar(ONE, Q + ONE)
        c = scalar(U + Q)
        assert a.add(b).add(b.scale(-1)) == a
        assert a.multiply(b).multiply(scalar(Q + ONE)) == a
        assert a.multiply(b.add(c)) == a.multiply(b).add(a.multiply(c))
        assert a.multiply(scalar(Q**2 - ONE, Q)) == ONE_
        assert a.scale(3) == a.add(a).add(a)

    def test_add_takes_a_gcd_only_when_no_denominator_divides(self, monkeypatch):
        import ennola.coeffs as coeffs

        calls = []
        real = coeffs.poly_gcd
        monkeypatch.setattr(coeffs, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
        a = scalar(ONE, Q - ONE)
        s = a.add(scalar(ONE, Q**2 - ONE))
        assert s.den == Q**2 - ONE and s == scalar(Q + PolyQU.const(2), Q**2 - ONE)
        assert calls == []
        t = a.add(scalar(ONE, Q + ONE))
        assert t.den == Q**2 - ONE and t == scalar(Q.scale(2), Q**2 - ONE)
        assert calls == [1]

    def test_subst_coeffs_substitutes_the_denominator(self):
        f = scalar(U, Q - ONE)
        assert f.subst_coeffs(u=ONE) == scalar(ONE, Q - ONE)
        assert f.subst_coeffs(q=-Q).den == -Q - ONE
        assert SymFunc(1, 1, {((1,),): U}, Q - ONE).adams(2).den == Q**2 - ONE


Q_FACTORS = [ONE, Q - ONE, Q + ONE, Q**2 + Q + ONE, Q.scale(2) + ONE.scale(3)]


@st.composite
def integer_tables(draw, k: int | None = None, n: int | None = None) -> tuple:
    """(k, n, table): k <= 4, n <= 4 (n <= 3 at k = 4) and a sparse table
    of integer polynomials in q, u at sorted keys, random coefficients at
    ordered keys summed over their orbits.  It serves as a Schur table
    and as the numerators of a power-sum function (powersum_symfunc)
    alike."""
    if k is None:
        k = draw(st.integers(min_value=1, max_value=4))
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4 if k < 4 else 3))
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
        coeffs[key] = num
    return k, n, symmetrized(k, coeffs)


denominators = st.builds(PolyQU.scale, st.sampled_from(Q_FACTORS), st.integers(1, 6))


@st.composite
def symfuncs(draw, k: int | None = None, n: int | None = None) -> SymFunc:
    """Sparse SymFuncs: integer_tables as power-sum numerators over a
    denominator mixing an integer and a factor in Z[q]."""
    k, n, nums = draw(integer_tables(k, n))
    return powersum_symfunc(k, n, nums, draw(denominators))


class TestChangeOfBasis:
    """The separable change of basis against the brute-force
    character-product sum of tests/oracles.py."""

    @given(integer_tables(), denominators)
    @settings(max_examples=40, deadline=None)
    def test_to_schur_matches_reference(self, drawn, den):
        # numerators that den divides: to_schur divides them back exactly
        k, n, nums = drawn
        f = powersum_symfunc(k, n, {rho: p * den for rho, p in nums.items()}, den)
        assert f.to_schur() == schur_table_oracle(f) == powersum_symfunc(k, n, nums).to_schur()
        assert list(f.to_schur()) == sorted(f.to_schur())

    @given(symfuncs())
    @settings(max_examples=40, deadline=None)
    def test_to_schur_refuses_a_coefficient_that_is_not_a_polynomial(self, f):
        try:
            want = schur_table_oracle(f)
        except NotPolynomialError:
            with pytest.raises(NotPolynomialError):
                f.to_schur()
        else:
            assert f.to_schur() == want

    @given(integer_tables())
    @settings(max_examples=40, deadline=None)
    def test_to_powersum_matches_reference(self, drawn):
        k, n, table = drawn
        got = SymFunc.from_schur(k, n, table)
        assert got.den == ONE
        assert got == from_schur_oracle(k, n, table)

    @given(symfuncs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_schur_coefficient_matches_reference(self, f, data):
        # any ordered key: the library reads it at its sorted key
        mu = data.draw(st.sampled_from(multipartitions(f.k, f.n)))
        f = f.scale(f.den)  # polynomial Schur coefficients
        assert schur_coefficient(f, mu) == schur_coefficient_oracle(f, mu)

    @given(integer_tables(), integer_tables(), denominators)
    @settings(max_examples=40, deadline=None)
    def test_round_trips(self, a, b, den):
        k, n, nums = a
        f = powersum_symfunc(k, n, {rho: p * den for rho, p in nums.items()}, den)
        assert SymFunc.from_schur(k, n, f.to_schur()) == f
        k, n, table = b
        nonzero = {key: p for key, p in sorted(table.items()) if p}
        assert SymFunc.from_schur(k, n, table).to_schur() == nonzero


# keys with repeated components, for k = 2, 3 and 4
REPEATED = [
    (2, 3, [((1, 1, 1), (1, 1, 1)), ((2, 1), (2, 1)), ((1, 1, 1), (3,))]),
    (3, 3, [((2, 1), (2, 1), (2, 1)), ((1, 1, 1), (2, 1), (2, 1)), ((1, 1, 1), (3,), (3,))]),
    (3, 4, [((2, 2), (2, 2), (3, 1)), ((1, 1, 1, 1), (2, 1, 1), (4,))]),
    (4, 2, [((1, 1), (1, 1), (2,), (2,)), ((2,), (2,), (2,), (2,)), ((1, 1),) * 3 + ((2,),)]),
    (4, 3, [((1, 1, 1), (2, 1), (2, 1), (3,)), ((2, 1),) * 4]),
]


def _with_repeated_keys(keys) -> dict:
    return {key: Q.scale(i + 1) + U**i for i, key in enumerate(keys)}


class TestFullKeyReferences:
    """multiply and the change of basis on sorted keys against the full-key
    versions of tests/oracles.py, compared at every ordered key."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiply_matches_full_key_product(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        f = data.draw(symfuncs(k=k, n=data.draw(st.integers(1, 3))))
        g = data.draw(symfuncs(k=k, n=data.draw(st.integers(1, 2))))
        h = f.multiply(g)
        assert h.den == f.den * g.den
        _check_product(f, g, h)

    def test_merged_orbits_match_the_double_loop(self):
        # every pair of sorted keys, k = 2..4, |ka| <= 3 and 1 <= |kb| <= 3
        pairs = 0
        for k in (2, 3, 4):
            keys = [key for n in range(4) for key in multipartitions(k, n)
                    if key == tuple(sorted(key))]
            for ka in keys:
                for kb in (key for key in keys if key[0]):
                    assert dict(_merged_orbits(ka, kb)) == merged_orbits_reference(ka, kb)
                    pairs += 1
        assert pairs == 812

    def test_orbit_is_the_distinct_permutations(self):
        # sorted and reversed keys of k <= 7 components of size <= 2
        shapes = [lam for n in range(3) for lam in enumerate_partitions(n)]
        for k in range(1, 8):
            for key in combinations_with_replacement(shapes, k):
                want = tuple(sorted(set(permutations(key))))
                assert orbit(key) == orbit(key[::-1]) == want, key

    def test_orbit_of_equal_components_is_one_ordering(self):
        assert orbit(((1,),) * 16) == (((1,),) * 16,)

    @given(integer_tables(), integer_tables())
    @settings(max_examples=40, deadline=None)
    def test_change_basis_matches_full_key_reference(self, a, b):
        _check_to_schur(*a)
        _check_from_schur(*b)

    @pytest.mark.parametrize("k, n, keys", REPEATED)
    def test_repeated_components(self, k, n, keys):
        f = powersum_symfunc(k, n, _with_repeated_keys(keys), Q + ONE)
        g = SymFunc(k, n, SymFunc.from_schur(k, n, _with_repeated_keys(keys[::-1])).coeffs,
                    Q + ONE)
        _check_product(f, g, f.multiply(g))
        _check_product(f, f, f.multiply(f))
        table = _with_repeated_keys(keys)
        _check_to_schur(k, n, table)
        _check_from_schur(k, n, table)
        f = powersum_symfunc(k, n, table)
        assert f.to_schur() == schur_table_oracle(f)
        assert SymFunc.from_schur(k, n, table) == from_schur_oracle(k, n, table)


def _check_product(f: SymFunc, g: SymFunc, h: SymFunc) -> None:
    """h = f g against multiply_reference on the power-sum numerators, at
    every ordered key, cross-multiplied by the denominators."""
    (fp, f_den), (gp, g_den), (hp, h_den) = powersum_of(f), powersum_of(g), powersum_of(h)
    want = multiply_reference(fp, gp)  # over f_den * g_den
    assert ({key: p * f_den * g_den for key, p in hp.items()}
            == {key: p * h_den for key, p in want.items()})


def _check_to_schur(k: int, n: int, nums: dict) -> None:
    """to_schur of the power-sum function with numerators nums against
    change_basis_reference, at every ordered key."""
    want, _ = change_basis_reference(expand_orbits(nums), k, n, False)
    assert expand_orbits(powersum_symfunc(k, n, nums).to_schur()) == want


def _check_from_schur(k: int, n: int, table: dict) -> None:
    """from_schur of a Schur table against change_basis_reference, at
    every ordered key: over 1, with the reference's power-sum numerators
    over (n!)^k."""
    want, zk = change_basis_reference(expand_orbits(table), k, n, True)
    got = SymFunc.from_schur(k, n, table)
    assert got.den == ONE
    assert powersum_of(got) == (want, PolyQU.const(zk))


@st.composite
def wide_tables(draw) -> tuple:
    """(k, n, table) with k <= 4 and integer coefficients up to 2^200 in
    size, q-degree up to 4 and u-degree up to 3."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4 if k < 4 else 3))
    keys = draw(st.lists(st.sampled_from(multipartitions(k, n)), max_size=5, unique=True))
    big = st.integers(min_value=-(2**200), max_value=2**200)
    coeffs = {key: PolyQU(draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)), big, min_size=1, max_size=4)))
        for key in keys}
    return k, n, symmetrized(k, coeffs)


class TestPackedChangeOfBasis:
    """The change of basis runs on packed integers whose digit size comes
    from the column bound C of _character_rows; checked against the
    per-coefficient full-key reference at coefficient sizes far past the
    pipeline's."""

    @given(wide_tables(), wide_tables())
    @settings(max_examples=40, deadline=None)
    def test_wide_coefficients_match_reference(self, a, b):
        _check_to_schur(*a)
        _check_from_schur(*b)

    @pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 4), (4, 3)])
    @pytest.mark.parametrize("to_powersum", [True, False])
    def test_bound_covers_an_all_positive_column(self, k, n, to_powersum):
        # the input takes the sign of chi(src, target) at the target whose
        # column has the largest sum of |chi|, C; toward b_rho that is
        # rho = 1^n, where every character value is a positive degree.
        # Toward the Schur side each input is first scaled by
        # (n!)^k / z_src, so there it is taken z_src times larger.  The
        # output is max |scaled input| * C^k, the bound's own product, and
        # it must still fit the digits.
        def chi(src, lam):
            return character_value(src, lam) if to_powersum else character_value(lam, src)

        shapes = enumerate_partitions(n)
        column = {lam: sum(abs(chi(src, lam)) for src in shapes) for lam in shapes}
        C = max(column.values())
        target = next(lam for lam in shapes if column[lam] == C)
        if to_powersum:
            assert target == (1,) * n
        assert _character_rows(n, to_powersum)[1] == C
        sign = {src: (chi(src, target) > 0) - (chi(src, target) < 0) for src in shapes}
        weight = {src: 1 if to_powersum else z_lambda(src) for src in shapes}
        M = 2**200 - 1
        table = {key: PolyQU.const(M * math.prod(sign[c] * weight[c] for c in key))
                 for key in multipartitions(k, n) if list(key) == sorted(key)}
        got = _change_basis(SymFunc(k, n, table), to_powersum)  # before any division
        top = M * (1 if to_powersum else math.factorial(n) ** k)  # the scaled inputs
        B = (top * C**k).bit_length() + 1
        assert max(abs(c) for p in got.values() for c in p.terms.values()) < 2 ** (B - 1)
        assert got[(target,) * k] == PolyQU.const(top * C**k)
        if to_powersum:
            nums, zk = change_basis_reference(expand_orbits(table), k, n, True)
            assert powersum_of(SymFunc(k, n, got)) == (nums, PolyQU.const(zk))
        else:
            nums, _ = powersum_of(SymFunc(k, n, table))
            nonzero = {key: p for key, p in got.items() if p}
            assert expand_orbits(nonzero) == change_basis_reference(nums, k, n, False)[0]


class TestPackedMultiplyUp:
    """SymFunc.over to a multiple den * c packs c once and multiplies each
    numerator as one big integer, with digits sized by the largest
    |p|_max |c|_1; checked against the PolyQU product at every key."""

    @given(st.one_of(integer_tables(), wide_tables()),
           st.builds(PolyQU.scale, st.sampled_from(Q_FACTORS[1:]), st.integers(1, 6)),
           st.dictionaries(st.integers(0, 5), st.integers(-(2**70), 2**70), min_size=1, max_size=4)
           .map(lambda terms: PolyQU({(i, 0): c for i, c in terms.items()}))
           .filter(lambda c: not c.is_zero()))
    @settings(max_examples=60, deadline=None)
    def test_numerators_are_the_products(self, drawn, den, c):
        k, n, nums = drawn
        f = SymFunc(k, n, nums, den)
        g = f.over(den * c)
        assert g.den == den * c
        assert g.coeffs == {key: p * c for key, p in f.coeffs.items()}

    def test_a_coefficient_reaches_the_digit_bound(self):
        # p all M and c all positive: the q^1 coefficient of p * c is
        # M (1 + 2) = |p|_max |c|_1, the bound's own product
        M = 2**64 - 1
        p = PolyQU({(i, j): M for i in range(3) for j in range(2)})
        c = ONE + Q.scale(2)
        got = SymFunc(1, 2, {((2,),): p, ((1, 1),): p.scale(-1)}, Q - ONE).over((Q - ONE) * c)
        assert got.coeffs == {((2,),): p * c, ((1, 1),): (p * c).scale(-1)}
        assert (p * c).terms[(1, 0)] == M * 3


class TestTensorExpand:
    FACTORS = [
        [((1,), 5)],
        [((1, 1), 3), ((2,), 2)],
        [((1, 1, 1), 13), ((2, 1), 11), ((3,), 7)],
        [((2,), 17), ((1, 1), 19)],
    ]

    def test_keys_in_product_order_and_coefficients_are_products(self):
        terms = tensor_expand(self.FACTORS, 23)
        combos = [c for c in product(*self.FACTORS) if list(c) == sorted(c)]
        assert [key for key, _ in terms] == [tuple(r for r, _ in combo) for combo in combos]
        assert len(terms) == 1
        for (_, c), combo in zip(terms, combos):
            assert c == 23 * math.prod(v for _, v in combo)
        assert tensor_expand([], 23) == [((), 23)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_factors_give_the_orbit_representatives(self, k):
        factor = [((1, 1, 1), 13), ((2, 1), 11), ((3,), 7)]
        reps = dict(tensor_expand([factor] * k, 1))
        full = {tuple(r for r, _ in combo): math.prod(v for _, v in combo)
                for combo in product(factor, repeat=k)}
        assert all(list(key) == sorted(key) for key in reps)
        assert expand_orbits(reps) == full

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
        # one multiply per sorted prefix: 1 + 2 + 5 + 1
        sorted_prefixes = sum(
            1 for i in range(1, 5) for c in product(*self.FACTORS[:i]) if list(c) == sorted(c))
        assert Counted.muls == sorted_prefixes == 9
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
    one = GradedSeries(k, N, [SymFunc.one(k)] + [SymFunc.zero(k, n) for n in range(1, N + 1)])
    f = GradedSeries.zero(k, N)
    term = SymFunc(k, 1, {((((1,),) * k)): ONE})
    coeffs = list(f.coeffs)
    coeffs[1] = term
    f = GradedSeries(k, N, coeffs)
    acc = one
    power = one
    for _ in range(N):
        power = series_mul(power, f)
        acc = acc.add(power)
    return acc


class TestGradedSeries:
    def test_mul_grading(self):
        s = geometric_series(1, 4)
        # (sum p_1^n) has degree-n coefficient p_1^n = p_(1^n)
        assert s.coeffs[0] == SymFunc.one(1)
        for n in range(1, 5):
            got = s.coeffs[n]
            assert got == powersum_symfunc(1, n, {((1,) * n,): ONE}) and got.den == ONE

    def test_exp_log_roundtrip(self):
        f = GradedSeries.zero(2, 5)
        coeffs = list(f.coeffs)
        coeffs[1] = SymFunc(2, 1, {(((1,), (1,))): Q})
        # the orbit sum p_2(x) p_11(y) + p_11(x) p_2(y), and p_2 p_2
        coeffs[2] = powersum_symfunc(2, 2, {((1, 1), (2,)): ONE, ((2,), (2,)): U}, PolyQU.const(2))
        f = GradedSeries(2, 5, coeffs)
        assert series_equal(f.plain_exp().plain_log(), f)
        assert series_equal(pleth_log(pleth_exp(f)), f)

    def test_exp_homomorphism(self):
        # Exp(f+g) = Exp(f) Exp(g), and the same for plain exp
        fa = GradedSeries.zero(1, 5)
        ca = list(fa.coeffs)
        ca[1] = SymFunc(1, 1, {(((1,),)): ONE})
        fa = GradedSeries(1, 5, ca)
        fb = GradedSeries.zero(1, 5)
        cb = list(fb.coeffs)
        cb[2] = SymFunc(1, 2, {(((2,),)): U})
        fb = GradedSeries(1, 5, cb)
        lhs_plain = fa.add(fb).plain_exp()
        rhs_plain = series_mul(fa.plain_exp(), fb.plain_exp())
        assert series_equal(lhs_plain, rhs_plain)
        lhs = pleth_exp(fa.add(fb))
        rhs = series_mul(pleth_exp(fa), pleth_exp(fb))
        assert series_equal(lhs, rhs)

    def test_pleth_exp_of_p1_counts_partitions(self):
        # Exp(p_1) = sum over all partitions: coefficient of degree n lists
        # every p_rho / z_rho
        f = GradedSeries.zero(1, 5)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, {(((1,),)): ONE})
        f = GradedSeries(1, 5, c)
        e = pleth_exp(f)
        for n in range(1, 6):
            got = e.coeffs[n]
            assert got.coeffs.keys() == {(rho,) for rho in enumerate_partitions(n)}
            for rho in enumerate_partitions(n):
                assert coefficient(got, (rho,)) == rat(1, z_lambda(rho))

    def test_psi_inverse(self):
        f = GradedSeries.zero(1, 6)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, {(((1,),)): Q})
        c[3] = SymFunc(1, 3, {(((2, 1),)): PolyQU.const(7)}, PolyQU.const(3))
        f = GradedSeries(1, 6, c)
        # Psi is the Adams sum with weight 1, its inverse the one with mu
        psi = f.adams_sum(lambda m: 1)
        assert not series_equal(psi, f)
        assert series_equal(psi.adams_sum(mobius), f)
        assert series_equal(f.adams_sum(mobius).adams_sum(lambda m: 1), f)

    @pytest.mark.parametrize("weight", [
        lambda m: 1,
        lambda m: Q * U + PolyQU.const(m),  # polynomial in q and u
        lambda m: 0 if m in (2, 5) else 3 - m,  # zero weights, and 2 at m = 1
        lambda m: PolyQU() if m == 1 else U**m - Q,  # the zero polynomial at m = 1
    ])
    def test_adams_sum_is_the_weighted_sum_of_adams(self, weight):
        f = GradedSeries.zero(2, 6)
        c = list(f.coeffs)
        c[1] = SymFunc(2, 1, {((1,), (1,)): Q + U})
        c[2] = powersum_symfunc(2, 2, {((1, 1), (2,)): ONE, ((2,), (2,)): U}, Q - ONE)
        f = GradedSeries(2, 6, c)
        by_hand = GradedSeries.zero(2, 6)
        for m in range(1, 7):
            by_hand = by_hand.add(series_scale(adams_series(f, m), weight(m)))
        assert series_equal(f.adams_sum(weight), by_hand)

    def test_adams_composition(self):
        f = GradedSeries.zero(1, 6)
        c = list(f.coeffs)
        c[1] = SymFunc(1, 1, {(((1,),)): Q + ONE})
        f = GradedSeries(1, 6, c)
        assert series_equal(adams_series(adams_series(f, 2), 3), adams_series(f, 6))

    def test_exp_requires_zero_constant_term(self):
        one = [SymFunc.one(1)] + [SymFunc.zero(1, n) for n in (1, 2, 3)]
        with pytest.raises(AssertionError):
            GradedSeries(1, 3, one).plain_exp()
        with pytest.raises(AssertionError, match="zero constant term"):
            GradedSeries(1, 3, one).adams_sum(lambda m: 1)
        with pytest.raises(AssertionError):
            GradedSeries.zero(1, 3).plain_log()
