"""Types: multisets of (degree, partition) pairs that index conjugacy data,
their enumeration, statistics, logarithm coefficients, and Schur expansions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ennola.coeffs import ONE, Q, ZERO, poly_exact_div
from ennola.partitions import (
    ParseError,
    dual,
    enumerate_partitions,
    parse_multipartition,
)
from ennola.multiplicities import schur_of_type
from ennola.symfunc import GradedSeries, SymFunc
from ennola.types import (
    make_type,
    parse_multitype,
    parse_type,
    type_size,
    type_to_text,
)
from oracles import (
    a_poly,
    a_prime_poly,
    a_type_poly,
    c_omega,
    c_tau,
    dual_type,
    entry_count,
    enumerate_types,
    evaluate,
    extend_to_type,
    from_partition,
    multitype_to_text,
    schur_of_type_oracle,
    transformed_hl_oracle,
)


class TestMakeAndEnumerate:
    def test_canonicalization_merges(self):
        tau = make_type([(1, (2, 1), 1), (1, (2, 1), 2), (2, (1,), 1)])
        assert tau == ((1, (2, 1), 3), (2, (1,), 1))
        assert type_size(tau) == 11
        assert entry_count(tau) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            make_type([])
        with pytest.raises(ValueError):
            make_type([(0, (1,), 1)])
        with pytest.raises(ValueError):
            make_type([(1, (), 1)])
        with pytest.raises(ValueError):
            make_type([(1, (1, 2), 1)])

    def test_from_partition(self):
        assert from_partition((3, 1)) == ((1, (3, 1), 1),)

    def test_enumerate_counts(self):
        # number of size-n types; n=1 gives only 1:(1); n=2 gives four:
        # 1:2, 1:1.1, 1:1^2, 2:1
        expected = {1: 1, 2: 4, 3: 8, 4: 22, 5: 42}
        for n, count in expected.items():
            types_n = enumerate_types(n)
            assert len(types_n) == count, (n, len(types_n))
            assert len(set(types_n)) == count
            assert all(type_size(t) == n for t in types_n)

    def test_enumerate_small_membership(self):
        t2 = set(enumerate_types(2))
        assert make_type([(1, (2,), 1)]) in t2
        assert make_type([(1, (1, 1), 1)]) in t2
        assert make_type([(1, (1,), 2)]) in t2
        assert make_type([(2, (1,), 1)]) in t2


class TestStats:
    def test_dual_type(self):
        tau = make_type([(1, (2, 1), 1), (3, (2,), 2)])
        assert dual_type(tau) == make_type([(1, (2, 1), 1), (3, (1, 1), 2)])
        assert dual_type(dual_type(tau)) == tau


class TestCTau:
    def test_mixed_degrees_vanish(self):
        tau = make_type([(1, (1,), 1), (2, (1,), 1)])
        assert c_tau(tau) == 0

    def test_squarefree_degree_values(self):
        assert c_tau(make_type([(1, (1,), 1)])) == 1
        assert c_tau(make_type([(2, (1,), 1)])) == Fraction(-1, 2)
        assert c_tau(make_type([(4, (1,), 1)])) == 0  # mobius(4) = 0
        # two distinct partitions, same degree 1: (-1)^(2-1) 1! / 1 = -1
        assert c_tau(make_type([(1, (2,), 1), (1, (1, 1), 1)])) == -1
        # one partition with multiplicity 2: (-1) * 1! / 2! = -1/2
        assert c_tau(make_type([(1, (1,), 2)])) == Fraction(-1, 2)
        # three entries same degree: (+1) * 2! / 3! = 1/3
        assert c_tau(make_type([(1, (1,), 3)])) == Fraction(1, 3)

    def test_log_expansion_matches_direct_log(self):
        # Sum over types of c_tau * product of modified HL functions equals
        # the plethystic logarithm of the full generating series
        # sum_lam H~_lam(x; q) / a_lam(q) in each degree.
        from oracles import pleth_log

        N = 4
        series = [SymFunc.one(1)]
        for n in range(1, N + 1):
            acc = SymFunc.zero(1, n)
            for lam in enumerate_partitions(n):
                f = SymFunc.from_schur(1, n, transformed_hl_oracle(lam))
                acc = acc.add(SymFunc(1, n, f.coeffs, a_poly(lam)))
            series.append(acc)
        omega = GradedSeries(1, N, series)
        direct = pleth_log(omega)

        for n in range(1, N + 1):
            acc = SymFunc.zero(1, n)
            for tau in enumerate_types(n):
                c = c_tau(tau)
                if not c:
                    continue
                f = extend_to_type(
                    lambda lam: SymFunc(1, sum(lam), SymFunc.from_schur(
                        1, sum(lam), transformed_hl_oracle(lam)).coeffs, a_poly(lam)),
                    tau,
                )
                f = f.scale(c.numerator)
                acc = acc.add(SymFunc(1, n, f.coeffs, f.den.scale(c.denominator)))
            assert acc == direct.coeffs[n], n


class TestSchurOfType:
    def test_plain_partition_type(self):
        for lam in [(2,), (1, 1), (2, 1)]:
            assert schur_of_type(from_partition(lam)) == {(lam,): ONE}

    def test_unipotent_shortcut_is_the_change_of_basis_round_trip(self):
        # a lone entry (1, lam, 1) has the weights chi^lam, which
        # orthogonality reads back as s_lam; the round trip through b_rho
        # gives the same table
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                round_trip = SymFunc.from_schur(1, n, {(lam,): ONE}).to_schur()
                assert schur_of_type(from_partition(lam)) == round_trip, lam

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_symfunc_product(self, n):
        # read off the power-sum weights, against the product of the
        # Adams-operated Schur functions in SymFunc arithmetic
        for tau in enumerate_types(n):
            assert schur_of_type(tau) == schur_of_type_oracle(tau), tau

    def test_degree_two_type(self):
        # entry (2, (1), 1): s_1 with doubled alphabet = p_2 = s_2 - s_(1,1)
        f = schur_of_type(make_type([(2, (1,), 1)]))
        assert f == {((1, 1),): -ONE, ((2,),): ONE}

    def test_c_omega_integrality(self):
        for n in range(1, 5):
            for tau in enumerate_types(n):
                for mu in enumerate_partitions(n):
                    c = c_omega(tau, mu)
                    assert isinstance(c, int)

    def test_c_omega_duality(self):
        # twisting by duality on both sides fixes the coefficient up to
        # the sign of the permutation parts: check the clean statement
        # c_{omega*}(mu') = +/- c_omega(mu) by absolute values
        for n in range(1, 5):
            for tau in enumerate_types(n):
                for mu in enumerate_partitions(n):
                    a = c_omega(tau, mu)
                    b = c_omega(dual_type(tau), dual(mu))
                    assert abs(a) == abs(b), (tau, mu, a, b)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            c_omega(from_partition((2,)), (1, 1, 1))


class TestCentralizerPolynomials:
    def test_a_type_on_partitions(self):
        for lam in [(1,), (2,), (2, 1)]:
            assert a_type_poly(from_partition(lam)) == a_poly(lam)

    def test_a_type_substitutes_degree(self):
        tau = make_type([(2, (1,), 1)])
        assert a_type_poly(tau) == Q**2 - ONE

    def test_a_prime_sign(self):
        # size-1 type: a' = -a(-q) = -( -q - 1 )... for (1,(1),1): a = q-1,
        # a(-q) = -q-1, times (-1)^1 = q+1
        assert a_prime_poly(from_partition((1,))) == Q + ONE
        # (2,(1),1): a = q^2-1 even size, a' = a(-q) = q^2-1
        assert a_prime_poly(make_type([(2, (1,), 1)])) == Q**2 - ONE

    def test_divisibility_and_positivity(self):
        # every centralizer order divides the group order, and the twisted
        # order polynomial is normalized with a positive leading coefficient
        for n in range(1, 5):
            gl = ONE
            for i in range(n):
                gl = gl * (Q**n - Q**i)
            for tau in enumerate_types(n):
                a = a_type_poly(tau)
                # centralizer order divides group order
                assert poly_exact_div(gl, a) is not None, tau
                ap = a_prime_poly(tau)
                _, lead = ap.leading()
                assert lead > 0, tau  # twisted order has positive leading term


class TestClassEquation:
    def test_types_partition_the_group(self):
        # sum over size-n types of |GL_n(q)| / a_tau(q) counts all of GL_n:
        # every matrix has exactly one rational canonical form, so the sum
        # of class sizes grouped by type is the whole group order.  Every
        # a_tau divides |GL_n(q)|, so each class size is an exact quotient.
        for n in range(1, 6):
            gl = ONE
            for i in range(n):
                gl = gl * (Q**n - Q**i)
            counts = {tau: _degree_poly_count(tau) for tau in enumerate_types(n)}
            lcm = math.lcm(*(d for _, d in counts.values()))
            total = ZERO
            for tau, (num, d) in counts.items():
                total = total + (poly_exact_div(gl, a_type_poly(tau)) * num).scale(lcm // d)
            assert total == gl.scale(lcm)

    def test_twisted_class_equation_via_substitution(self):
        # the twisted centralizer order satisfies a'(q) = (-1)^n a(-q), so
        # the class equation transported through q -> -q reads
        # sum_tau count_tau(-q) * (-1)^n / a'_tau(q) = 1 exactly; over the
        # common denominator (-1)^n |GL_n(-q)|, which every a'_tau divides
        for n in range(1, 6):
            sign = -1 if n % 2 else 1
            gl = ONE
            for i in range(n):
                gl = gl * (Q**n - Q**i)
            common = gl.subst(q=-Q).scale(sign)
            counts = {tau: _degree_poly_count(tau) for tau in enumerate_types(n)}
            lcm = math.lcm(*(d for _, d in counts.values()))
            total = ZERO
            for tau, (num, d) in counts.items():
                cnt = num.subst(q=-Q).scale(sign * (lcm // d))
                total = total + poly_exact_div(common, a_prime_poly(tau)) * cnt
            assert total == common.scale(lcm), n

    def test_twisted_centralizer_orders_positive(self):
        for n in range(1, 5):
            for tau in enumerate_types(n):
                ap = a_prime_poly(tau)
                for qv in (2, 3, 4, 5):
                    assert evaluate(ap, qv) > 0, (tau, qv)


def _degree_poly_count(tau):
    """Number of ways to fill a type's degree-d slots with distinct monic
    irreducibles over F_q (minus the char-poly-zero constraint handled by
    excluding x), as a polynomial in q: product over d of falling factorials
    of I_d(q) = (number of monic irreducibles of degree d, excluding x for
    d = 1), one factor per distinct partition choice at that degree.  The
    polynomial has rational coefficients; it comes back as (numerator, den)
    with an integer polynomial numerator and an integer den."""
    from collections import Counter

    from ennola.coeffs import PolyQU
    from ennola.partitions import mobius

    # d I_d as polynomial: sum_{e | d} mobius(e) q^{d/e}; for d = 1 drop x
    def irr_count_times_d(d):
        total = None
        for e in range(1, d + 1):
            if d % e:
                continue
            term = Q ** (d // e)
            term = term.scale(mobius(e))
            total = term if total is None else total + term
        if d == 1:
            total = total - ONE  # exclude the polynomial x itself
        return total

    by_degree = Counter()
    for d, lam, m in tau:
        by_degree[d] += m
    out = ONE
    den = 1
    for d, slots in by_degree.items():
        base = irr_count_times_d(d)
        for i in range(slots):
            # I_d - i = (d I_d - i d) / d
            out = out * (base - PolyQU.const(i * d))
            den *= d
        # distinct partitions attached to the same degree are unordered per
        # multiplicity, already handled by make_type merging; divide by the
        # multiset permutations of equal (d, lam) entries
    # divide by product of m! for identical entries
    for d, lam, m in tau:
        den *= math.factorial(m)
    return out, den


class TestTextForms:
    def test_roundtrip(self):
        for text in ["1:2.1", "1:1^3", "2:1;1:2.1", "3:2^2;1:1"]:
            tau = parse_type(text)
            assert parse_type(type_to_text(tau)) == tau

    def test_parse_anchors(self):
        assert parse_type("1:2.1") == ((1, (2, 1), 1),)
        assert parse_type("2:1^3") == ((2, (1,), 3),)
        assert parse_type("1:2.1;2:1") == ((1, (2, 1), 1), (2, (1,), 1))

    def test_parse_errors_carry_position_info(self):
        # each error quotes the whole literal, at the offset of the bad piece,
        # with the message of the one check that refused it: the integer
        # reader for a non-digit, and make_type (or check_partition through
        # it) for an entry's ranges and shape
        for parse, bad, pos, message in [
            (parse_type, "", 0, "empty type literal"),
            (parse_type, "x:1", 0, "expected an integer, got 'x'"),
            (parse_type, "1:", 0, "expected an integer, got ''"),
            (parse_type, "1:0", 0, "partition parts must be positive integers, got (0,)"),
            (parse_type, "1:2.1^0", 0, "entry (1, (2, 1), 0) needs positive d and m"),
            (parse_type, "0:1", 0, "entry (0, (1,), 1) needs positive d and m"),
            (parse_type, "1:1.2", 0, "partition parts must be weakly decreasing, got (1, 2)"),
            (parse_type, "1:1;2.1", 4, "type entry needs 'd:parts'"),
            (parse_type, "1:1;x:1", 4, "expected an integer, got 'x'"),
            (parse_type, "2:1; 1:2.x", 4, "expected an integer, got 'x'"),
            (parse_type, "2:1;1:1^x", 4, "expected an integer, got 'x'"),
            (parse_type, "2:1;1:0.1", 4, "partition parts must be positive integers, got (0, 1)"),
            (parse_type, "1:\u00b2", 0, "expected an integer, got '\u00b2'"),
            (parse_multitype, "1:1,0:1,1:1", 4, "entry (0, (1,), 1) needs positive d and m"),
            (parse_multitype, "1:1,1:1,1:1;", 12, "type entry needs 'd:parts'"),
            (parse_multitype, "1:1,1:x,1:1", 4, "expected an integer, got 'x'"),
            (parse_multitype, "1:1,1:2,1:1", 4, "components must have equal size, got 1 and 2"),
            (parse_multipartition, "1.1,2,a", 6, "expected an integer, got 'a'"),
            (parse_multipartition, "1.1,2^x,2", 4, "expected an integer, got 'x'"),
            (parse_multipartition, "2,1.1,3", 6, "components must have equal size, got 2 and 3"),
            (parse_multipartition, "2.1,,2.1", 4, "empty partition literal"),
            # digits that int() refuses, and non-ASCII ones that it reads
            (parse_multipartition, "\u00b2,1", 0, "expected an integer, got '\u00b2'"),
            (parse_multipartition, "\u0663,\u0663,\u0663", 0, "expected an integer, got '\u0663'"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(bad)
            assert (exc.value.text, exc.value.pos, exc.value.message) == (bad, pos, message)
            assert str(exc.value).endswith(f" at position {pos} in {bad!r}")

    def test_multitype(self):
        omega = parse_multitype("1:1^2,2:1")
        assert len(omega) == 2
        assert multitype_to_text(omega) == "1:1^2,2:1"
        with pytest.raises(ParseError):
            parse_multitype("1:1,1:2")
        with pytest.raises(ParseError, match=r"got 1 and 2 at position 4 in '1:1,1:1\.1'$"):
            parse_multitype("1:1,1:1.1")
