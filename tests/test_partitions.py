"""Partition combinatorics, centralizer orders, and text round-trips."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola.coeffs import ONE, Q, ZERO, PolyQU, poly_exact_div
from ennola.partitions import (
    ParseError,
    a_factors,
    check_partition,
    cofactor,
    dual,
    enumerate_partitions,
    multipartition_to_text,
    n_stat,
    parse_multipartition,
    parse_partition,
    partition_to_text,
    size,
    z_lambda,
)
from oracles import a_poly, dominates, hook_poly, unipotent_degree


@st.composite
def partitions(draw, max_size: int = 10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining, cap = n, n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return tuple(parts)


class TestBasics:
    def test_check_partition(self):
        assert check_partition([3, 1]) == (3, 1)
        assert check_partition([]) == ()
        with pytest.raises(ValueError):
            check_partition([1, 3])
        with pytest.raises(ValueError):
            check_partition([2, 0])

    @pytest.mark.parametrize("n", [-1, -3], ids=["n-minus-1", "n-minus-3"])
    def test_enumerate_refuses_negative_size(self, n):
        with pytest.raises(AssertionError) as exc:
            enumerate_partitions(n)
        assert str(exc.value) == "n must be nonnegative"

    def test_size_and_counts(self):
        # number of partitions of n for n = 0..9
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, count in enumerate(expected):
            parts = enumerate_partitions(n)
            assert len(parts) == count
            assert all(size(lam) == n for lam in parts)
            assert len(set(parts)) == count

    @given(partitions())
    @settings(max_examples=60)
    def test_dual_is_involution(self, lam):
        assert dual(dual(lam)) == lam
        assert size(dual(lam)) == size(lam)

    def test_dual_examples(self):
        assert dual((3, 1)) == (2, 1, 1)
        assert dual((2, 2)) == (2, 2)
        assert dual(()) == ()

    def test_n_stat(self):
        # sum of (i-1) * lam_i with rows indexed from 1
        assert n_stat((1, 1, 1)) == 3
        assert n_stat((3,)) == 0
        assert n_stat((2, 1)) == 1

    def test_z_lambda(self):
        # z of (1^n) is n!; z of (n) is n; z of (2,1) is 2
        assert z_lambda((1, 1, 1)) == 6
        assert z_lambda((4,)) == 4
        assert z_lambda((2, 1)) == 2
        assert z_lambda(()) == 1

    @given(partitions(max_size=8))
    @settings(max_examples=40)
    def test_z_lambda_sums_to_factorial(self, lam):
        n = size(lam)
        total = sum(
            math.factorial(n) // z_lambda(m) for m in enumerate_partitions(n)
        )
        assert total == math.factorial(n)


class TestDominance:
    def test_anchors(self):
        assert dominates((3,), (2, 1))
        assert dominates((2, 1), (1, 1, 1))
        assert not dominates((1, 1, 1), (2, 1))
        assert not dominates((2, 2), (3, 1))
        assert dominates((2, 2), (2, 2))

    @given(partitions(max_size=8))
    @settings(max_examples=40)
    def test_reflexive_and_extremes(self, lam):
        n = size(lam)
        assert dominates(lam, lam)
        if n:
            assert dominates((n,), lam)
            assert dominates(lam, (1,) * n)

    def test_antisymmetric(self):
        for n in range(7):
            for a in enumerate_partitions(n):
                for b in enumerate_partitions(n):
                    if dominates(a, b) and dominates(b, a):
                        assert a == b


class TestCentralizerOrders:
    def test_a_poly_anchors(self):
        assert a_poly(()) == ONE
        assert a_poly((1,)) == Q - ONE
        # single Jordan block of size 2: (q - 1) * q
        assert a_poly((2,)) == (Q - ONE) * Q
        # central classes: full GL_2 order (q^2-1)(q^2-q)
        assert a_poly((1, 1)) == (Q**2 - ONE) * (Q**2 - Q)

    def test_a_factors_is_the_centralizer_order(self):
        # the closed form against the oracle's, from the conjugate partition
        for n in range(13):
            for lam in enumerate_partitions(n):
                s, ts = a_factors(lam)
                assert Q**s * math.prod((Q**t - ONE for t in ts), start=ONE) == a_poly(lam), lam

    def test_cofactor_is_the_unipotent_class_size(self):
        # q^(S - s) cofactor(n, ts) = |GL_n(F_q)| / a_lam, S = n(n-1)/2
        for n in range(1, 13):
            gl_order = math.prod((Q**n - Q**i for i in range(n)), start=ONE)
            for lam in enumerate_partitions(n):
                s, ts = a_factors(lam)
                want = poly_exact_div(gl_order, a_poly(lam))
                assert Q ** (n * (n - 1) // 2 - s) * cofactor(n, ts) == want, lam

    def test_cofactor_refuses_factors_that_do_not_divide(self):
        with pytest.raises(AssertionError, match=r"\(q;q\)_2 is not a multiple"):
            cofactor(2, (3,))

    def test_steinberg_mass_formula(self):
        # sum over partitions of n of |GL_n| / a_lambda equals the number of
        # unipotent elements, q^(n^2 - n)
        for n in range(1, 7):
            gl_order = ONE
            for i in range(n):
                gl_order = gl_order * (Q**n - Q**i)
            total = ZERO
            for lam in enumerate_partitions(n):
                total = total + poly_exact_div(gl_order, a_poly(lam))
            assert total == Q ** (n * n - n)

    def test_hook_poly(self):
        assert hook_poly((1,)) == Q - ONE
        # hooks of (2,1) are 3,1,1
        assert hook_poly((2, 1)) == (Q**3 - ONE) * (Q - ONE) ** 2

    def test_unipotent_degree_anchors(self):
        # trivial and Steinberg characters
        for n in range(1, 6):
            assert unipotent_degree((n,)) == ONE
            steinberg = PolyQU.monomial(1, n * (n - 1) // 2, 0)
            assert unipotent_degree((1,) * n) == steinberg
        assert unipotent_degree((2, 1)) == Q * (Q + ONE)

    def test_unipotent_degree_sum_of_squares_bound(self):
        # degrees divide |GL_n|_q' so they are monic in leading term and the
        # q-degree equals n(mu') choose structure; check degrees are monic
        for n in range(1, 7):
            for mu in enumerate_partitions(n):
                d = unipotent_degree(mu)
                _, lead = d.leading()
                assert lead == 1


class TestTextForms:
    def test_to_text(self):
        assert partition_to_text(()) == "0"
        assert partition_to_text((1, 1, 1, 1)) == "1^4"
        assert partition_to_text((3, 2, 2, 1)) == "3.2^2.1"
        assert partition_to_text((5,)) == "5"

    def test_parse_dot_and_caret(self):
        assert parse_partition("1^4") == (1, 1, 1, 1)
        assert parse_partition("3.2^2.1") == (3, 2, 2, 1)
        assert parse_partition("0") == ()

    def test_parse_errors(self):
        # a comma separates the components of a multipartition, never parts
        for bad in ["", "1.2", "a", "2^0", "1..2", "-1", "2,1", " 2 , 1 "]:
            with pytest.raises(ParseError):
                parse_partition(bad)

    @given(partitions())
    @settings(max_examples=60)
    def test_roundtrip(self, lam):
        assert parse_partition(partition_to_text(lam)) == lam

    def test_multipartition_roundtrip(self):
        mu = ((2, 1), (1, 1, 1), (3,))
        text = multipartition_to_text(mu)
        assert text == "2.1,1^3,3"
        assert parse_multipartition(text) == mu

    def test_multipartition_size_mismatch(self):
        with pytest.raises(ParseError):
            parse_multipartition("2.1,1^4")
