"""Symmetric group characters: recursion vs. determinant oracle, orthogonality,
Kronecker multiplicities, and basis-change round-trips."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ennola.partitions import character_value, dual, enumerate_partitions, kronecker, size, z_lambda
from oracles import character_value_oracle, kronecker_oracle


class TestCharacterValues:
    def test_trivial_and_sign(self):
        for n in range(1, 11):
            for rho in enumerate_partitions(n):
                assert character_value((n,), rho) == 1
                parity = (-1) ** (n - len(rho))
                assert character_value((1,) * n, rho) == parity

    def test_dimension_is_value_at_identity(self):
        # hook length formula n!/prod(hooks), by hand on small shapes
        dims = {
            (2, 1): 2,
            (2, 2): 2,
            (3, 1): 3,
            (3, 2): 5,
            (2, 2, 1): 5,
            (3, 1, 1): 6,
            (4, 2): 9,
        }
        for lam, d in dims.items():
            n = size(lam)
            assert character_value(lam, (1,) * n) == d
        # and every shape up to n = 10, the largest size verify reads
        for n in range(1, 11):
            for lam in enumerate_partitions(n):
                col = dual(lam)
                hooks = math.prod(p - j + col[j] - i - 1
                                  for i, p in enumerate(lam) for j in range(p))
                assert character_value(lam, (1,) * n) == math.factorial(n) // hooks, lam

    def test_against_determinant_oracle(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    assert character_value(lam, rho) == character_value_oracle(
                        lam, rho
                    ), (lam, rho)

    def test_size_mismatch_raises(self):
        with pytest.raises(AssertionError):
            character_value((2, 1), (2,))

    def test_dual_shape_twists_by_sign(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    sign = (-1) ** (n - len(rho))
                    assert character_value(dual(lam), rho) == sign * character_value(
                        lam, rho
                    )


class TestOrthogonality:
    def test_row_orthogonality(self):
        for n in range(1, 7):
            shapes = enumerate_partitions(n)
            for a in shapes:
                for b in shapes:
                    inner = sum(
                        Fraction(character_value(a, rho) * character_value(b, rho),
                                 z_lambda(rho))
                        for rho in shapes
                    )
                    assert inner == (1 if a == b else 0), (a, b)

    def test_column_orthogonality(self):
        for n in range(1, 11):
            shapes = enumerate_partitions(n)
            for r1 in shapes:
                for r2 in shapes:
                    inner = sum(
                        character_value(lam, r1) * character_value(lam, r2)
                        for lam in shapes
                    )
                    expected = z_lambda(r1) if r1 == r2 else 0
                    assert inner == expected, (r1, r2)


class TestKronecker:
    def test_anchors(self):
        # square of any character contains the trivial exactly once
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert kronecker((lam, lam)) == 1
        # triple products
        assert kronecker(((2, 1), (2, 1), (2, 1))) == 1
        assert kronecker(((1, 1, 1), (1, 1, 1), (3,))) == 1
        assert kronecker(((1, 1, 1), (1, 1, 1), (1, 1, 1))) == 0
        assert kronecker(((2, 2), (2, 2), (2, 2))) == 1
        assert kronecker(((3, 1), (3, 1), (2, 2))) == 1

    def test_against_brute_force(self):
        for n in range(1, 5):
            shapes = enumerate_partitions(n)
            for a in shapes:
                for b in shapes:
                    for c in shapes:
                        assert kronecker((a, b, c)) == kronecker_oracle((a, b, c))

    def test_two_factor_is_orthogonality(self):
        for n in range(1, 6):
            for a in enumerate_partitions(n):
                for b in enumerate_partitions(n):
                    assert kronecker((a, b)) == (1 if a == b else 0)

    def test_k_equals_one_picks_trivial(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert kronecker((lam,)) == (1 if lam == (n,) else 0)

    def test_fractional_sum_is_an_internal_error(self, monkeypatch):
        # failure injection: a character table that is 1 on the identity
        # class and 0 elsewhere sums to n!/z_(1^n) = 1, not a multiple of
        # n! = 6; the stand-in never calls the cached character_value
        import ennola.partitions as partitions

        monkeypatch.setattr(partitions, "character_value",
                            lambda lam, rho: int(rho == (1,) * len(rho)))
        with pytest.raises(AssertionError, match=r"^Kronecker coefficient for "
                           r"\(\(2, 1\), \(2, 1\)\) came out 1/6$"):
            kronecker(((2, 1), (2, 1)))

    def test_errors(self):
        with pytest.raises(ValueError):
            kronecker(())
        with pytest.raises(ValueError):
            kronecker(((2, 1), (2,)))


class TestBasisChanges:
    def test_roundtrip_schur_powersum(self):
        for n in range(0, 7):
            for lam in enumerate_partitions(n):
                # expand s_lam = sum_rho chi^lam_rho / z_rho p_rho, then
                # each p_rho back in s as sum_mu chi^mu_rho s_mu; collect
                acc: dict = {}
                for rho in enumerate_partitions(n):
                    c = Fraction(character_value(lam, rho), z_lambda(rho))
                    for mu in enumerate_partitions(n):
                        k = character_value(mu, rho)
                        acc[mu] = acc.get(mu, Fraction(0)) + c * k
                acc = {m: v for m, v in acc.items() if v}
                assert acc == {lam: Fraction(1)}

    def test_powersum_expansion_dimensions(self):
        # p_(1^n) = sum_lam dim(lam) s_lam and dims square-sum to n!
        for n in range(1, 7):
            coeffs = [character_value(lam, (1,) * n) for lam in enumerate_partitions(n)]
            assert sum(c * c for c in coeffs) == math.factorial(n)
            assert all(c > 0 for c in coeffs)
