"""Kostka-Foulkes polynomials and modified Hall-Littlewood functions,
cross-checked against a weight-multiplicity oracle and tableau counts, and
the whole transformed table pinned by digest."""

from __future__ import annotations

import hashlib

import pytest

from ennola.coeffs import ONE, Q, ZERO
from ennola.hall_littlewood import (
    _strips,
    kostka_foulkes,
    transformed_hl,
    transformed_kostka,
)
from ennola.partitions import enumerate_partitions, n_stat, size
from oracles import dominates, q_weight_multiplicity, ssyt_count


def _is_horizontal_strip(big: tuple, small: tuple) -> bool:
    """big/small is a horizontal strip: big_{i+1} <= small_i <= big_i."""
    rows = max(len(big), len(small)) + 1
    b = big + (0,) * (rows - len(big))
    s = small + (0,) * (rows - len(small))
    return all(b[i + 1] <= s[i] <= b[i] for i in range(rows - 1))


class TestStrips:
    def test_matches_the_interlacing_definition(self):
        for n in range(7):
            for shape in enumerate_partitions(n):
                for r in range(4):
                    grown = _strips(shape, r, 1)
                    assert len(set(grown)) == len(grown)
                    assert set(grown) == {rho for rho in enumerate_partitions(n + r)
                                          if _is_horizontal_strip(rho, shape)}
                    shrunk = _strips(shape, r, -1)
                    assert len(set(shrunk)) == len(shrunk)
                    smaller = enumerate_partitions(n - r) if r <= n else ()
                    assert set(shrunk) == {sigma for sigma in smaller
                                           if _is_horizontal_strip(shape, sigma)}

    def test_pieri_anchors(self):
        # h_2 s_(1): s_3 + s_(2,1); removing two cells from (2, 1) leaves (1)
        assert sorted(_strips((1,), 2, 1)) == [(2, 1), (3,)]
        assert _strips((2, 1), 2, -1) == ((1,),)
        assert _strips((1, 1), 2, -1) == ()
        assert _strips((), 0, 1) == ((),)


class TestKostkaFoulkes:
    def test_dominance_support(self):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    kf = kostka_foulkes(nu, lam)
                    if not dominates(nu, lam):
                        assert kf == ZERO
                    elif nu == lam:
                        assert kf == ONE

    def test_anchor_values(self):
        assert kostka_foulkes((2,), (1, 1)) == Q
        assert kostka_foulkes((2, 1), (1, 1, 1)) == Q**2 + Q
        assert kostka_foulkes((3,), (1, 1, 1)) == Q**3
        assert kostka_foulkes((2, 2), (2, 1, 1)) == Q
        assert kostka_foulkes((4, 1), (2, 2, 1)) == Q**3 + Q**2
        assert kostka_foulkes((3, 1, 1), (2, 2, 1)) == Q
        assert kostka_foulkes((3, 2), (2, 2, 1)) == Q**2 + Q

    def test_column_shape_gives_n_stat_degree(self):
        # K_{nu,(1^n)}(q) has degree n(nu') pieces; at least the top one:
        # K_{(n),(1^n)} = q^{n(n-1)/2}
        for n in range(1, 7):
            assert kostka_foulkes((n,), (1,) * n) == Q ** (n * (n - 1) // 2)

    def test_matches_weight_multiplicity_oracle(self):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    assert kostka_foulkes(nu, lam) == q_weight_multiplicity(
                        nu, lam
                    ), (nu, lam)

    def test_q_equals_one_counts_tableaux(self):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    kf = kostka_foulkes(nu, lam)
                    assert kf.evaluate(1) == ssyt_count(nu, lam), (nu, lam)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            kostka_foulkes((2,), (1, 1, 1))


class TestTransformedKostka:
    def test_degree_reflection(self):
        # cocharge form: q^{n(lam)} K(1/q); evaluating both at 1 must agree
        for n in range(1, 6):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    kf = kostka_foulkes(nu, lam)
                    tk = transformed_kostka(nu, lam)
                    assert tk.evaluate(1) == kf.evaluate(1)
                    if not kf.is_zero():
                        assert tk.qdeg() == n_stat(lam) - min(
                            d for (d, _) in kf.terms
                        )

    def test_anchors(self):
        # n((1,1)) = 1: K~_{(2),(11)} = q * (1/q) = 1... times charge q -> q^0+?
        assert transformed_kostka((2,), (1, 1)) == ONE
        assert transformed_kostka((1, 1), (1, 1)) == Q ** n_stat((1, 1)) * ONE


class TestTransformedHL:
    def test_expansion_in_schur_basis(self):
        # H~_(1,1) = s_2 + q s_(1,1)
        f = transformed_hl((1, 1))
        got = {key[0]: c for key, c in f.items() if not c.is_zero()}
        assert set(got) == {(2,), (1, 1)}
        assert got[(2,)] == ONE
        assert got[(1, 1)] == Q

    def test_trivial_row_shape(self):
        # H~_(n) = s_n for all n
        for n in range(1, 6):
            f = transformed_hl((n,))
            got = {key[0]: c for key, c in f.items() if not c.is_zero()}
            assert set(got) == {(n,)}
            assert got[(n,)] == ONE

    def test_column_shape_top_term(self):
        # H~_(1^n) has s_(1^n) coefficient q^{n(n-1)/2}
        for n in range(2, 6):
            f = transformed_hl((1,) * n)
            c = f[((1,) * n,)]
            assert c == Q ** (n * (n - 1) // 2)

    def test_specialization_q_one_is_complete_homogeneous(self):
        # at q = 1 the modified HL function becomes h_lam; its Schur
        # expansion coefficients are the Kostka numbers K_{nu,lam}
        for lam in [(2, 1), (2, 2), (3, 1)]:
            f = transformed_hl(lam)
            for key, c in f.items():
                nu = key[0]
                assert c.evaluate(1) == ssyt_count(nu, lam)


class TestTransformedTablePin:
    """SHA-256 of a canonical dump of every transformed_hl(lam) with
    |lam| <= 9, taken from the charge-statistic definition
    K_{nu,lam} = sum of q^charge over tableaux: the weight-multiplicity
    oracle is affordable only through |lam| = 6."""

    DIGEST = "59550d4a16b853435c44ae6e753787ed9dc341d2f0c8e424d110303b2035cd5a"

    def test_digest(self):
        lines = []
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                f = transformed_hl(lam)
                # a Schur table is over the denominator 1
                lines.append(f"{lam} over {sorted(ONE.terms.items())}")
                lines.extend(f"  {nu}: {sorted(c.terms.items())}"
                             for (nu,), c in sorted(f.items()))
        dump = "\n".join(lines) + "\n"
        assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == self.DIGEST

    def test_keys_are_the_dominating_shapes_in_enumeration_order(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                keys = [nu for (nu,) in transformed_hl(lam)]
                assert keys == [nu for nu in enumerate_partitions(n) if dominates(nu, lam)]
