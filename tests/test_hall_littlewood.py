"""Modified Hall-Littlewood functions on the Schur side and the
Kostka-Foulkes polynomials read off them, by both routes: the library's
read-off of the power-sum Green record (multiplicities.transformed_hl)
and the vertex-operator reference (oracles.transformed_hl_oracle), each
cross-checked against a weight-multiplicity oracle and tableau counts,
and the whole transformed table pinned by digest."""

from __future__ import annotations

import hashlib

import pytest

from ennola.coeffs import ONE, ZERO, PolyQU, Q
from ennola.multiplicities import transformed_hl
from ennola.partitions import enumerate_partitions, n_stat
from oracles import (
    dominates,
    evaluate,
    kostka_foulkes,
    q_weight_multiplicity,
    ssyt_count,
    strips,
    transformed_hl_oracle,
)

ROUTES = pytest.mark.parametrize("hl", [transformed_hl_oracle, transformed_hl],
                                 ids=["vertex-operator", "green-record"])


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
                    grown = strips(shape, r, 1)
                    assert len(set(grown)) == len(grown)
                    assert set(grown) == {rho for rho in enumerate_partitions(n + r)
                                          if _is_horizontal_strip(rho, shape)}
                    shrunk = strips(shape, r, -1)
                    assert len(set(shrunk)) == len(shrunk)
                    smaller = enumerate_partitions(n - r) if r <= n else ()
                    assert set(shrunk) == {sigma for sigma in smaller
                                           if _is_horizontal_strip(shape, sigma)}

    def test_pieri_anchors(self):
        # h_2 s_(1): s_3 + s_(2,1); removing two cells from (2, 1) leaves (1)
        assert sorted(strips((1,), 2, 1)) == [(2, 1), (3,)]
        assert strips((2, 1), 2, -1) == ((1,),)
        assert strips((1, 1), 2, -1) == ()
        assert strips((), 0, 1) == ((),)


class TestKostkaFoulkes:
    @ROUTES
    def test_dominance_support(self, hl):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    kf = kostka_foulkes(nu, lam, hl)
                    if not dominates(nu, lam):
                        assert kf == ZERO
                    elif nu == lam:
                        assert kf == ONE

    @ROUTES
    def test_anchor_values(self, hl):
        assert kostka_foulkes((2,), (1, 1), hl) == Q
        assert kostka_foulkes((2, 1), (1, 1, 1), hl) == Q**2 + Q
        assert kostka_foulkes((3,), (1, 1, 1), hl) == Q**3
        assert kostka_foulkes((2, 2), (2, 1, 1), hl) == Q
        assert kostka_foulkes((4, 1), (2, 2, 1), hl) == Q**3 + Q**2
        assert kostka_foulkes((3, 1, 1), (2, 2, 1), hl) == Q
        assert kostka_foulkes((3, 2), (2, 2, 1), hl) == Q**2 + Q

    @ROUTES
    def test_column_shape_gives_n_stat_degree(self, hl):
        # K_{nu,(1^n)}(q) has degree n(nu') pieces; at least the top one:
        # K_{(n),(1^n)} = q^{n(n-1)/2}
        for n in range(1, 7):
            assert kostka_foulkes((n,), (1,) * n, hl) == Q ** (n * (n - 1) // 2)

    @ROUTES
    def test_matches_weight_multiplicity_oracle(self, hl):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    assert kostka_foulkes(nu, lam, hl) == q_weight_multiplicity(
                        nu, lam
                    ), (nu, lam)

    @ROUTES
    def test_q_equals_one_counts_tableaux(self, hl):
        for n in range(1, 7):
            for nu in enumerate_partitions(n):
                for lam in enumerate_partitions(n):
                    kf = kostka_foulkes(nu, lam, hl)
                    assert evaluate(kf, 1) == ssyt_count(nu, lam), (nu, lam)


class TestTransformedKostka:
    @ROUTES
    def test_exponents_lie_in_zero_to_n_stat(self, hl):
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                top = n_stat(lam)
                for (nu,), c in hl(lam).items():
                    assert all(0 <= d <= top and e == 0 for d, e in c.terms), (nu, lam)

    @ROUTES
    def test_is_reflected_weight_multiplicity(self, hl):
        # cocharge form: q^{n(lam)} K_{nu,lam}(1/q), K from the oracle
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                top = n_stat(lam)
                for nu in enumerate_partitions(n):
                    kf = q_weight_multiplicity(nu, lam)
                    want = PolyQU({(top - d, 0): c for (d, _), c in kf.terms.items()})
                    assert hl(lam).get((nu,), ZERO) == want, (nu, lam)

    @ROUTES
    def test_anchors(self, hl):
        # K~_{(2),(1,1)} = 1, and K~_{(1,1),(1,1)} = q^{n((1,1))} = q
        assert hl((1, 1)).get(((2,),), ZERO) == ONE
        assert hl((1, 1)).get(((1, 1),), ZERO) == Q ** n_stat((1, 1)) * ONE


class TestTransformedHL:
    @ROUTES
    def test_expansion_in_schur_basis(self, hl):
        # H~_(1,1) = s_2 + q s_(1,1)
        f = hl((1, 1))
        got = {key[0]: c for key, c in f.items() if not c.is_zero()}
        assert set(got) == {(2,), (1, 1)}
        assert got[(2,)] == ONE
        assert got[(1, 1)] == Q

    @ROUTES
    def test_trivial_row_shape(self, hl):
        # H~_(n) = s_n for all n
        for n in range(1, 6):
            f = hl((n,))
            got = {key[0]: c for key, c in f.items() if not c.is_zero()}
            assert set(got) == {(n,)}
            assert got[(n,)] == ONE

    @ROUTES
    def test_column_shape_top_term(self, hl):
        # H~_(1^n) has s_(1^n) coefficient q^{n(n-1)/2}
        for n in range(2, 6):
            f = hl((1,) * n)
            c = f[((1,) * n,)]
            assert c == Q ** (n * (n - 1) // 2)

    @ROUTES
    def test_specialization_q_one_is_complete_homogeneous(self, hl):
        # at q = 1 the modified HL function becomes h_lam; its Schur
        # expansion coefficients are the Kostka numbers K_{nu,lam}
        for lam in [(2, 1), (2, 2), (3, 1)]:
            f = hl(lam)
            for key, c in f.items():
                nu = key[0]
                assert evaluate(c, 1) == ssyt_count(nu, lam)


class TestTransformedTablePin:
    """SHA-256 of a canonical dump of every Schur table of H~_lam with
    |lam| <= 9, on either route, taken from the charge-statistic definition
    K_{nu,lam} = sum of q^charge over tableaux: the weight-multiplicity
    oracle is affordable only through |lam| = 6."""

    DIGEST = "59550d4a16b853435c44ae6e753787ed9dc341d2f0c8e424d110303b2035cd5a"

    @ROUTES
    def test_digest(self, hl):
        lines = []
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                f = hl(lam)
                # a Schur table is over the denominator 1
                lines.append(f"{lam} over {sorted(ONE.terms.items())}")
                lines.extend(f"  {nu}: {sorted(c.terms.items())}"
                             for (nu,), c in sorted(f.items()))
        dump = "\n".join(lines) + "\n"
        assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == self.DIGEST

    @ROUTES
    def test_keys_are_the_dominating_shapes_in_enumeration_order(self, hl):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                keys = [nu for (nu,) in hl(lam)]
                assert keys == [nu for nu in enumerate_partitions(n) if dominates(nu, lam)]
