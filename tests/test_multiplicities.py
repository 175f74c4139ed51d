"""Core multiplicity polynomials: orbit-count polynomials, sign data,
the master context pipeline, product-form oracles, verification suite,
and the on-disk cache."""

from __future__ import annotations

import json
import math
import os
from itertools import combinations_with_replacement, permutations

import pytest

import ennola.coeffs as coeffs
import ennola.multiplicities as mult
from ennola.characters import kronecker
from ennola.coeffs import ONE, Q, U, ZERO, PolyQU, poly_exact_div, poly_to_str
from ennola.multiplicities import (
    H_omega,
    MasterContext,
    SignData,
    T_poly,
    T_poly_product_oracle,
    U_poly,
    U_poly_product_oracle,
    Uprime_poly,
    Uprime_poly_product_oracle,
    V_poly,
    Vprime_poly,
    _build_omega,
    _multitype_signs,
    _product_oracle,
    _signed_neg_q,
    _uprime_log_sum,
    as_multitype,
    build_context,
    cache_path,
    clear_cache,
    d_mu,
    load_cache,
    phi_prime,
    phi_u,
    save_cache,
    verify_suite,
)
from ennola.partitions import (
    enumerate_partitions,
    multipartition_to_text,
    multipartitions,
    parse_partition,
)
from ennola.types import from_partition, make_type, parse_multitype, type_size
from oracles import (
    H_omega_oracle,
    _subspaces,
    conjugacy_classes,
    enumerate_types,
    expand_graded,
    generic_multiplicities_from_group,
    gu_classes,
    is_root,
    kac_polynomial_hua,
    omega_oracle,
    phi,
    star_quiver,
    unipotent_degree,
    unipotent_multiplicities_from_group,
    unitary_multiplicities_from_group,
    uprime_log_two_part,
    vprime_sign_reference,
)


class TestOrbitCounts:
    def test_phi_anchors(self):
        # (numerator, d): phi_d = numerator / d
        assert phi(1) == (Q - ONE, 1)
        assert phi(2) == (Q**2 - Q, 2)
        assert phi(3) == (Q**3 - Q, 3)

    def test_phi_prime_anchors(self):
        # the library's orbit counts come as d phi'_d, an integer polynomial
        assert phi_prime(1) == Q + ONE
        # (q^2 - q - 2) / 2: size-2 orbits on a cyclic group of order q^2-1
        # under x -> x^{-q}, after removing the q+1 fixed points
        assert phi_prime(2) == Q**2 - Q - PolyQU.const(2)

    def test_phi_mobius_inversion(self):
        # sum over d | m of d * phi_d = q^m - 1
        for m in range(1, 9):
            total = PolyQU()
            for d in range(1, m + 1):
                if m % d == 0:
                    num, den = phi(d)
                    assert den == d
                    total = total + num
            assert total == Q**m - ONE, m

    def test_phi_prime_mobius_inversion(self):
        # sum over d | m of d * phi'_d = q^m - (-1)^m
        for m in range(1, 9):
            total = PolyQU()
            for d in range(1, m + 1):
                if m % d == 0:
                    total = total + phi_prime(d)
            assert total == Q**m - PolyQU.const((-1) ** m), m

    def test_phi_u_mobius_inversion(self):
        # sum over d | m of d * phi_u,d = u^m (q^m - 1)
        for m in range(1, 9):
            total = PolyQU()
            for d in range(1, m + 1):
                if m % d == 0:
                    total = total + phi_u(d)
            assert total == U**m * (Q**m - ONE), m

    def test_phi_u_specializations(self):
        # phi here is the Moebius-inversion reference in oracles.py
        minus_one = ONE.scale(-1)
        for d in range(1, 8):
            num = phi_u(d)
            assert (num.subst(u=ONE), d) == phi(d), d
            assert num.subst(q=-Q, u=minus_one) == phi_prime(d), d

    def test_integrality_at_prime_powers(self):
        # orbit counts are integers at every prime power
        for d in range(1, 7):
            for qv in (2, 3, 4, 5, 7, 8, 9):
                for name, num in (("phi", phi(d)[0]), ("phi'", phi_prime(d))):
                    v, rem = divmod(num.evaluate(qv), d)
                    assert rem == 0 and v >= 0, (name, d, qv)

    def test_d_must_be_positive(self):
        for f in (phi_prime, phi_u):
            with pytest.raises(ValueError):
                f(0)


class TestSignData:
    def test_pairing_degree_always_even(self):
        for k in (3, 4):
            for n in range(1, 7):
                for mu in multipartitions(k, n):
                    sd = d_mu(mu)
                    assert sd.d_mu % 2 == 0, mu
                    assert sd.sign_uprime in (-1, 1)

    def test_negative_pairing_degree(self):
        # three copies of (2): d = 4*1 - 12 + 2 = -6, half = -3, sign = -1
        sd = d_mu(((2,), (2,), (2,)))
        assert sd.d_mu == -6
        assert sd.sign_uprime == -1
        assert isinstance(sd.sign_uprime, int)

    def test_anchor_values(self):
        # (1,1),(1,1),(1,1): d = 4*1 - 6 + 2 = 0 -> sign +1
        sd = d_mu(((1, 1),) * 3)
        assert sd.d_mu == 0
        assert sd.sign_uprime == 1
        # (1^4)^3: d = 16 - 12 + 2 = 6 -> half 3, sign -1
        sd4 = d_mu(((1, 1, 1, 1),) * 3)
        assert sd4.d_mu == 6
        assert sd4.sign_uprime == -1

    def test_component_size_mismatch(self):
        with pytest.raises(ValueError):
            d_mu(((2,), (1,)))

    def test_multitype_vprime_sign_matches_multipartition_reference(self):
        # V'(q) = s V(-q) with s the product of V's and V''s signs against
        # the pairing; on multipartitions s must be the reference sign read
        # off the multipartition statistics
        count = 0
        for k, nmax in ((2, 6), (3, 6), (4, 5), (5, 4)):
            for n in range(1, nmax + 1):
                for mu in multipartitions(k, n):
                    s, s_prime = _multitype_signs(as_multitype(mu))
                    assert s * s_prime == vprime_sign_reference(mu), mu
                    count += 1
        assert count == 8569


class TestAsMultitype:
    def test_partitions_promote(self):
        mt = as_multitype(((2, 1), (1, 1, 1)))
        assert mt == (from_partition((2, 1)), from_partition((1, 1, 1)))

    def test_types_pass_through(self):
        tau = make_type([(2, (1,), 1)])
        mt = as_multitype((tau, from_partition((1, 1))))
        assert mt == (tau, from_partition((1, 1)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            as_multitype(((2, 1), (1,)))

    def test_types_come_out_canonical(self):
        raw = ((2, (1,), 1), (1, (1,), 1), (1, (1,), 1))
        assert as_multitype((raw,)) == (make_type(raw),) == (((1, (1,), 2), (2, (1,), 1)),)


class TestPipelineSmall:
    """Exercise a small standalone context so these tests stay independent
    of the shared session fixture."""

    def test_intro_evaluations(self, ctx5):
        # the three specializations of the interpolating polynomial at the
        # all-ones column shape of size 4
        mu = ((1, 1, 1, 1),) * 3
        t = T_poly(ctx5, mu)
        assert poly_to_str(t) == "u*q + u + q^3 + q"
        assert poly_to_str(t.subst(u=ONE)) == "q^3 + 2*q + 1"
        assert poly_to_str(U_poly(ctx5, mu)) == "q^3 + 2*q + 1"
        assert poly_to_str(V_poly(ctx5, mu)) == "q^3 + q"

    def test_twisted_unipotent_intro_check(self, ctx5):
        # -U'(-q) for the column shape of size 4 equals q^3 - 1
        mu = ((1, 1, 1, 1),) * 3
        up = Uprime_poly(ctx5, mu)
        neg = up.subst(q=-Q).scale(-1)
        assert poly_to_str(neg) == "q^3 - 1"

    def test_u_is_t_at_one_and_v_is_t_at_zero(self, ctx5):
        for n in range(1, 5):
            for mu in multipartitions(3, n):
                t = T_poly(ctx5, mu)
                assert t.subst(u=ONE) == U_poly(ctx5, mu), mu
                assert t.coeff_of_u(0) == V_poly(ctx5, mu), mu

    def test_generic_multitype_route(self, ctx5):
        # V on a multipartition promotes to the product of unipotent-style
        # types; both entry points must agree
        mu = ((2, 1), (2, 1), (2, 1))
        direct = V_poly(ctx5, mu)
        promoted = V_poly(ctx5, as_multitype(mu))
        assert direct == promoted

    def test_nontrivial_multitype(self, ctx5):
        # a size-2 multitype with a degree-2 entry: H must still return a
        # polynomial, and the generic count must be nonnegative at prime
        # powers where it counts fixed vectors
        tau2 = make_type([(2, (1,), 1)])
        omega = (tau2, tau2, tau2)
        v = V_poly(ctx5, omega)
        assert v == ONE
        for qv in (2, 3, 4):
            assert v.evaluate(qv) >= 0

    @pytest.mark.parametrize("family", [
        T_poly, U_poly, Uprime_poly, V_poly, Vprime_poly,
        pytest.param(lambda ctx, mu: kronecker(mu), id="kronecker"),
        pytest.param(lambda ctx, mu: d_mu(mu), id="d_mu")])
    def test_components_of_different_sizes_are_refused(self, family):
        # a key that is not a multipartition is refused, never read as 0
        ctx = build_context(3, 3, None)
        for mu, message in [
            (((2,), (1, 1), (1, 1, 1)), "different sizes"),
            (((1,), (2,), (2,)), "different sizes"),
            (((2, 1), (3,), (1, 1)), "different sizes"),
            (((2, 1), (1, 2), (3,)), r"weakly decreasing, got \(1, 2\)$"),
            (((2, 1, 0), (2, 1), (3,)), r"positive integers, got \(2, 1, 0\)$"),
        ]:
            with pytest.raises(ValueError, match=message):
                family(ctx, mu)

    @pytest.mark.parametrize("family", [V_poly, Vprime_poly])
    def test_typed_components_are_checked(self, family):
        ctx = build_context(3, 3, None)
        other = from_partition((2, 1))
        for entry, message in [((1, (1, 2), 1), r"weakly decreasing, got \(1, 2\)$"),
                               ((0, (3,), 1), r"entry \(0, \(3,\), 1\) needs positive d")]:
            with pytest.raises(ValueError, match=message):
                family(ctx, ((entry,), other, other))

    def test_vprime_relates_to_v_functionally(self, ctx5):
        # V'(q) = s V(-q), s the reference sign of the multipartition
        for n in range(1, 5):
            for mu in multipartitions(3, n):
                want = V_poly(ctx5, mu).subst(q=-Q).scale(vprime_sign_reference(mu))
                assert Vprime_poly(ctx5, mu) == want, mu


class TestComponentSymmetry:
    """table lists only sorted multipartitions, so T and V must not depend
    on the order of the k components."""

    @staticmethod
    def _check(ctx, nmax):
        for n in range(1, nmax + 1):
            for mu in multipartitions(ctx.k, n):
                t, v = T_poly(ctx, mu), V_poly(ctx, mu)
                for perm in set(permutations(mu)):
                    assert T_poly(ctx, perm) == t, (mu, perm)
                    assert V_poly(ctx, perm) == v, (mu, perm)

    def test_three_components(self, ctx5):
        self._check(ctx5, 4)

    def test_four_components(self):
        self._check(build_context(4, 3, None), 3)


class TestSchurExtraction:
    def test_at_most_one_gcd_per_row(self, monkeypatch):
        import ennola.coeffs as coeffs

        calls = 0
        real = coeffs.poly_gcd

        def counted(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(coeffs, "poly_gcd", counted)
        for k, N in ((3, 4), (4, 3)):
            ctx = build_context(k, N, None)
            ctx.exp_u_psi  # built before counting, so only the extraction counts
            for n in range(1, N + 1):
                for table in (ctx.tau_schur, ctx.psi_schur):
                    calls = 0
                    rows = table(n)
                    assert calls <= len(rows), (k, n, table.__name__)

    @pytest.mark.parametrize("k, N", [(3, 4), (4, 3), (2, 5)])
    def test_warm_psi_equals_cold_psi(self, tmp_path, k, N):
        # the warm rebuild is the only caller of the k > 1 Schur -> b change
        # of basis, so it is checked at more than one k
        cache = str(tmp_path)
        cold = build_context(k, N, cache)
        for n in range(1, N + 1):
            cold.psi_schur(n)
        warm = build_context(k, N, cache)
        rebuilt = warm._psi_from_cache()
        assert rebuilt is not None
        assert [f.coeffs for f in rebuilt.coeffs[1:]] == [f.coeffs for f in cold.psi.coeffs[1:]]
        assert warm.ignored_cache_files == []


class TestSchurSide:
    """The kernel is summed on b_rho from the Green polynomials and
    H_omega is computed on the Schur side; the power-sum routes in
    oracles.py, at every ordered key, are the reference."""

    @pytest.mark.parametrize("k, N", [(3, 4), (4, 3)])
    def test_h_omega_matches_powersum_pairing(self, k, N):
        ctx = build_context(k, N, None)
        for n in range(1, N + 1):
            for mt in combinations_with_replacement(enumerate_types(n), k):
                assert H_omega(ctx, mt) == H_omega_oracle(ctx, mt), mt

    @pytest.mark.parametrize("k, N", [(3, 4), (4, 3), (2, 6), (5, 3)])
    def test_omega_matches_powersum_assembly(self, k, N):
        assert _build_omega(k, N) == omega_oracle(k, N)

    def test_warm_multitype_query_reads_one_table(self, tmp_path, monkeypatch):
        cache = str(tmp_path)
        cold = build_context(3, 4, cache)
        for n in range(1, 5):
            cold.psi_schur(n)
        mt = (
            make_type([(2, (1,), 2)]),
            make_type([(1, (2, 1), 1), (1, (1,), 1)]),
            from_partition((2, 2)),
        )
        want = V_poly(cold, mt)
        loads = []
        real = mult.load_cache

        def counted(*args):
            loads.append(args)
            return real(*args)

        monkeypatch.setattr(mult, "load_cache", counted)
        warm = build_context(3, 4, cache)
        assert V_poly(warm, mt) == want
        assert warm._psi is None
        assert loads == [(cache, 3, 4)]


class TestClosedFormDenominators:
    """Every stage puts degree n over its closed-form denominator, and the
    pipeline takes a gcd only for the lcm of the twisted oracle's q -> -q
    terms."""

    @pytest.mark.parametrize("k, N", [(3, 4), (4, 3)])
    def test_each_stage_is_over_its_closed_form(self, k, N):
        from ennola.partitions import q_pochhammer

        ctx = build_context(k, N, None)
        for n in range(1, N + 1):
            assert ctx.omega.coeffs[n].den == q_pochhammer(n)
            assert ctx.r_series().coeffs[n].den == Q**n - ONE
            assert ctx.psi.coeffs[n].den == ctx.exp_u_psi.coeffs[n].den == ONE

    @pytest.mark.parametrize("k, N", [(3, 5), (4, 4), (2, 6), (1, 8)])
    def test_oracle_log_sums_over_closed_forms(self, k, N):
        # every piece psi_d(r) phi_d of the three-part twisted log form is
        # over a divisor of q^(2n) - 1 at degree n, those of the
        # u-deformed form over q^n - 1, and so is each log sum the oracles
        # take, which is integral
        r = build_context(k, N, None).r_series()
        r_alt = _signed_neg_q(r)
        twisted = [r_alt.adams(d).scale(phi_prime(d)) for d in range(1, N + 1)]
        twisted += [r.sub(r_alt).adams(d).scale(phi_prime(d)) for d in range(2, N + 1, 2)]
        u_deformed = [r.adams(d).scale(phi_u(d)) for d in range(1, N + 1)]
        for pieces, total, closed_form in (
                (twisted, _uprime_log_sum(r), lambda n: Q**(2 * n) - ONE),
                (u_deformed, r.adams_sum(phi_u), lambda n: Q**n - ONE)):
            for piece in pieces + [total]:
                for n in range(1, N + 1):
                    den = piece.coeffs[n].den
                    assert poly_exact_div(closed_form(n), den) is not None, (n, den)
            integral = total.over([ONE] * (N + 1))  # NotPolynomialError if not
            assert integral == total

    def test_only_the_twisted_oracle_takes_a_gcd(self, monkeypatch):
        import ennola.coeffs as coeffs

        calls = 0
        real = coeffs.poly_gcd

        def counted(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(coeffs, "poly_gcd", counted)
        N = 4
        ctx = build_context(3, N, None)
        for n in range(1, N + 1):
            ctx.psi_schur(n)
            ctx.tau_schur(n)
        U_poly_product_oracle(ctx)
        T_poly_product_oracle(ctx)
        assert calls == 0
        Uprime_poly_product_oracle(ctx)
        # at most one gcd per graded piece for each of its N + N // 2 terms
        assert 0 < calls <= (N + N // 2) * N

    def test_verify_takes_the_kernel_log_once(self, monkeypatch):
        from ennola.symfunc import GradedSeries

        ctx = build_context(3, 4, None)
        logs = []
        real = GradedSeries.plain_log

        def counted(self, *args, **kwargs):
            if self is ctx._omega:
                logs.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(GradedSeries, "plain_log", counted)
        assert verify_suite(ctx).ok
        assert len(logs) == 1


def _is_integer_poly(p: PolyQU) -> bool:
    return all(type(c) is int for c in p.terms.values())


class TestIntegerCoefficients:
    """After a whole verify run, every coefficient the context holds, and
    every oracle table, is a Python int: no stage falls back to Fraction."""

    @pytest.mark.parametrize("k, N", [(3, 4), (4, 3)])
    def test_every_reachable_coefficient_is_an_int(self, k, N):
        ctx = build_context(k, N, None)
        assert verify_suite(ctx).ok
        for series in (ctx.omega, ctx.r_series(), ctx.psi, ctx.exp_u_psi):
            for f in series.coeffs:
                assert _is_integer_poly(f.den), (series, f)
                assert all(_is_integer_poly(p) for p in f.coeffs.values()), (series, f)
        tables = [ctx.psi_schur(n) for n in range(1, N + 1)]
        tables += [ctx.tau_schur(n) for n in range(1, N + 1)]
        tables += [oracle(ctx) for oracle in (
            U_poly_product_oracle, Uprime_poly_product_oracle, T_poly_product_oracle)]
        for table in tables:
            assert table and all(_is_integer_poly(p) for p in table.values())


class TestUnipotentFromTheGroup:
    """U(q) at a prime q against the same count made in GL_n(F_q) itself:
    flag-counting permutation characters on one representative per
    conjugacy class, unipotent characters by Kostka forward substitution,
    and the average of their products over the group (tests/oracles.py),
    a route that owes nothing to symmetric functions."""

    @pytest.mark.parametrize("n, q, count", [
        (1, 7, 6), (2, 5, 24), (3, 3, 24), (3, 7, 336), (4, 2, 14), (4, 3, 78)])
    def test_one_class_per_conjugacy_class(self, n, q, count):
        # GL_n(F_q) has q - 1, q^2 - 1, q^3 - q and q^4 - q classes for
        # n = 1..4, and their sizes |G| / |C(g)| add up to |G|
        classes = list(conjugacy_classes(n, q))
        order = math.prod(q**n - q**i for i in range(n))
        assert len(classes) == count
        assert sum(order // centralizer for _, centralizer in classes) == order
        assert all(sum(len(p) - 1 for p in divisors) == n for divisors, _ in classes)

    @pytest.mark.parametrize("n, q", [(3, 7), (4, 5)])
    def test_subspaces_per_dimension_are_gaussian_binomials(self, n, q):
        # F_q^n has prod_{i<d} (q^(n-i) - 1) / (q^(i+1) - 1) subspaces of
        # dimension d, each of q^d vectors, and no subspace twice
        by_dim = _subspaces(n, q)
        for d, spaces in enumerate(by_dim):
            binomial = math.prod(q**(n - i) - 1 for i in range(d)) // math.prod(
                q**(i + 1) - 1 for i in range(d))
            assert len(spaces) == len(set(spaces)) == binomial, d
            assert all(len(V) == q**d for V in spaces), d
        assert len(by_dim) == n + 1

    @pytest.mark.parametrize("n, q", [
        (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (4, 5)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_the_group_count(self, n, q, k):
        ctx = build_context(k, n, None)
        got = unipotent_multiplicities_from_group(n, q, k)
        assert len(got) == len(set(tuple(sorted(mu)) for mu in multipartitions(k, n)))
        for mu, value in got.items():
            assert U_poly(ctx, mu).evaluate(q) == value, mu


class TestGenericFromTheGroup:
    """The paper's statement that T(0, q) is the multiplicity for generic
    characters of unipotent type, against GL_n(F_q) itself: one factor
    twisted by a linear character of order exactly n of the determinant,
    the Legendre symbol at n = 2 and a cube-root-of-unity character at
    n = 3, q = 7, summed per class of its exponent (tests/oracles.py)."""

    @staticmethod
    def check(n, q, k):
        ctx = build_context(k, n, None)
        got = generic_multiplicities_from_group(n, q, k)
        assert len(got) == len(set(tuple(sorted(mu)) for mu in multipartitions(k, n)))
        for mu, value in got.items():
            assert V_poly(ctx, mu).evaluate(q) == value, mu
            assert T_poly(ctx, mu).evaluate(q, 0) == value, mu
        return got

    @pytest.mark.parametrize("q, k", [(3, 3), (5, 3), (3, 4), (5, 5)])
    def test_v_and_t_at_zero_match_the_group_count(self, q, k):
        self.check(2, q, k)

    @pytest.mark.parametrize("k, nonzero", [(3, 2), (4, 7), (5, 13)])
    def test_gl3_f7_with_a_character_of_order_three(self, k, nonzero):
        # 3 | 7 - 1, so the twist takes values in the cube roots of unity
        got = self.check(3, 7, k)
        assert sum(1 for value in got.values() if value) == nonzero

    def test_the_group_separates_v_from_u(self):
        mu = ((1, 1),) * 4 + ((2,),)
        assert generic_multiplicities_from_group(2, 5, 5)[mu] == 5
        assert unipotent_multiplicities_from_group(2, 5, 5)[mu] == 6
        ctx = build_context(5, 2, None)
        assert (V_poly(ctx, mu).evaluate(5), U_poly(ctx, mu).evaluate(5)) == (5, 6)


class TestUnitaryFromTheGroup:
    """U' and V' against GU_n(F_q) itself, at n = 2 and 3, from matrices
    over F_(q^2) alone (gu_classes in tests/oracles.py): the trivial and
    Steinberg characters and the unipotent piece of the Weil
    representation, averaged in products over the group.  The group reads
    neither the kernel nor its log r, which the twisted product route
    shares with T, so it checks that route and the main one,
    T(-1, -q) with its sign, alike."""

    @pytest.mark.parametrize("n, q", [
        (2, 2), (2, 3), (2, 5), (2, 7), (3, 2), pytest.param(3, 3, marks=pytest.mark.slow)])
    def test_unipotent_characters_are_orthonormal_with_ennola_degrees(self, n, q):
        chi, classes = gu_classes(n, q)
        order = sum(classes.values())
        assert sorted(chi) == sorted(enumerate_partitions(n))
        one = next(sig for sig, _ in classes if sig[0][0] == n)  # ker(g - 1) is everything
        for lam, a in chi.items():
            for mu, b in chi.items():
                inner = sum(count * a[sig] * b[sig] for (sig, _), count in classes.items())
                assert inner == (order if lam == mu else 0), (lam, mu)
            assert a[one] == abs(unipotent_degree(lam).evaluate(-q)), lam

    @pytest.mark.parametrize("n, q, vprime_nonzero, off_ennola", [
        (2, 2, None, 2), (2, 3, 6, 2), (2, 5, 6, 2), (2, 7, 6, 2), (3, 2, 18, 26),
        pytest.param(3, 3, None, 26, marks=pytest.mark.slow)])
    def test_uprime_and_vprime_match_the_group_count(self, n, q, vprime_nonzero, off_ennola):
        # every sorted key at k = 2..5; V' where det has a linear character
        # of order n, n | q + 1.  off_ennola counts the keys where U'(q) is
        # not +-U(-q): there Ennola duality is more than q -> -q
        off, nonzero = 0, 0
        for k in range(2, 6):
            ctx = build_context(k, n, None)
            got = unitary_multiplicities_from_group(n, q, k)
            assert len(got) == len(set(tuple(sorted(mu)) for mu in multipartitions(k, n)))
            oracle = Uprime_poly_product_oracle(ctx)
            for mu, value in got.items():
                assert Uprime_poly(ctx, mu).evaluate(q) == value, mu
                assert oracle.get((n, mu), ZERO).evaluate(q) == value, mu
                off += value not in (U_poly(ctx, mu).evaluate(-q), -U_poly(ctx, mu).evaluate(-q))
            if vprime_nonzero is not None:
                for mu, value in unitary_multiplicities_from_group(n, q, k, generic=True).items():
                    assert Vprime_poly(ctx, mu).evaluate(q) == value, mu
                    nonzero += value != 0
        assert off == off_ennola
        assert nonzero == (vprime_nonzero or 0)


class TestKacRoots:
    """V against the star-shaped quiver of mu, a tie that never goes
    through the kernel: for a generic tuple the multiplicity is nonzero iff
    v_mu is a root (Letellier 2013), and a Kac polynomial is monic of
    degree 1 - <v, v> at an imaginary root and 1 at a real one (Kac 1980),
    <v, v> the Euler form, so that d_mu = 2 (1 - <v_mu, v_mu>)."""

    @pytest.mark.parametrize("k, N", [(3, 6), (4, 4), (2, 6), (5, 3)])
    def test_v_is_nonzero_exactly_at_the_roots(self, k, N):
        ctx = build_context(k, N, None)
        for n in range(1, N + 1):
            for mu in combinations_with_replacement(sorted(enumerate_partitions(n)), k):
                v, adj = star_quiver(mu)
                euler = sum(c * c for c in v) - sum(
                    v[x] * v[y] for x in range(len(v)) for y in adj[x]) // 2
                assert d_mu(mu).d_mu == 2 * (1 - euler), mu
                value = V_poly(ctx, mu)
                assert bool(value) == is_root(v, adj), mu
                assert not value or value.qdeg() == 1 - euler, mu

    @pytest.mark.parametrize("k, N, real, imaginary", [
        (3, 6, 24, 86), (4, 4, 9, 38), (2, 6, 1, 0), (5, 3, 4, 13)])
    def test_split_semisimple_v_is_the_kac_polynomial(self, k, N, real, imaginary):
        # the split semisimple type of a component puts each part p in its
        # own entry 1:p (equal parts merged), so V is the Kac polynomial
        # A_{v_mu}(q) (Letellier 2013): 0 off the roots, 1 at a real root,
        # monic of degree 1 - <v, v> = d_mu / 2 at an imaginary one
        ctx = build_context(k, N, None)
        seen = {"real": 0, "imaginary": 0}
        for n in range(1, N + 1):
            for mu in combinations_with_replacement(sorted(enumerate_partitions(n)), k):
                v, adj = star_quiver(mu)
                split = tuple(make_type([(1, (p,), 1) for p in comp]) for comp in mu)
                value = V_poly(ctx, split)
                if not is_root(v, adj):
                    assert value == ZERO, mu
                elif d_mu(mu).d_mu == 0:
                    seen["real"] += 1
                    assert value == ONE, mu
                else:
                    seen["imaginary"] += 1
                    assert value.qdeg() == d_mu(mu).d_mu // 2, mu
                    assert value.terms[(value.qdeg(), 0)] == 1, mu
        assert seen == {"real": real, "imaginary": imaginary}

    @pytest.mark.parametrize("k, N", [
        (3, 3), (4, 2), (5, 2), pytest.param(4, 3, marks=pytest.mark.slow)])
    def test_split_semisimple_v_is_hua_formula(self, k, N):
        # V on the split semisimple type against Hua's formula for A_{v_mu}
        # at q = 2, 3, ...: both sides have degree at most d_mu / 2, so
        # d_mu / 2 + 1 values determine the polynomial; (4, 3) takes over
        # a minute, so it is marked slow and runs in CI under -m slow
        ctx = build_context(k, N, None)
        for n in range(1, N + 1):
            for mu in combinations_with_replacement(sorted(enumerate_partitions(n)), k):
                v, adj = star_quiver(mu)
                value = V_poly(ctx, tuple(make_type([(1, (p,), 1) for p in comp])
                                          for comp in mu))
                for q in range(2, max(d_mu(mu).d_mu // 2, 0) + 3):
                    assert value.evaluate(q) == kac_polynomial_hua(v, adj, q), (mu, q)

    @pytest.mark.parametrize("text, vertices", [
        ("1:1^2,1:1^2,1:1^2,1:1^2", 5),  # D4~, delta
        ("1:2^2,1:2^2,1:2^2,1:2^2", 5),  # D4~, 2 delta
        ("1:1^3,1:1^3,1:1^3", 7),  # E6~
        ("1:1^4,1:1^4,1:2^2", 8),  # E7~
        ("1:1^6,1:2^3,1:3^2", 9),  # E8~
    ])
    def test_affine_null_roots(self, text, vertices):
        # split semisimple types: A_delta(q) = q + (number of vertices - 1)
        mt = parse_multitype(text)
        ctx = build_context(len(mt), type_size(mt[0]), None)
        assert V_poly(ctx, mt) == Q + PolyQU.const(vertices - 1)


class TestProductOracles:
    def test_oracles_match_main_route(self):
        ctx = build_context(3, 3, None)
        u_table = expand_graded(U_poly_product_oracle(ctx))
        up_table = expand_graded(Uprime_poly_product_oracle(ctx))
        t_table = expand_graded(T_poly_product_oracle(ctx))
        for n in range(1, 4):
            for mu in multipartitions(3, n):
                assert u_table.get((n, mu), ZERO) == U_poly(ctx, mu), mu
                assert up_table.get((n, mu), ZERO) == Uprime_poly(ctx, mu), mu
                assert t_table.get((n, mu), ZERO) == T_poly(ctx, mu), mu

    @pytest.mark.parametrize("k, N, three_part_gcds", [
        (3, 5, 5), (4, 4, 4), (2, 6, 6), (1, 8, 8)])
    def test_twisted_log_in_two_parts(self, monkeypatch, k, N, three_part_gcds):
        # regrouped, the twisted log form gives the same tables and takes
        # no lcm, so no gcd; the three-part form takes one per lcm
        import ennola.coeffs as coeffs

        calls = []
        real = coeffs.poly_gcd
        monkeypatch.setattr(coeffs, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
        ctx = build_context(k, N, None)
        r = ctx.r_series()  # built before counting, so only the oracle counts
        three = _product_oracle(ctx, _uprime_log_sum(r))
        assert len(calls) == three_part_gcds
        calls.clear()
        assert _product_oracle(ctx, uprime_log_two_part(r)) == three
        assert calls == []

    @pytest.mark.parametrize("k, N", [(3, 6), (2, 7)])
    def test_two_part_twisted_log_sums_over_minus_q_closed_form(self, k, N):
        total = uprime_log_two_part(build_context(k, N, None).r_series())
        assert [total.coeffs[n].den for n in range(1, N + 1)] == [
            (-Q)**n - ONE for n in range(1, N + 1)]


FAMILIES = [
    "tau-at-0-matches-generic",
    "tau-matches-u-deformed-product",
    "tau-at-minus-1-matches-twisted-product",
    "top-u-coefficient-is-kronecker",
    "tau-coefficients-nonnegative",
]


def _seed_fault(monkeypatch, family: str, rep) -> None:
    """Corrupt the value at the sorted key rep of degree 4 on the route that
    only the given family reads."""

    def at_rep(name, fault):
        real = getattr(mult, name)

        def corrupted(ctx):
            table = dict(real(ctx))
            table[(4, rep)] = fault(table[(4, rep)])
            return table

        monkeypatch.setattr(mult, name, corrupted)

    if family == "tau-at-0-matches-generic":
        real_h = mult.H_omega
        monkeypatch.setattr(mult, "H_omega", lambda ctx, mt: real_h(ctx, mt) + (
            ONE if mt == as_multitype(rep) else ZERO))
    elif family == "tau-matches-u-deformed-product":
        at_rep("T_poly_product_oracle", lambda p: p + U)
    elif family == "tau-at-minus-1-matches-twisted-product":
        at_rep("Uprime_poly_product_oracle", lambda p: p + ONE)
    elif family == "top-u-coefficient-is-kronecker":
        real_k = mult.kronecker
        monkeypatch.setattr(mult, "kronecker",
                            lambda mu: real_k(mu) + (tuple(sorted(mu)) == rep))
    else:
        # a term that vanishes at u = 0 and u = -1 and leaves [u^3] alone,
        # put into T and its product route alike: only positivity sees it
        extra = (Q**100 * U * (ONE + U)).scale(-1)
        at_rep("T_poly_product_oracle", lambda p: p + extra)
        real_tau = MasterContext.tau_schur

        def tau_schur(ctx, n):
            table = real_tau(ctx, n)
            return {**table, rep: table[rep] + extra} if n == 4 else table

        monkeypatch.setattr(MasterContext, "tau_schur", tau_schur)


class TestVerifySuite:
    def test_green_at_small_size(self):
        ctx = build_context(3, 3, None)
        report = verify_suite(ctx)
        assert report.ok
        lines = report.summary_lines()
        assert lines[-1] == "5 identity families, 0 failures"
        assert [item.name for item in report.items] == FAMILIES

    def test_json_shape(self):
        ctx = build_context(3, 2, None)
        report = verify_suite(ctx)
        data = report.to_json()
        parsed = json.loads(json.dumps(data))
        assert parsed["ok"] is True
        assert [item["name"] for item in parsed["items"]] == FAMILIES

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_fault_fails_only_its_family(self, monkeypatch, family):
        # each family compares two routes that share no formula, so a fault
        # on one route fails that family alone, at each of the key's three
        # orderings
        rep = ((1, 1, 1, 1), (1, 1, 1, 1), (2, 2))
        _seed_fault(monkeypatch, family, rep)
        report = verify_suite(build_context(3, 4, None))
        assert [(i.name, i.failures) for i in report.items if i.failures] == [(family, 3)]
        assert [i.cases for i in report.items] == [161] * 5

    def test_v_and_vprime_come_from_v_pair(self, monkeypatch):
        # verify reads V and V' through the commands' own V_pair, one call
        # and one pairing per sorted key
        calls = {"V_pair": 0, "H_omega": 0}
        for name in calls:
            def counted(*args, _real=getattr(mult, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mult, name, counted)
        assert verify_suite(build_context(3, 3, None)).ok
        keys = {tuple(sorted(mu)) for n in range(1, 4) for mu in multipartitions(3, n)}
        assert calls == {"V_pair": len(keys), "H_omega": len(keys)}

    def test_a_green_run_formats_no_failure_text(self, monkeypatch):
        # the text of a failure or an audit note is built only when one is
        # due, and verify at (3, 4) has neither
        calls = {"multipartition_to_text": 0, "poly_to_str": 0}
        for module, name in ((mult, "multipartition_to_text"), (coeffs, "poly_to_str")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        report = verify_suite(build_context(3, 4, None))
        assert report.ok and not report.audits
        assert calls == {"multipartition_to_text": 0, "poly_to_str": 0}

    def test_a_fault_at_one_orbit_fails_at_each_ordering(self, monkeypatch):
        # each sorted key is checked once; its outcome is recorded for every
        # ordering of it, and the first failure names the first ordering
        # that the walk over the ordered multipartitions meets
        rep = ((1, 1), (1, 1), (2,))
        real = mult.kronecker
        monkeypatch.setattr(mult, "kronecker",
                            lambda mu: real(mu) + (tuple(sorted(mu)) == rep))
        report = verify_suite(build_context(3, 2, None))
        orderings = [mu for mu in multipartitions(3, 2) if tuple(sorted(mu)) == rep]
        assert [(i.name, i.failures) for i in report.items if i.failures] == [
            ("top-u-coefficient-is-kronecker", len(orderings))]
        first = next(i for i in report.items if i.failures).first_failure
        assert first.startswith(multipartition_to_text(orderings[0]) + ": ")
        assert len(orderings) == 3


class TestEveryFactorCount:
    """verify is green for k = 1..6, and T has its closed form where the
    kernel collapses: for k = 1 it is u^(n-1) at (n), for k = 2 it is
    u^(n-1) on the diagonal (mu, mu) and zero elsewhere.  At k <= 2 the
    log of the kernel has zero graded pieces, which must not keep a
    denominator that the master series cannot be rewritten over."""

    @pytest.mark.parametrize("k, N", [(1, 8), (2, 7), (3, 5), (4, 4), (5, 4), (6, 3)])
    def test_verify_is_green(self, k, N):
        report = verify_suite(build_context(k, N, None))
        assert report.ok
        assert sum(item.failures for item in report.items) == 0

    def test_one_factor_closed_form(self):
        ctx = build_context(1, 8, None)
        for n in range(1, 9):
            assert ctx.tau_schur(n) == {((n,),): U ** (n - 1)}, n

    def test_two_factor_closed_form(self):
        ctx = build_context(2, 7, None)
        for n in range(1, 8):
            assert ctx.tau_schur(n) == {
                (mu, mu): U ** (n - 1) for mu in enumerate_partitions(n)}, n


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


class TestCache:
    def test_roundtrip(self, tmp_path):
        table = {
            ((2, 1), (2, 1), (3,)): Q**2 + ONE,
            ((1, 1, 1), (2, 1), (3,)): ZERO + Q,
        }
        save_cache(str(tmp_path), 3, 3, table)
        back = load_cache(str(tmp_path), 3, 3)
        assert back == table

    def test_missing_and_wrong_params(self, tmp_path):
        assert load_cache(str(tmp_path), 3, 2) is None
        save_cache(str(tmp_path), 3, 2, {})
        assert load_cache(str(tmp_path), 3, 2) == {}
        assert load_cache(str(tmp_path), 4, 2) is None

    def test_corrupt_file(self, tmp_path):
        path = cache_path(str(tmp_path), 3, 1)
        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert load_cache(str(tmp_path), 3, 1) is None
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe not utf-8")
        assert load_cache(str(tmp_path), 3, 1) is None

    def test_version_mismatch(self, tmp_path):
        save_cache(str(tmp_path), 3, 1, {})
        path = cache_path(str(tmp_path), 3, 1)
        payload = _read_json(path)
        payload["version"] = -1
        _write_json(path, payload)
        assert load_cache(str(tmp_path), 3, 1) is None

    @pytest.mark.parametrize("field,value", [
        ("count", 1), ("sha256", "0" * 64), ("count", None), ("sha256", None),
    ])
    def test_count_and_digest_checked(self, tmp_path, field, value):
        table = {((1,), (1,), (1,)): Q - ONE, ((2,), (2,), (2,)): ONE}
        path = save_cache(str(tmp_path), 3, 1, table)
        payload = _read_json(path)
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        _write_json(path, payload)
        assert load_cache(str(tmp_path), 3, 1) is None

    def test_dropped_entry_rejected(self, tmp_path):
        table = {((1,), (1,), (1,)): Q - ONE, ((2,), (2,), (2,)): ONE}
        path = save_cache(str(tmp_path), 3, 1, table)
        payload = _read_json(path)
        del payload["entries"][0]
        _write_json(path, payload)
        assert load_cache(str(tmp_path), 3, 1) is None

    def test_temp_name_is_not_shared(self, tmp_path):
        # a directory squatting on the old fixed temp name must not matter
        path = cache_path(str(tmp_path), 3, 1)
        os.mkdir(path + ".tmp")
        table = {((1,), (1,), (1,)): Q - ONE}
        assert save_cache(str(tmp_path), 3, 1, table) == path
        assert load_cache(str(tmp_path), 3, 1) == table
        assert sorted(os.listdir(tmp_path)) == ["psi_k3_n1.json", "psi_k3_n1.json.tmp"]
        assert os.listdir(path + ".tmp") == []

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        import ennola.multiplicities as mult

        real_dumps = mult.json.dumps

        def fail(obj, **kwargs):
            if isinstance(obj, dict):  # the file's payload, written after mkstemp
                raise OSError("disk full")
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(mult.json, "dumps", fail)
        with pytest.raises(OSError, match="disk full"):
            save_cache(str(tmp_path), 3, 1, {})
        assert os.listdir(tmp_path) == []

    def test_byte_stable(self, tmp_path):
        table = {((1,), (1,), (1,)): Q - ONE}
        p1 = save_cache(str(tmp_path / "a"), 3, 1, table)
        p2 = save_cache(str(tmp_path / "b"), 3, 1, table)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_clear_cache_scoped(self, tmp_path):
        save_cache(str(tmp_path), 3, 1, {})
        save_cache(str(tmp_path), 4, 1, {})
        removed = clear_cache(str(tmp_path), 3)
        assert len(removed) == 1
        assert load_cache(str(tmp_path), 3, 1) is None
        assert load_cache(str(tmp_path), 4, 1) == {}
        removed_all = clear_cache(str(tmp_path))
        assert len(removed_all) == 1

    def test_context_uses_cache(self, tmp_path):
        cache = str(tmp_path)
        ctx1 = build_context(3, 2, cache)
        table1 = ctx1.psi_schur(2)
        assert os.path.exists(cache_path(cache, 3, 2))
        # a second context must load the cached table without recomputing
        ctx2 = build_context(3, 2, cache)
        table2 = ctx2.psi_schur(2)
        assert table1 == table2

    def test_incompatible_cache_recorded(self, tmp_path):
        cache = str(tmp_path)
        path = cache_path(cache, 3, 1)
        with open(path, "w") as fh:
            fh.write("{}")
        ctx = build_context(3, 1, cache)
        ctx.psi_schur(1)
        assert path in ctx.ignored_cache_files

    def test_committed_fixture_loads_and_matches(self):
        # tests/data/cache_v<CACHE_VERSION> holds k = 3, n <= 2 files written
        # by save_cache; a change of the file format must bump CACHE_VERSION
        # and commit a new fixture
        fixture = os.path.join(os.path.dirname(__file__), "data",
                               f"cache_v{mult.CACHE_VERSION}")
        ctx = build_context(3, 2, None)
        for n in (1, 2):
            table = load_cache(fixture, 3, n)
            assert table is not None, n
            assert table == ctx.psi_schur(n)

    def test_file_holds_one_entry_per_sorted_key(self, tmp_path):
        ctx = build_context(3, 4, None)
        table = ctx.psi_schur(4)
        assert all(list(mu) == sorted(mu) for mu in table)
        path = save_cache(str(tmp_path), 3, 4, table)
        entries = _read_json(path)["entries"]
        written = [tuple(parse_partition(t) for t in e["mu"]) for e in entries]
        assert written == list(table) == sorted(table)
        assert load_cache(str(tmp_path), 3, 4) == table

    @pytest.mark.parametrize("edit", ["change_sorted", "change_other", "drop_sorted",
                                      "add_wrong_size", "add_wrong_k"])
    def test_bad_orbit_or_key_is_ignored(self, tmp_path, edit):
        # count and digest rewritten to match, so only the key checks can
        # catch the change: a second, changed entry at a sorted key; a
        # changed entry at another ordering of it; the sorted key's entry
        # moved to another ordering; a key that is not k partitions of n
        cache = str(tmp_path)
        cold = build_context(3, 4, None)
        path = save_cache(cache, 3, 4, cold.psi_schur(4))
        payload = _read_json(path)
        entries = payload["entries"]
        i = next(i for i, e in enumerate(entries) if e["mu"] == ["1^4", "2.1^2", "2.1^2"])
        other = ["2.1^2", "2.1^2", "1^4"]
        if edit == "change_sorted":
            entries.append({"mu": entries[i]["mu"], "poly": [["7", 1, 0]]})
        elif edit == "change_other":
            entries.append({"mu": other, "poly": [["7", 1, 0]]})
        elif edit == "drop_sorted":
            entries[i]["mu"] = other
        else:
            mu = ["1^3"] * 3 if edit == "add_wrong_size" else ["1^4"] * 2
            entries.append({"mu": mu, "poly": [["1", 0, 0]]})
        payload["count"] = len(entries)
        payload["sha256"] = mult._entries_digest(entries)
        _write_json(path, payload)
        assert load_cache(cache, 3, 4) is None
        warm = build_context(3, 4, cache)
        assert warm.psi_schur(4) == cold.psi_schur(4)
        assert warm.ignored_cache_files == [path]

    def test_non_integer_coefficient_ignored(self, tmp_path):
        # the cache holds integer polynomials only: a fractional coefficient
        # is refused even under a matching count and digest
        cache = str(tmp_path)
        path = save_cache(cache, 3, 1, {((1,), (1,), (1,)): ONE})
        payload = _read_json(path)
        payload["entries"][0]["poly"] = [["1/2", 0, 0]]
        payload["sha256"] = mult._entries_digest(payload["entries"])
        _write_json(path, payload)
        assert load_cache(cache, 3, 1) is None
        ctx = build_context(3, 1, cache)
        assert ctx.psi_schur(1) == {((1,), (1,), (1,)): ONE}
        assert ctx.ignored_cache_files == [path]
