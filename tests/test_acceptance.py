"""Acceptance gate: one test per shipping criterion.

Each criterion is a single test function so that a verbose pytest run
prints exactly one pass/fail line per criterion.  The reference tables
live in golden_tables.py (frozen transcriptions) and the independent
recomputation routes live in oracles.py; nothing here is compared
against the package's own output twice through the same code path.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement, product

from golden_tables import (
    GENERIC_SPLIT,
    INTERPOLATION_EVALS_1111,
    INTERPOLATION_VS_EXTERIOR,
    UNIPOTENT_SPLIT,
    UNIPOTENT_TWISTED,
)
from oracles import (
    T_poly_product_oracle,
    a_poly,
    c_omega,
    c_tau,
    dual_type,
    enumerate_types,
    expand_graded,
    expand_orbits,
    extend_to_type,
    kostka_foulkes,
    kronecker_oracle,
    pairing,
    pairing_degree,
    pleth_exp,
    pleth_log,
    powersum_symfunc,
    q_weight_multiplicity,
    scalar,
    series_equal,
    series_mul,
    series_scale,
    transformed_hl_oracle,
)

from ennola.coeffs import ONE, Q, U, PolyQU, poly_to_str
from ennola.multiplicities import (
    T_poly,
    U_poly,
    U_poly_product_oracle,
    Uprime_poly,
    Uprime_poly_product_oracle,
    V_poly,
    build_context,
)
from ennola.partitions import dual, enumerate_partitions, z_lambda
from ennola.symfunc import GradedSeries, SymFunc

MINUS_ONE = ONE.scale(-1)


def _parts_lex(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in ascending lexicographic order, the row order\
 used by the reference tables."""
    return sorted(enumerate_partitions(n), key=tuple)


def _rows(fn, n: int, k: int = 3) -> dict:
    """Nonzero table rows over canonical (sorted) multipartitions."""
    out = {}
    for mu in combinations_with_replacement(_parts_lex(n), k):
        p = fn(mu)
        if not p.is_zero():
            out[mu] = poly_to_str(p)
    return out


def _u_slice(p: PolyQU, j: int) -> PolyQU:
    """The coefficient of u^j, as a polynomial in q."""
    return PolyQU({(i, 0): c for (i, jj), c in p.terms.items() if jj == j})


def test_criterion_1_generic_tables_bit_exact_with_timing(tmp_path):
    cache = str(tmp_path)

    t0 = time.monotonic()
    cold = build_context(3, 5, cache)
    for n in range(2, 6):
        got = _rows(lambda mu: V_poly(cold, mu), n)
        assert got == GENERIC_SPLIT[n], f"generic table mismatch at n={n}"
    cold_elapsed = time.monotonic() - t0

    # the n=5 block has exactly these 20 nonzero rows, anchored by the
    # all-ones-to-the-fifth triple
    assert len(GENERIC_SPLIT[5]) == 20
    anchor = ((1, 1, 1, 1, 1),) * 3
    assert poly_to_str(V_poly(cold, anchor)) == "q^6 + q^4 + q^3 + q^2 + q"
    assert cold_elapsed < 120.0, f"cold rebuild took {cold_elapsed:.1f}s"

    t0 = time.monotonic()
    warm = build_context(3, 5, cache)
    for n in range(2, 6):
        got = _rows(lambda mu: V_poly(warm, mu), n)
        assert got == GENERIC_SPLIT[n]
    warm_elapsed = time.monotonic() - t0
    assert warm_elapsed < 5.0, f"warm rebuild took {warm_elapsed:.1f}s"
    assert not warm.ignored_cache_files


def test_criterion_2_split_unipotent_tables_bit_exact(ctx5):
    for n in range(1, 6):
        got = _rows(lambda mu: U_poly(ctx5, mu), n)
        assert got == UNIPOTENT_SPLIT[n], f"split unipotent mismatch at n={n}"

    assert poly_to_str(U_poly(ctx5, ((1, 1, 1, 1),) * 3)) == "q^3 + 2*q + 1"
    assert (
        poly_to_str(U_poly(ctx5, ((2, 1, 1, 1),) * 3))
        == "2*q^3 + 6*q^2 + 16*q + 28"
    )


def test_criterion_3_twisted_unipotent_tables_bit_exact(ctx5):
    for n in range(1, 6):
        got = _rows(lambda mu: Uprime_poly(ctx5, mu), n)
        assert got == UNIPOTENT_TWISTED[n], f"twisted unipotent mismatch at n={n}"

    # a row with genuinely negative interior coefficients
    mixed = ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1))
    assert poly_to_str(Uprime_poly(ctx5, mixed)) == "q^5 - q^4 + q^3 - q^2"

    # rows are absent exactly where the multiplicity vanishes: every
    # canonical triple outside the table gives the zero polynomial
    for n in range(1, 6):
        absent = [
            mu
            for mu in combinations_with_replacement(_parts_lex(n), 3)
            if mu not in UNIPOTENT_TWISTED[n]
        ]
        for mu in absent:
            assert Uprime_poly(ctx5, mu).is_zero(), mu
    assert Uprime_poly(ctx5, ((5,), (5,), (3, 2))).is_zero()


def test_criterion_4_interpolation_table_matches_intro(ctx5):
    for n in (2, 3, 4):
        ones = (1,) * n
        table = INTERPOLATION_VS_EXTERIOR[n]
        for mu in _parts_lex(n):
            got = T_poly(ctx5, (ones, ones, mu))
            want = table.get(mu)
            if want is None:
                assert got.is_zero(), (n, mu)
            else:
                assert poly_to_str(got) == want, (n, mu)

    # the named coefficient: at n = 4 the all-ones column carries uq+u+q^3+q
    quad = ((1, 1, 1, 1),) * 3
    t = T_poly(ctx5, quad)
    assert poly_to_str(t) == "u*q + u + q^3 + q"
    for uval, want in INTERPOLATION_EVALS_1111.items():
        if uval == -1:
            # the quoted u = -1 row is the negated q -> -q twist of the
            # twisted unipotent value
            got = Uprime_poly(ctx5, quad).subst(q=-Q).scale(-1)
        else:
            got = t.subst(u=PolyQU.const(uval))
        assert poly_to_str(got) == want, uval


def test_criterion_5_specializations_recover_all_three_tables(ctx5):
    checked = 0
    for n in range(1, 6):
        # the tables hold sorted keys; compare at every ordering of them
        tau = expand_orbits(ctx5.tau_schur(n))
        psi = expand_orbits(ctx5.psi_schur(n))
        # u -> 0 equals the generic multiplicity from the logarithm route,
        # over every ordered key either side produces
        for mu in set(tau) | set(psi):
            t = tau.get(mu, PolyQU())
            assert _u_slice(t, 0) == psi.get(mu, PolyQU()), mu
            checked += 1

        # u -> 1 and the signed (u, q) -> (-1, -q) substitution reproduce
        # the two unipotent reference tables bit-exactly
        at_one = {}
        at_minus = {}
        for mu in combinations_with_replacement(_parts_lex(n), 3):
            t = tau.get(mu, PolyQU())
            p1 = t.subst(u=ONE)
            if not p1.is_zero():
                at_one[mu] = poly_to_str(p1)
            pm = t.subst(q=-Q, u=MINUS_ONE).scale(-1 if pairing_degree(mu) // 2 % 2 else 1)
            if not pm.is_zero():
                at_minus[mu] = poly_to_str(pm)
        assert at_one == UNIPOTENT_SPLIT[n], n
        assert at_minus == UNIPOTENT_TWISTED[n], n
    # 309 ordered keys carry a nonzero polynomial on at least one side
    assert checked >= 300


def test_criterion_6_top_u_coefficient_is_kronecker(ctx5, cache_dir):
    for n in range(1, 6):
        tau = expand_orbits(ctx5.tau_schur(n))
        for mu in product(_parts_lex(n), repeat=3):
            t = tau.get(mu, PolyQU())
            g = kronecker_oracle(mu)
            if n == 1:
                # degree one has no u term: the polynomial itself is the
                # multiplicity
                assert t == PolyQU.const(g), mu
            else:
                assert _u_slice(t, n - 1) == PolyQU.const(g), mu

    ctx4 = build_context(4, 4, cache_dir)
    for n in range(1, 5):
        tau = expand_orbits(ctx4.tau_schur(n))
        for mu in product(_parts_lex(n), repeat=4):
            t = tau.get(mu, PolyQU())
            g = kronecker_oracle(mu)
            if n == 1:
                assert t == PolyQU.const(g), mu
            else:
                assert _u_slice(t, n - 1) == PolyQU.const(g), mu


def test_criterion_7_product_route_matches_exponential_route(ctx5):
    routes = (
        (U_poly_product_oracle, U_poly),
        (Uprime_poly_product_oracle, Uprime_poly),
        (T_poly_product_oracle, T_poly),
    )
    for oracle_fn, main_fn in routes:
        # the oracle's sorted keys at every ordering, against the main
        # route asked in that order
        table = expand_graded(oracle_fn(ctx5))
        seen = set()
        for (n, mu), p in table.items():
            assert p == main_fn(ctx5, mu), (main_fn.__name__, n, mu)
            seen.add((n, mu))
        # and the oracle omits exactly the vanishing entries
        for n in range(1, 6):
            for mu in product(_parts_lex(n), repeat=3):
                if (n, mu) not in seen:
                    assert main_fn(ctx5, mu).is_zero(), (main_fn.__name__, n, mu)


def test_criterion_8_interpolation_positivity(ctx5):
    for n in range(1, 6):
        for mu, t in ctx5.tau_schur(n).items():
            for coeff in t.terms.values():
                assert isinstance(coeff, int), (mu, t)
                assert coeff > 0, (mu, t)

        # the twisted unipotent polynomials lead with a positive
        # q-coefficient even though interior signs alternate
        for mu in product(_parts_lex(n), repeat=3):
            p = Uprime_poly(ctx5, mu)
            if p.is_zero():
                continue
            assert p.udeg() == 0, mu
            assert p.terms.get((p.qdeg(), 0), 0) > 0, (mu, p)


def test_criterion_9_property_suites(ctx5):
    t0 = time.monotonic()

    # plethystic exponential and logarithm invert each other on the real
    # pipeline series at full truncation depth
    assert series_equal(pleth_log(ctx5.exp_u_psi), series_scale(ctx5.psi, U))
    assert series_equal(ctx5.r_series().plain_exp(), ctx5.omega)

    # exponential homomorphism at depth 5 with mixed q, u, and fractional
    # coefficients
    coeffs_a = [SymFunc.zero(1, i) for i in range(6)]
    coeffs_b = [SymFunc.zero(1, i) for i in range(6)]
    coeffs_a[1] = SymFunc(1, 1, {((1,),): ONE})
    coeffs_a[3] = SymFunc(1, 3, {((2, 1),): ONE}, PolyQU.const(2))
    coeffs_b[2] = SymFunc(1, 2, {((2,),): U})
    coeffs_b[4] = SymFunc(1, 4, {((1, 1, 1, 1),): Q})
    fa = GradedSeries(1, 5, coeffs_a)
    fb = GradedSeries(1, 5, coeffs_b)
    assert series_equal(pleth_exp(fa.add(fb)), series_mul(pleth_exp(fa), pleth_exp(fb)))
    assert series_equal(fa.add(fb).plain_exp(), series_mul(fa.plain_exp(), fb.plain_exp()))
    assert series_equal(pleth_log(pleth_exp(fa)), fa)
    assert series_equal(fb.plain_exp().plain_log(), fb)

    # the combinatorial-coefficient expansion of the logarithm agrees with
    # computing the logarithm directly, degree by degree
    N = 4
    series = [SymFunc.one(1)]
    for n in range(1, N + 1):
        acc = SymFunc.zero(1, n)
        for lam in enumerate_partitions(n):
            f = SymFunc.from_schur(1, n, transformed_hl_oracle(lam))
            acc = acc.add(SymFunc(1, n, f.coeffs, a_poly(lam)))
        series.append(acc)
    direct = pleth_log(GradedSeries(1, N, series))
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

    # duality on decomposition coefficients preserves absolute values
    for n in range(1, 6):
        for tau in enumerate_types(n):
            for mu in enumerate_partitions(n):
                assert abs(c_omega(tau, mu)) == abs(
                    c_omega(dual_type(tau), dual(mu))
                ), (tau, mu)

    # Hall pairing: Schur orthonormality and the power-sum normalization
    for n in range(1, 7):
        shapes = enumerate_partitions(n)
        fs = {lam: SymFunc.from_schur(1, n, {(lam,): ONE}) for lam in shapes}
        for a in shapes:
            for b in shapes:
                want = scalar(1 if a == b else 0)
                assert pairing(fs[a], fs[b]) == want, (a, b)
                pa = powersum_symfunc(1, n, {(a,): ONE})
                pb = powersum_symfunc(1, n, {(b,): ONE})
                wz = scalar(z_lambda(a) if a == b else 0)
                assert pairing(pa, pb) == wz, (a, b)

    # vertex-operator Kostka-Foulkes polynomials against the weight-space
    # q-analog recomputation
    for n in range(1, 7):
        for nu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                assert kostka_foulkes(nu, lam) == q_weight_multiplicity(nu, lam), (
                    nu,
                    lam,
                )

    # the pairing degree stays even (so the twisted sign is well defined)
    # across every multipartition shape it is used on
    for k in (3, 4):
        for n in range(1, 7):
            for mu in product(enumerate_partitions(n), repeat=k):
                assert pairing_degree(mu) % 2 == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"property bundle took {elapsed:.1f}s"
