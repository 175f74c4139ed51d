"""Independent reference implementations used only by the test suite.

Everything here is computed by a different route than the library uses:
symmetric-group characters via alternant coefficient extraction instead
of border-strip recursion, Kostka-Foulkes polynomials via the q-analog
of the weight multiplicity (alternating sum over the Weyl group with a
q-deformed partition function) instead of tableau charge, Kronecker
coefficients by averaging over all permutations, and Kostka numbers by
brute tableau filling.  The Schur <-> power-sum change of basis on k
alphabets is the brute-force character-product sum, pairing every source
key with every target key, with the alternant character values.  The
kernel and the multitype pairing H_omega are recomputed on the power-sum
basis, with the Hall pairing sum over rho of z_rho f_rho g_rho, where the
library works on the Schur basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from ennola.coeffs import ONE, RAT_ONE, RAT_ZERO, PolyQU, Q, RatQU
from ennola.hall_littlewood import transformed_hl
from ennola.multiplicities import as_multitype
from ennola.partitions import a_poly, enumerate_partitions, multipartitions, z_lambda
from ennola.symfunc import GradedSeries, SymFunc, tensor_expand
from ennola.types import schur_of_type, type_size


@lru_cache(maxsize=None)
def character_value_oracle(lam: tuple, rho: tuple) -> int:
    """Coefficient of x^(lam+delta) in the alternant times the power-sum
    product; the irreducible character value chi^lam at cycle type rho."""
    n = sum(lam)
    if n == 0:
        return 1
    ell = len(lam)
    delta = tuple(range(ell - 1, -1, -1))
    target = tuple(a + d for a, d in zip(lam, delta))

    terms: dict[tuple, int] = {}
    for perm in permutations(range(ell)):
        inv = sum(
            1 for i in range(ell) for j in range(i + 1, ell) if perm[i] > perm[j]
        )
        key = tuple(delta[p] for p in perm)
        if all(k <= t for k, t in zip(key, target)):
            terms[key] = terms.get(key, 0) + (-1) ** inv

    for r in rho:
        nxt: dict[tuple, int] = {}
        for key, c in terms.items():
            for i in range(ell):
                k2 = key[:i] + (key[i] + r,) + key[i + 1:]
                if k2[i] <= target[i]:
                    nxt[k2] = nxt.get(k2, 0) + c
        terms = nxt
    return terms.get(target, 0)


def _chi_product(mu: tuple, rho: tuple) -> int:
    """Product over the k alphabets of chi^{mu^i} at cycle type rho^i."""
    return math.prod(character_value_oracle(m, r) for m, r in zip(mu, rho))


def change_basis_oracle(f: SymFunc) -> SymFunc:
    """f on the other basis: <f, s_mu> = sum over rho of f_rho chi^mu(rho),
    and f_rho = sum over mu of f_mu chi^mu(rho) / z_rho, one RatQU add per
    (source key, target key) pair."""
    out: dict = {}
    for key, c in f.coeffs.items():
        for other in multipartitions(f.k, f.n):
            mu, rho = (other, key) if f.basis == "p" else (key, other)
            chi = _chi_product(mu, rho)
            if not chi:
                continue
            if f.basis == "p":
                term = c.scale_int(chi)
            else:
                term = c * RatQU(PolyQU.const(chi), PolyQU.const(math.prod(map(z_lambda, rho))))
            out[other] = out.get(other, RAT_ZERO) + term
    return SymFunc(f.k, f.n, "s" if f.basis == "p" else "p", out)


def schur_coefficient_oracle(f: SymFunc, mu: tuple) -> RatQU:
    """<f, s_mu> from the power-sum basis, one term per key of f."""
    total = RAT_ZERO
    for rho, c in f.coeffs.items():
        total = total + c.scale_int(_chi_product(mu, rho))
    return total


def pairing(f: SymFunc, g: SymFunc) -> RatQU:
    """Hall pairing on k alphabets: sum over rho of z_rho f_rho g_rho,
    with z_rho the product of the k one-alphabet z's."""
    if f.k != g.k or f.n != g.n:
        raise ValueError("pairing requires equal alphabet counts and degrees")
    a, b = f.to_powersum(), g.to_powersum()
    total = RAT_ZERO
    for rho, ca in a.coeffs.items():
        cb = b.coeffs.get(rho)
        if cb is not None:
            total = total + (ca * cb).scale_int(math.prod(map(z_lambda, rho)))
    return total


def _powersum_items(f: SymFunc) -> list:
    """The (partition, coefficient) pairs of a one-alphabet f on power sums."""
    return [(rho, v) for (rho,), v in f.to_powersum().coeffs.items()]


def omega_oracle(k: int, N: int) -> GradedSeries:
    """The kernel sum over lam of prod_i H~_lam(x_i) / a_lam(q), each
    product expanded on the power-sum basis, p(n)^k terms per lam."""
    coeffs: list = [RAT_ONE]
    for n in range(1, N + 1):
        acc: dict = {}
        for lam in enumerate_partitions(n):
            items = _powersum_items(transformed_hl(lam))
            for key, c in tensor_expand([items] * k, RatQU(ONE, a_poly(lam))):
                acc[key] = acc.get(key, RAT_ZERO) + c
        coeffs.append(SymFunc(k, n, "p", acc))
    return GradedSeries(k, N, coeffs)


def H_omega_oracle(ctx, omega) -> PolyQU:
    """Hall pairing of the power-sum master coefficient Psi_n with the
    power-sum product of the k Schur-type factors of a multitype."""
    mt = as_multitype(omega)
    n = type_size(mt[0])
    comps = [_powersum_items(schur_of_type(tau)) for tau in mt]
    s_omega = SymFunc(ctx.k, n, "p", dict(tensor_expand(comps, RAT_ONE)))
    return pairing(ctx.psi.coeffs[n], s_omega).to_poly()


def _cycle_type(perm: tuple) -> tuple:
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def kronecker_oracle(mus: tuple) -> int:
    """Average of the character product over every permutation."""
    n = sum(mus[0])
    total = Fraction(0)
    for perm in permutations(range(n)):
        rho = _cycle_type(perm)
        prod = 1
        for mu in mus:
            prod *= character_value_oracle(tuple(mu), rho)
            if prod == 0:
                break
        total += prod
    out = total / Fraction(_factorial(n))
    assert out.denominator == 1 and out >= 0, (mus, out)
    return int(out)


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def q_weight_multiplicity(nu: tuple, lam: tuple) -> PolyQU:
    """q-analog of the weight multiplicity of lam in the highest-weight
    module nu: alternating Weyl-group sum of a q-deformed partition
    function over the positive roots of the general linear group."""
    ell = max(len(nu), len(lam), 1)
    nu = tuple(nu) + (0,) * (ell - len(nu))
    lam = tuple(lam) + (0,) * (ell - len(lam))
    rho = tuple(range(ell - 1, -1, -1))
    roots = []
    for i in range(ell):
        for j in range(i + 1, ell):
            r = [0] * ell
            r[i], r[j] = 1, -1
            roots.append(tuple(r))

    @lru_cache(maxsize=None)
    def pq(beta: tuple, idx: int) -> PolyQU:
        if all(b == 0 for b in beta):
            return PolyQU.const(1)
        if idx == len(roots):
            return PolyQU()
        total = pq(beta, idx + 1)
        nb = tuple(b - x for b, x in zip(beta, roots[idx]))
        if sum(nb) == 0 and all(sum(nb[: t + 1]) >= 0 for t in range(ell)):
            total = total + Q * pq(nb, idx)
        return total

    out = PolyQU()
    base = tuple(x + r for x, r in zip(nu, rho))
    for perm in permutations(range(ell)):
        inv = sum(
            1 for i in range(ell) for j in range(i + 1, ell) if perm[i] > perm[j]
        )
        image = tuple(base[p] for p in perm)
        beta = tuple(w - t - r for w, t, r in zip(image, lam, rho))
        if sum(beta) != 0 or any(sum(beta[: t + 1]) < 0 for t in range(ell)):
            continue
        out = out + pq(beta, 0).scale((-1) ** inv)
    return out


def ssyt_count(shape: tuple, content: tuple) -> int:
    """Number of semistandard tableaux of the given shape and content,
    by direct row-by-row filling."""
    rows = len(shape)

    def fill(r: int, prev_row, remaining: tuple) -> int:
        if r == rows:
            return 1 if all(v == 0 for v in remaining) else 0
        width = shape[r]
        total = 0

        def row_fill(c: int, row: list, rem: list) -> None:
            nonlocal total
            if c == width:
                total += fill(r + 1, tuple(row), tuple(rem))
                return
            lo = row[c - 1] if c else 0
            for v in range(max(lo, r), len(rem)):
                if rem[v] == 0:
                    continue
                if prev_row is not None and c < len(prev_row) and v <= prev_row[c]:
                    continue
                rem[v] -= 1
                row.append(v)
                row_fill(c + 1, row, rem)
                row.pop()
                rem[v] += 1

        row_fill(0, [], list(remaining))
        return total

    return fill(0, None, tuple(content))
