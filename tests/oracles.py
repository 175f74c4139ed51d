"""Independent reference implementations used only by the test suite.

Everything here is computed by a different route than the library uses:
symmetric-group characters via alternant coefficient extraction instead
of border-strip recursion, Kostka-Foulkes polynomials via the q-analog
of the weight multiplicity (alternating sum over the Weyl group with a
q-deformed partition function) instead of the vertex-operator recursion,
Kronecker coefficients by averaging over all permutations, and Kostka
numbers by brute tableau filling.  The dominance order, which only the
tests use, is here too.  The Schur <-> power-sum change of basis on k
alphabets is the brute-force character-product sum, pairing every source
key with every target key, with the alternant character values.  The
kernel is recomputed at every ordered key, from the power-sum expansions
of from_schur_oracle, with its degrees summed by rational adds over the
lcm of the 1/a_lam terms; the library sums it on b_rho, from the Green
polynomials, at the sorted keys, on packed integers over a closed-form
denominator.  The multitype pairing H_omega is recomputed on the
power-sum basis, with the Hall pairing sum over rho of
z_rho f_rho g_rho; the library computes it on the Schur side, from
Schur tables.

The library's SymFunc keeps its numerators on b_rho = p_rho / z_rho; the
references here read and build power-sum coefficients, and reach a
SymFunc only through bp_convert, the one b <-> p conversion
(powersum_of and powersum_symfunc wrap it).

The library keeps one sorted key per orbit of the k alphabets'
permutations.  The references here work on every ordered key instead:
expand_orbits writes a table of sorted keys out in full, symmetrized sums
a table given on ordered keys over its orbit, and multiply_reference
and change_basis_reference are the product and the separable change of
basis computed at every ordered key, with no use of the symmetry;
merged_orbits_reference counts the merges of two orbits pair by pair,
where the library counts by orbit-stabilizer.

The split orbit count phi_d is written from its Moebius-inversion
formula, where the library only specializes phi_u; the twisted product's
log sum comes in the two-part form (uprime_log_two_part), every degree
over (-q)^n - 1, where the library sums three parts; the sign of
V'(q) = +-V(-q) at a multipartition comes from the multipartition's
statistics, where the library reads it off multitype statistics.

unipotent_multiplicities_from_group owes nothing to symmetric functions:
it counts U(q) at a prime q in GL_n(F_q) itself, from stable flags of one
block-diagonal representative per conjugacy class, weighted by the class
size from the centralizer orders a_lam; generic_multiplicities_from_group
counts V(q) the same way in GL_n(F_q), with one factor twisted by a linear
character of order n of the determinant, summed per class of its
exponent: the Legendre symbol at n = 2, cube roots of unity at n = 3.
unitary_multiplicities_from_group counts U'(q) and V'(q) the same way in
GU_n(F_q), n = 2 and 3, enumerated as matrices over F_(q^2) with
orthonormal columns (gu_classes), with the trivial and Steinberg
characters and the unipotent piece of Gerardin's Weil representation.

kac_polynomial_hua evaluates the Kac polynomial of a dimension vector of
a loop-free quiver at an integer q by Hua's formula, a plethystic log of
a sum over tuples of partitions, one per vertex, in exact fractions; it
shares nothing with the kernel of the library.

The helpers that only the tests call live here too, where no command
loads them: the type combinatorics of the kernel logarithm's expansion
(c_tau, enumerate_types, extend_to_type), the Schur coefficients of a
type (c_omega) and the dual type, the centralizer orders of types
(a_type_poly, a_prime_poly), the unipotent character degrees
(unipotent_degree), the text form of a multitype, and the product of
graded series (series_mul), the reference for the exp/log laws.

A single coefficient in Q(q, u) is represented here as a degree-0 SymFunc
on one alphabet (`scalar`), so its equality is the library's
cross-multiplied one.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product

from ennola.coeffs import ONE, ZERO, PolyQU, Q, poly_exact_div
from ennola.hall_littlewood import transformed_hl
from ennola.multiplicities import _signed_neg_q, as_multitype, phi_prime
from ennola.characters import character_value
from ennola.partitions import (
    Partition,
    a_poly,
    dual,
    enumerate_partitions,
    multipartitions,
    n_stat,
    q_pochhammer,
    size,
    z_lambda,
)
from ennola.symfunc import GradedSeries, SymFunc, mobius
from ennola.types import (
    TypeEntries,
    make_type,
    schur_of_type,
    type_size,
    type_to_text,
)


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


def _z(rho: tuple) -> int:
    """z_rho on k alphabets: the product of the one-alphabet z's."""
    return math.prod(map(z_lambda, rho))


def bp_convert(k: int, n: int, nums: dict, to_powersum: bool) -> tuple[dict, int]:
    """The b <-> p conversion of degree-n numerators on k alphabets:
    f = sum f_rho p_rho = sum z_rho f_rho b_rho.  To power sums each is
    multiplied by (n!)^k / z_rho, and the returned integer (n!)^k
    multiplies the denominator; to b each is multiplied by z_rho, and the
    integer is 1."""
    if not to_powersum:
        return {rho: p.scale(_z(rho)) for rho, p in nums.items()}, 1
    zk = math.factorial(n) ** k
    return {rho: p.scale(zk // _z(rho)) for rho, p in nums.items()}, zk


def powersum_of(f: SymFunc) -> tuple[dict, PolyQU]:
    """f's power-sum numerators at every ordered key, and their one
    denominator."""
    nums, zk = bp_convert(f.k, f.n, f.coeffs, True)
    return expand_orbits(nums), f.den.scale(zk)


def powersum_symfunc(k: int, n: int, nums: dict, den: PolyQU = ONE) -> SymFunc:
    """The SymFunc sum over sorted rho of nums[rho] p_rho / den (each key
    standing for its orbit)."""
    return SymFunc(k, n, bp_convert(k, n, nums, False)[0], den)


def scalar(num, den: PolyQU = ONE) -> SymFunc:
    """num/den, for num an integer or an integer polynomial, as a
    degree-0 SymFunc on one alphabet."""
    return SymFunc(1, 0, SymFunc.one(1).scale(num).coeffs, den)


def coefficient(f: SymFunc, key: tuple) -> SymFunc:
    """The coefficient of p_key in f, as a scalar."""
    nums, den = powersum_of(f)
    return scalar(nums.get(key, ZERO), den)


def as_poly(c: SymFunc) -> PolyQU:
    """A scalar that is a polynomial, as a PolyQU."""
    return c.over(ONE).coeffs.get(((),), ZERO)


def expand_orbits(table: dict) -> dict:
    """A table of sorted keys written out at every ordering of each key."""
    return {mu: p for key, p in table.items() for mu in set(permutations(key))}


def expand_graded(table: dict) -> dict:
    """expand_orbits for a table keyed by (degree, sorted key)."""
    return {(n, mu): p for (n, key), p in table.items() for mu in set(permutations(key))}


def _is_sorted(key: tuple) -> bool:
    return list(key) == sorted(key)


def symmetrized(k: int, coeffs: dict) -> dict:
    """The sum over every permutation of the k alphabets of the function
    with the given coefficients at ordered keys, as a table of sorted
    keys."""
    out: dict = {}
    for key, c in coeffs.items():
        for perm in permutations(range(k)):
            new = tuple(key[i] for i in perm)
            if _is_sorted(new):
                out[new] = out.get(new, ZERO) + c
    return out


def multiply_reference(a: dict, b: dict) -> dict:
    """Product of two functions given at every ordered power-sum key:
    p_rho p_sigma = p_{rho cup sigma} on each alphabet, one polynomial
    product per pair of ordered keys."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(tuple(sorted(x + y, reverse=True)) for x, y in zip(ka, kb))
            out[key] = out.get(key, ZERO) + ca * cb
    return {key: c for key, c in out.items() if c}


def merged_orbits_reference(ka: tuple, kb: tuple) -> dict:
    """The coefficient of b_key, at each sorted key, in b_ka b_kb summed
    over both orbits: the double loop over every ordering of ka and every
    ordering of kb, each merge read off p_a p_b = p_merge, so that it adds
    z_merge / (z_a z_b)."""
    counts: dict = {}
    for a in set(permutations(ka)):
        for b in set(permutations(kb)):
            key = tuple(tuple(sorted(x + y, reverse=True)) for x, y in zip(a, b))
            if _is_sorted(key):
                counts[key] = counts.get(key, 0) + Fraction(_z(key), _z(a) * _z(b))
    return counts


def change_basis_reference(coeffs: dict, k: int, n: int, to_powersum: bool) -> tuple[dict, int]:
    """The separable change of basis on every ordered key, one alphabet at
    a time, with the library's character values: the numerators on the
    other basis and the integer (n!)^k (to power sums) or 1 (to Schur
    functions) that multiplies the denominator."""
    nums = coeffs
    shapes = enumerate_partitions(n)
    for i in range(k):
        out: dict = {}
        for key, p in nums.items():
            for lam in shapes:
                chi = character_value(key[i], lam) if to_powersum else character_value(lam, key[i])
                if chi:
                    new = key[:i] + (lam,) + key[i + 1:]
                    out[new] = out.get(new, ZERO) + p.scale(chi)
        nums = {key: c for key, c in out.items() if c}
    if not to_powersum:
        return nums, 1
    zk = math.factorial(n) ** k
    return {rho: p.scale(zk // math.prod(map(z_lambda, rho))) for rho, p in nums.items()}, zk


def _sorted_reps(full: dict) -> dict:
    """The sorted keys of a table given at every ordered key, which must
    take one value on each orbit."""
    full = {key: c for key, c in full.items() if c}
    reps = {key: c for key, c in full.items() if _is_sorted(key)}
    assert expand_orbits(reps) == full, "not symmetric in the alphabets"
    return reps


def schur_table_oracle(f: SymFunc) -> dict:
    """The Schur table of f: <f, s_mu> = sum over rho of f_rho chi^mu(rho),
    one add per (source key, target key) pair over every ordered key, each
    sum then divided exactly by den (as_poly: NotPolynomialError when it
    is not a polynomial)."""
    keys = multipartitions(f.k, f.n)
    nums, den = powersum_of(f)
    out: dict = {}
    for rho, c in nums.items():
        for mu in keys:
            if chi := _chi_product(mu, rho):
                out[mu] = out.get(mu, ZERO) + c.scale(chi)
    return {mu: as_poly(scalar(c, den)) for mu, c in sorted(_sorted_reps(out).items())}


def from_schur_oracle(k: int, n: int, table: dict) -> SymFunc:
    """The power-sum function with the given Schur table: f_rho = sum over
    mu of t_mu chi^mu(rho) / z_rho, one add per (source key, target key)
    pair over every ordered key, over the lcm of the z_rho."""
    keys = multipartitions(k, n)
    zs = {rho: math.prod(map(z_lambda, rho)) for rho in keys}
    z_lcm = math.lcm(*zs.values())
    out: dict = {}
    for mu, c in expand_orbits(table).items():
        for rho in keys:
            if chi := _chi_product(mu, rho):
                out[rho] = out.get(rho, ZERO) + c.scale(chi * (z_lcm // zs[rho]))
    return powersum_symfunc(k, n, _sorted_reps(out), PolyQU.const(z_lcm))


def schur_coefficient_oracle(f: SymFunc, mu: tuple) -> SymFunc:
    """<f, s_mu> from the power-sum basis, one term per ordered key of f."""
    nums, den = powersum_of(f)
    total = ZERO
    for rho, c in nums.items():
        total = total + c.scale(_chi_product(mu, rho))
    return scalar(total, den)


def pairing(f: SymFunc, g: SymFunc) -> SymFunc:
    """Hall pairing on k alphabets, as a scalar: sum over every ordered rho
    of z_rho f_rho g_rho, with z_rho the product of the k one-alphabet z's."""
    if f.k != g.k or f.n != g.n:
        raise ValueError("pairing requires equal alphabet counts and degrees")
    (f_full, f_den), (g_full, g_den) = powersum_of(f), powersum_of(g)
    total = ZERO
    for rho, ca in f_full.items():
        cb = g_full.get(rho)
        if cb is not None:
            total = total + (ca * cb).scale(math.prod(map(z_lambda, rho)))
    return scalar(total, f_den * g_den)


def pleth_log(series: GradedSeries) -> GradedSeries:
    """Log f = Psi^{-1}(log f), the inverse of GradedSeries.pleth_exp:
    the Adams sum of log f with Moebius weights."""
    return series.plain_log().adams_sum(mobius)


def _tensor_power(f: SymFunc, k: int) -> SymFunc:
    """f(x_1) ... f(x_k) for a one-alphabet f, expanded at every ordered
    key and then kept at the sorted ones."""
    nums, den = powersum_of(f)
    full = {tuple(rho for (rho,), _ in combo): math.prod((v for _, v in combo), start=ONE)
            for combo in product(nums.items(), repeat=k)}
    return powersum_symfunc(k, f.n, _sorted_reps(full), den ** k)


def omega_oracle(k: int, N: int) -> GradedSeries:
    """The kernel sum over lam of prod_i H~_lam(x_i) / a_lam(q), each
    product expanded on the power-sum basis, p(n)^k terms per lam."""
    coeffs = [SymFunc.one(k)]
    for n in range(1, N + 1):
        acc = SymFunc.zero(k, n)
        for lam in enumerate_partitions(n):
            hl = from_schur_oracle(1, n, transformed_hl(lam))
            f = _tensor_power(hl, k)
            acc = acc.add(SymFunc(k, n, f.coeffs, f.den * a_poly(lam)))
        coeffs.append(acc)
    return GradedSeries(k, N, coeffs)


def H_omega_oracle(ctx, omega) -> PolyQU:
    """Hall pairing of the power-sum master coefficient Psi_n, at every
    ordered key, with the power-sum product of the k Schur-type factors of
    a multitype, which is not symmetric."""
    mt = as_multitype(omega)
    n = type_size(mt[0])
    comps = [powersum_of(from_schur_oracle(1, n, schur_of_type(tau))) for tau in mt]
    psi_full, psi_den = powersum_of(ctx.psi.coeffs[n])
    den = math.prod((c_den for _, c_den in comps), start=psi_den)
    total = ZERO
    for combo in product(*(nums.items() for nums, _ in comps)):
        rho = tuple(r for (r,), _ in combo)
        c = psi_full.get(rho)
        if c is not None:
            c = math.prod((v for _, v in combo), start=c)
            total = total + c.scale(math.prod(map(z_lambda, rho)))
    return as_poly(scalar(total, den))


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


def dominates(nu: tuple, lam: tuple) -> bool:
    """Dominance order: partial sums of nu are at least those of lam."""
    if sum(nu) != sum(lam):
        return False
    run_n = run_l = 0
    for i in range(max(len(nu), len(lam))):
        run_n += nu[i] if i < len(nu) else 0
        run_l += lam[i] if i < len(lam) else 0
        if run_n < run_l:
            return False
    return True


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


def _mobius(n: int) -> int:
    """The Moebius function by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def phi(d: int) -> tuple[PolyQU, int]:
    """Number of size-d Frobenius orbits on the multiplicative group of
    F_{q^d}, split form, by Moebius inversion: (1/d) sum over r | d of
    mu(r) (q^{d/r} - 1), as the pair (numerator, d).  The library has only
    phi_u, whose value at u = 1 this is."""
    if d < 1:
        raise ValueError("d must be positive")
    num = PolyQU()
    for r in range(1, d + 1):
        if d % r == 0 and _mobius(r):
            num = num + (Q ** (d // r) - ONE).scale(_mobius(r))
    return num, d


def uprime_log_two_part(r: GradedSeries) -> GradedSeries:
    """The log of the twisted infinite product in two parts: the sum over
    odd d of phi'_d psi_d(r_alt)/d plus the sum over even d of
    phi'_d psi_d(r)/d, r_alt the signed q -> -q image of r.  The library's
    three-part form regrouped: its even-d correction turns the even-d
    terms of its first part from r_alt into r.  Every degree-n term is over
    (-q)^n - 1, so the sum takes no lcm."""
    r_alt = _signed_neg_q(r)
    return r_alt.adams_sum(lambda d: phi_prime(d) if d % 2 else 0).add(
        r.adams_sum(lambda d: 0 if d % 2 else phi_prime(d)))


def vprime_sign_reference(mu: tuple) -> int:
    """The sign s of V'(q) = s V(-q) at k partitions of n, from the
    multipartition statistics alone: (-1)^(k (n + ceil(n/2)) + n_dual + n + 1),
    n_dual the sum of n(mu^i') over the components.  The library computes
    the sign from multitype statistics, which also cover semisimple types."""
    k, n = len(mu), sum(mu[0])
    n_dual = sum(n_stat(dual(comp)) for comp in mu)
    return -1 if (k * (n + (n + 1) // 2) + n_dual + n + 1) % 2 else 1


def _subspaces(n: int, q: int) -> list[list[frozenset]]:
    """Every subspace of F_q^n as the frozenset of its vectors, listed by
    dimension.  Each is built once, as the span of its reduced row echelon
    basis: one for each set of pivot columns and each filling of the
    entries right of a pivot that lie in no pivot column."""
    by_dim = []
    for d in range(n + 1):
        spaces = []
        for pivots in combinations(range(n), d):
            free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                    if j not in pivots]
            for entries in product(range(q), repeat=len(free)):
                rows = [[int(j == p) for j in range(n)] for p in pivots]
                for (i, j), c in zip(free, entries):
                    rows[i][j] = c
                spaces.append(frozenset(
                    tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(n))
                    for cs in product(range(q), repeat=d)))
        by_dim.append(spaces)
    return by_dim


def _poly_mul(a: tuple, b: tuple, q: int) -> tuple:
    """The product of two polynomials over F_q, each a tuple of
    coefficients from the constant term up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def _monic(d: int, q: int) -> list[tuple]:
    return [low + (1,) for low in product(range(q), repeat=d)]


def _irreducibles(n: int, q: int) -> list[tuple]:
    """The monic irreducible polynomials f != x over F_q of degree at most
    n: the monic ones with a nonzero constant term that are no product of
    two monic ones of lower degree."""
    out = []
    for d in range(1, n + 1):
        reducible = {_poly_mul(a, b, q) for i in range(1, d // 2 + 1)
                     for a in _monic(i, q) for b in _monic(d - i, q)}
        out += [f for f in _monic(d, q) if f[0] and f not in reducible]
    return out


def conjugacy_classes(n: int, q: int):
    """Each conjugacy class of GL_n(F_q) as (its elementary divisors, the
    order of its centralizer).  A class is a map f -> lam(f) from the
    monic irreducible f != x to partitions with sum of deg f |lam(f)| = n;
    its elementary divisors are the f^(lam_i), and its centralizer has
    order prod over f of a_{lam(f)}(q^(deg f)) (Macdonald IV.2)."""
    irr = _irreducibles(n, q)

    def assign(i: int, rest: int):
        if rest == 0:
            yield [], 1
            return
        if i == len(irr):
            return
        f, d = irr[i], len(irr[i]) - 1
        yield from assign(i + 1, rest)
        powers = [(1,)]  # f^0, f^1, ...
        for s in range(1, rest // d + 1):
            powers.append(_poly_mul(powers[-1], f, q))
            for lam in enumerate_partitions(s):
                c = a_poly(lam).evaluate(q ** d)
                for divisors, c_rest in assign(i + 1, rest - d * s):
                    yield [powers[part] for part in lam] + divisors, c * c_rest

    yield from assign(0, n)


def _companion_image(v: tuple, p: tuple, q: int) -> tuple:
    """The companion matrix of the monic p applied to v: e_i -> e_(i+1)
    and e_(m-1) -> -(p_0 e_0 + ... + p_(m-1) e_(m-1))."""
    return tuple((prev - v[-1] * c) % q for prev, c in zip((0,) + v[:-1], p))


@lru_cache(maxsize=None)
def _group_classes(n: int, q: int) -> tuple[dict, dict]:
    """The elements of G = GL_n(F_q) counted by (pi vector, det), and each
    unipotent character as a function of the pi vector.  Each conjugacy
    class is read on one representative, the block-diagonal matrix of the
    companion matrices of its elementary divisors, and counts |G| / |C(g)|
    elements; the determinant of a block of degree m is (-1)^m p(0).
    pi_lam(g), the number of g-stable flags of type lam, counted one
    dimension at a time through the g-stable subspaces only, is the
    permutation character on G/P_lam = sum over mu of K_{mu lam} chi^mu,
    with Kostka numbers K from ssyt_count; so the unipotent characters
    come from the pi_lam by forward substitution from (n), the trivial
    character, down to 1^n, the Steinberg character.  The pi vector is all
    the unipotent characters see; the determinant is all a linear
    character sees."""
    vectors = list(product(range(q), repeat=n))
    by_dim = _subspaces(n, q)
    shapes = sorted(enumerate_partitions(n), reverse=True)  # (n) first
    order = math.prod(q**n - q**i for i in range(n))
    classes: dict = {}
    for divisors, centralizer in conjugacy_classes(n, q):
        ends = list(accumulate(len(p) - 1 for p in divisors))
        image = {v: sum((_companion_image(v[e - len(p) + 1:e], p, q)
                         for p, e in zip(divisors, ends)), ())
                 for v in vectors}
        stable = [[V for V in dim if all(image[v] in V for v in V)] for dim in by_dim]
        pi = []
        for lam in shapes:
            # stable chains, counted per stable subspace they end in
            chains = dict.fromkeys(stable[0], 1)
            for d in accumulate(lam[:-1]):
                chains = {V: sum(c for W, c in chains.items() if W <= V) for V in stable[d]}
            pi.append(sum(chains.values()))
        pi = tuple(pi)
        det = math.prod((-1) ** (len(p) - 1) * p[0] for p in divisors) % q
        assert order % centralizer == 0, (divisors, centralizer)
        classes[pi, det] = classes.get((pi, det), 0) + order // centralizer
    assert sum(classes.values()) == order, (n, q)
    pis = {pi for pi, _ in classes}
    chi: dict = {}
    for j, lam in enumerate(shapes):
        above = [(ssyt_count(mu, lam), chi[mu]) for mu in shapes[:j]]
        chi[lam] = {pi: pi[j] - sum(K * c[pi] for K, c in above) for pi in pis}
    return chi, classes


def _multiplicities_from_group(group: tuple[dict, dict], n: int, k: int, exponent) -> dict:
    """(1/|G|) sum over g in G of alpha(det g) prod_i chi^{mu^i}(g) for
    every sorted key mu of k partitions of n, where group = (chi, classes)
    gives each unipotent character chi^lam of G as a function of an
    element's signature and counts the elements of G by (signature, det),
    and alpha = zeta^exponent(det) is a linear character of G with values
    in the n-th roots of unity, exponent(det) in 0..n-1.  The sum is taken
    per exponent class: S_e sums prod_i chi^{mu^i}(g) over the g with
    exponent(det g) = e.  The multiplicity is rational only if
    S_1 = ... = S_(n-1), which is asserted, and then it is (S_0 - S_1)/|G|,
    as the n-th roots of unity other than 1 add up to -1."""
    chi, classes = group
    order = sum(classes.values())
    by_pi: dict = {}
    for (pi, det), count in classes.items():
        by_pi.setdefault(pi, [0] * n)[exponent(det)] += count
    out = {}
    for key in multipartitions(k, n):
        if _is_sorted(key):
            sums = [0] * n
            for pi, counts in by_pi.items():
                value = math.prod(chi[mu][pi] for mu in key)
                for e, count in enumerate(counts):
                    sums[e] += count * value
            assert len(set(sums[1:])) <= 1, (key, sums)
            total = sums[0] - (sums[1] if n > 1 else 0)
            assert total % order == 0, (key, total, order)
            out[key] = total // order
    return out


def unipotent_multiplicities_from_group(n: int, q: int, k: int) -> dict:
    """U_mu(q) = (1/|G|) sum over g in G = GL_n(F_q) of prod_i chi^{mu^i}(g)
    for every sorted key mu of k partitions of n, from the matrices over
    F_q alone (_group_classes): the trivial character, exponent 0."""
    return _multiplicities_from_group(_group_classes(n, q), n, k, lambda det: 0)


def generic_multiplicities_from_group(n: int, q: int, k: int) -> dict:
    """V_mu(q) for a prime q = 1 mod n, from the matrices over F_q alone:
    (1/|G|) sum over g in G = GL_n(F_q) of alpha(det g) prod_i
    chi^{mu^i}(g), alpha a linear character of F_q^* of order exactly n,
    read off det^((q-1)/n): the Legendre symbol at n = 2, and at n = 3,
    q = 7 the cube roots of unity 1, 2, 4 mod 7.  Twisting one factor by
    alpha o det makes the tuple generic (Hausel, Letellier and
    Rodriguez-Villegas), and the paper states that T(0, q) is this
    multiplicity."""
    if (q - 1) % n:
        raise ValueError(f"a linear character of order {n} needs {n} | q - 1")
    roots = {pow(x, (q - 1) // n, q) for x in range(1, q)}
    zeta = next(r for r in sorted(roots) if all(pow(r, t, q) != 1 for t in range(1, n)))
    log = {pow(zeta, e, q): e for e in range(n)}
    return _multiplicities_from_group(_group_classes(n, q), n, k,
                                      lambda det: log[pow(det, (q - 1) // n, q)])


@lru_cache(maxsize=None)
def _fq2(q: int) -> tuple[list, list, list, list]:
    """F_(q^2) for a prime q, its elements the integers a + b q standing
    for a + b x, x a root of the first monic quadratic x^2 + c x + e with
    no root in F_q: the tables of sums and products, the inverses (None
    at 0) and the Frobenius z -> z^q."""
    c, e = next((c, e) for c in range(q) for e in range(q)
                if all((x * x + c * x + e) % q for x in range(q)))
    field = range(q * q)

    def mul(a: int, b: int) -> int:
        a0, a1, b0, b1 = a % q, a // q, b % q, b // q
        return (a0 * b0 - e * a1 * b1) % q + (a0 * b1 + a1 * b0 - c * a1 * b1) % q * q

    add = [[(a % q + b % q) % q + (a // q + b // q) % q * q for b in field] for a in field]
    times = [[mul(a, b) for b in field] for a in field]
    inv = [next((b for b in field if times[a][b] == 1), None) for a in field]
    frob = [_fq2_power(times, a, q) for a in field]
    return add, times, inv, frob


def _fq2_power(times: list, a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = times[out][a]
    return out


@lru_cache(maxsize=None)
def gu_classes(n: int, q: int) -> tuple[dict, dict]:
    """The elements of G = GU_n(F_q), n = 2 or 3 and q a prime, counted by
    (signature, det), and each unipotent character as a function of the
    signature, from matrices over F_(q^2) alone.  G is enumerated as the
    matrices whose columns are orthonormal for the Hermitian form
    <x, y> = sum_i x_i y_i^q, column by column from the unit vectors
    orthogonal to the columns before.  The signature of g is
    (dim ker(g - z) for each z in the centre mu_(q+1), with z = 1 first;
    the number of isotropic lines that g fixes).  G has F_q-rank 1, so the
    permutation character on the isotropic lines is 1 + St, and:
    - (n) is the trivial character;
    - (1^n) is the Steinberg character, the fixed isotropic lines less 1;
    - (n - 1, 1) is the piece of the Weil representation on which the
      centre acts trivially, (-1)^n/(q + 1) times the sum over z of
      (-q)^dim ker(g - z), from Gerardin's Weil character
      (-1)^n (-q)^dim ker(g - 1).  At n = 3 it is the cuspidal unipotent
      character, of degree q(q - 1); at n = 2 it is the Steinberg
      character again, which is asserted.
    The labels follow Ennola: chi^lam has degree +-(the GL_n(F_q) degree
    of lam at -q)."""
    if n not in (2, 3):
        raise ValueError("the unipotent characters are built at n = 2 and 3 only")
    add, times, inv, frob = _fq2(q)
    minus_one = q - 1

    def herm(x: tuple, y: tuple) -> int:
        acc = 0
        for a, b in zip(x, y):
            acc = add[acc][times[a][frob[b]]]
        return acc

    def apply(cols: tuple, v: tuple) -> tuple:
        out = [0] * n
        for c, col in zip(v, cols):
            for i, a in enumerate(col):
                out[i] = add[out[i]][times[c][a]]
        return tuple(out)

    def rank(rows: list) -> int:
        r = 0
        for j in range(n):
            piv = next((i for i in range(r, n) if rows[i][j]), None)
            if piv is not None:
                rows[r], rows[piv] = rows[piv], rows[r]
                s = times[minus_one][inv[rows[r][j]]]
                for i in range(r + 1, n):
                    f = times[s][rows[i][j]]
                    rows[i] = [add[x][times[f][y]] for x, y in zip(rows[i], rows[r])]
                r += 1
        return r

    def det(cols: tuple) -> int:
        out = 0
        for perm in permutations(range(n)):
            term = minus_one if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
            for j, i in enumerate(perm):
                term = times[term][cols[j][i]]
            out = add[out][term]
        return out

    def frames(cols: tuple, candidates: list):
        if len(cols) == n:
            yield cols
            return
        for v in candidates:
            yield from frames(cols + (v,), [w for w in candidates if herm(w, v) == 0])

    vectors = list(product(range(q * q), repeat=n))
    units = [v for v in vectors if herm(v, v) == 1]
    # isotropic lines, each by its vector whose first nonzero entry is 1
    lines = [(v, v.index(1)) for v in vectors
             if any(v) and herm(v, v) == 0 and v[next(i for i, c in enumerate(v) if c)] == 1]
    centre = [z for z in range(1, q * q) if times[z][frob[z]] == 1]
    classes: dict = {}
    for cols in frames((), units):
        kernels = tuple(n - rank([[add[cols[j][i]][times[minus_one][z] if i == j else 0]
                                   for j in range(n)] for i in range(n)])
                        for z in centre)
        fixed = 0
        for v, i in lines:
            w = apply(cols, v)
            fixed += w == tuple(times[w[i]][a] for a in v)
        sig = (kernels, fixed)
        classes[sig, det(cols)] = classes.get((sig, det(cols)), 0) + 1
    order = q ** (n * (n - 1) // 2) * math.prod(q**i - (-1)**i for i in range(1, n + 1))
    assert sum(classes.values()) == order, (n, q)
    sigs = {sig for sig, _ in classes}
    weil = {}
    for sig in sigs:
        total = (-1) ** n * sum((-q) ** d for d in sig[0])
        assert total % (q + 1) == 0, sig
        weil[sig] = total // (q + 1)
    chi = {(n,): dict.fromkeys(sigs, 1), (1,) * n: {sig: sig[1] - 1 for sig in sigs}}
    if n == 2:
        assert weil == chi[1, 1]
    else:
        chi[2, 1] = weil
    return chi, classes


def unitary_multiplicities_from_group(n: int, q: int, k: int, generic: bool = False) -> dict:
    """U'_mu(q), or V'_mu(q) when generic, for every sorted key mu of k
    partitions of n, from GU_n(F_q) itself (gu_classes): the average over
    G of prod_i chi^{mu^i}(g), with one factor twisted for V' by a linear
    character of order exactly n of det, which lies in mu_(q+1); so V'
    needs n | q + 1."""
    group = gu_classes(n, q)
    if not generic:
        return _multiplicities_from_group(group, n, k, lambda det: 0)
    if (q + 1) % n:
        raise ValueError(f"a linear character of order {n} needs {n} | q + 1")
    _, times, _, frob = _fq2(q)
    centre = [z for z in range(1, q * q) if times[z][frob[z]] == 1]
    roots = {_fq2_power(times, z, (q + 1) // n) for z in centre}
    zeta = next(r for r in sorted(roots)
                if all(_fq2_power(times, r, t) != 1 for t in range(1, n)))
    log = {_fq2_power(times, zeta, e): e for e in range(n)}
    return _multiplicities_from_group(
        group, n, k, lambda det: log[_fq2_power(times, det, (q + 1) // n)])


def star_quiver(mu: tuple) -> tuple[list[int], list[list[int]]]:
    """The dimension vector v_mu of the star-shaped quiver of a
    multipartition of n, and its adjacency lists: vertex 0 is the centre,
    of dimension n, and leg i reads n - mu^i_1, n - mu^i_1 - mu^i_2, ...,
    its positive entries only."""
    n = size(mu[0])
    v, adj = [n], [[]]
    for comp in mu:
        prev = 0
        for used in accumulate(comp[:-1]):
            adj[prev].append(len(v))
            adj.append([prev])
            prev = len(v)
            v.append(n - used)
    return v, adj


def is_root(v: list[int], adj: list[list[int]]) -> bool:
    """Whether v, with no negative entry, is a root of the loop-free quiver
    with adjacency lists adj (Kac): reflect at any x with
    2 v_x > sum over the neighbours y of v_y until a coordinate goes
    negative (not a root), a single nonzero coordinate is left (a root iff
    it is 1), or no reflection applies (a root iff the support is
    connected)."""
    v = list(v)
    while True:
        support = [x for x, c in enumerate(v) if c]
        if len(support) <= 1:
            return [v[x] for x in support] == [1]
        x = next((x for x in support if 2 * v[x] > sum(v[y] for y in adj[x])), None)
        if x is None:
            seen, todo = {support[0]}, [support[0]]
            while todo:
                new = [y for y in adj[todo.pop()] if v[y] and y not in seen]
                seen.update(new)
                todo += new
            return len(seen) == len(support)
        v[x] = sum(v[y] for y in adj[x]) - v[x]
        if v[x] < 0:
            return False


def kac_polynomial_hua(v: list[int], adj: list[list[int]], q: int) -> int:
    """The Kac polynomial A_v at an integer q by Hua's formula (J. Algebra,
    2000), for the loop-free quiver with adjacency lists adj:
    sum over v of A_v(q) X^v = (q - 1) Log P, P the sum over tuples pi of
    partitions, one per vertex, of X^|pi| times the product over edges
    x - y of q^<pi^x, pi^y> over the product over vertices x of
    q^<pi^x, pi^x> b_{pi^x}(1/q), where <lam, nu> = sum_i lam'_i nu'_i and
    b_lam(t) = prod_i prod_{j <= m_i(lam)} (1 - t^j).  The plain log of P
    is taken degree by degree over w <= v, from the Euler operator:
    |w| L_w = |w| P_w - sum over 0 < u < w of |u| L_u P_{w-u}; then
    A_v(q) = (q - 1) sum over d | gcd(v) of mu(d)/d L_{v/d}(q^d)."""
    edges = [(x, y) for x in range(len(v)) for y in adj[x] if x < y]

    def pair(a: tuple, b: tuple) -> int:
        return sum(i * j for i, j in zip(dual(a), dual(b)))

    def plain_log(top: list[int], t: Fraction) -> Fraction:
        weight = {lam: 1 / (t ** pair(lam, lam) * math.prod(
            1 - t ** -j for m in Counter(lam).values() for j in range(1, m + 1)))
            for c in range(max(top) + 1) for lam in enumerate_partitions(c)}
        grid = list(product(*(range(c + 1) for c in top)))  # u < w comes first
        P = {w: sum(math.prod(weight[lam] for lam in pi) *
                    t ** sum(pair(pi[x], pi[y]) for x, y in edges)
                    for pi in product(*map(enumerate_partitions, w)))
             for w in grid}
        L: dict[tuple, Fraction] = {}
        for w in grid[1:]:
            acc = sum(w) * P[w]
            for u in product(*(range(c + 1) for c in w)):
                if 0 < sum(u) < sum(w):
                    acc -= sum(u) * L[u] * P[tuple(a - b for a, b in zip(w, u))]
            L[w] = acc / sum(w)
        return L[tuple(top)]

    g = math.gcd(*v)
    total = (q - 1) * sum(Fraction(_mobius(d), d) * plain_log([c // d for c in v], Fraction(q ** d))
                          for d in range(1, g + 1) if g % d == 0 and _mobius(d))
    if total.denominator != 1:
        raise AssertionError(f"A_{v}({q}) came out {total}")
    return int(total)


# helpers that only the tests call


def entry_count(tau: TypeEntries) -> int:
    """Number of entries counted with multiplicity."""
    return sum(m for _, _, m in tau)


def dual_type(tau: TypeEntries) -> TypeEntries:
    return make_type([(d, dual(lam), m) for d, lam, m in tau])


def c_tau(tau: TypeEntries) -> Fraction:
    """Expansion coefficient of the plethystic logarithm of a partition-
    indexed generating series: nonzero only when every entry shares one
    d, in which case it is (-1)^{r-1} mu(d) (r-1)! / (d prod m_i!) with r
    the entry count with multiplicity."""
    ds = {d for d, _, _ in tau}
    if len(ds) != 1:
        return Fraction(0)
    d = ds.pop()
    mu_d = mobius(d)
    if mu_d == 0:
        return Fraction(0)
    r = entry_count(tau)
    denom = d
    for _, _, m in tau:
        denom *= math.factorial(m)
    return Fraction((-1) ** (r - 1) * mu_d * math.factorial(r - 1), denom)


@lru_cache(maxsize=None)
def enumerate_types(n: int) -> tuple[TypeEntries, ...]:
    """All types of size n, deterministically ordered."""
    if n < 1:
        raise ValueError("size must be at least 1")
    pairs = [
        (d, lam)
        for d in range(1, n + 1)
        for s in range(1, n // d + 1)
        for lam in enumerate_partitions(s)
    ]
    out: list[TypeEntries] = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(make_type(acc))
            return
        if i == len(pairs):
            return
        rec(i + 1, remaining, acc)
        d, lam = pairs[i]
        w = d * size(lam)
        m = 1
        while m * w <= remaining:
            acc.append((d, lam, m))
            rec(i + 1, remaining - m * w, acc)
            acc.pop()
            m += 1

    rec(0, n, [])
    return tuple(sorted(out))


def extend_to_type(family, entries) -> SymFunc:
    """Product over type entries (d, lam, m) of family(lam) with every
    alphabet power index multiplied by d and q replaced by q^d (psi_d,
    which is d times SymFunc.adams), taken m times.

    `family` maps a partition to a one-alphabet SymFunc; the result is
    again one-alphabet.
    """
    out = SymFunc.one(1)
    for d, lam, m in entries:
        piece = family(lam).adams(d).scale(d)
        for _ in range(m):
            out = out.multiply(piece)
    return out


def c_omega(tau: TypeEntries, mu: Partition) -> int:
    """Integer Schur coefficient <schur_of_type(tau), s_mu>."""
    if type_size(tau) != size(mu):
        raise ValueError(f"type size {type_size(tau)} != |mu| = {size(mu)}")
    p = schur_of_type(tau).get((mu,), ZERO)
    if p.is_zero():
        return 0
    if set(p.terms) != {(0, 0)}:
        raise AssertionError(f"non-constant Schur coefficient for {tau}, {mu}")
    return p.terms[(0, 0)]


def a_type_poly(tau: TypeEntries) -> PolyQU:
    """Centralizer-order polynomial: product of a_lam(q^d)^m over entries."""
    out = ONE
    for d, lam, m in tau:
        out = out * (a_poly(lam).subst(q=Q ** d) ** m)
    return out


def a_prime_poly(tau: TypeEntries) -> PolyQU:
    """(-1)^{|tau|} a_tau(-q), the twisted centralizer-order polynomial."""
    return a_type_poly(tau).subst(q=-Q).scale((-1) ** type_size(tau))


def multitype_to_text(omega: tuple[TypeEntries, ...]) -> str:
    return ",".join(type_to_text(c) for c in omega)


def hook_poly(lam: Partition) -> PolyQU:
    """H_lambda(q) = product over cells of (q^hook - 1)."""
    dl = dual(lam)
    poly = ONE
    for i, row in enumerate(lam):
        for j in range(row):
            h = row - j + dl[j] - i - 1
            poly = poly * (Q**h - ONE)
    return poly


def unipotent_degree(mu: Partition) -> PolyQU:
    """Degree of the unipotent character indexed by mu:
    q^{n(mu)} prod_{i<=n} (q^i - 1) / H_mu(q)."""
    num = PolyQU.monomial(1, n_stat(mu), 0) * q_pochhammer(size(mu))
    deg = poly_exact_div(num, hook_poly(mu))
    if deg is None:
        raise AssertionError(f"unipotent degree of {mu} did not divide exactly")
    return deg


def series_mul(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """The product of two series of one shape, truncated at their order:
    degree n is the sum over i of a_i b_{n-i}."""
    if (a.k, a.N) != (b.k, b.N):
        raise ValueError("series shapes differ")
    out = []
    for n in range(a.N + 1):
        acc = SymFunc.zero(a.k, n)
        for i in range(n + 1):
            fa, fb = a.coeffs[i], b.coeffs[n - i]
            if not (fa.is_zero() or fb.is_zero()):
                acc = acc.add(fa.multiply(fb))
        out.append(acc)
    return GradedSeries(a.k, a.N, out)
