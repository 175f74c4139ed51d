"""Types, and T, U, U', V and V' by the sum over class types without the
k-fold tables: one contraction (type_sum) for all sorted keys of a
degree, of which `pair` (t_poly) takes one key and verify the [u^1] part, V.

A type (make_type) is a sorted tuple of entries (d, lam, m), the degree
d of an orbit of Frobenius, a partition lam and a multiplicity m, with
distinct (d, lam), of size sum m d |lam| (type_size).  Its `--type`
literal, such as "1:1.1;2:1", is read by parse_type and written by
type_to_text, and a multitype's, its types joined by ",", is read by
parse_multitype.

The u-deformed product prod_m (psi_m Omega)^{phi_{u,m}}, whose Schur
coefficients are u T (its log: multiplicities.u_deformed_log_sum), expands
binomially, (psi_m Omega)^phi = sum_r binom(phi, r) (psi_m Omega - 1)^r,
into a sum over the class types of size n: multisets tau of atoms
(m, nu), m >= 1 and nu a nonempty partition, with sum m |nu| = n.  For a
multipartition mu of n with k components

    u T_mu(u, q) = sum_tau c_tau / A_tau * prod_i <s_{mu^i}, F_tau>,

- c_tau = prod_m falling(phi_{u,m}, r_m) / prod over the distinct atoms
  of mult!, r_m the number of atoms with that m, phi_{u,m} = phi_u(m)/m;
- A_tau = prod a_nu(q^m), the centralizer orders;
- F_tau = prod psi_m H~_nu on one alphabet, psi_m sending p_rho to
  p_{m rho} and q to q^m.

Each term is a scalar times F_tau(x_1) ... F_tau(x_k), so the pairing
with s_{mu^1}(x_1) ... s_{mu^k}(x_k) splits into k one-alphabet ones and
the number of terms depends on n alone: per type, F_tau is built once
and paired with every component, and the k-fold products are formed at
the sorted keys with shared prefixes (tensor_expand).  At u = 1 this is
the Frobenius sum over the class types of GL_n(F_q) (Green, 1955), at
(u, q) = (-1, -q) over those of GU_n(F_q) (Ennola, 1963).  The [u^1]
part, T(0, q) = V up to its sign, comes from the types whose atoms
share one squarefree m alone: [u^1] of m^r falling(phi_{u,m}, r) is
mu(m) (q - 1) (-m)^(r-1) (r - 1)!.  The sum is linear in each
component, so at a multitype the Schur-type products X_1 ... X_k
(multiplicities.schur_of_type) take the place of the Schur functions:
each X pairs with F_tau through its power-sum weights w_X(rho) =
<X, p_rho> (power_weights), and T(0, q) is the pairing H of
multiplicities.H_omega.

Each atom (m, nu) is psi_m of nu's green_record, the one record per
partition of H~_nu on the power sums and a_nu(q) in closed form, which
the kernel (multiplicities._build_omega), the sum over the types (1, nu)
alone, reads too.  The record of nu is built on the power sums from that
of nu less its first part, by the modified Hall-Littlewood vertex
operator read on p_rho, as packed integers with the digit size from an
a priori bound; no Schur-side table is formed.  Every A_tau, a
centralizer order, divides |GL_n(F_q)| = q^S (q;q)_n, S = n(n-1)/2,
the kernel's denominator too: prod_j (q^m_j; q^m_j)_{r_j} divides
(q;q)_n when sum m_j r_j <= n, the quotient being partitions.cofactor.  So the sum runs on integer
numerators over that one denominator and an integer L, on packed
integers (coeffs.pack) with the digit size from an a priori bound, and
ends in one exact division for all keys; a remainder, or a T of
u-degree above n - 1 (_div_u, which the tables share), is a broken
invariant and raises AssertionError.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm, prod

from .coeffs import ONE, Q, U, ZERO, PolyQU, exact_quotients, norm1, pack, unpack
from .partitions import (
    ParseError,
    Partition,
    a_factors,
    character_value,
    check_components,
    check_partition,
    cofactor,
    dual,
    enumerate_partitions,
    mobius,
    multipartition_to_text,
    multiplicities,
    n_stat,
    parse_components,
    parse_int,
    q_pochhammer,
    size,
    split_at,
    z_lambda,
)

MINUS_ONE = ONE.scale(-1)


def phi_u(d: int) -> PolyQU:
    """d phi_{u,d}, an integer polynomial, for the orbit count phi_{u,d} =
    (1/d) sum over r | d of mu(r) u^{d/r} (q^{d/r} - 1), which is
    integer-valued at every integer q and u."""
    if d < 1:
        raise AssertionError("d must be positive")
    acc = PolyQU()
    for r in range(1, d + 1):
        if d % r == 0 and mobius(r):
            e = d // r
            acc = acc + ((U ** e) * (Q ** e - ONE)).scale(mobius(r))
    return acc


TypeEntries = tuple[tuple[int, Partition, int], ...]


def make_type(entries) -> TypeEntries:
    """A type of size n = sum m d |lam|, entries (d, lam, m) with distinct
    (d, lam), in canonical form: validated, equal (d, lam) merged, sorted."""
    merged: dict[tuple[int, Partition], int] = {}
    for d, lam, m in entries:
        lam = check_partition(lam)
        if type(d) is not int or type(m) is not int or d < 1 or m < 1:
            raise ValueError(f"entry ({d}, {lam}, {m}) needs positive d and m")
        if not lam:
            raise ValueError("empty partition in a type entry")
        key = (d, lam)
        merged[key] = merged.get(key, 0) + m
    if not merged:
        raise ValueError("a type needs at least one entry")
    return tuple((d, lam, merged[(d, lam)]) for d, lam in sorted(merged))


def type_size(tau) -> int:
    """n = sum m d |lam| over the entries (d, lam, m) of the type tau."""
    return sum(m * d * size(lam) for d, lam, m in tau)


def as_types(key, k: int | None = None) -> tuple:
    """The one normal form of a query key, a multipartition or a multitype:
    each component a type, a partition lam as ((1, lam, 1),) and a typed
    one in canonical form (make_type), shaped as partitions.check_components
    asks (k of them when k is given, of one size n >= 1); else ValueError."""
    return check_components(tuple(make_type(c) if c and isinstance(c[0], tuple)
                                  else ((1, check_partition(c), 1),) for c in key),
                            type_size, k)


# text syntax: entries "d:parts^m" joined by ";", parts dot-separated with
# no per-part exponents, "^m" optional with default 1


def parse_type(text: str) -> TypeEntries:
    """Syntax only: each entry's ranges and shape are make_type's to check,
    and its ValueError comes back as a ParseError at the entry."""
    if not text.strip():
        raise ParseError(text, 0, "empty type literal")
    entries = []
    for pos, piece in split_at(text, ";"):
        d_text, colon, rest = piece.partition(":")
        if not colon:
            raise ParseError(text, pos, "type entry needs 'd:parts'")
        parts_text, hat, m_text = rest.rpartition("^")
        if not hat:
            parts_text, m_text = rest, "1"
        d, m = parse_int(text, pos, d_text), parse_int(text, pos, m_text)
        entry = (d, tuple(parse_int(text, pos, p) for p in parts_text.split(".")), m)
        try:
            make_type([entry])
        except ValueError as e:
            raise ParseError(text, pos, str(e)) from None
        entries.append(entry)
    return make_type(entries)


def type_to_text(tau: TypeEntries) -> str:
    pieces = []
    for d, lam, m in tau:
        body = f"{d}:" + ".".join(str(p) for p in lam)
        if m > 1:
            body += f"^{m}"
        pieces.append(body)
    return ";".join(pieces)


def parse_multitype(text: str) -> tuple[TypeEntries, ...]:
    """Comma-separated list of types, e.g. "1:1.1;2:1,1:1^4,3:1;1:1"."""
    return parse_components(text, parse_type, type_size)


def _multitype_signs(mt) -> tuple[int, int]:
    """The signs s, s' of V(q) = s H(q) and V'(q) = s' H(-q), H the pairing
    multiplicities.H_omega, and of U'(q) = s' T(-1, -q) at a multitype as
    as_types returns it: s = (-1)^r and s' = (-1)^(r' + n_dual + n + 1),
    where with k components of size n and w the sum of m |lam| over all
    entries, r = k n + w and r' = k ceil(n/2) + w, and n_dual sums
    m d n(lam') over all entries."""
    k, n = len(mt), type_size(mt[0])
    w = sum(m * size(lam) for comp in mt for _, lam, m in comp)
    nd = sum(m * d * n_stat(dual(lam)) for comp in mt for d, lam, m in comp)
    return (-1) ** (k * n + w), (-1) ** (k * ((n + 1) // 2) + w + nd + n + 1)


# (u, q) at which each family reads T, and which of _multitype_signs' s
# (0) and s' (1) signs it, if one does; s = 1 on a multipartition
SPECIALIZATIONS = {
    "T": (None, None, None),
    "U": (ONE, None, None),
    "Uprime": (MINUS_ONE, -Q, 1),
    "V": (ZERO, None, 0),
    "Vprime": (ZERO, -Q, 1),
}


def specialize(which: str, t: PolyQU, key) -> PolyQU:
    """T, U, U', V or V' at a multipartition or a multitype, from T there;
    V and V' also from the pairing H = T(0, q) of multiplicities.H_omega.
    The key is checked (as_types) for every family."""
    u, q, sign = SPECIALIZATIONS[which]
    mt, val = as_types(key), t.subst(q=q, u=u)
    return val if sign is None else val.scale(_multitype_signs(mt)[sign])


@lru_cache(maxsize=None)
def class_types(n: int) -> tuple[tuple[tuple[int, Partition], ...], ...]:
    """The class types of size n, each a tuple of atoms (m, nu) in
    ascending order, an atom repeated as often as it occurs."""
    atoms = [(m * j, (m, nu)) for m in range(1, n + 1) for j in range(1, n // m + 1)
             for nu in enumerate_partitions(j)]

    def rec(first: int, rest: int):
        if not rest:
            yield ()
        for i in range(first, len(atoms)):
            weight, atom = atoms[i]
            if weight <= rest:
                for tail in rec(i, rest - weight):
                    yield (atom,) + tail

    return tuple(rec(0, n))


@lru_cache(maxsize=None)
def _sub_multisets(rho: Partition, r: int) -> tuple:
    """The (tau, c) with tau a sub-multiset of rho's parts of size at most
    r, descending, and c the number of ways to pick it from rho's parts."""
    out = [((), 1)]
    for part, k in multiplicities(rho).items():
        out = [(tau + (part,) * t, c * comb(k, t)) for tau, c in out
               for t in range(k + 1) if size(tau) + part * t <= r]
    return tuple(out)


@lru_cache(maxsize=None)
def _sigma_weights(j: int, B: int) -> tuple:
    """The (sigma, j!/z_sigma prod_i (1 - q^sigma_i)) over sigma |- j, the
    weight packed at q = 2^B."""
    return tuple((sigma, factorial(j) // z_lambda(sigma) * prod((1 - (1 << B * p)) for p in sigma))
                 for sigma in enumerate_partitions(j))


@lru_cache(maxsize=None)
def green_record(nu: Partition) -> tuple:
    """nu's record, built once per process for the kernel and every atom
    (m, nu): (pairs, s, ts), the nonzero pairs (rho, Q^nu_rho(q)), H~_nu on
    b_rho = p_rho / z_rho (Macdonald III.7), rho in enumeration order, and
    a_nu(q) = q^s prod over ts of (q^t - 1) (partitions.a_factors).
    Q^(m) = 1, and for nu = (m, rest), r = |rest|, by the vertex operator
    H~_nu = q^r sum_j h_{m+j} (h_j[(1/q - 1)X])^perp H~_rest on the power
    sums, with tau = rho minus S and j = r - |tau|,
    r! Q^nu_rho = sum over S in rho, |S| >= m, of c(S) q^|tau| r!/j!
    sum over sigma |- j of j!/z_sigma prod_i (1 - q^sigma_i) Q^rest_{sigma+tau},
    c(S) the ways to pick S from rho's parts: all integers, on packed
    integers, the inner sum once per tau, one exact division per rho.
    The digit size comes from |Q^nu_rho|_1 <= sum_lam K_{lam,nu} f^lam
    = n!/prod nu_i!, reached at rho = 1^n."""
    n = size(nu)
    if len(nu) < 2:
        return tuple((rho, ONE) for rho in enumerate_partitions(n)), *a_factors(nu)
    r, rf = n - nu[0], factorial(n - nu[0])
    B = (factorial(n) // prod(map(factorial, nu))).bit_length() + 1
    below = {rho: pack(g, B, 1) for rho, g in green_record(nu[1:])[0]}
    inner: dict = {}  # tau -> q^|tau| r!/j! times the sum over sigma, packed
    pairs = []
    for rho in enumerate_partitions(n):
        acc = 0
        for tau, c in _sub_multisets(rho, r):
            if tau not in inner:
                j = r - size(tau)
                g = sum(w * below.get(tuple(sorted(sigma + tau, reverse=True)), 0)
                        for sigma, w in _sigma_weights(j, B))
                inner[tau] = g * (rf // factorial(j)) << B * size(tau)
            acc += c * inner[tau]
        value, rem = divmod(acc, rf)
        if rem:
            raise AssertionError(f"Q^{nu} at {rho} is not an integer polynomial")
        if green := unpack(value, B):
            pairs.append((rho, green))
    return (tuple(pairs), *a_factors(nu))


@lru_cache(maxsize=None)
def _atom(m: int, nu: Partition) -> tuple:
    """The atom (m, nu), psi_m of nu's green_record, as (pairs, norm, shift,
    ts): the pairs (m rho, |nu|!/z_rho Q^nu_rho(q^m)), the sum of their
    1-norms, and a_nu(q^m) = q^shift prod over ts of (q^t - 1)."""
    pairs, s, ts = green_record(nu)
    f = factorial(size(nu))
    pairs = tuple((tuple(m * p for p in rho), g.subst(q=Q ** m).scale(f // z_lambda(rho)))
                  for rho, g in pairs)
    return pairs, sum(norm1(g) for _, g in pairs), m * s, tuple(m * t for t in ts)


def _power_product(factors) -> dict:
    """{rho: coefficient of p_rho} of a product, from each factor's pairs
    (rho, coefficient of p_rho)."""
    f = {(): 1}
    for pairs in factors:
        nxt: dict = {}
        for sig, c in f.items():
            for rho, g in pairs:
                key = tuple(sorted(sig + rho, reverse=True))
                nxt[key] = nxt.get(key, 0) + c * g
        f = nxt
    return f


@lru_cache(maxsize=None)
def power_weights(tau) -> dict:
    """The nonzero w(rho) = <X, p_rho> of the product X over the entries
    (d, lam, m) of the type tau of psi_d s_lam, m times each: psi_d s_lam
    = sum over rho of chi^lam(rho)/z_rho p_{d rho}, times |lam|! integer.
    At the type ((1, lam, 1),) of a partition, w is chi^lam."""
    factors = [[(tuple(d * p for p in rho), factorial(size(lam)) // z_lambda(rho) * c)
                for rho in enumerate_partitions(size(lam)) if (c := character_value(lam, rho))]
               for d, lam, m in tau for _ in range(m)]
    scale = prod(factorial(size(lam)) ** m for _, lam, m in tau)
    return {rho: c * z_lambda(rho) // scale for rho, c in _power_product(factors).items() if c}


def _div_u(p: PolyQU | None, n: int, at) -> PolyQU:
    """T from u T, the degree-n entry at `at`, one exact division by u:
    AssertionError when p is None (type_sum's sum did not divide), a term
    of p has no u or T's u-degree exceeds n - 1."""
    if p is None:
        raise AssertionError(f"the class-type sum at {at} is not u times a polynomial")
    shifted = {}
    for (i, j), c in p.terms.items():
        if j < 1:
            raise AssertionError(f"coefficient of {at} not divisible by u: {p}")
        shifted[(i, j - 1)] = c
    out = PolyQU(shifted)
    if out.udeg() > n - 1:
        raise AssertionError(f"u-degree of {out} exceeds n-1 for {at}")
    return out


def tensor_expand(factors, start) -> list:
    """The (key, start * c_1 * ... * c_k) terms of a product of k
    one-alphabet expansions, each an iterable of (component, c_i) pairs, at
    the sorted keys in itertools.product order: for k equal factors, the
    orbit representatives.  Folding in one factor at a time shares every
    prefix product."""
    terms = [((), start)]
    for factor in factors:
        terms = [(key + (rho,), c * v) for key, c in terms for rho, v in factor
                 if not key or key[-1] <= rho]
    return terms


def type_sum(alphabets, powers=None) -> dict:
    """{key: [u^j] u T at key, j in powers (every j when None)} at each
    sorted key of one component from each of the k alphabets in turn, the
    components partitions or types of one size n >= 1 (as_types): each
    class type's F_tau built once, packed, paired with every component's
    power_weights, its k-fold products formed at the sorted keys
    (tensor_expand), and the sums over L q^S (q;q)_n divided by one
    exact_quotients; a key whose sum does not divide maps to None."""
    labels = list(dict.fromkeys(c for comps in alphabets for c in comps))
    mt = as_types(labels)
    k, n = len(alphabets), type_size(mt[0])
    S = n * (n - 1) // 2
    weights = {c: power_weights(x) for c, x in zip(labels, mt)}
    falling: dict = {}  # prod over m of m^r_m falling(phi_{u,m}, r_m), the wanted powers of u
    terms = []
    for tau in class_types(n):
        profile = tuple(multiplicities([m for m, _ in tau]).items())  # m ascending, as tau
        if profile not in falling:
            c = prod((phi_u(m) - PolyQU.const(j * m) for m, r in profile for j in range(r)),
                     start=ONE)
            falling[profile] = {j: c_j for j in range(c.udeg() + 1)
                                if (powers is None or j in powers) and (c_j := c.coeff_of_u(j))}
        if not falling[profile]:
            continue
        atoms = [_atom(*atom) for atom in tau]
        ts = tuple(sorted(t for *_, a_ts in atoms for t in a_ts))
        scale = prod(m ** r for m, r in profile) * prod(factorial(size(nu)) for _, nu in tau) ** k
        scale *= prod(map(factorial, multiplicities(tau).values()))
        norm = prod(a[1] for a in atoms) ** k
        terms.append((tau, scale, profile, ts, S - sum(a[2] for a in atoms), norm))
    L = lcm(*(term[1] for term in terms))
    # the scaled <X, F_tau> has 1-norm at most the largest |w_X| times
    # the product of its atoms' 1-norms
    dims = prod(max(max(map(abs, weights[c].values())) for c in comps) for comps in alphabets)
    bound = dims * sum(L // scale * norm1(cofactor(n, ts)) * norm
                       * sum(map(norm1, falling[profile].values()))
                       for _, scale, profile, ts, _, norm in terms)
    B = bound.bit_length() + 1
    packed = {atom: [(rho, pack(g, B, 1)) for rho, g in _atom(*atom)[0]]
              for atom in {atom for tau, *_ in terms for atom in tau}}
    sums: dict = {}  # by the power of u, then the key
    for tau, scale, profile, ts, shift, _ in terms:
        f = _power_product(packed[atom] for atom in tau)
        pairing = {c: sum(v * w.get(sig, 0) for sig, v in f.items()) for c, w in weights.items()}
        products = tensor_expand([[(c, pairing[c]) for c in comps] for comps in alphabets],
                                 L // scale * pack(cofactor(n, ts), B, 1))
        for j, c_j in falling[profile].items():
            acc, c_j = sums.setdefault(j, {}), pack(c_j, B, 1)
            for key, y in products:  # q^shift last: a product with its zeros costs more
                acc[key] = acc.get(key, 0) + (y * c_j << B * shift)
    totals: dict = {}
    for j, acc in sums.items():
        for key, s in acc.items():
            totals.setdefault(key, {}).update(
                ((i, j), c) for (i, _), c in unpack(s, B).terms.items())
    quotients = exact_quotients([PolyQU(t) for t in totals.values()],
                                (Q ** S * q_pochhammer(n)).scale(L))
    return dict(zip(totals, quotients))


def t_poly(key, powers=None) -> PolyQU:
    """T(u, q) at a multipartition or a multitype, of one size n >= 1 as
    as_types checks: type_sum at the one sorted key, each alphabet holding
    that key's component, with its powers: (1,) gives T(0, q) alone."""
    mt = as_types(key)
    n = type_size(mt[0])
    (ut,) = type_sum([[c] for c in sorted(mt)], powers).values()
    # a multipartition by its text, any other key by its types
    lams = tuple(c[0][1] for c in mt)
    return _div_u(ut, n, multipartition_to_text(lams) if tuple(key) == lams else str(mt))
