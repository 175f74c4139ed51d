"""Multihomogeneous symmetric functions on k alphabets and graded series
in a formal variable T, with plethystic exponential and logarithm.

A SymFunc of degree n is an element of the n-th graded piece of
Lambda(x_1) (x) ... (x) Lambda(x_k) over Q(q, u), stored sparsely on the
basis b_rho = p_rho / z_rho dual to the power sums (p_rho and z_rho the
products of the k one-alphabet ones), indexed by k-tuples of partitions
of n, as integer numerators in Z[q, u] over one denominator in Z[q] for
the whole piece.  As s_lam = sum over rho of chi^lam(rho) b_rho, an
integer Schur table has integer numerators over 1.  A SymFunc is built
over its denominator, and SymFunc.over is the one rewrite, one packed
product (coeffs.pack) or exact division per key, to a multiple or a
divisor of the denominator; each stage knows its denominators in closed
form, so no gcd reduces a piece.  Adding two pieces over different
denominators takes their lcm.  As psi_m p_rho = p_{m rho} and z_{m rho}
= m^l(rho) z_rho, l(rho) the number of parts, the Adams operation
psi_m / m is a key remap times m^(l(rho) - 1) plus the monomial remap
q -> q^m, u -> u^m.  Each plethystic step is one weighted Adams sum
(weight mu for Psi, u^m for Exp(u Psi), d phi_d for the product routes)
followed by at most one Newton recurrence, the plain exp or log.

The Schur side has one form, the Schur table: a dict from sorted keys to
integer polynomials, over the denominator 1.  to_schur reads it off a
SymFunc and from_schur builds the SymFunc back from it.

Every function here is symmetric in the k alphabets, so a SymFunc and a
Schur table keep one key per orbit of their permutations: the sorted one,
whose coefficient stands for each of its orderings (orbit).

The Schur <-> b change of basis is an integer-linear map of the
numerators (toward the Schur side after a scaling by (n!)^k / z_rho, the
one place z_rho appears), so it runs on packed integers (coeffs.pack):
each numerator is packed once, the character table is applied with
integer scale-adds, and each output is unpacked once, with the digit
size from the column bound C that _character_rows gives with its rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .coeffs import (
    ONE,
    Q,
    U,
    NotPolynomialError,
    PolyQU,
    exact_quotients,
    norm1,
    pack,
    poly_exact_div,
    poly_lcm,
    unpack,
)
from .partitions import MultiPartition, Partition, character_value, enumerate_partitions, z_lambda

Coeffs = dict[MultiPartition, PolyQU]


def _is_sorted(key: MultiPartition) -> bool:
    return list(key) == sorted(key)


@lru_cache(maxsize=None)
def orbit(key: MultiPartition) -> tuple[MultiPartition, ...]:
    """The distinct orderings of key's components, in ascending order:
    each distinct first component, then the orbit of the rest."""
    if not key:
        return ((),)
    s = sorted(key)
    return tuple((c,) + rest for i, c in enumerate(s) if not i or s[i - 1] != c
                 for rest in orbit(tuple(s[:i] + s[i + 1:])))


@lru_cache(maxsize=None)
def _z_product(rho: MultiPartition) -> int:
    return prod(map(z_lambda, rho))


@lru_cache(maxsize=None)
def _character_rows(n: int, to_powersum: bool) -> tuple[dict, int]:
    """The one-alphabet change of basis at degree n as rows[src, low], the
    (target, chi) pairs with chi nonzero and target >= low (low a shape or
    ()), and C, the largest sum of |chi| over the sources of one target."""
    def chi(src: Partition, lam: Partition) -> int:
        return character_value(src, lam) if to_powersum else character_value(lam, src)

    shapes = sorted(enumerate_partitions(n))
    rows = {(src, low): tuple((lam, c) for lam in shapes if lam >= low and (c := chi(src, lam)))
            for src in shapes for low in [(), *shapes]}
    return rows, max(sum(abs(chi(src, lam)) for src in shapes) for lam in shapes)


def change_basis_packed(k: int, nums: dict, rows: dict) -> dict:
    """The numerators of a degree-n function on the other basis, as packed
    integers (coeffs.pack) in and out: f_rho = sum over mu of f_mu
    chi^mu(rho) toward b_rho, and (n!)^k <f, s_mu> = sum over rho of
    f_rho chi^mu(rho) for inputs already scaled by (n!)^k / z_rho
    (_change_basis), chi the product of the k one-alphabet characters.
    The numerators go through rows (_character_rows) one alphabet at a time,
    as (head, tail) keys: head the converted components, kept sorted, and
    tail the others, sorted because the partial sum is symmetric in them.
    A tail feeds each of its distinct components to the next pass."""
    cur = {((), key): v for key, v in nums.items()}
    for _ in range(k):
        out: dict = {}
        for (head, tail), v in cur.items():
            low = head[-1] if head else ()
            for j, src in enumerate(tail):
                if j and tail[j - 1] == src:
                    continue
                rest = tail[:j] + tail[j + 1:]
                for lam, c in rows[src, low]:
                    new = (head + (lam,), rest)
                    out[new] = out.get(new, 0) + c * v
        cur = out
    return {head: v for (head, _), v in cur.items()}


def _change_basis(f: "SymFunc", to_powersum: bool) -> Coeffs:
    """The numerators of f's coefficients read on the other basis, times
    (n!)^k on the Schur side: each packed once, multiplied toward the
    Schur side by (n!)^k / z_rho, converted by change_basis_packed, and
    unpacked once.  An output at a key lam_1..lam_k is the sum over the
    source keys src of f_src chi(src_1, lam_1) ... chi(src_k, lam_k), at
    most max |f| prod_i sum_src |chi(src, lam_i)| <= max |f| C^k, C from
    _character_rows; so the digits hold max |scaled input| C^k."""
    rows, C = _character_rows(f.n, to_powersum)
    zk = factorial(f.n) ** f.k
    weight = {key: 1 if to_powersum else zk // _z_product(key) for key in f.coeffs}
    top = max((max(map(abs, p.terms.values())) * weight[key] for key, p in f.coeffs.items()),
              default=0)
    B = (top * C ** f.k).bit_length() + 1
    W = 1 + max((p.qdeg() for p in f.coeffs.values()), default=0)
    nums = change_basis_packed(f.k, {key: pack(p, B, W) * weight[key]
                                     for key, p in f.coeffs.items()}, rows)
    return {key: unpack(v, B, W) for key, v in nums.items()}


@lru_cache(maxsize=None)
def _merged_orbits(ka: MultiPartition, kb: MultiPartition) -> tuple:
    """(key, count) for the sorted keys among the componentwise merges of
    the orderings of ka with those of kb: b_ka b_kb summed over both
    orbits has count times b_key at each representative key.  Permuting
    the alphabets permutes those merges, so by orbit-stabilizer counting
    it is enough to merge ka with each ordering of kb, count each merge at
    its sorted key, and scale by |orbit(ka)| / |orbit(key)|, then by
    z_key / (z_ka z_kb), on each alphabet a product of binomials."""
    counts: dict = {}
    for b in orbit(kb):
        key = tuple(sorted(tuple(sorted(x + y, reverse=True)) for x, y in zip(ka, b)))
        counts[key] = counts.get(key, 0) + 1
    za, zb = _z_product(ka), _z_product(kb)
    return tuple((key, c * len(orbit(ka)) // len(orbit(key)) * (_z_product(key) // (za * zb)))
                 for key, c in counts.items())


class SymFunc:
    """Degree-n symmetric function on k alphabets, sparse on the basis
    b_rho = p_rho / z_rho: integer numerators in Z[q, u], one per sorted key
    (an orbit representative), over den, a nonzero polynomial in q."""

    __slots__ = ("k", "n", "coeffs", "den")

    def __init__(self, k: int, n: int, coeffs: Coeffs, den: PolyQU = ONE):
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if den.udeg() > 0:
            raise AssertionError(f"u in a denominator: ({den})")
        self.k = k
        self.n = n
        self.coeffs = {key: c for key, c in coeffs.items() if not c.is_zero()}
        if not all(map(_is_sorted, self.coeffs)):
            raise AssertionError("a key is not sorted: keep one key per orbit")
        self.den = den

    @classmethod
    def zero(cls, k: int, n: int) -> "SymFunc":
        return cls(k, n, {})

    @classmethod
    def one(cls, k: int) -> "SymFunc":
        """The unit, of degree 0."""
        return cls(k, 0, {((),) * k: ONE})

    @classmethod
    def from_schur(cls, k: int, n: int, table: Coeffs) -> "SymFunc":
        """The degree-n function whose Schur table is table (sorted keys,
        integer polynomials), over 1."""
        schur = cls(k, n, table)  # checks the keys and drops zeros
        return cls(k, n, _change_basis(schur, to_powersum=True))

    def _with(self, coeffs: Coeffs, den: PolyQU, n: int | None = None) -> "SymFunc":
        return SymFunc(self.k, self.n if n is None else n, coeffs, den)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        a, b = self, other
        if (a.k, a.n) != (b.k, b.n) or a.coeffs.keys() != b.coeffs.keys():
            return False
        if a.den == b.den:
            return a.coeffs == b.coeffs
        return all(c * b.den == b.coeffs[key] * a.den for key, c in a.coeffs.items())

    def __repr__(self) -> str:
        return f"SymFunc(k={self.k}, n={self.n}, {len(self.coeffs)} terms over {self.den})"

    def _check_compatible(self, other: "SymFunc") -> None:
        if self.k != other.k:
            raise AssertionError("alphabet counts differ")

    def add(self, other: "SymFunc") -> "SymFunc":
        self._check_compatible(other)
        if self.n != other.n:
            raise AssertionError("degrees differ")
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = self, other
        if a.den != b.den:
            den = poly_lcm(a.den, b.den)
            a, b = a.over(den), b.over(den)
        out = dict(a.coeffs)
        for key, c in b.coeffs.items():
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
        return a._with(out, a.den)

    def scale(self, c) -> "SymFunc":
        """self * c for c an integer or a polynomial in q and u; any other
        coefficient raises TypeError, as PolyQU.scale does."""
        if isinstance(c, PolyQU):
            return self._with({key: p * c for key, p in self.coeffs.items()}, self.den)
        if type(c) is not int:
            raise TypeError(f"scale by {c!r}, not an int")
        return self._with({key: p.scale(c) for key, p in self.coeffs.items()}, self.den)

    def over(self, den: PolyQU) -> "SymFunc":
        """The same function with its numerators over den, a multiple or a
        divisor of the present denominator: one exact division per key, or
        up = den / self.den packed once and one packed product per key, with
        digits for the largest |p|_max |up|_1 (coeffs.pack).  A function with
        no terms goes over any den.  Raises NotPolynomialError when den is
        not a denominator of this function."""
        if den == self.den:
            return self
        if not self.coeffs:
            return self._with({}, den)
        up = poly_exact_div(den, self.den)
        if up is not None:
            ps = self.coeffs.values()
            W = 1 + max(p.qdeg() for p in ps) + up.qdeg()
            B = (max(max(map(abs, p.terms.values())) for p in ps) * norm1(up)).bit_length() + 1
            packed = pack(up, B, W)
            return self._with({key: unpack(pack(p, B, W) * packed, B, W)
                               for key, p in self.coeffs.items()}, den)
        down = poly_exact_div(self.den, den)
        if down is None:
            raise NotPolynomialError(f"not a polynomial: ({den})/({self.den})")
        quots = exact_quotients(list(self.coeffs.values()), down)
        for (key, p), quot in zip(self.coeffs.items(), quots):
            if quot is None:
                raise NotPolynomialError(f"not a polynomial: ({p})/({down}) at {key}")
        return self._with(dict(zip(self.coeffs, quots)), den)

    def multiply(self, other: "SymFunc") -> "SymFunc":
        """Product in the tensor algebra.  One polynomial product per pair
        of representatives, added at each key it reaches times the
        integer factor from _merged_orbits."""
        self._check_compatible(other)
        out: Coeffs = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                c = ca * cb
                for key, count in _merged_orbits(ka, kb):
                    v = c.scale(count)
                    cur = out.get(key)
                    out[key] = v if cur is None else cur + v
        return self._with(out, self.den * other.den, n=self.n + other.n)

    def adams(self, m: int) -> "SymFunc":
        """psi_m / m: b_rho -> m^(l(rho) - 1) b_{m rho}, l(rho) the number
        of parts on all alphabets, with q -> q^m and u -> u^m.  A nonzero
        degree-0 piece, whose factor would be 1/m, raises AssertionError."""
        if m == 1:
            return self
        if self.n == 0 and self.coeffs:
            raise AssertionError(f"psi_{m}/{m} of a nonzero degree-0 piece")
        qm, um = Q ** m, U ** m
        out = {tuple(tuple(part * m for part in comp) for comp in key):
               c.subst(q=qm, u=um).scale(m ** (sum(map(len, key)) - 1))
               for key, c in self.coeffs.items()}
        return self._with(out, self.den.subst(q=qm), n=self.n * m)

    def subst_coeffs(self, q: PolyQU | None = None, u: PolyQU | None = None) -> "SymFunc":
        return self._with({key: c.subst(q=q, u=u) for key, c in self.coeffs.items()},
                          self.den.subst(q=q))

    def to_schur(self) -> Coeffs:
        """The Schur table: each Schur coefficient divided exactly by
        (n!)^k den, at the sorted keys in ascending order.  Raises
        NotPolynomialError when a coefficient is not a polynomial."""
        zk = factorial(self.n) ** self.k
        nums = self._with(_change_basis(self, to_powersum=False), self.den.scale(zk))
        return dict(sorted(nums.over(ONE).coeffs.items()))


class GradedSeries:
    """Series sum_{n=0..N} f_n T^n, f_n a SymFunc of degree n, truncated
    at T^N; the constant term f_0 sits on the one key ((),) * k.

    One plethystic step is adams_sum and at most one plain_exp or
    plain_log.  Given dens, dens[n] a denominator degree n of the result is
    known to have, those two rewrite each degree over it before the next
    uses it; else it stays over n times the lcm of its terms' denominators."""

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k: int, N: int, coeffs: list):
        if len(coeffs) != N + 1:
            raise AssertionError("need exactly N+1 coefficients")
        self.k = k
        self.N = N
        self.coeffs = coeffs

    @classmethod
    def zero(cls, k: int, N: int) -> "GradedSeries":
        return cls(k, N, [SymFunc.zero(k, n) for n in range(N + 1)])

    def __repr__(self) -> str:
        return f"GradedSeries(k={self.k}, N={self.N})"

    def _like(self, coeffs: list) -> "GradedSeries":
        return GradedSeries(self.k, self.N, coeffs)

    def add(self, other: "GradedSeries") -> "GradedSeries":
        self._check(other)
        return self._like([a.add(b) for a, b in zip(self.coeffs, other.coeffs)])

    def sub(self, other: "GradedSeries") -> "GradedSeries":
        self._check(other)
        return self._like([a.add(b.scale(-1)) for a, b in zip(self.coeffs, other.coeffs)])

    def over(self, dens: list) -> "GradedSeries":
        """Degree n rewritten over dens[n] (SymFunc.over)."""
        return self._like([f.over(d) for f, d in zip(self.coeffs, dens)])

    def _check(self, other: "GradedSeries") -> None:
        if (self.k, self.N) != (other.k, other.N):
            raise AssertionError("series shapes differ")

    def plain_exp(self, dens: list | None = None) -> "GradedSeries":
        """exp of a series with zero constant term (_newton, w = n - i)."""
        if not self.coeffs[0].is_zero():
            raise AssertionError("plain_exp needs zero constant term")
        return self._newton(SymFunc.one(self.k), lambda n, i: n - i, dens)

    def plain_log(self, dens: list | None = None) -> "GradedSeries":
        """log of a series with constant term 1 (_newton, w = -i)."""
        if self.coeffs[0] != SymFunc.one(self.k):
            raise AssertionError("plain_log needs constant term 1")
        return self._newton(SymFunc.zero(self.k, 0), lambda n, i: -i, dens)

    def _newton(self, x0: SymFunc, w, dens: list | None) -> "GradedSeries":
        """The series X with constant term x0 and, for n >= 1,
        n X_n = n f_n + sum_{0<i<n} w(n, i) X_i f_{n-i}: X = exp f for
        w = n - i, X = log f for w = -i.  The n f_n term comes first, so
        when every other term's denominator divides its one, no gcd is
        taken.  Degree n is rewritten over dens[n] when dens is given."""
        out = [x0]
        for n in range(1, self.N + 1):
            acc = self.coeffs[n].scale(n)
            for i in range(1, n):
                g, f = out[i], self.coeffs[n - i]
                if not (g.is_zero() or f.is_zero()):
                    acc = acc.add(g.multiply(f).scale(w(n, i)))
            acc = acc._with(acc.coeffs, acc.den.scale(n))
            out.append(acc if dens is None else acc.over(dens[n]))
        return self._like(out)

    def adams_sum(self, weight) -> "GradedSeries":
        """sum_{m>=1} weight(m) psi_m(f)/m for f with zero constant term, m
        ascending: degree i m gains weight(m) f_i.adams(m).  weight(m) is an
        int or a polynomial in q and u; a zero weight skips m.  Weight 1 is
        the plethystic Psi, weight mu its inverse."""
        if not self.coeffs[0].is_zero():
            raise AssertionError("the Adams sum needs zero constant term")
        out = GradedSeries.zero(self.k, self.N).coeffs
        for m in range(1, self.N + 1):
            if w := weight(m):
                for i in range(1, self.N // m + 1):
                    out[i * m] = out[i * m].add(self.coeffs[i].adams(m).scale(w))
        return self._like(out)
