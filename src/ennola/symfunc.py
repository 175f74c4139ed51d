"""Multihomogeneous symmetric functions on k alphabets and graded series
in a formal variable T, with plethystic exponential and logarithm.

A SymFunc of degree n is an element of the n-th graded piece of
Lambda(x_1) (x) ... (x) Lambda(x_k) with coefficients in Q(q, u), stored
sparsely on the power-sum or Schur basis indexed by k-tuples of
partitions of n.  Power sums are primitive, which makes the Adams
operation psi_m a key remap plus variable substitution; everything
plethystic reduces to that plus ordinary exp/log of graded series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .coeffs import ONE, RAT_ONE, RAT_ZERO, Q, U, PolyQU, RatQU, poly_exact_div
from .characters import character_value
from .partitions import MultiPartition, Partition, enumerate_partitions, z_lambda

Coeffs = dict[MultiPartition, RatQU]


def _as_rat(c) -> RatQU:
    if isinstance(c, RatQU):
        return c
    if isinstance(c, PolyQU):
        return RatQU.from_poly(c)
    if isinstance(c, Fraction):
        return RatQU.from_frac(c)
    if isinstance(c, int):
        return RatQU.from_int(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def tensor_expand(factors, start) -> list:
    """The (key, start * c_1 * ... * c_k) terms of a product of k
    one-alphabet expansions, each an iterable of (partition, c_i) pairs;
    keys are the partition tuples in itertools.product order.  Folding in
    one factor at a time shares every prefix product, so factors of m_i
    terms cost m_1 + m_1 m_2 + ... + m_1 ... m_k multiplies."""
    terms = [((), start)]
    for factor in factors:
        terms = [(key + (rho,), c * v) for key, c in terms for rho, v in factor]
    return terms


@lru_cache(maxsize=None)
def _z_product(rho: MultiPartition) -> int:
    out = 1
    for comp in rho:
        out *= z_lambda(comp)
    return out


def _change_basis(f: "SymFunc", to_powersum: bool) -> Coeffs:
    """The coefficients of f on the other basis: <f, s_mu> = sum over rho
    of f_rho chi^mu(rho), and f_rho = sum over mu of f_mu chi^mu(rho) / z_rho,
    with chi the product of the k one-alphabet characters.  The numerators
    over one common denominator den in Z[q] go through the character table
    one alphabet at a time, k p(n)^(k+1) integer scale-adds and no
    polynomial gcd; each output key then reduces once, over den * z_rho
    in the power-sum direction."""
    den = ONE
    for d in {c.den for c in f.coeffs.values()}:
        if den.qdeg() == d.qdeg() == 0:
            den = PolyQU.const(lcm(den.coeff(0, 0), d.coeff(0, 0)))
        else:
            den = den * RatQU(den, d).den
    nums = {key: c.num * poly_exact_div(den, c.den) for key, c in f.coeffs.items()}
    shapes = enumerate_partitions(f.n)
    for i in range(f.k):
        out: dict[MultiPartition, PolyQU] = {}
        for key, p in nums.items():
            for lam in shapes:
                chi = character_value(key[i], lam) if to_powersum else character_value(lam, key[i])
                if chi:
                    new = key[:i] + (lam,) + key[i + 1:]
                    cur = out.get(new)
                    out[new] = p.scale(chi) if cur is None else cur + p.scale(chi)
        nums = out
    if to_powersum:
        return {rho: RatQU(p, den.scale(_z_product(rho))) for rho, p in nums.items()}
    return {mu: RatQU(p, den) for mu, p in nums.items()}


def _merge_parts(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


class SymFunc:
    """Degree-n symmetric function on k alphabets, sparse on one basis."""

    __slots__ = ("k", "n", "basis", "coeffs")

    def __init__(self, k: int, n: int, basis: str, coeffs: Coeffs):
        if basis not in ("p", "s"):
            raise ValueError(f"unknown basis {basis!r}")
        self.k = k
        self.n = n
        self.basis = basis
        self.coeffs = {key: c for key, c in coeffs.items() if not c.num.is_zero()}

    @classmethod
    def zero(cls, k: int, n: int, basis: str = "p") -> "SymFunc":
        return cls(k, n, basis, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            return False
        a = self if self.basis == "p" else self.to_powersum()
        b = other if other.basis == "p" else other.to_powersum()
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        return f"SymFunc(k={self.k}, n={self.n}, basis={self.basis!r}, {len(self.coeffs)} terms)"

    def _check_compatible(self, other: "SymFunc") -> None:
        if self.k != other.k:
            raise ValueError("alphabet counts differ")
        if self.basis != other.basis:
            raise ValueError("bases differ; change basis first")

    def add(self, other: "SymFunc") -> "SymFunc":
        self._check_compatible(other)
        if self.n != other.n:
            raise ValueError("degrees differ")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
        return SymFunc(self.k, self.n, self.basis, out)

    def scale(self, c) -> "SymFunc":
        r = _as_rat(c)
        if r.num.is_zero():
            return SymFunc.zero(self.k, self.n, self.basis)
        return SymFunc(
            self.k, self.n, self.basis, {key: v * r for key, v in self.coeffs.items()}
        )

    def multiply(self, other: "SymFunc") -> "SymFunc":
        """Product in the tensor algebra; power-sum basis only."""
        self._check_compatible(other)
        if self.basis != "p":
            raise ValueError("multiply requires the power-sum basis")
        out: Coeffs = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                key = tuple(_merge_parts(a, b) for a, b in zip(ka, kb))
                c = ca * cb
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
        return SymFunc(self.k, self.n + other.n, "p", out)

    def adams(self, m: int) -> "SymFunc":
        """psi_m: p_r -> p_{mr} on every alphabet, q -> q^m, u -> u^m."""
        if self.basis != "p":
            raise ValueError("adams requires the power-sum basis")
        if m == 1:
            return self
        qm, um = Q ** m, U ** m
        out = {
            tuple(tuple(part * m for part in comp) for comp in key): c.subst(q=qm, u=um)
            for key, c in self.coeffs.items()
        }
        return SymFunc(self.k, self.n * m, "p", out)

    def subst_coeffs(self, q: PolyQU | None = None, u: PolyQU | None = None) -> "SymFunc":
        return SymFunc(
            self.k, self.n, self.basis,
            {key: c.subst(q=q, u=u) for key, c in self.coeffs.items()},
        )

    def to_powersum(self) -> "SymFunc":
        if self.basis == "p":
            return self
        return SymFunc(self.k, self.n, "p", _change_basis(self, to_powersum=True))

    def to_schur(self) -> "SymFunc":
        if self.basis == "s":
            return self
        return SymFunc(self.k, self.n, "s", _change_basis(self, to_powersum=False))

    def schur_coefficient(self, mu: MultiPartition) -> RatQU:
        """<self, s_mu> under the Hall pairing on each alphabet."""
        if len(mu) != self.k:
            raise ValueError(f"expected {self.k} components, got {len(mu)}")
        return self.to_schur().coeffs.get(mu, RAT_ZERO)


def schur_symfunc(k: int, mu: MultiPartition) -> SymFunc:
    """s_{mu^1}(x_1) ... s_{mu^k}(x_k) on the power-sum basis."""
    n = sum(mu[0]) if mu else 0
    return SymFunc(k, n, "s", {mu: RAT_ONE}).to_powersum()


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius expects a positive integer")
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


class GradedSeries:
    """Series sum_{n=0..N} f_n T^n with f_0 in Q(q,u) and f_n a SymFunc of
    degree n, truncated at T^N.  Coefficients live on the power-sum basis."""

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k: int, N: int, coeffs: list):
        if len(coeffs) != N + 1:
            raise ValueError("need exactly N+1 coefficients")
        self.k = k
        self.N = N
        self.coeffs = coeffs

    @classmethod
    def zero(cls, k: int, N: int) -> "GradedSeries":
        return cls(k, N, [RAT_ZERO] + [SymFunc.zero(k, n) for n in range(1, N + 1)])

    @classmethod
    def one(cls, k: int, N: int) -> "GradedSeries":
        return cls(k, N, [RAT_ONE] + [SymFunc.zero(k, n) for n in range(1, N + 1)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.k, self.N) == (other.k, other.N) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        return f"GradedSeries(k={self.k}, N={self.N})"

    def _like(self, coeffs: list) -> "GradedSeries":
        return GradedSeries(self.k, self.N, coeffs)

    def add(self, other: "GradedSeries") -> "GradedSeries":
        self._check(other)
        out = [self.coeffs[0] + other.coeffs[0]]
        out.extend(a.add(b) for a, b in zip(self.coeffs[1:], other.coeffs[1:]))
        return self._like(out)

    def sub(self, other: "GradedSeries") -> "GradedSeries":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GradedSeries":
        r = _as_rat(c)
        return self._like([self.coeffs[0] * r] + [f.scale(r) for f in self.coeffs[1:]])

    def truncate(self, N: int) -> "GradedSeries":
        """Drop the graded pieces above degree N."""
        if N >= self.N:
            return self
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        return GradedSeries(self.k, N, list(self.coeffs[: N + 1]))

    def _check(self, other: "GradedSeries") -> None:
        if (self.k, self.N) != (other.k, other.N):
            raise ValueError("series shapes differ")

    def mul(self, other: "GradedSeries") -> "GradedSeries":
        self._check(other)
        out = []
        for n in range(self.N + 1):
            if n == 0:
                out.append(self.coeffs[0] * other.coeffs[0])
                continue
            acc = SymFunc.zero(self.k, n)
            for a in range(n + 1):
                fa, fb = self.coeffs[a], other.coeffs[n - a]
                if a == 0:
                    term = fb.scale(fa)
                elif a == n:
                    term = fa.scale(fb)
                else:
                    if fa.is_zero() or fb.is_zero():
                        continue
                    term = fa.multiply(fb)
                acc = acc.add(term)
            out.append(acc)
        return self._like(out)

    def adams(self, m: int) -> "GradedSeries":
        """psi_m including T -> T^m, truncated at T^N."""
        if m == 1:
            return self
        out = GradedSeries.zero(self.k, self.N).coeffs
        out[0] = self.coeffs[0].subst(q=Q ** m, u=U ** m)
        for i in range(1, self.N // m + 1):
            out[i * m] = self.coeffs[i].adams(m)
        return self._like(out)

    def plain_exp(self) -> "GradedSeries":
        """exp of a series with zero constant term."""
        if not self.coeffs[0].num.is_zero():
            raise ValueError("plain_exp needs zero constant term")
        out = [RAT_ONE]
        for n in range(1, self.N + 1):
            acc = SymFunc.zero(self.k, n)
            for j in range(1, n + 1):
                g = self.coeffs[j]
                if g.is_zero():
                    continue
                scaled = g.scale(Fraction(j, n))
                if n == j:
                    term = scaled.scale(out[0])
                else:
                    f = out[n - j]
                    if f.is_zero():
                        continue
                    term = scaled.multiply(f)
                acc = acc.add(term)
            out.append(acc)
        return self._like(out)

    def plain_log(self) -> "GradedSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != RAT_ONE:
            raise ValueError("plain_log needs constant term 1")
        out = [RAT_ZERO]
        for n in range(1, self.N + 1):
            acc = self.coeffs[n]
            for j in range(1, n):
                g = out[j]
                f = self.coeffs[n - j]
                if g.is_zero() or f.is_zero():
                    continue
                acc = acc.add(g.scale(Fraction(-j, n)).multiply(f))
            out.append(acc)
        return self._like(out)

    def pleth_psi(self) -> "GradedSeries":
        """Psi f = sum_{m>=1} psi_m(f)/m, for f with zero constant term."""
        if not self.coeffs[0].num.is_zero():
            raise ValueError("pleth_psi needs zero constant term")
        acc = self
        for m in range(2, self.N + 1):
            acc = acc.add(self.adams(m).scale(Fraction(1, m)))
        return acc

    def pleth_psi_inv(self) -> "GradedSeries":
        """Inverse of pleth_psi via Moebius inversion."""
        if not self.coeffs[0].num.is_zero():
            raise ValueError("pleth_psi_inv needs zero constant term")
        acc = self
        for m in range(2, self.N + 1):
            mu = mobius(m)
            if mu:
                acc = acc.add(self.adams(m).scale(Fraction(mu, m)))
        return acc

    def pleth_exp(self) -> "GradedSeries":
        """Exp f = exp(Psi f)."""
        return self.pleth_psi().plain_exp()

    def pleth_log(self) -> "GradedSeries":
        """Log f = Psi^{-1}(log f)."""
        return self.plain_log().pleth_psi_inv()
