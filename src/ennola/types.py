"""Combinatorial types: multisets of (d, partition, multiplicity) entries
recording how Frobenius permutes eigenvalue data.

A type of size n is stored as a canonically sorted tuple of entries
(d, lam, m) with distinct (d, lam) pairs and n = sum m*d*|lam|.  The
module provides the statistics n, r, r', duality, the rational expansion
coefficients attached to single-d types, deterministic enumeration, and
the integer Schur expansion of the product of Schur functions evaluated
on power-substituted alphabets.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .coeffs import ONE, Q, ZERO, PolyQU
from .hall_littlewood import extend_to_type
from .partitions import (
    MultiPartition,
    ParseError,
    Partition,
    a_poly,
    check_partition,
    dual,
    enumerate_partitions,
    n_stat,
    size,
    split_at,
)
from .symfunc import mobius, schur_symfunc

TypeEntries = tuple[tuple[int, Partition, int], ...]


def make_type(entries) -> TypeEntries:
    """Canonical form: validated entries, equal (d, lam) merged, sorted."""
    merged: dict[tuple[int, Partition], int] = {}
    for d, lam, m in entries:
        if d < 1 or m < 1:
            raise ValueError(f"entry ({d}, {lam}, {m}) needs positive d and m")
        lam = tuple(lam)
        check_partition(lam)
        if not lam:
            raise ValueError("empty partition in a type entry")
        key = (d, lam)
        merged[key] = merged.get(key, 0) + m
    if not merged:
        raise ValueError("a type needs at least one entry")
    return tuple((d, lam, merged[(d, lam)]) for d, lam in sorted(merged))


def from_partition(lam: Partition) -> TypeEntries:
    """The type of a unipotent-style datum: single entry (1, lam, 1)."""
    return make_type([(1, lam, 1)])


def type_size(tau: TypeEntries) -> int:
    return sum(m * d * size(lam) for d, lam, m in tau)


def entry_count(tau: TypeEntries) -> int:
    """Number of entries counted with multiplicity."""
    return sum(m for _, _, m in tau)


def type_stats(tau: TypeEntries) -> tuple[int, int, int]:
    """(n_stat, r_stat, r_prime): sum of m*d*n(lam), |tau| + sum of m*|lam|,
    and ceil(|tau|/2) + sum of m*|lam|."""
    n = type_size(tau)
    weight = sum(m * size(lam) for _, lam, m in tau)
    n_val = sum(m * d * n_stat(lam) for d, lam, m in tau)
    return n_val, n + weight, (n + 1) // 2 + weight


def dual_type(tau: TypeEntries) -> TypeEntries:
    return make_type([(d, dual(lam), m) for d, lam, m in tau])


def c_tau(tau: TypeEntries):
    """Expansion coefficient of the plethystic logarithm of a partition-
    indexed generating series, as a Fraction: nonzero only when every entry
    shares one d, in which case it is (-1)^{r-1} mu(d) (r-1)! / (d prod m_i!)
    with r the entry count with multiplicity."""
    from fractions import Fraction  # local: no ennola import path loads fractions

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
        denom *= factorial(m)
    return Fraction((-1) ** (r - 1) * mu_d * factorial(r - 1), denom)


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


@lru_cache(maxsize=None)
def schur_of_type(tau: TypeEntries) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the product over entries of s_{lam} with alphabet
    powers d and q -> q^d, m times each; one alphabet, integer
    coefficients.  Cached and shared, so no caller mutates it."""
    return extend_to_type(lambda lam: schur_symfunc(1, (lam,)), tau).to_schur()


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


# text syntax: entries "d:parts^m" joined by ";", parts dot-separated with
# no per-part exponents, "^m" optional with default 1


def parse_type(text: str) -> TypeEntries:
    if not text.strip():
        raise ParseError(text, 0, "empty type literal")
    entries = []
    for pos, piece in split_at(text, ";"):
        body = piece.strip()
        if ":" not in body:
            raise ParseError(text, pos, "type entry needs 'd:parts'")
        d_text, rest = body.split(":", 1)
        if not d_text.strip().isdigit():
            raise ParseError(text, pos, f"bad degree {d_text!r}")
        d = int(d_text)
        if "^" in rest:
            parts_text, m_text = rest.rsplit("^", 1)
            if not m_text.strip().isdigit():
                raise ParseError(text, pos, f"bad multiplicity {m_text!r}")
            m = int(m_text)
        else:
            parts_text, m = rest, 1
        parts = []
        for p in parts_text.split("."):
            if not p.strip().isdigit():
                raise ParseError(text, pos, f"bad part {p!r}")
            parts.append(int(p))
        lam = tuple(parts)
        try:
            check_partition(lam)
        except ValueError as e:
            raise ParseError(text, pos, str(e)) from None
        if d < 1 or m < 1 or not lam:
            raise ParseError(text, pos, "degree and multiplicity must be positive")
        entries.append((d, lam, m))
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
    comps: list[TypeEntries] = []
    for pos, piece in split_at(text, ","):
        try:
            tau = parse_type(piece)
        except ParseError as exc:
            raise exc.within(text, pos) from None
        if comps and type_size(tau) != type_size(comps[0]):
            raise ParseError(text, pos, "type components have different sizes")
        comps.append(tau)
    return tuple(comps)


def multitype_to_text(omega: tuple[TypeEntries, ...]) -> str:
    return ",".join(type_to_text(c) for c in omega)
