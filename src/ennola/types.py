"""Combinatorial types: multisets of (d, partition, multiplicity) entries
recording how Frobenius permutes eigenvalue data.

A type of size n is stored as a canonically sorted tuple of entries
(d, lam, m) with distinct (d, lam) pairs and n = sum m*d*|lam|.  The
module provides the statistics r and r', the integer Schur expansion of
the product of Schur functions evaluated on power-substituted alphabets,
and the text syntax of types and multitypes.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ONE, PolyQU
from .partitions import (
    MultiPartition,
    ParseError,
    Partition,
    check_partition,
    size,
    split_at,
)
from .symfunc import SymFunc

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


def type_stats(tau: TypeEntries) -> tuple[int, int]:
    """(r_stat, r_prime): |tau| + sum of m*|lam| and ceil(|tau|/2) + sum of
    m*|lam|."""
    n = type_size(tau)
    weight = sum(m * size(lam) for _, lam, m in tau)
    return n + weight, (n + 1) // 2 + weight


@lru_cache(maxsize=None)
def schur_of_type(tau: TypeEntries) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the product over entries of psi_d s_{lam}
    (alphabet powers d and q -> q^d), m times each; one alphabet, integer
    coefficients.  SymFunc.adams is psi_d / d, hence the factor d.  Cached
    and shared, so no caller mutates it."""
    out = SymFunc.one(1)
    for d, lam, m in tau:
        piece = SymFunc.from_schur(1, size(lam), {(lam,): ONE}).adams(d).scale(d)
        for _ in range(m):
            out = out.multiply(piece)
    return out.to_schur()


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
