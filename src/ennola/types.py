"""Combinatorial types: multisets of (d, partition, multiplicity) entries
recording how Frobenius permutes eigenvalue data.

A type of size n is stored as a canonically sorted tuple of entries
(d, lam, m) with distinct (d, lam) pairs and n = sum m*d*|lam|.  The
module provides the integer Schur expansion of the product of Schur
functions evaluated on power-substituted alphabets, read off its
power-sum weights (classtypes.power_weights), and the text syntax of
types and multitypes.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .characters import character_value
from .classtypes import power_weights, type_size
from .coeffs import PolyQU
from .partitions import (
    MultiPartition,
    ParseError,
    Partition,
    check_partition,
    enumerate_partitions,
    parse_components,
    parse_int,
    split_at,
    z_lambda,
)

TypeEntries = tuple[tuple[int, Partition, int], ...]


def make_type(entries) -> TypeEntries:
    """Canonical form: validated entries, equal (d, lam) merged, sorted."""
    merged: dict[tuple[int, Partition], int] = {}
    for d, lam, m in entries:
        lam = check_partition(lam)
        if d < 1 or m < 1:
            raise ValueError(f"entry ({d}, {lam}, {m}) needs positive d and m")
        if not lam:
            raise ValueError("empty partition in a type entry")
        key = (d, lam)
        merged[key] = merged.get(key, 0) + m
    if not merged:
        raise ValueError("a type needs at least one entry")
    return tuple((d, lam, merged[(d, lam)]) for d, lam in sorted(merged))


@lru_cache(maxsize=None)
def schur_of_type(tau: TypeEntries) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the product X over entries of psi_d s_{lam}
    (alphabet powers d and q -> q^d), m times each; one alphabet, integer
    coefficients <X, s_nu> = sum over rho of w(rho) chi^nu(rho) / z_rho,
    read off X's power-sum weights w (classtypes.power_weights).  Cached
    and shared, so no caller mutates it."""
    n, w = type_size(tau), power_weights(tau)
    out = {}
    for nu in enumerate_partitions(n):
        c = sum(v * character_value(nu, rho) * (factorial(n) // z_lambda(rho))
                for rho, v in w.items()) // factorial(n)
        if c:
            out[(nu,)] = PolyQU.const(c)
    return out


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
