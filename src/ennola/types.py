"""The text syntax of types and multitypes: parse_type, type_to_text and
parse_multitype.

A type of size n is a canonically sorted tuple of entries (d, lam, m),
the degree d of an orbit of Frobenius, a partition lam and a multiplicity
m, with distinct (d, lam) pairs and n = sum m d |lam|; classtypes holds
its canonical form (make_type) and size (type_size), re-exported here for
the readers of the syntax.
"""

from __future__ import annotations

from .classtypes import TypeEntries, make_type, type_size
from .partitions import ParseError, parse_components, parse_int, split_at

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
