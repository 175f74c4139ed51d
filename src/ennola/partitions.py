"""Integer partitions, their statistics, the centralizer orders of
unipotent classes as polynomials in q, and the text syntax.

A partition is a plain tuple of weakly decreasing positive ints (the empty
tuple is the zero partition); a multipartition is a tuple of k partitions
of equal size.  Tuples keep everything hashable so partitions can index
sparse symmetric-function coefficients directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial

from .coeffs import ONE, PolyQU, Q

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def check_multipartition(mu, k: int | None = None) -> MultiPartition:
    """mu as a tuple of partitions, at least one and all of one size, and
    exactly k of them when k is given; ValueError otherwise."""
    mu = tuple(map(check_partition, mu))
    if k is not None and len(mu) != k:
        raise ValueError(f"expected {k} components, got {len(mu)}")
    if not mu:
        raise ValueError("a multipartition needs at least one component")
    if len({size(c) for c in mu}) > 1:
        raise ValueError(f"components of {mu} have different sizes")
    return mu


def size(lam: Partition) -> int:
    return sum(lam)


def dual(lam: Partition) -> Partition:
    """Conjugate partition (transpose of the Young diagram)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def n_stat(lam: Partition) -> int:
    """n(lambda) = sum (i-1) lambda_i."""
    return sum(i * p for i, p in enumerate(lam))


def multiplicities(lam: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(lam: Partition) -> int:
    """Centralizer order of a permutation of cycle type lambda."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def q_pochhammer(n: int) -> PolyQU:
    """(q;q)_n := prod_{i<=n} (q^i - 1), with the sign of the centralizer
    orders: q^{n(n-1)/2} (q;q)_n is the order of GL_n(F_q)."""
    poly = ONE
    for i in range(1, n + 1):
        poly = poly * (Q**i - ONE)
    return poly


def a_poly(lam: Partition) -> PolyQU:
    """Order of the centralizer of a unipotent element of Jordan type lambda
    in GL_n(F_q), as a polynomial in q: q^e times the product of the
    (q;q)_m over the multiplicities m of lambda."""
    shift = size(lam) + 2 * n_stat(lam)
    poly = ONE
    for m in multiplicities(lam).values():
        shift -= m * (m + 1) // 2
        poly = poly * q_pochhammer(m)
    if shift < 0:
        raise AssertionError(f"negative q-power in centralizer order for {lam}")
    return poly * PolyQU.monomial(1, shift, 0)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_gen_partitions(n, n))


@lru_cache(maxsize=None)
def multipartitions(k: int, n: int) -> tuple[MultiPartition, ...]:
    """All k-tuples of partitions of n, lexicographic in the component
    order of enumerate_partitions."""
    return tuple(product(enumerate_partitions(n), repeat=k))


def _gen_partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# text syntax
#
# A partition prints and parses as parts joined by "." with exponent
# shorthand for repeats: "2.1^2" is (2,1,1), "1^4" is (1,1,1,1), "0" is
# the empty partition.  A comma separates the components of a
# multipartition, never the parts of one partition.

def partition_to_text(lam: Partition) -> str:
    if not lam:
        return "0"
    pieces = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        count = j - i
        pieces.append(str(lam[i]) if count == 1 else f"{lam[i]}^{count}")
        i = j
    return ".".join(pieces)


class ParseError(ValueError):
    """Raised with a position when a partition or type literal is malformed:
    pos is the offset in text, the literal as given, of the piece at fault."""

    def __init__(self, text: str, pos: int, message: str):
        self.text, self.pos, self.message = text, pos, message
        super().__init__(f"{message} at position {pos} in {text!r}")

    def within(self, text: str, offset: int) -> ParseError:
        """The same error in an enclosing literal where this one's text
        starts at offset."""
        return ParseError(text, offset + self.pos, self.message)


def split_at(text: str, sep: str):
    """(offset, piece) for each sep-separated piece of text."""
    pos = 0
    for piece in text.split(sep):
        yield pos, piece
        pos += len(piece) + len(sep)


def parse_partition(text: str) -> Partition:
    s = text.strip()
    if not s:
        raise ParseError(text, 0, "empty partition literal")
    if s == "0":
        return ()
    parts: list[int] = []
    for pos, piece in split_at(text, "."):
        base_s, hat, exp_s = piece.partition("^")
        base = parse_int(text, pos, base_s)
        exp = parse_int(text, pos, exp_s) if hat else 1
        if base < 1 or exp < 1:
            raise ParseError(text, pos, "parts and exponents must be >= 1")
        parts.extend([base] * exp)
    try:
        return check_partition(parts)
    except ValueError:
        raise ParseError(text, 0, "parts must be weakly decreasing") from None


def parse_int(text: str, pos: int, s: str) -> int:
    """The integer that s spells in ASCII digits, blanks aside, or a
    ParseError at pos in text.  Partition and type literals read with it."""
    s = s.strip()
    if not (s.isascii() and s.isdigit()):
        raise ParseError(text, pos, f"expected an integer, got {s!r}")
    return int(s)


def parse_components(text: str, parse_one, size_of) -> tuple:
    """The comma-separated components of text, each read by parse_one, all
    of one size_of; a ParseError gives the offset in text of the fault."""
    comps: list = []
    for pos, piece in split_at(text, ","):
        try:
            comp = parse_one(piece)
        except ParseError as exc:
            raise exc.within(text, pos) from None
        if comps and size_of(comp) != size_of(comps[0]):
            raise ParseError(text, pos, "components must have equal size, got "
                             f"{size_of(comps[0])} and {size_of(comp)}")
        comps.append(comp)
    return tuple(comps)


def parse_multipartition(text: str) -> MultiPartition:
    """Comma-separated list of dot-form partitions, e.g. "1^4,2.1.1,2^2"."""
    return parse_components(text, parse_partition, size)


def multipartition_to_text(mu: MultiPartition) -> str:
    return ",".join(partition_to_text(m) for m in mu)
