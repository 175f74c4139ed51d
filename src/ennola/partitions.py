"""Integer partitions, their statistics, and the centralizer and hook
polynomials attached to unipotent classes and unipotent characters.

A partition is a plain tuple of weakly decreasing positive ints (the empty
tuple is the zero partition); a multipartition is a tuple of k partitions
of equal size.  Tuples keep everything hashable so partitions can index
sparse symmetric-function coefficients directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial

from .coeffs import ONE, PolyQU, Q, poly_exact_div

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
# A partition prints as parts joined by "." with exponent shorthand for
# repeats: "2.1^2" is (2,1,1), "1^4" is (1,1,1,1), "0" is the empty
# partition.  The parser additionally accepts the comma form "2,1,1".

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
    for pos, piece in split_at(text, "," if "," in s else "."):
        item = piece.strip()
        if "^" in item:
            base_s, _, exp_s = item.partition("^")
            base, exp = _parse_int(text, pos, base_s), _parse_int(text, pos, exp_s)
        else:
            base, exp = _parse_int(text, pos, item), 1
        if base < 1 or exp < 1:
            raise ParseError(text, pos, "parts and exponents must be >= 1")
        parts.extend([base] * exp)
    try:
        return check_partition(parts)
    except ValueError:
        raise ParseError(text, 0, "parts must be weakly decreasing") from None


def _parse_int(text: str, pos: int, s: str) -> int:
    s = s.strip()
    if not s.isdigit():
        raise ParseError(text, pos, f"expected an integer, got {s!r}")
    return int(s)


def parse_multipartition(text: str) -> MultiPartition:
    """Comma-separated list of dot-form partitions, e.g. "1^4,2.1.1,2^2"."""
    mu: list[Partition] = []
    for pos, piece in split_at(text, ","):
        try:
            lam = parse_partition(piece)
        except ParseError as exc:
            raise exc.within(text, pos) from None
        if mu and size(lam) != size(mu[0]):
            raise ParseError(text, pos, "components must have equal size, got "
                             f"{size(mu[0])} and {size(lam)}")
        mu.append(lam)
    return tuple(mu)


def multipartition_to_text(mu: MultiPartition) -> str:
    return ",".join(partition_to_text(m) for m in mu)
