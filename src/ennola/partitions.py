"""Integer partitions, their statistics, the irreducible character values
of the symmetric group and Kronecker coefficients, the centralizer orders
of unipotent classes in closed form, the Moebius function, and the text
syntax.

A partition is a plain tuple of weakly decreasing positive ints (the empty
tuple is the zero partition); a multipartition is a tuple of k partitions
of equal size.  Tuples keep everything hashable so partitions can index
sparse symmetric-function coefficients directly.

Character values come from the Murnaghan-Nakayama border-strip recursion,
memoized on (shape, class); everything downstream (the Schur <-> power-sum
change of basis, the class-type power weights, Kronecker coefficients)
reads from the same cache.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .coeffs import ONE, PolyQU, Q, poly_exact_div

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if type(p) is not int or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def check_multipartition(mu, k: int | None = None) -> MultiPartition:
    """mu as a tuple of partitions (check_partition), at least one, k when
    k is given, all of one size n >= 1 (check_components); else ValueError."""
    return check_components(tuple(map(check_partition, mu)), size, k)


def check_components(comps: tuple, size_of, k: int | None = None) -> tuple:
    """comps, a key's components in normal form, if at least one, k when k
    is given, all of one size_of and that size >= 1; else ValueError for the
    first that fails.  The shape check of both key forms (as_types too)."""
    if not comps:
        raise ValueError("a multipartition needs at least one component")
    if k is not None and len(comps) != k:
        raise ValueError(f"expected {k} components, got {len(comps)}")
    if len(sizes := {size_of(c) for c in comps}) > 1:
        raise ValueError("components of different sizes")
    if 0 in sizes:
        raise ValueError("a multipartition needs size at least 1")
    return comps


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
def character_value(lam: Partition, rho: Partition) -> int:
    """chi^lam at a permutation of cycle type rho."""
    if size(lam) != size(rho):
        raise AssertionError(f"shape {lam} and class {rho} have different sizes")
    if not lam:
        return 1
    strip, rest = rho[0], rho[1:]
    # beta-numbers of lam; removing a border strip of length `strip` moves
    # one beta-number down by `strip` into an unoccupied slot
    ell = len(lam)
    occupied = {p + ell - 1 - i for i, p in enumerate(lam)}
    total = 0
    for b in occupied:
        nb = b - strip
        if nb < 0 or nb in occupied:
            continue
        moved = sorted(occupied - {b} | {nb}, reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(moved) if x > ell - 1 - i)
        sign = -1 if sum(1 for c in occupied if nb < c < b) % 2 else 1
        total += sign * character_value(new_lam, rest)
    return total


def kronecker(mu: MultiPartition) -> int:
    """Multiplicity of the trivial character in chi^{mu^1} x ... x chi^{mu^k}."""
    mu = check_multipartition(mu)
    n = size(mu[0])
    # sum over classes of the character product times the class size n!/z_rho
    nfact = factorial(n)
    total = 0
    for rho in enumerate_partitions(n):
        chi = 1
        for m in mu:
            chi *= character_value(m, rho)
            if chi == 0:
                break
        if chi:
            total += chi * (nfact // z_lambda(rho))
    g, rem = divmod(total, nfact)
    if rem or g < 0:
        raise AssertionError(f"Kronecker coefficient for {mu} came out {total}/{nfact}")
    return g


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n < 1:
        raise AssertionError("mobius expects a positive integer")
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


@lru_cache(maxsize=None)
def q_pochhammer(n: int) -> PolyQU:
    """(q;q)_n := prod_{i<=n} (q^i - 1), with the sign of the centralizer
    orders: q^{n(n-1)/2} (q;q)_n is the order of GL_n(F_q)."""
    poly = ONE
    for i in range(1, n + 1):
        poly = poly * (Q**i - ONE)
    return poly


@lru_cache(maxsize=None)
def cofactor(n: int, ts: tuple) -> PolyQU:
    """(q;q)_n / prod over ts of (q^t - 1), a polynomial when the factors
    divide (q;q)_n; AssertionError otherwise."""
    cof = poly_exact_div(q_pochhammer(n), prod((Q ** t - ONE for t in ts), start=ONE))
    if cof is None:
        raise AssertionError(f"(q;q)_{n} is not a multiple of the factors {ts}")
    return cof


def a_factors(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """(s, ts) with a_lam(q) = q^s prod over ts of (q^t - 1), the order of
    the centralizer of a unipotent element of Jordan type lam in GL_n(F_q)."""
    rs = multiplicities(lam).values()
    s = size(lam) + 2 * n_stat(lam) - sum(r * (r + 1) // 2 for r in rs)
    return s, tuple(t for r in rs for t in range(1, r + 1))


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, (1^n) last."""
    if n < 0:
        raise AssertionError("n must be nonnegative")
    return tuple(_gen_partitions(n, n))


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
    return ".".join([str(p) if m == 1 else f"{p}^{m}"
                     for p, m in multiplicities(lam).items()]) or "0"


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
