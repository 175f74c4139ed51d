"""Exact coefficient arithmetic: sparse polynomials in (q, u), their
Kronecker-substitution packing into one integer, exact division by a
polynomial in q on that packing, and the gcd in Z[q] by one primitive
pseudo-remainder sequence.

PolyQU stores a polynomial in q and u as a sparse map (qdeg, udeg) -> coeff
with no zero entries and integer coefficients.  There is no
rational-function type: a symmetric function keeps integer numerators over
one denominator in Z[q] per graded piece (symfunc.SymFunc), and each stage
of the pipeline knows that denominator in closed form, so it needs exact
division here and never a gcd per coefficient.

pack(p, B, W) is the integer p(2^B, 2^(B*W)): coefficient c_ij sits in
base-2^B digit i + W*j.  Sums, integer multiples and products of packed
polynomials are the packed sums, multiples and products, so an
integer-linear map or a long product over Z[q, u] runs as a few big-integer
operations.  unpack(N, B, W) reads the digits back in balanced form, in
[-2^(B-1), 2^(B-1)); that recovers the polynomial exactly when its
q-degree is below W and every |coefficient| is below 2^(B-1), whatever the
coefficients met along the way.  So a caller derives B from an a priori
bound on the coefficients of its result, never from a guess.  Exact
division is one packed divmod too: Mignotte's bound (a factor c of a in
Z[q] has |c|_1 <= 2^deg(c) ||a||_2) sizes the digits, and the quotient
is accepted only where pack is injective on it times the divisor, so
products and quotients share one big-integer technique.

Everything is immutable and safe to share; no floating point anywhere.
"""

from __future__ import annotations

from math import gcd as _int_gcd

Monomial = tuple[int, int]


class PolyQU:
    """Sparse bivariate polynomial with arbitrary-precision integer
    coefficients; a coefficient that is not an int raises TypeError."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                acc = merged.get((i, j), 0) + c
                if acc:
                    merged[(i, j)] = acc
                elif (i, j) in merged:
                    del merged[(i, j)]
        self.terms = merged

    # construction helpers

    @staticmethod
    def const(n: int) -> "PolyQU":
        return PolyQU({(0, 0): n})

    @staticmethod
    def monomial(coeff: int, qdeg: int, udeg: int) -> "PolyQU":
        if qdeg < 0 or udeg < 0:
            raise AssertionError("negative exponent")
        return PolyQU({(qdeg, udeg): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyQU) and self.terms == other.terms

    def __neg__(self) -> "PolyQU":
        return PolyQU({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "PolyQU") -> "PolyQU":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
        return _from_terms(out)

    def __sub__(self, other: "PolyQU") -> "PolyQU":
        return self + (-other)

    def __mul__(self, other: "PolyQU") -> "PolyQU":
        if not self.terms or not other.terms:
            return ZERO
        if self.terms == _ONE_TERMS:
            return other
        if other.terms == _ONE_TERMS:
            return self
        out: dict[Monomial, int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                acc = out.get(m, 0) + c1 * c2
                if acc:
                    out[m] = acc
                elif m in out:
                    del out[m]
        return _from_terms(out)

    def __pow__(self, e: int) -> "PolyQU":
        if e < 0:
            raise AssertionError("negative power of a polynomial")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, n: int) -> "PolyQU":
        if type(n) is not int:
            raise TypeError(f"scale by {n!r}, not an int")
        if n == 1:
            return self
        return _from_terms({m: n * c for m, c in self.terms.items()} if n else {})

    # queries

    def qdeg(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def udeg(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def leading(self) -> tuple[Monomial, int]:
        """Leading (monomial, coeff) under lex order on (qdeg, udeg)."""
        if not self.terms:
            raise AssertionError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def coeff_of_u(self, udeg: int) -> "PolyQU":
        """The q-polynomial multiplying u^udeg."""
        return PolyQU({(i, 0): c for (i, j), c in self.terms.items() if j == udeg})

    def subst(self, q: "PolyQU | None" = None, u: "PolyQU | None" = None) -> "PolyQU":
        """Simultaneous substitution q -> q_val, u -> u_val, each None (keep
        the variable), a monomial c*q^a*u^b or zero: a remap of the terms.
        Any other value raises AssertionError."""
        (cq, (qa, qb)), (cu, (ua, ub)) = _monomial_of(q, Q), _monomial_of(u, U)
        return PolyQU(((qa * i + ua * j, qb * i + ub * j), c * cq**i * cu**j)
                      for (i, j), c in self.terms.items())

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"PolyQU({poly_to_str(self)})"


def _monomial_of(value: PolyQU | None, keep: PolyQU) -> tuple[int, Monomial]:
    """(c, (a, b)) for value = c*q^a*u^b, keep when value is None, and
    (0, (0, 0)) for zero; AssertionError for anything else."""
    value = keep if value is None else value
    if not isinstance(value, PolyQU) or len(value.terms) > 1:
        raise AssertionError(f"substitution by a non-monomial: {value!r}")
    ((m, c),) = value.terms.items() or (((0, 0), 0),)
    return c, m


def _from_terms(terms: dict[Monomial, int]) -> PolyQU:
    """A PolyQU over terms that are already merged and nonzero."""
    p = PolyQU.__new__(PolyQU)
    p.terms = terms
    return p


_ONE_TERMS = {(0, 0): 1}

ZERO = PolyQU()
ONE = PolyQU.const(1)
Q = PolyQU.monomial(1, 1, 0)
U = PolyQU.monomial(1, 0, 1)


# ---------------------------------------------------------------------------
# Kronecker substitution (see the module docstring)

def pack(p: PolyQU, B: int, W: int) -> int:
    """p at q = 2^B, u = 2^(B*W); W must exceed the q-degree of p."""
    return sum(c << (B * (i + W * j)) for (i, j), c in p.terms.items())


def unpack(N: int, B: int, W: int | None = None) -> PolyQU:
    """The polynomial whose pack(., B, W) is N, read in balanced base-2^B
    digits; exact when every |coefficient| is below 2^(B-1) and the
    q-degree below W.  With no W, N is read as a polynomial in q alone:
    a number of b bits has at most b // B + 2 balanced digits, so with W
    that large every digit is a power of q.  B below 2 is an AssertionError:
    with B = 1 the digits are -1 and 0, and no positive N has an expansion."""
    if B < 2:
        raise AssertionError(f"digit size {B} below 2")
    if W is None:
        W = N.bit_length() // B + 2
    full = 1 << B
    half, mask = full >> 1, full - 1
    terms: dict[Monomial, int] = {}
    slot = 0
    while N:
        d = N & mask
        N >>= B
        if d:
            if d >= half:  # a negative digit borrows one from the rest
                d -= full
                N += 1
            j, i = divmod(slot, W)
            terms[(i, j)] = d
        slot += 1
    return _from_terms(terms)


# ---------------------------------------------------------------------------
# exact division and the Z[q] gcd
#
# Denominators live in Z[q], one per graded piece of a symmetric function
# (see symfunc.SymFunc), and are known in closed form; so the division
# needed is exact division of an integer polynomial by a u-free one, and
# it runs as one packed big-integer divmod (see exact_quotients).  The Z[q]
# gcd only serves the lcm of two denominators that do not divide one
# another: one primitive pseudo-remainder sequence on dense integer lists
# (lowest degree first), as in Knuth, TAOCP Vol. 2, section 4.6.1.

def _primitive(f: list[int]) -> list[int]:
    """f, with no zero top coefficient, divided by its content and signed
    so that its leading coefficient is positive ([] stays [])."""
    c = _int_gcd(*f)
    if f and f[-1] < 0:
        c = -c
    return [x // c for x in f]


def poly_gcd(a: PolyQU, b: PolyQU) -> PolyQU:
    """gcd in Z[q] (integer content included), leading coefficient
    positive; gcd(0, b) is b up to sign."""
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        return -g if g and g.leading()[1] < 0 else g
    if a.udeg() or b.udeg():
        raise AssertionError(f"gcd of polynomials in u: ({a}), ({b})")
    f, g = ([p.terms.get((i, 0), 0) for i in range(p.qdeg() + 1)] for p in (a, b))
    content = _int_gcd(*f, *g)
    f, g = _primitive(f), _primitive(g)
    while g:
        # f becomes the pseudo-remainder of f by g
        while len(f) >= len(g):
            k, lc = len(f) - len(g), f[-1]
            f = [x * g[-1] for x in f]
            for i, y in enumerate(g):
                f[k + i] -= lc * y
            while f and f[-1] == 0:
                f.pop()
        f, g = g, _primitive(f)
    return PolyQU({(i, 0): content * x for i, x in enumerate(f) if x})


def poly_lcm(a: PolyQU, b: PolyQU) -> PolyQU:
    """A least common multiple in Z[q] of two nonzero polynomials; it takes
    a gcd only when neither divides the other."""
    if poly_exact_div(a, b) is not None:
        return a
    if poly_exact_div(b, a) is not None:
        return b
    return poly_exact_div(a, poly_gcd(a, b)) * b


def poly_exact_div(a: PolyQU, b: PolyQU) -> PolyQU | None:
    """Exact quotient a/b in Z[q,u] for integer a and b with b free of u,
    or None when b does not divide a over Z (exact_quotients)."""
    return exact_quotients([a], b)[0]


def exact_quotients(nums: list[PolyQU], b: PolyQU) -> list[PolyQU | None]:
    """[a/b for a in nums], each exact in Z[q,u] or None where b does not
    divide a over Z; b must be nonzero and free of u.

    A monomial c*q^s divides by a shift and an integer divmod.  Any other
    b takes one divmod of packed integers per a, with b packed once.  Let
    W = 1 + the largest qdeg(a).  A quotient c exists only if each u-slice
    c_j of it divides a_j by b, and then Mignotte's bound gives |c_j|_1 <=
    2^deg(c_j) ||a_j||_2, so |c|_1 |b|_max <= 2^(W - 1 - qdeg(b)) |a|_1
    |b|_max, which the digit size B keeps below 2^(B-1).  Then pack(a) =
    pack(c) pack(b) and unpack returns c.  Conversely the unpacked quotient
    c is returned only when the remainder is 0, qdeg(c) + qdeg(b) < W and
    |c|_1 |b|_max < 2^(B-1): then c b and a both lie where pack(., B, W)
    is injective, so c b = a exactly."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if b.udeg():
        raise AssertionError(f"exact division by a polynomial in u: ({b})")
    if len(b.terms) == 1:
        ((s, _), d), = b.terms.items()
        return [_from_terms({(i - s, j): c // d for (i, j), c in a.terms.items()})
                if all(i >= s and not c % d for (i, _), c in a.terms.items()) else None
                for a in nums]
    a_max = max(map(norm1, nums), default=0)
    if not a_max:  # every a is zero
        return list(nums)
    W, db = 1 + max(a.qdeg() for a in nums), b.qdeg()
    b_max = max(map(abs, b.terms.values()))
    B = max(W - 1 - db, 0) + (a_max * b_max).bit_length() + 1
    packed_b, out = pack(b, B, W), []
    for a in nums:
        quot, rem = divmod(pack(a, B, W), packed_b)
        c = None if rem else unpack(quot, B, W)
        if c is not None and (c.qdeg() + db >= W or norm1(c) * b_max >> (B - 1)):
            c = None
        out.append(c)
    return out


def norm1(p: PolyQU) -> int:
    """|p|_1, the sum of the absolute values of the coefficients."""
    return sum(map(abs, p.terms.values()))


class NotPolynomialError(AssertionError):
    """A value did not divide exactly by a denominator it is known to
    carry: a broken invariant, like the class-type sum's AssertionErrors,
    never a ValueError, the class of a refused input."""


# ---------------------------------------------------------------------------
# serialization

def poly_to_json(p: PolyQU) -> list[list]:
    """JSON form: [[coeff-as-decimal-string, qdeg, udeg], ...] in ascending
    lexicographic order on (qdeg, udeg)."""
    return [[str(c), i, j] for (i, j), c in sorted(p.terms.items())]


def poly_from_json(data) -> PolyQU:
    """Inverse of poly_to_json for integer coefficients and exponents; any
    other coefficient, and an exponent that is not an int >= 0, raises
    ValueError or TypeError."""
    terms = {}
    for cstr, i, j in data:
        if not isinstance(cstr, str):
            raise TypeError(f"coefficient {cstr!r} is not a decimal string")
        if not all(type(e) is int and e >= 0 for e in (i, j)):
            raise ValueError(f"exponents ({i!r}, {j!r}) are not ints >= 0")
        terms[(i, j)] = int(cstr)
    return PolyQU(terms)


def _monomial_str(qdeg: int, udeg: int) -> str:
    parts = []
    if udeg == 1:
        parts.append("u")
    elif udeg > 1:
        parts.append(f"u^{udeg}")
    if qdeg == 1:
        parts.append("q")
    elif qdeg > 1:
        parts.append(f"q^{qdeg}")
    return "*".join(parts)


def poly_to_str(p: PolyQU) -> str:
    """Human form like "q^3 + 2*q + 1", u-major term order."""
    if not p.terms:
        return "0"
    pieces = []
    for (i, j), c in sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]), reverse=True):
        mono = _monomial_str(i, j)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
