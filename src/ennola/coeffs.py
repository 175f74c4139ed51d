"""Exact coefficient arithmetic: sparse polynomials in (q, u) and rational
functions whose denominators lie in Z[q].

PolyQU stores a polynomial in q and u as a sparse map (qdeg, udeg) -> coeff
with no zero entries; coefficients are integers, or exact Fractions where a
formula divides by an integer.  RatQU is a fraction num/den with an integer
numerator in Z[q, u] and an integer denominator in Z[q]: Fraction
coefficients are cleared into the denominator once, at construction, and
u in a denominator is refused.  The pair is kept in a canonical reduced form
(gcd 1 including integer content, leading coefficient of the denominator
positive), so equal values compare structurally equal.

Everything is immutable and safe to share; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm

Monomial = tuple[int, int]


class PolyQU:
    """Sparse bivariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        merged: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if c:
                acc = merged.get((i, j), 0) + c
                if acc:
                    merged[(i, j)] = acc
                elif (i, j) in merged:
                    del merged[(i, j)]
        self.terms = merged
        self._hash = None

    # construction helpers

    @staticmethod
    def const(n: int) -> "PolyQU":
        return PolyQU({(0, 0): n} if n else {})

    @staticmethod
    def monomial(coeff: int, qdeg: int, udeg: int) -> "PolyQU":
        if qdeg < 0 or udeg < 0:
            raise ValueError("negative exponent")
        return PolyQU({(qdeg, udeg): coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyQU) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

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
        p = PolyQU.__new__(PolyQU)
        p.terms = out
        p._hash = None
        return p

    def __sub__(self, other: "PolyQU") -> "PolyQU":
        return self + (-other)

    def __mul__(self, other: "PolyQU") -> "PolyQU":
        if not self.terms or not other.terms:
            return _ZERO
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
        p = PolyQU.__new__(PolyQU)
        p.terms = out
        p._hash = None
        return p

    def __pow__(self, e: int) -> "PolyQU":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, n: int) -> "PolyQU":
        if n == 1:
            return self
        return PolyQU({m: n * c for m, c in self.terms.items()} if n else {})

    # queries

    def qdeg(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def udeg(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def leading(self) -> tuple[Monomial, int]:
        """Leading (monomial, coeff) under lex order on (qdeg, udeg)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, c)
        return g

    def coeff(self, qdeg: int, udeg: int) -> int:
        return self.terms.get((qdeg, udeg), 0)

    def coeff_of_u(self, udeg: int) -> "PolyQU":
        """The q-polynomial multiplying u^udeg."""
        return PolyQU({(i, 0): c for (i, j), c in self.terms.items() if j == udeg})

    def subst(self, q: "PolyQU | None" = None, u: "PolyQU | None" = None) -> "PolyQU":
        """Simultaneous substitution q -> q_val, u -> u_val (defaults keep the variable)."""
        if q is None and u is None:
            return self
        qv = Q if q is None else q
        uv = U if u is None else u
        qpow: dict[int, PolyQU] = {0: ONE}
        upow: dict[int, PolyQU] = {0: ONE}
        out = _ZERO
        for (i, j), c in sorted(self.terms.items()):
            if i not in qpow:
                k = max(k for k in qpow if k <= i)
                acc = qpow[k]
                while k < i:
                    acc = acc * qv
                    k += 1
                    qpow[k] = acc
            if j not in upow:
                k = max(k for k in upow if k <= j)
                acc = upow[k]
                while k < j:
                    acc = acc * uv
                    k += 1
                    upow[k] = acc
            out = out + (qpow[i] * upow[j]).scale(c)
        return out

    def evaluate(self, qval, uval=0) -> Fraction:
        """Exact evaluation at rational arguments."""
        qv, uv = Fraction(qval), Fraction(uval)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * qv**i * uv**j
        return total

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"PolyQU({poly_to_str(self)})"


_ZERO = PolyQU()
_ONE_TERMS = {(0, 0): 1}

ZERO = _ZERO
ONE = PolyQU.const(1)
Q = PolyQU.monomial(1, 1, 0)
U = PolyQU.monomial(1, 0, 1)


# ---------------------------------------------------------------------------
# gcd machinery
#
# RatQU keeps an integer numerator in Z[q, u] over an integer denominator in
# Z[q]; Fraction coefficients are cleared into the denominator once, when a
# RatQU is built.  So every gcd or exact division it asks for is over Z and
# has an operand free of u.
# A PolyQU is viewed as a polynomial in u whose coefficients (u-slices) are
# q-polynomials, handled as dense integer lists (lowest degree first).  The
# gcd with a q-polynomial is the Z[q] gcd folded over the u-slices, and the
# exact division by one is the Z[q] division slice by slice.  All steps are
# exact integer arithmetic.

def _q_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _q_content(f: list[int]) -> int:
    g = 0
    for c in f:
        g = _int_gcd(g, c)
    return g


def _q_scale(f: list[int], n: int) -> list[int]:
    return [c * n for c in f]


def _q_exact_div(f: list[int], g: list[int]) -> list[int] | None:
    """Exact quotient f/g over Z[q], or None when it does not divide."""
    if not g:
        raise ZeroDivisionError
    if not f:
        return []
    f = list(f)
    out = [0] * (len(f) - len(g) + 1) if len(f) >= len(g) else None
    if out is None:
        return None
    while f:
        if len(f) < len(g):
            return None
        qcoef, rem = divmod(f[-1], g[-1])
        if rem:
            return None
        k = len(f) - len(g)
        out[k] = qcoef
        for i, b in enumerate(g):
            f[k + i] -= qcoef * b
        _q_trim(f)
    return out


def _q_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd in Z[q] with positive leading coefficient."""
    f, g = _q_trim(list(f)), _q_trim(list(g))
    if not f:
        return _q_scale(g, -1) if g and g[-1] < 0 else g
    if not g:
        return _q_scale(f, -1) if f[-1] < 0 else f
    if len(f) == 1 or len(g) == 1:
        return [_int_gcd(_q_content(f), _q_content(g))]
    cf, cg = _q_content(f), _q_content(g)
    c = _int_gcd(cf, cg)
    f = [x // cf for x in f]
    g = [x // cg for x in g]
    while g:
        # pseudo-remainder of f by g
        r = list(f)
        lead = g[-1]
        while r and len(r) >= len(g):
            k = len(r) - len(g)
            lc = r[-1]
            r = _q_scale(r, lead)
            for i, b in enumerate(g):
                r[k + i] -= lc * b
            _q_trim(r)
        cr = _q_content(r)
        f, g = g, ([x // cr for x in r] if cr else [])
    if f[-1] < 0:
        f = _q_scale(f, -1)
    return _q_scale(f, c)


def _u_slices(p: PolyQU) -> dict[int, list[int]]:
    """u-degree -> dense q-coefficient list of that slice (no trailing zeros)."""
    out: dict[int, list[int]] = {}
    for (i, j), c in p.terms.items():
        row = out.setdefault(j, [])
        if len(row) <= i:
            row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return out


def poly_gcd(a: PolyQU, b: PolyQU) -> PolyQU:
    """gcd in Z[q,u] (integer content included), leading coefficient positive.

    Both inputs have integer coefficients, and unless one is zero, at least
    one of them is free of u; the gcd then lies in Z[q]."""
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        if g.is_zero():
            return ZERO
        _, lc = g.leading()
        return -g if lc < 0 else g
    if a.terms == _ONE_TERMS or b.terms == _ONE_TERMS:
        return ONE
    sa, sb = _u_slices(a), _u_slices(b)
    if sa.keys() != {0}:
        if sb.keys() != {0}:
            raise ValueError(f"gcd of two polynomials in u: ({a}), ({b})")
        sa, sb = sb, sa
    g = sa[0]
    for row in sb.values():
        g = _q_gcd(g, row)
        if g == [1]:
            return ONE
    return PolyQU({(i, 0): c for i, c in enumerate(g) if c})


def poly_exact_div(a: PolyQU, b: PolyQU) -> PolyQU | None:
    """Exact quotient a/b in Z[q,u] for integer a and b with b free of u,
    or None when b does not divide a over Z."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    sb = _u_slices(b)
    if sb.keys() != {0}:
        raise ValueError(f"exact division by a polynomial in u: ({b})")
    out: dict[Monomial, int] = {}
    for j, row in _u_slices(a).items():
        quot = _q_exact_div(row, sb[0])
        if quot is None:
            return None
        for i, c in enumerate(quot):
            if c:
                out[(i, j)] = c
    return PolyQU(out)


# ---------------------------------------------------------------------------
# rational functions

class NotPolynomialError(ValueError):
    """A value that should lie in Z[q, u] kept a denominator."""


class RatQU:
    """Reduced fraction num/den with num in Z[q,u] and den in Z[q]; the
    canonical form is unique."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQU, den: PolyQU = ONE):
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        if den.udeg() > 0:
            raise ValueError(f"u in a denominator: ({num})/({den})")
        if not all(type(c) is int for p in (num, den) for c in p.terms.values()):
            m = lcm(*(c.denominator for p in (num, den) for c in p.terms.values()))
            num, den = (PolyQU({mono: int(c * m) for mono, c in p.terms.items()})
                        for p in (num, den))
        if den.terms != _ONE_TERMS:
            g = poly_gcd(num, den)
            if g.terms != _ONE_TERMS:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            _, lc = den.leading()
            if lc < 0:
                num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def from_int(n: int) -> "RatQU":
        return RatQU(PolyQU.const(n))

    @staticmethod
    def from_frac(x: Fraction) -> "RatQU":
        return RatQU(PolyQU.const(x.numerator), PolyQU.const(x.denominator))

    @staticmethod
    def from_poly(p: PolyQU) -> "RatQU":
        return RatQU(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatQU) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RatQU":
        r = RatQU.__new__(RatQU)
        r.num, r.den = -self.num, self.den
        return r

    def __add__(self, other: "RatQU") -> "RatQU":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RatQU(self.num + other.num, self.den)
        return RatQU(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatQU") -> "RatQU":
        return self + (-other)

    def __mul__(self, other: "RatQU") -> "RatQU":
        if self.num.is_zero() or other.num.is_zero():
            return RAT_ZERO
        # cross-reduce before multiplying to keep intermediates small
        a, b, c, d = self.num, self.den, other.num, other.den
        g1 = poly_gcd(a, d)
        if g1.terms != _ONE_TERMS:
            a, d = poly_exact_div(a, g1), poly_exact_div(d, g1)
        g2 = poly_gcd(c, b)
        if g2.terms != _ONE_TERMS:
            c, b = poly_exact_div(c, g2), poly_exact_div(b, g2)
        r = RatQU.__new__(RatQU)
        num, den = a * c, b * d
        _, lc = den.leading()
        if lc < 0:
            num, den = -num, -den
        r.num, r.den = num, den
        return r

    def scale_int(self, m: int) -> "RatQU":
        """self * m, reduced without a polynomial gcd: in canonical form only
        integer content of the denominator can cancel against m."""
        if m == 0 or self.num.is_zero():
            return RAT_ZERO
        if m == 1:
            return self
        g = _int_gcd(m, self.den.content())
        r = RatQU.__new__(RatQU)
        if g == 1:
            r.num, r.den = self.num.scale(m), self.den
        else:
            r.num = self.num.scale(m // g)
            r.den = PolyQU({mono: c // g for mono, c in self.den.terms.items()})
        return r

    def is_poly(self) -> bool:
        return self.den.terms == _ONE_TERMS

    def to_poly(self) -> PolyQU:
        """The underlying polynomial; raises unless the value is in Z[q,u]."""
        if self.den.terms == _ONE_TERMS:
            return self.num
        raise NotPolynomialError(f"not a polynomial: ({self.num})/({self.den})")

    def subst(self, q: PolyQU | None = None, u: PolyQU | None = None) -> "RatQU":
        return RatQU(self.num.subst(q=q, u=u), self.den.subst(q=q, u=u))

    def evaluate(self, qval, uval=0) -> Fraction:
        d = self.den.evaluate(qval, uval)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(qval, uval) / d

    def __str__(self) -> str:
        if self.den.terms == _ONE_TERMS:
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)})/({poly_to_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatQU({self})"


RAT_ZERO = RatQU(ZERO)
RAT_ONE = RatQU(ONE)


# ---------------------------------------------------------------------------
# serialization

def poly_to_json(p: PolyQU) -> list[list]:
    """JSON form: [[coeff-as-decimal-string, qdeg, udeg], ...] in ascending
    lexicographic order on (qdeg, udeg)."""
    return [[str(c), i, j] for (i, j), c in sorted(p.terms.items())]


def poly_from_json(data) -> PolyQU:
    terms = {}
    for entry in data:
        cstr, i, j = entry
        c = Fraction(cstr)
        terms[(int(i), int(j))] = int(c) if c.denominator == 1 else c
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
