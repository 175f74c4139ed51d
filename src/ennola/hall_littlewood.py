"""The modified Hall-Littlewood functions on the Schur basis, by one
vertex-operator recursion.

The Schur table of H~_lam holds at s_nu the cocharge Kostka-Foulkes
polynomial q^{n(lam)} K_{nu,lam}(1/q), row by row from
H~_(m, rest) = sum_{a, b} q^(|rest| - a) (-1)^b h_{m+a+b} h_a^perp e_b^perp H~_rest,
the recursion Q'_(m, rest) = sum_j h_{m+j} (h_j[(q-1)X])^perp Q'_rest, with
h_j[(q-1)X] = sum_{a+b=j} q^a (-1)^b h_a e_b, at q -> 1/q and times
q^{n(lam)}, since n(m, rest) = n(rest) + |rest| (Macdonald, Symmetric
Functions and Hall Polynomials, ch. III; Jing, Vertex operators and
Hall-Littlewood symmetric functions).  By the Pieri rules h_a^perp removes
a horizontal strip of a cells, e_b^perp a vertical strip of b cells (a
horizontal strip of the conjugate), and multiplying by h_{m+a+b} adds a
horizontal strip, so one strip helper does all the combinatorics.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ONE, PolyQU
from .partitions import MultiPartition, Partition, dual, size


@lru_cache(maxsize=None)
def _strips(shape: Partition, r: int, sign: int) -> tuple[Partition, ...]:
    """The partitions shape + sign * (a horizontal strip of r cells): sign 1
    adds the strip, sign -1 removes it.  Row i moves by at most the gap to
    its upper neighbour (adding) or to its lower neighbour (removing)."""
    rows = shape + (0,)
    if sign > 0:
        caps = (r,) + tuple(rows[i - 1] - rows[i] for i in range(1, len(rows)))
    else:
        caps = tuple(rows[i] - rows[i + 1] for i in range(len(shape))) + (0,)
    out = [((), r)]
    for row, cap in zip(rows, caps):
        out = [(acc + (row + sign * d,), left - d)
               for acc, left in out for d in range(min(cap, left) + 1)]
    return tuple(tuple(p for p in acc if p) for acc, left in out if left == 0)


@lru_cache(maxsize=None)
def transformed_hl(lam: Partition) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the modified Hall-Littlewood function indexed by
    lam, one alphabet: at s_nu the cocharge Kostka-Foulkes polynomial
    q^{n(lam)} K_{nu,lam}(1/q).  Only s_nu with nu dominating lam occur, in
    enumeration order.  Cached and shared, so no caller mutates it."""
    if not lam:
        return {((),): ONE}
    m, rest = lam[0], lam[1:]
    top = size(rest)
    out: dict[Partition, dict[int, int]] = {}
    # e_b^perp, then h_a^perp, weighted q^(top - a) (-1)^b, then times h_{m+a+b}
    for (nu,), poly in transformed_hl(rest).items():
        for b in range(len(nu) + 1):
            for sigma in (dual(s) for s in _strips(dual(nu), b, -1)):
                for a in range((sigma[0] if sigma else 0) + 1):
                    terms = [(d + top - a, -c if b & 1 else c)
                             for (d, _), c in poly.terms.items()]
                    for tau in _strips(sigma, a, -1):
                        for rho in _strips(tau, m + a + b, 1):
                            acc = out.setdefault(rho, {})
                            for e, c in terms:
                                acc[e] = acc.get(e, 0) + c
    table = {}
    for rho in sorted(out, reverse=True):
        poly = PolyQU({(e, 0): c for e, c in out[rho].items()})
        if poly:
            table[(rho,)] = poly
    return table
