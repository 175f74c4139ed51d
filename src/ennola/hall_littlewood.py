"""Kostka-Foulkes polynomials by the Hall-Littlewood vertex-operator
recursion, and the transformed Hall-Littlewood symmetric functions built
from them.

Q'_mu = sum_nu K_{nu,mu}(q) s_nu comes row by row from
Q'_(m, rest) = sum_{j >= 0} h_{m+j} (h_j[(q-1)X])^perp Q'_rest, with
h_j[(q-1)X] = sum_{a+b=j} q^a (-1)^b h_a e_b (Macdonald, Symmetric
Functions and Hall Polynomials, ch. III; Jing, Vertex operators and
Hall-Littlewood symmetric functions).  By the Pieri rules h_a^perp removes
a horizontal strip of a cells, e_b^perp a vertical strip of b cells (a
horizontal strip of the conjugate), and multiplying by h_{m+j} adds a
horizontal strip, so one strip helper does all the combinatorics.  Only
the s_nu with nu dominating mu survive.  The transformed variant reverses
the coefficients against the top degree n(mu), giving the Schur expansion
of the modified Hall-Littlewood function whose coefficients are cocharge
generating polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ZERO, PolyQU
from .partitions import MultiPartition, Partition, dual, n_stat, size


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
def _q_prime(mu: Partition) -> dict[Partition, dict[int, int]]:
    """Q'_mu as nu -> {q-degree: coefficient of K_{nu,mu}(q)}; cached and
    shared, so no caller mutates it."""
    if not mu:
        return {(): {0: 1}}
    m, rest = mu[0], mu[1:]
    out: dict[Partition, dict[int, int]] = {}
    # e_b^perp, then h_a^perp, weighted q^a (-1)^b, then times h_{m+a+b}
    for nu, poly in _q_prime(rest).items():
        for b in range(len(nu) + 1):
            for sigma in (dual(s) for s in _strips(dual(nu), b, -1)):
                for a in range((sigma[0] if sigma else 0) + 1):
                    for tau in _strips(sigma, a, -1):
                        for rho in _strips(tau, m + a + b, 1):
                            acc = out.setdefault(rho, {})
                            for d, c in poly.items():
                                acc[d + a] = acc.get(d + a, 0) + (-c if b & 1 else c)
    return {nu: kept for nu, acc in out.items()
            if (kept := {d: c for d, c in acc.items() if c})}


def kostka_foulkes(nu: Partition, lam: Partition) -> PolyQU:
    """K_{nu,lam}(q); zero unless nu dominates lam, and K_{lam,lam} = 1."""
    if size(nu) != size(lam):
        raise ValueError("shapes of different sizes")
    kf = _q_prime(lam).get(nu)
    return ZERO if kf is None else PolyQU({(d, 0): c for d, c in kf.items()})


@lru_cache(maxsize=None)
def transformed_hl(lam: Partition) -> dict[MultiPartition, PolyQU]:
    """The Schur table of the modified Hall-Littlewood function indexed by
    lam, one alphabet: at s_nu the cocharge Kostka-Foulkes polynomial
    q^{n(lam)} K_{nu,lam}(1/q).  Only s_nu with nu dominating lam occur, in
    enumeration order.  Cached and shared, so no caller mutates it."""
    top = n_stat(lam)
    out = {}
    for nu in sorted(_q_prime(lam), reverse=True):
        kf = kostka_foulkes(nu, lam)
        if kf.qdeg() > top:
            raise AssertionError(f"K_{{nu,lam}} exceeds degree n(lam) for {nu}, {lam}")
        out[(nu,)] = PolyQU({(top - d, 0): c for (d, _), c in kf.terms.items()})
    return out
