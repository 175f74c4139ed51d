"""Irreducible character values of the symmetric group and Kronecker
coefficients.

Character values come from the Murnaghan-Nakayama border-strip recursion,
memoized on (shape, class); everything downstream (the Schur <-> power-sum
change of basis, Kronecker coefficients) reads from the same cache.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import (
    MultiPartition,
    Partition,
    check_multipartition,
    enumerate_partitions,
    size,
    z_lambda,
)


@lru_cache(maxsize=None)
def character_value(lam: Partition, rho: Partition) -> int:
    """chi^lam at a permutation of cycle type rho."""
    if size(lam) != size(rho):
        raise ValueError(f"shape {lam} and class {rho} have different sizes")
    if not lam:
        return 1
    strip = rho[0]
    rest = rho[1:]
    # beta-numbers of lam; removing a border strip of length `strip` moves
    # one beta-number down by `strip` into an unoccupied slot
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    occupied = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in occupied:
            continue
        sign = -1 if sum(1 for c in beta if nb < c < b) % 2 else 1
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
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
        prod = 1
        for m in mu:
            prod *= character_value(m, rho)
            if prod == 0:
                break
        if prod:
            total += prod * (nfact // z_lambda(rho))
    g, rem = divmod(total, nfact)
    if rem or g < 0:
        raise AssertionError(f"Kronecker coefficient for {mu} came out {total}/{nfact}")
    return g
