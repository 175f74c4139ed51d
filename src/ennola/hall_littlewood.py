"""Kostka-Foulkes polynomials via the charge statistic and the transformed
Hall-Littlewood symmetric functions built from them.

K_{nu,lam}(q) = sum over semistandard tableaux of shape nu and content lam
of q^charge(reading word).  Tableaux are enumerated as chains of horizontal
strips, one strip per letter.  The transformed variant reverses the
coefficients against the top degree n(lam), giving the Schur expansion of
the modified Hall-Littlewood function whose coefficients are cocharge
generating polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ONE, ZERO, PolyQU
from .partitions import Partition, dominates, enumerate_partitions, n_stat, size
from .symfunc import SymFunc


def charge(word: tuple[int, ...]) -> int:
    """Charge of a word with partition content.

    Repeatedly extract a standard subword: take the rightmost 1, then scan
    leftward (cyclically) for a 2, then for a 3, and so on while the next
    letter still occurs; the extracted letters keep their original order.
    Each subword contributes sum of indices, where letter 1 has index 0 and
    letter r+1 has index(r) + 1 exactly when it sits right of letter r.
    """
    remaining = list(word)
    total = 0
    while remaining:
        m = len(remaining)
        idx = max(i for i in range(m) if remaining[i] == 1)
        chosen = [idx]
        letter = 2
        while any(w == letter for w in remaining):
            j = idx
            for _ in range(m):
                j = (j - 1) % m
                if remaining[j] == letter:
                    break
            idx = j
            chosen.append(idx)
            letter += 1
        by_pos = sorted(chosen)
        pos_of = {remaining[p]: i for i, p in enumerate(by_pos)}
        index = 0
        for r in range(2, letter):
            if pos_of[r] > pos_of[r - 1]:
                index += 1
            total += index
        chosen_set = set(chosen)
        remaining = [w for i, w in enumerate(remaining) if i not in chosen_set]
    return total


def _horizontal_extensions(prev: Partition, strip: int, bound: Partition):
    """Partitions sigma with prev <= sigma <= bound, |sigma/prev| = strip,
    and sigma/prev a horizontal strip."""
    rows = len(bound)
    out: list[Partition] = []

    def rec(i: int, left: int, acc: list[int]) -> None:
        if i == rows:
            if left == 0:
                sigma = tuple(acc)
                while sigma and sigma[-1] == 0:
                    sigma = sigma[:-1]
                out.append(sigma)
            return
        prev_i = prev[i] if i < len(prev) else 0
        prev_above = prev[i - 1] if 0 < i <= len(prev) else (10 ** 9 if i == 0 else 0)
        hi = min(bound[i], prev_above, prev_i + left)
        if i > 0:
            hi = min(hi, acc[i - 1])
        for v in range(prev_i, hi + 1):
            acc.append(v)
            rec(i + 1, left - (v - prev_i), acc)
            acc.pop()

    rec(0, strip, [])
    return out


def _reading_words(nu: Partition, lam: Partition):
    """Reading words (rows bottom to top, each left to right) of all
    semistandard tableaux of shape nu and content lam."""
    words: list[tuple[int, ...]] = []

    def rec(j: int, chain: list[Partition]) -> None:
        if j == len(lam):
            if chain[-1] == nu:
                rows = []
                for i in range(len(nu)):
                    row = []
                    for step in range(1, len(chain)):
                        lo = chain[step - 1][i] if i < len(chain[step - 1]) else 0
                        hi = chain[step][i] if i < len(chain[step]) else 0
                        row.extend([step] * (hi - lo))
                    rows.append(row)
                words.append(tuple(w for row in reversed(rows) for w in row))
            return
        for sigma in _horizontal_extensions(chain[-1], lam[j], nu):
            chain.append(sigma)
            rec(j + 1, chain)
            chain.pop()

    rec(0, [()])
    return words


@lru_cache(maxsize=None)
def kostka_foulkes(nu: Partition, lam: Partition) -> PolyQU:
    """K_{nu,lam}(q); zero unless nu dominates lam, and K_{lam,lam} = 1."""
    if size(nu) != size(lam):
        raise ValueError("shapes of different sizes")
    if not dominates(nu, lam):
        return ZERO
    if nu == lam:
        return ONE
    terms: dict[tuple[int, int], int] = {}
    for word in _reading_words(nu, lam):
        key = (charge(word), 0)
        terms[key] = terms.get(key, 0) + 1
    return PolyQU(terms)


@lru_cache(maxsize=None)
def transformed_kostka(nu: Partition, lam: Partition) -> PolyQU:
    """q^{n(lam)} K_{nu,lam}(1/q), the cocharge Kostka-Foulkes polynomial."""
    kf = kostka_foulkes(nu, lam)
    top = n_stat(lam)
    if kf.qdeg() > top:
        raise AssertionError(f"charge exceeded n(lam) for {nu}, {lam}")
    return PolyQU({(top - d, 0): c for (d, _), c in kf.terms.items()})


@lru_cache(maxsize=None)
def transformed_hl(lam: Partition) -> SymFunc:
    """Modified Hall-Littlewood function indexed by lam, one alphabet, on
    the Schur basis: only s_nu with nu dominating lam occur."""
    coeffs = {(nu,): transformed_kostka(nu, lam) for nu in _dominating(lam)}
    return SymFunc(1, size(lam), "s", coeffs)


@lru_cache(maxsize=None)
def _dominating(lam: Partition) -> tuple[Partition, ...]:
    return tuple(nu for nu in enumerate_partitions(size(lam)) if dominates(nu, lam))


def extend_to_type(family, entries) -> SymFunc:
    """Product over type entries (d, lam, m) of family(lam) with every
    alphabet power index multiplied by d and q replaced by q^d, taken m times.

    `family` maps a partition to a one-alphabet SymFunc; the result is
    again one-alphabet, on the power-sum basis.
    """
    out = SymFunc.one(1)
    for d, lam, m in entries:
        piece = family(lam).to_powersum().adams(d)
        for _ in range(m):
            out = out.multiply(piece)
    return out
