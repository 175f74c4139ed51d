"""One polynomial, three specializations.

For each triple of partitions of n there is a single polynomial
T(u, q) that carries all the multiplicity data at once:

    T(0, q)            = generic multiplicity V
    T(1, q)            = split unipotent multiplicity U
    sign * T(-1, -q)   = twisted unipotent multiplicity U'
    [u^(n-1)] T        = the symmetric-group Kronecker coefficient

where the sign is +/-1 determined by the pairing degree of the triple.
This demo evaluates all four readings for concrete triples and shows the
alternating-sign phenomenon in a degree-5 twisted value.  Everything is
exact arithmetic.  Run as `python3 demos/interpolation_story.py`.
"""

from ennola.coeffs import ONE, Q, PolyQU, poly_to_str
from ennola.multiplicities import (
    T_poly,
    U_poly,
    Uprime_poly,
    V_poly,
    build_context,
)
from ennola.partitions import kronecker, partition_to_text

MINUS_ONE = ONE.scale(-1)


def heading(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def pairing_degree(mu) -> tuple[int, int]:
    """The pairing degree d = n^2 (k - 2) - (sum of all squared parts) + 2
    of k partitions of n, always even, and the twisted sign (-1)^(d/2)."""
    k, n = len(mu), sum(mu[0])
    d = n * n * (k - 2) - sum(p * p for comp in mu for p in comp) + 2
    return d, -1 if d // 2 % 2 else 1


def tell(ctx, mu) -> None:
    label = ", ".join(f"({partition_to_text(c)})" for c in mu)
    n = sum(mu[0])
    t = T_poly(ctx, mu)
    _, sign = pairing_degree(mu)
    print(f"  triple     : {label}")
    print(f"  T(u, q)    : {poly_to_str(t)}")
    print(f"  T(0, q)    : {poly_to_str(t.subst(u=PolyQU()))}"
          f"   == V: {poly_to_str(V_poly(ctx, mu))}")
    print(f"  T(1, q)    : {poly_to_str(t.subst(u=ONE))}"
          f"   == U: {poly_to_str(U_poly(ctx, mu))}")
    signed = t.subst(q=-Q, u=MINUS_ONE).scale(sign)
    sign_txt = "+" if sign > 0 else "-"
    print(f"  {sign_txt}T(-1, -q) : {poly_to_str(signed)}"
          f"   == U': {poly_to_str(Uprime_poly(ctx, mu))}")
    top = PolyQU({(i, 0): c for (i, j), c in t.terms.items() if j == n - 1})
    print(f"  [u^{n - 1}] T   : {poly_to_str(top)}"
          f"   == Kronecker coefficient: {kronecker(mu)}")


def main() -> None:
    ctx = build_context(k=3, N=5)

    heading("The exterior-power column at n = 4")
    tell(ctx, ((1, 1, 1, 1),) * 3)

    heading("A mixed triple at n = 4")
    tell(ctx, ((2, 1, 1), (2, 1, 1), (2, 2)))

    heading("Alternating signs in the twisted table at n = 5")
    mu = ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1))
    print("  (this needs the degree-5 series; a few seconds cold)")
    tell(ctx, mu)
    print("""
The twisted value alternates interior signs yet still leads with a
positive coefficient.  Its sign is pinned by the pairing degree:""")
    d, sign = pairing_degree(mu)
    print(f"  pairing degree d = {d},  twisted sign = (-1)^(d/2) = {sign:+d}")


if __name__ == "__main__":
    main()
