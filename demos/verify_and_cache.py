"""Machine verification and the disk cache.

`verify_suite` checks the five identities of the interpolation
polynomial T(u, q), each against a second route: T(0, q) against the
generic multiplicity V from the [u^1] part of Green's sum over class
types (`types.type_sum`), which owes nothing to the master series,
the series whose exp gives u T, log Exp(u Psi), against the log of the
u-deformed infinite product, the signed T(-1, -q) against
the twisted infinite product, the top u-coefficient against the
Kronecker coefficient, and every coefficient against zero; and a sixth
family checks that the unitary multiplicities U' and V' have positive
leading coefficients, which a wrong sign s' would break.  It reports
failures as data.  The expensive part of a build -- the master series'
Schur coefficient tables -- can be cached on disk (`psi_schur` and
`ennola cache build` write it) and reloaded byte-identically; `verify`
reads the cache to rebuild the master series and writes none.  Run as
`python3 demos/verify_and_cache.py`.
"""

import os
import tempfile
import time

from ennola.multiplicities import build_context, verify_suite


def heading(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    with tempfile.TemporaryDirectory() as cache:
        heading("Cold build with an empty cache")
        t0 = time.monotonic()
        ctx = build_context(k=3, N=4, cache_dir=cache)
        for n in range(1, 5):
            ctx.psi_schur(n)  # computes the degree-n table and writes its file
        print(f"  master tables built in {time.monotonic() - t0:.2f}s")
        print(f"  cache files written: {sorted(os.listdir(cache))}")

        heading("Verification report, the master series read from the cache")
        t0 = time.monotonic()
        report = verify_suite(build_context(k=3, N=4, cache_dir=cache))
        print(f"  verified in {time.monotonic() - t0:.2f}s")
        for line in report.summary_lines():
            print(f"  {line}")
        print(f"  overall: {'PASS' if report.ok else 'FAIL'}")
        print(f"  cache files afterwards: {sorted(os.listdir(cache))}")

        heading("Warm rebuild from the cache")
        t0 = time.monotonic()
        ctx2 = build_context(k=3, N=4, cache_dir=cache)
        for n in range(1, 5):
            ctx2.psi_schur(n)
        print(f"  master tables reloaded in {time.monotonic() - t0:.3f}s")
        same = all(ctx2.psi_schur(n) == ctx.psi_schur(n) for n in range(1, 5))
        print(f"  identical to the cold build: {same}")

    print("""
Command-line equivalents:
  ennola cache build --n 4
  ennola verify --n 4
  ennola cache clear
  ennola table --which Uprime --n 4
  ennola pair --which T --mu "1^4,1^4,1^4"
""")


if __name__ == "__main__":
    main()
