"""Command line front end: single multiplicities, full tables, the
verification suite, and cache management."""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations_with_replacement

from .characters import kronecker
from .coeffs import NotPolynomialError, PolyQU, poly_to_json, poly_to_str
from .multiplicities import (
    MasterContext,
    T_poly,
    U_poly,
    Uprime_poly,
    V_poly,
    Vprime_poly,
    build_context,
    cache_path,
    clear_cache,
    expand_orbits,
    verify_suite,
)
from .partitions import (
    enumerate_partitions,
    parse_multipartition,
    partition_to_text,
    size,
)
from .types import parse_multitype, type_size, type_to_text

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

WHICH_CHOICES = ("V", "Vprime", "U", "Uprime", "T", "kron")
HEADER_SYMBOL = {
    "V": "V",
    "Vprime": "V'",
    "U": "U",
    "Uprime": "U'",
    "T": "\\mathcal{T}",
    "kron": "g",
}


class UsageError(ValueError):
    """A request the options allow but the command cannot serve; reported,
    like every other ValueError, as a usage error."""


def default_cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "ennola")


def _partition_comma(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")" if p else "(0)"


def _poly_tex(p: PolyQU) -> str:
    return poly_to_str(p).replace("*", "")


def _warn_ignored(ctx: MasterContext) -> None:
    for path in ctx.ignored_cache_files:
        print(f"warning: ignoring incompatible cache file {path}; recomputing",
              file=sys.stderr)
    ctx.ignored_cache_files.clear()


def _pair_value(ctx: MasterContext | None, which: str, mu, mt) -> PolyQU:
    if which == "V":
        return V_poly(ctx, mt if mt is not None else mu)
    if which == "Vprime":
        return Vprime_poly(ctx, mt if mt is not None else mu)
    if which == "U":
        return U_poly(ctx, mu)
    if which == "Uprime":
        return Uprime_poly(ctx, mu)
    if which == "T":
        return T_poly(ctx, mu)
    return PolyQU.const(kronecker(mu))


def cmd_pair(req: argparse.Namespace) -> int:
    mu = mt = None
    if req.type_literal is not None:
        if req.which not in ("V", "Vprime"):
            raise UsageError("--type is only valid with --which V or Vprime")
        mt = parse_multitype(req.type_literal)
        k, n = len(mt), type_size(mt[0])
        labels = [type_to_text(c) for c in mt]
    elif req.mu is not None:
        mu = parse_multipartition(req.mu)
        k, n = len(mu), size(mu[0])
        if n < 1:
            raise UsageError(f"--mu must have size at least 1, got {n}")
        labels = [partition_to_text(c) for c in mu]
    else:
        raise UsageError("one of --mu or --type is required")
    if req.k is not None and req.k != k:
        raise UsageError(f"--k {req.k} does not match literal with {k} components")

    ctx = None
    if req.which != "kron":
        ctx = build_context(k, n, req.cache_dir)
    val = _pair_value(ctx, req.which, mu, mt)
    if ctx is not None:
        _warn_ignored(ctx)

    if req.fmt == "text":
        print(poly_to_str(val))
    elif req.fmt == "json":
        obj = {"which": req.which, "k": k, "n": n,
               ("type" if mt is not None else "mu"): labels,
               "poly": poly_to_json(val), "text": poly_to_str(val)}
        print(json.dumps(obj, separators=(",", ":")))
    elif req.fmt == "csv":
        header = ",".join(f"mu{i + 1}" for i in range(k)) + ",polynomial"
        print(header)
        print(",".join(labels) + "," + poly_to_str(val))
    else:
        print(f"${_poly_tex(val)}$")
    return EXIT_OK


def _table_rows(ctx: MasterContext | None, which: str, k: int, n: int):
    parts = sorted(enumerate_partitions(n))
    rows = []
    for mu in combinations_with_replacement(parts, k):
        val = _pair_value(ctx, which, mu, None)
        if not val.is_zero():
            rows.append((mu, val))
    return rows


def format_table(rows, which: str, k: int, n: int, fmt: str) -> str:
    if fmt == "text":
        lines = []
        for mu, val in rows:
            cells = ", ".join(_partition_comma(c) for c in mu)
            lines.append(f"{cells} → {poly_to_str(val)}")
        return "\n".join(lines)
    if fmt == "csv":
        lines = [",".join(f"mu{i + 1}" for i in range(k)) + ",polynomial"]
        for mu, val in rows:
            lines.append(
                ",".join(partition_to_text(c) for c in mu) + "," + poly_to_str(val)
            )
        return "\n".join(lines)
    if fmt == "json":
        obj = {
            "which": which, "k": k, "n": n,
            "rows": [
                {"mu": [partition_to_text(c) for c in mu],
                 "poly": poly_to_json(val), "text": poly_to_str(val)}
                for mu, val in rows
            ],
        }
        return json.dumps(obj, separators=(",", ":"))
    sym = HEADER_SYMBOL[which]
    lines = ["\\begin{tabular}{" + "c" * k + "|l}"]
    lines.append(" & ".join(f"$\\mu^{i + 1}$" for i in range(k)) + f" & ${sym}$\\\\")
    lines.append("\\hline")
    for mu, val in rows:
        cells = " & ".join(f"$({partition_to_text(c)})$" for c in mu)
        lines.append(f"{cells} & ${_poly_tex(val)}$\\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def cmd_table(req: argparse.Namespace) -> int:
    k = req.k if req.k is not None else 3
    ctx = None
    if req.which != "kron":
        ctx = build_context(k, req.n, req.cache_dir)
        if req.which in ("V", "Vprime"):
            ctx.psi_schur(req.n)
        else:
            ctx.tau_schur(req.n)
        _warn_ignored(ctx)
    rows = _table_rows(ctx, req.which, k, req.n)
    out = format_table(rows, req.which, k, req.n, req.fmt)
    if out:
        print(out)
    return EXIT_OK


def cmd_verify(req: argparse.Namespace) -> int:
    k = req.k if req.k is not None else 3
    ctx = build_context(k, req.n, req.cache_dir)
    report = verify_suite(ctx)
    _warn_ignored(ctx)
    if req.fmt == "json":
        print(json.dumps(report.to_json(), separators=(",", ":")))
    else:
        for line in report.summary_lines():
            print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_cache(req: argparse.Namespace) -> int:
    cache_dir = req.cache_dir
    if not cache_dir:
        raise UsageError('cache needs a directory; --cache-dir "" means no cache')
    if req.action == "clear":
        removed = clear_cache(cache_dir, req.k)
        print(f"removed {len(removed)} cache file(s) from {cache_dir}")
        return EXIT_OK
    if req.n is None:
        raise UsageError("--n is required for cache build")
    k = req.k if req.k is not None else 3
    ctx = build_context(k, req.n, cache_dir)
    for n in range(1, req.n + 1):
        path = cache_path(cache_dir, k, n)
        existed = os.path.exists(path)
        table = ctx.psi_schur(n)  # saves every table it computes
        if ctx.cache_write_error is not None:
            raise ctx.cache_write_error
        verb = "kept" if existed and path not in ctx.ignored_cache_files else "wrote"
        print(f"{verb} {path} ({len(expand_orbits(table))} entries)")
    _warn_ignored(ctx)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ennola",
        description="Multiplicity polynomials for finite general linear "
        "and unitary groups, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("text", "json", "csv", "tex")) -> None:
        p.add_argument("--k", type=int, default=None,
                       help="number of tensor factors (default 3)")
        if formats:
            p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default: user cache dir)")

    p = sub.add_parser("pair", help="one multiplicity polynomial")
    p.add_argument("--which", choices=WHICH_CHOICES, required=True)
    p.add_argument("--mu", help='multipartition literal, e.g. "1^4,1^4,1^4"')
    p.add_argument("--type", dest="type_literal",
                   help='multitype literal, e.g. "1:2.1,1:2.1,2:1;1:1"')
    common(p)

    p = sub.add_parser("table", help="all nonzero rows for one degree")
    p.add_argument("--which", choices=WHICH_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--n", type=int, required=True)
    common(p, ("text", "json"))

    p = sub.add_parser("cache", help="build or clear the disk cache")
    p.add_argument("action", choices=("build", "clear"))
    p.add_argument("--n", type=int, default=None)
    common(p, ())
    return parser


def _check_sizes(req: argparse.Namespace) -> None:
    for opt in ("k", "n"):
        val = getattr(req, opt, None)
        if val is not None and val < 1:
            raise UsageError(f"--{opt} must be at least 1, got {val}")


def main(argv: list[str] | None = None) -> int:
    req = build_parser().parse_args(argv)
    if req.cache_dir is None:
        req.cache_dir = default_cache_dir()
    try:
        _check_sizes(req)
        if req.command == "pair":
            return cmd_pair(req)
        if req.command == "table":
            return cmd_table(req)
        if req.command == "verify":
            return cmd_verify(req)
        return cmd_cache(req)
    except (NotPolynomialError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
