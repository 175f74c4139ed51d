"""Command line front end: single multiplicities, full tables, the
verification suite, and cache management."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import combinations_with_replacement

from .characters import kronecker
from .coeffs import NotPolynomialError, PolyQU, poly_to_json, poly_to_str
from .partitions import (
    enumerate_partitions,
    multipartition_to_text,
    parse_multipartition,
    partition_to_text,
    size,
)

# The pipeline (multiplicities, and types for --type) is imported by the
# commands that run it, so `pair` and `table` for kron, --help and a usage
# error never compile it.

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

HEADER_SYMBOL = {
    "V": "V",
    "Vprime": "V'",
    "U": "U",
    "Uprime": "U'",
    "T": "\\mathcal{T}",
    "kron": "g",
}
WHICH_CHOICES = tuple(HEADER_SYMBOL)


class UsageError(ValueError):
    """A request the options allow but the command cannot serve; reported,
    like every other ValueError, as a usage error."""


def default_cache_dir() -> str:
    """ennola under XDG_CACHE_HOME, or under ~/.cache when that is unset or
    not an absolute path, which the XDG Base Directory spec calls invalid."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "ennola")


def _partition_comma(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")" if p else "(0)"


def _poly_tex(p: PolyQU) -> str:
    return poly_to_str(p).replace("*", "")


def _warn_cache(ctx) -> None:
    """One warning on stderr per ignored cache file and one for a failed
    cache write; neither changes the answer or the exit code."""
    for path in ctx.ignored_cache_files:
        print(f"warning: ignoring incompatible cache file {path}; recomputing",
              file=sys.stderr)
    ctx.ignored_cache_files.clear()
    if ctx.cache_write_error is not None:
        print(f"warning: cache not written: {ctx.cache_write_error}", file=sys.stderr)


def _kron_value(ctx, mu) -> PolyQU:
    return PolyQU.const(kronecker(mu))


def _family(which: str, k: int, n: int, cache_dir: str):
    """The function (ctx, key) -> polynomial of a family and the context it
    reads; kron needs neither the pipeline nor a context."""
    if which == "kron":
        return _kron_value, None
    from . import multiplicities as m

    value = {"V": m.V_poly, "Vprime": m.Vprime_poly, "U": m.U_poly,
             "Uprime": m.Uprime_poly, "T": m.T_poly}[which]
    return value, m.build_context(k, n, cache_dir)


def cmd_pair(req: argparse.Namespace) -> int:
    if req.type_literal is not None:
        if req.which not in ("V", "Vprime"):
            raise UsageError("--type is only valid with --which V or Vprime")
        from .types import parse_multitype, type_size, type_to_text

        key = parse_multitype(req.type_literal)
        k, n = len(key), type_size(key[0])
        labels, column = [type_to_text(c) for c in key], "type"
    else:
        key = parse_multipartition(req.mu)
        k, n = len(key), size(key[0])
        if n < 1:
            raise UsageError(f"--mu must have size at least 1, got {n}")
        labels, column = [partition_to_text(c) for c in key], "mu"
    if req.k is not None and req.k != k:
        raise UsageError(f"--k {req.k} does not match literal with {k} components")

    value, ctx = _family(req.which, k, n, req.cache_dir)
    val = value(ctx, key)
    if ctx is not None:
        _warn_cache(ctx)

    if req.fmt == "text":
        print(poly_to_str(val))
    elif req.fmt == "json":
        obj = {"which": req.which, "k": k, "n": n, column: labels,
               "poly": poly_to_json(val), "text": poly_to_str(val)}
        print(json.dumps(obj, separators=(",", ":")))
    elif req.fmt == "csv":
        header = ",".join(f"{column}{i + 1}" for i in range(k)) + ",polynomial"
        print(header)
        print(",".join(labels) + "," + poly_to_str(val))
    else:
        print(f"${_poly_tex(val)}$")
    return EXIT_OK


def _table_rows(value, ctx, k: int, n: int):
    parts = sorted(enumerate_partitions(n))
    rows = []
    for mu in combinations_with_replacement(parts, k):
        val = value(ctx, mu)
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
            lines.append(f"{multipartition_to_text(mu)},{poly_to_str(val)}")
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
    value, ctx = _family(req.which, k, req.n, req.cache_dir)
    rows = _table_rows(value, ctx, k, req.n)
    if ctx is not None:
        _warn_cache(ctx)
    out = format_table(rows, req.which, k, req.n, req.fmt)
    if out:
        print(out)
    return EXIT_OK


def verify_suite(ctx):
    """Lazy multiplicities.verify_suite, wrapped by perfbench; ROADMAP item 1 removes it."""
    from .multiplicities import verify_suite as run_suite
    return run_suite(ctx)


def cmd_verify(req: argparse.Namespace) -> int:
    from .multiplicities import build_context

    k = req.k if req.k is not None else 3
    ctx = build_context(k, req.n, req.cache_dir)
    report = verify_suite(ctx)
    _warn_cache(ctx)
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
    from .multiplicities import build_context, cache_path, clear_cache

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
        print(f"{verb} {path} ({len(table)} entries)")
    _warn_cache(ctx)
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
    literal = p.add_mutually_exclusive_group(required=True)
    literal.add_argument("--mu", help='multipartition literal, e.g. "1^4,1^4,1^4"')
    literal.add_argument("--type", dest="type_literal",
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
    """Run one command and return its exit code; argparse raises SystemExit
    for --help and malformed options.  The garbage collector is left as
    the caller set it: only the process entry `run` turns it off."""
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


def run() -> int:
    """Process entry of the `ennola` console script and of `python -m
    ennola.cli`: `main()` with the cyclic garbage collector off, and the
    heap frozen before the interpreter exits, so that neither the pipeline
    nor finalization spends time on collections.  That is sound only while
    the pipeline makes no reference cycles, which
    `TestProcessEntry.test_pipeline_makes_no_cycles` in tests/test_cli.py
    pins; what argparse leaves in cycles, once per process, stays until
    the process ends.  The collector stays off after the return, so this
    is for a process entry only; library callers use `main(argv)`."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
