"""Command line front end: single multiplicities, full tables, the
verification suite, and the disk cache's `build` and `clear`.  The parser
declares each subcommand's options, their defaults, which are required
and which command runs; the commands read the parsed request as it is."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import combinations_with_replacement

from .coeffs import PolyQU, poly_to_json, poly_to_str
from .partitions import (
    enumerate_partitions,
    kronecker,
    multipartition_to_text,
    parse_multipartition,
    partition_to_text,
    size,
)

# The pipeline (multiplicities) is imported by the commands that run it,
# and types, the class-type sum and the type literal, by `pair`, so
# `pair` never compiles the pipeline, and `pair` and `table` for kron,
# --help and a usage error compile neither.

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Each family: its tex header symbol, the name of its multiplicities
# function (looked up when `table` runs; None for kron, which needs no
# pipeline) and whether it takes --type (the u = 0 ones: [u^1] types only).
FAMILIES = {
    "V": ("V", "V_poly", True),
    "Vprime": ("V'", "Vprime_poly", True),
    "U": ("U", "U_poly", False),
    "Uprime": ("U'", "Uprime_poly", False),
    "T": ("\\mathcal{T}", "T_poly", False),
    "kron": ("g", None, False),
}
WHICH_CHOICES = tuple(FAMILIES)


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


def _json_row(column: str, labels: list[str], val: PolyQU) -> dict:
    return {column: labels, "poly": poly_to_json(val), "text": poly_to_str(val)}


def _csv(column: str, k: int, lines) -> str:
    """The header of k key columns, then one line per (key text, polynomial)."""
    header = ",".join(f"{column}{i + 1}" for i in range(k)) + ",polynomial"
    return "\n".join([header, *(f"{text},{poly_to_str(val)}" for text, val in lines)])


def cmd_pair(req: argparse.Namespace) -> int:
    """One polynomial: kron by characters, every other family by the sum
    over class types at a `--mu` key, and V and V' at a `--type` key too.
    The library refuses a bad key, one of size 0 too; the sum needs no
    k-fold table and no cache; --cache-dir is accepted and unused."""
    if req.type_literal is not None:
        if not FAMILIES[req.which][2]:
            typed = " or ".join(w for w, fam in FAMILIES.items() if fam[2])
            raise ValueError(f"--type is only valid with --which {typed}")
        from .types import parse_multitype, type_size, type_to_text

        key = parse_multitype(req.type_literal)
        k, n = len(key), type_size(key[0])
        labels, column = [type_to_text(c) for c in key], "type"
    else:
        key = parse_multipartition(req.mu)
        k, n = len(key), size(key[0])
        labels, column = [partition_to_text(c) for c in key], "mu"

    if FAMILIES[req.which][1] is None:
        val = PolyQU.const(kronecker(key))
    else:
        from .types import specialize, t_poly

        powers = (1,) if FAMILIES[req.which][2] else None
        val = specialize(req.which, t_poly(key, powers), key)
    if req.fmt == "text":
        print(poly_to_str(val))
    elif req.fmt == "json":
        obj = {"which": req.which, "k": k, "n": n, **_json_row(column, labels, val)}
        print(json.dumps(obj, separators=(",", ":")))
    elif req.fmt == "csv":
        print(_csv(column, k, [(",".join(labels), val)]))
    else:
        print(f"${_poly_tex(val)}$")
    return EXIT_OK


def format_table(rows, which: str, k: int, n: int, fmt: str) -> str:
    if fmt == "text":
        lines = []
        for mu, val in rows:
            cells = ", ".join(_partition_comma(c) for c in mu)
            lines.append(f"{cells} → {poly_to_str(val)}")
        return "\n".join(lines)
    if fmt == "csv":
        return _csv("mu", k, [(multipartition_to_text(mu), val) for mu, val in rows])
    if fmt == "json":
        obj = {"which": which, "k": k, "n": n,
               "rows": [_json_row("mu", [partition_to_text(c) for c in mu], val)
                        for mu, val in rows]}
        return json.dumps(obj, separators=(",", ":"))
    sym = FAMILIES[which][0]
    lines = ["\\begin{tabular}{" + "c" * k + "|l}"]
    lines.append(" & ".join(f"$\\mu^{i + 1}$" for i in range(k)) + f" & ${sym}$\\\\")
    lines.append("\\hline")
    for mu, val in rows:
        cells = " & ".join(f"$({partition_to_text(c)})$" for c in mu)
        lines.append(f"{cells} & ${_poly_tex(val)}$\\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def cmd_table(req: argparse.Namespace) -> int:
    """Every nonzero row of one degree: kron by characters, every other
    family from the k-fold tables of a MasterContext, which read and
    write the cache."""
    keys = combinations_with_replacement(sorted(enumerate_partitions(req.n)), req.k)
    name = FAMILIES[req.which][1]
    if name is None:
        vals = [(key, PolyQU.const(kronecker(key))) for key in keys]
    else:
        from . import multiplicities as m

        value, ctx = getattr(m, name), m.build_context(req.k, req.n, req.cache_dir)
        vals = [(key, value(ctx, key)) for key in keys]
        _warn_cache(ctx)
    rows = [(mu, val) for mu, val in vals if not val.is_zero()]
    out = format_table(rows, req.which, req.k, req.n, req.fmt)
    if out:
        print(out)
    return EXIT_OK


def verify_suite(ctx):
    """Lazy multiplicities.verify_suite, wrapped by perfbench; ROADMAP item 1b removes it."""
    from .multiplicities import verify_suite as run_suite
    return run_suite(ctx)


def cmd_verify(req: argparse.Namespace) -> int:
    from .multiplicities import build_context

    ctx = build_context(req.k, req.n, req.cache_dir)
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
        raise ValueError('cache needs a directory; --cache-dir "" means no cache')
    from .multiplicities import build_context, cache_path, clear_cache

    if req.action == "clear":
        removed = clear_cache(cache_dir, req.k)
        print(f"removed {len(removed)} cache file(s) from {cache_dir}")
        return EXIT_OK
    ctx = build_context(req.k, req.n, cache_dir)
    for n in range(1, req.n + 1):
        verb = "wrote" if ctx.stored_psi_schur(n) is None else "kept"
        table = ctx.psi_schur(n)  # saves every table it computes
        if ctx.cache_write_error is not None:
            raise ctx.cache_write_error
        print(f"{verb} {cache_path(cache_dir, req.k, n)} ({len(table)} entries)")
    _warn_cache(ctx)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ennola",
        description="Multiplicity polynomials for finite general linear "
        "and unitary groups, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cache_dir = default_cache_dir()

    def common(p: argparse.ArgumentParser, cmd, formats=("text", "json", "csv", "tex"),
               k=3, k_help="number of tensor factors (default 3)",
               cache_help="cache directory (default: user cache dir)") -> None:
        p.set_defaults(cmd=cmd)
        if k_help:  # pair reads k from its literal
            p.add_argument("--k", type=int, default=k, help=k_help)
        if formats:
            p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--cache-dir", default=cache_dir, help=cache_help)

    p = sub.add_parser("pair", help="one multiplicity polynomial")
    p.add_argument("--which", choices=WHICH_CHOICES, required=True)
    literal = p.add_mutually_exclusive_group(required=True)
    literal.add_argument("--mu", help='multipartition literal, e.g. "1^4,1^4,1^4"')
    literal.add_argument("--type", dest="type_literal",
                   help='multitype literal, e.g. "1:2.1,1:2.1,2:1;1:1"')
    common(p, cmd_pair, k_help=None,
           cache_help="accepted and unused: pair reads and writes no cache")

    p = sub.add_parser("table", help="all nonzero rows for one degree")
    p.add_argument("--which", choices=WHICH_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_table)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_verify, ("text", "json"))

    p = sub.add_parser("cache", help="build or clear the disk cache")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("build", help="write the master tables of degrees 1..n")
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_cache, ())
    p = actions.add_parser("clear", help="remove the files of one k, or of every k")
    common(p, cmd_cache, (), k=None, k_help="number of tensor factors (default: every k)")
    return parser


def _check_sizes(req: argparse.Namespace) -> None:
    for opt in ("k", "n"):
        val = getattr(req, opt, None)
        if val is not None and val < 1:
            raise ValueError(f"--{opt} must be at least 1, got {val}")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse raises SystemExit
    for --help and malformed options.  The garbage collector is left as
    the caller set it: only the process entry `run` turns it off."""
    req = build_parser().parse_args(argv)
    try:
        _check_sizes(req)
        return req.cmd(req)
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # no other class fits: never exit 1, verify's code
        import traceback  # here, so that start-up does not load it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


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
