"""Command-line interface: output formats, exit codes, cache behavior, and
byte-exact agreement with the frozen reference tables."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from ennola.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    WHICH_CHOICES,
    main,
)
from ennola.partitions import enumerate_partitions, parse_partition, partition_to_text

DATA = Path(__file__).parent / "data"


def _child(code: str, *args: str) -> list[str]:
    """The stdout lines of `python -c code args` with this package's sources
    on the path; COLUMNS fixes the width of argparse's help."""
    import ennola

    env = dict(os.environ, COLUMNS="80")
    src = str(Path(ennola.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestPair:
    def test_split_unipotent_text(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "U", "--mu", "1^4,1^4,1^4",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        assert out == "q^3 + 2*q + 1\n"

    def test_interpolation_text(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "T", "--mu", "2,2,2",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        assert out == "u\n"

    def test_kronecker_needs_no_context(self, capsys, tmp_path):
        # point the cache at a fresh directory: nothing may be created
        cache = str(tmp_path / "kron-cache")
        rc, out, _ = run(
            capsys, "pair", "--which", "kron", "--mu", "2.1,2.1,2.1",
            "--cache-dir", cache,
        )
        assert rc == EXIT_OK
        assert out == "1\n"
        assert not os.path.exists(cache)

    def test_generic_with_type_literal(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "V", "--type", "2:1,2:1,2:1",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        # a polynomial in q came out; sanity: it evaluates to an integer
        assert out.strip()

    def test_json_format(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "V", "--mu", "1^3,1^3,2.1",
            "--format", "json", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        obj = json.loads(out)
        assert obj["which"] == "V"
        assert obj["k"] == 3
        assert obj["n"] == 3
        assert obj["mu"] == ["1^3", "1^3", "2.1"]
        assert obj["text"] == "1"
        assert obj["poly"] == [["1", 0, 0]]

    def test_csv_format(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "V", "--mu", "1^3,1^3,2.1",
            "--format", "csv", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "mu1,mu2,mu3,polynomial"
        assert lines[1] == "1^3,1^3,2.1,1"

    def test_csv_format_of_a_type_literal(self, capsys, cache_dir):
        # the columns are named like the JSON key, "type"
        rc, out, _ = run(
            capsys, "pair", "--which", "Vprime", "--type", "2:1,2:1,1:1^2",
            "--format", "csv", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        header, row = out.splitlines()
        assert header == "type1,type2,type3,polynomial"
        assert row.startswith("2:1,2:1,1:1^2,")

    def test_tex_format(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "pair", "--which", "U", "--mu", "1^4,1^4,1^4",
            "--format", "tex", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        assert out == "$q^3 + 2q + 1$\n"


class TestPairErrors:
    def test_bad_partition_literal(self, capsys, cache_dir):
        rc, _, err = run(
            capsys, "pair", "--which", "U", "--mu", "1.2,3,3",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_USAGE
        assert "error:" in err

    def test_size_mismatch(self, capsys, cache_dir):
        rc, _, err = run(
            capsys, "pair", "--which", "kron", "--mu", "2.1,2",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_USAGE
        assert "error:" in err

    def test_k_is_not_an_option(self, capsys, tmp_path):
        # the literal's components are k, so pair declares no --k
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--which", "kron", "--mu", "2.1,2.1,2.1", "--k", "3",
                  "--cache-dir", str(cache)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err
        assert not cache.exists()

    def test_type_only_for_generic(self, capsys, cache_dir):
        rc, _, err = run(
            capsys, "pair", "--which", "U", "--type", "1:1,1:1,1:1",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_USAGE
        assert err == "error: --type is only valid with --which V or Vprime\n"

    def test_missing_mu(self, capsys, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--which", "U", "--cache-dir", cache_dir])
        assert exc.value.code == EXIT_USAGE
        assert "one of the arguments --mu --type is required" in capsys.readouterr().err

    def test_mu_and_type_together(self, capsys, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--which", "V", "--type", "1:1,1:1,1:1", "--mu", "1,1,1",
                  "--cache-dir", cache_dir])
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    def test_unknown_which_is_argparse_error(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--which", "W", "--mu", "1,1,1", "--cache-dir", cache_dir])
        assert exc.value.code == EXIT_USAGE


class TestSizeBounds:
    """--n and --k below 1 are one usage error for every subcommand and
    family, before any work is done."""

    @pytest.mark.parametrize("argv, opt, val", [
        (("table", "--which", "kron", "--n", "0"), "n", 0),
        (("table", "--which", "T", "--n", "0"), "n", 0),
        (("table", "--which", "V", "--n", "-2", "--format", "tex"), "n", -2),
        (("table", "--which", "kron", "--n", "2", "--k", "-1"), "k", -1),
        (("table", "--which", "U", "--n", "2", "--k", "0"), "k", 0),
        (("verify", "--n", "0"), "n", 0),
        (("verify", "--n", "2", "--k", "0"), "k", 0),
        (("cache", "build", "--n", "0"), "n", 0),
        (("cache", "clear", "--k", "0"), "k", 0),
    ], ids=["table-kron-n0", "table-T-n0", "table-V-tex-n-2", "table-kron-k-1", "table-U-k0",
            "verify-n0", "verify-k0", "cache-build-n0", "cache-clear-k0"])
    def test_below_one_is_usage_error(self, capsys, tmp_path, argv, opt, val):
        cache = tmp_path / "cache"
        rc, out, err = run(capsys, *argv, "--cache-dir", str(cache))
        assert rc == EXIT_USAGE
        assert out == ""
        assert err == f"error: --{opt} must be at least 1, got {val}\n"
        assert not cache.exists()

    @pytest.mark.parametrize("which", WHICH_CHOICES)
    def test_size_zero_mu_is_usage_error(self, capsys, tmp_path, which):
        cache = tmp_path / "cache"
        rc, out, err = run(capsys, "pair", "--which", which, "--mu", "0,0,0",
                           "--cache-dir", str(cache))
        assert rc == EXIT_USAGE
        assert out == ""
        assert err == "error: a multipartition needs size at least 1\n"
        assert not cache.exists()


class TestTable:
    def test_text_table_generic_n3(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "table", "--which", "V", "--n", "3",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        lines = out.splitlines()
        # every nonzero row is printed; n=3 has exactly these 2 rows
        assert lines == [
            "(1,1,1), (1,1,1), (1,1,1) → q",
            "(1,1,1), (1,1,1), (2,1) → 1",
        ]

    def test_csv_table(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "table", "--which", "V", "--n", "3", "--format", "csv",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "mu1,mu2,mu3,polynomial"
        assert len(lines) == 3

    def test_json_table(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "table", "--which", "V", "--n", "2", "--format", "json",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        obj = json.loads(out)
        assert obj["which"] == "V"
        assert obj["k"] == 3 and obj["n"] == 2
        assert obj["rows"]
        for row in obj["rows"]:
            assert set(row) >= {"mu", "poly", "text"}

    def test_kron_table(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "table", "--which", "kron", "--n", "2",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        # the only nonzero size-2 entries are the four symmetric-square rows
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert line.endswith("→ 1")


class TestSharedRows:
    """pair writes its answer as table writes a row: its JSON object less
    which, k and n is the table's row for that key, and its CSV is the
    table's header and that key's line."""

    @staticmethod
    def outputs(capsys, *argv) -> tuple[dict, str]:
        out = [run(capsys, *argv, "--format", fmt, "--cache-dir", "")[1]
               for fmt in ("json", "csv")]
        return json.loads(out[0]), out[1]

    @pytest.mark.parametrize("which", WHICH_CHOICES)
    def test_pair_is_a_table_row(self, capsys, which):
        table, csv = self.outputs(capsys, "table", "--which", which, "--n", "3")
        header, *lines = csv.splitlines()
        assert len(lines) == len(table["rows"]) > 0
        for row, line in zip(table["rows"], lines):
            obj, out = self.outputs(capsys, "pair", "--which", which,
                                    "--mu", ",".join(row["mu"]))
            assert list(obj.items()) == [("which", which), ("k", 3), ("n", 3),
                                         *row.items()]
            assert out == f"{header}\n{line}\n"

    @pytest.mark.parametrize("which", ["V", "Vprime"])
    def test_pair_of_a_type_is_a_table_row(self, capsys, which):
        # one eigenvalue of degree 1 with partition lam is the partition lam
        literal, mu = "1:1.1.1,1:1.1.1,1:2.1", "1^3,1^3,2.1"
        table, csv = self.outputs(capsys, "table", "--which", which, "--n", "3")
        row = next(row for row in table["rows"] if row["mu"] == mu.split(","))
        header, *lines = csv.splitlines()
        line = next(line for line in lines if line.startswith(mu + ","))
        obj, out = self.outputs(capsys, "pair", "--which", which, "--type", literal)
        assert list(obj.items()) == [("which", which), ("k", 3), ("n", 3),
                                     ("type", literal.split(",")),
                                     ("poly", row["poly"]), ("text", row["text"])]
        assert out == header.replace("mu", "type") + f"\n{literal}{line[len(mu):]}\n"


class TestClassTypeSum:
    """`pair` answers by the sum over class types (ennola.types), at
    a `--mu` key and, for V and V', at a `--type` key, while `table` and
    the library's V_poly and Vprime_poly read the k-fold tables of the
    pipeline: the two routes give the same polynomials, and a broken
    invariant of the sum is an internal error."""

    FAMILIES = ("T", "U", "Uprime", "V", "Vprime")

    @staticmethod
    def orderings(k: int, n: int) -> list[list[str]]:
        """Each sorted key of k partitions of n, and one other ordering of
        it where it has one, as lists of partition literals."""
        out = []
        for key in combinations_with_replacement(sorted(enumerate_partitions(n)), k):
            labels = [partition_to_text(c) for c in key]
            out.append(labels)
            if len(set(labels)) > 1:
                out.append(labels[1:] + labels[:1])
        return out

    @pytest.mark.parametrize("k,n", [(3, 5), (4, 4), (2, 6), (5, 3), (1, 8)],
                             ids=["k3-n5", "k4-n4", "k2-n6", "k5-n3", "k1-n8"])
    def test_pair_is_the_table_row(self, capsys, monkeypatch, k, n):
        # T is summed once per ordering and read by every family
        import ennola.types as ty

        monkeypatch.setattr(ty, "t_poly", lru_cache(maxsize=None)(ty.t_poly))
        for which in self.FAMILIES:
            rc, out, _ = run(capsys, "table", "--which", which, "--k", str(k), "--n", str(n),
                             "--format", "json", "--cache-dir", "")
            assert rc == EXIT_OK
            rows = {tuple(row["mu"]): row for row in json.loads(out)["rows"]}
            for labels in self.orderings(k, n):
                rc, out, _ = run(capsys, "pair", "--which", which, "--mu", ",".join(labels),
                                 "--format", "json", "--cache-dir", "")
                assert rc == EXIT_OK
                got = json.loads(out)
                want = rows.get(tuple(sorted(labels, key=parse_partition)),
                                {"poly": [], "text": "0"})
                assert (got["mu"], got["poly"], got["text"]) == (
                    labels, want["poly"], want["text"]), (which, labels)

    def test_twelve_factor_table_is_the_class_type_sum(self, capsys):
        # at k = 12 the table's sorted keys stand for orbits of up to 12!
        # orderings (symfunc.orbit builds only the distinct ones); each row
        # is T by the class-type sum read through specialize
        from ennola.coeffs import poly_to_json, poly_to_str
        from ennola.types import specialize, t_poly

        rc, out, _ = run(capsys, "table", "--which", "V", "--k", "12", "--n", "2",
                         "--format", "json", "--cache-dir", "")
        assert rc == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 10
        for row in rows:
            mu = tuple(map(parse_partition, row["mu"]))
            v = specialize("V", t_poly(mu), mu)
            assert (row["poly"], row["text"]) == (poly_to_json(v), poly_to_str(v)), row["mu"]

    @pytest.mark.parametrize("k,n", [(3, 5), (4, 4), (2, 6), (12, 2)],
                             ids=["k3-n5", "k4-n4", "k2-n6", "k12-n2"])
    def test_one_contraction_is_both_tables(self, k, n):
        # the class-type contraction over every sorted key of one degree:
        # its [u^1] table, verify's generic side, is u times the master
        # series' Schur table, and its whole u T is u times the tau table
        from ennola.coeffs import PolyQU, U
        from ennola.multiplicities import build_context
        from ennola.types import type_sum

        ctx = build_context(k, n)
        keys = list(combinations_with_replacement(sorted(enumerate_partitions(n)), k))
        generic = type_sum([enumerate_partitions(n)] * k, (1,))
        full = type_sum([enumerate_partitions(n)] * k)
        assert sorted(generic) == sorted(full) == keys
        psi, tau = ctx.psi_schur(n), ctx.tau_schur(n)
        for key in keys:
            assert generic[key] == psi.get(key, PolyQU()) * U, key
            assert full[key] == tau.get(key, PolyQU()) * U, key

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 3)], ids=["k3-n4", "k4-n3"])
    def test_generic_mu_is_the_degree_one_multitype(self, capsys, k, n):
        # both literals against the master series' pairing on a context
        # with no cache
        from ennola.coeffs import poly_to_str
        from ennola.multiplicities import V_poly, Vprime_poly, build_context
        from ennola.types import parse_multitype

        ctx = build_context(k, n)
        for labels in self.orderings(k, n):
            mu = ",".join(labels)
            mt = ",".join("1:" + ".".join(map(str, parse_partition(c))) for c in labels)
            for which, value in (("V", V_poly), ("Vprime", Vprime_poly)):
                by_sum = run(capsys, "pair", "--which", which, "--mu", mu, "--cache-dir", "")
                by_type = run(capsys, "pair", "--which", which, "--type", mt, "--cache-dir", "")
                by_table = (EXIT_OK, poly_to_str(value(ctx, parse_multitype(mt))) + "\n", "")
                assert by_sum == by_type == by_table, (which, mu, mt)

    @staticmethod
    def multitypes(k: int, n: int, count: int | None = None) -> list[str]:
        """The sorted multitypes of k types of size n, or count of them
        drawn with a fixed seed, as literals."""
        import random

        from oracles import enumerate_types
        from ennola.types import type_to_text

        keys = list(combinations_with_replacement(sorted(enumerate_types(n)), k))
        if count is not None:
            keys = random.Random(7919 * k + n).sample(keys, min(count, len(keys)))
        return [",".join(map(type_to_text, key)) for key in keys]

    CASES = [*((k, n, None) for k in (2, 3) for n in (1, 2, 3)),
             *((k, n, 16) for k in (1, 2, 3, 4) for n in (4, 5))]

    @pytest.mark.parametrize("k,n,count", CASES, ids=[
        f"k{k}-n{n}" + ("-sample" if count else "") for k, n, count in CASES])
    def test_pair_type_is_the_pairing(self, capsys, k, n, count):
        # V and V' of a multitype by the sum, against multiplicities.H_omega
        # (V_poly and Vprime_poly) on a context with no cache
        from ennola.coeffs import poly_to_str
        from ennola.multiplicities import V_poly, Vprime_poly, build_context
        from ennola.types import parse_multitype

        ctx = build_context(k, n)
        for mt in self.multitypes(k, n, count):
            for which, value in (("V", V_poly), ("Vprime", Vprime_poly)):
                got = run(capsys, "pair", "--which", which, "--type", mt, "--cache-dir", "")
                want = poly_to_str(value(ctx, parse_multitype(mt))) + "\n"
                assert got == (EXIT_OK, want, ""), (which, mt)

    def test_u1_types_alone_are_the_generic_side(self):
        # pair --which V|Vprime sums only the [u^1] class types: the same
        # V and V' as all of u T, at every sorted key of (3, 4) and (4, 3)
        # and at the multitypes of size <= 4 that the pairing tests walk
        from ennola.types import parse_multitype, specialize, t_poly

        keys = [key for k, n in ((3, 4), (4, 3))
                for key in combinations_with_replacement(sorted(enumerate_partitions(n)), k)]
        keys += [parse_multitype(mt) for k, n, count in self.CASES if n <= 4
                 for mt in self.multitypes(k, n, count)]
        for key in keys:
            t, t0 = t_poly(key), t_poly(key, (1,))
            assert t0.udeg() <= 0, key
            for which in ("V", "Vprime"):
                assert specialize(which, t0, key) == specialize(which, t, key), (which, key)

    @pytest.mark.parametrize("which,powers", [
        ("V", [(1,)]), ("Vprime", [(1,)]), ("T", [None]), ("U", [None]),
        ("Uprime", [None]), ("kron", []),
    ])
    def test_u_powers_asked_of_the_sum(self, capsys, monkeypatch, which, powers):
        # the u = 0 families ask the class-type sum for its [u^1] types
        # alone, the others for every power, and kron does not ask it
        import ennola.types as ty

        real, asked = ty.t_poly, []
        monkeypatch.setattr(ty, "t_poly", lambda key, p=None: asked.append(p) or real(key, p))
        rc, _, _ = run(capsys, "pair", "--which", which, "--mu", "2.1,2.1,1^3", "--cache-dir", "")
        assert (rc, asked) == (EXIT_OK, powers)

    @pytest.mark.parametrize("mu,message", [
        (((), ()), "a multipartition needs size at least 1"),
        (((1, 2), (3,)), "partition parts must be weakly decreasing, got (1, 2)"),
        (((2, 1), (2,)), "components of different sizes"),
    ], ids=["size-0", "increasing", "sizes-differ"])
    def test_refusals(self, mu, message):
        from ennola.types import t_poly

        with pytest.raises(ValueError) as exc:
            t_poly(mu)
        assert str(exc.value) == message

    def test_broken_sum_exits_internal(self, capsys, monkeypatch):
        # failure injection: an orbit count off by u leaves a sum that is
        # not u times a polynomial
        import ennola.types as ty
        from ennola.coeffs import U

        real = ty.phi_u
        monkeypatch.setattr(ty, "phi_u", lambda d: real(d) + U)
        rc, out, err = run(capsys, "pair", "--which", "T", "--mu", "2.1,2.1,1^3",
                           "--cache-dir", "")
        assert (rc, out) == (EXIT_INTERNAL, "")
        assert err == ("internal error: the class-type sum at 2.1,2.1,1^3 "
                       "is not u times a polynomial\n")

    def test_u_degree_past_n_exits_internal(self, capsys, monkeypatch):
        # failure injection: u T times u^n is still divisible by u, but T's
        # u-degree is then above n - 1; the sum's quotient is the one
        # exact division with u in its dividend
        import ennola.types as ty
        from ennola.coeffs import U

        real = ty.exact_quotients
        monkeypatch.setattr(ty, "exact_quotients", lambda nums, b: [
            c * U ** 3 if c.udeg() else c for c in real(nums, b)])
        rc, out, err = run(capsys, "pair", "--which", "T", "--mu", "2.1,2.1,1^3",
                           "--cache-dir", "")
        assert (rc, out) == (EXIT_INTERNAL, "")
        assert err.startswith("internal error: u-degree of ")
        assert err.endswith(" exceeds n-1 for 2.1,2.1,1^3\n")


class TestTexGoldens:
    """CLI tex output must agree byte-for-byte with the frozen reference
    files for every table small enough to recompute quickly here; the n = 5
    tables are covered through the acceptance tests."""

    @pytest.mark.parametrize(
        "which,n",
        [("V", 2), ("V", 3), ("V", 4)]
        + [("U", n) for n in range(1, 5)]
        + [("Uprime", n) for n in range(1, 5)],
    )
    def test_matches_reference_file(self, capsys, cache_dir, which, n):
        rc, out, _ = run(
            capsys, "table", "--which", which, "--n", str(n),
            "--format", "tex", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        expected = (DATA / f"{which}_n{n}.tex").read_text()
        assert out == expected

    def test_reference_files_match_transcribed_tables(self):
        # the .tex files are a straight rendering of the transcribed dicts;
        # regenerating them in memory must reproduce the files exactly
        import regenerate_goldens

        for which, n, text in regenerate_goldens.render_all():
            path = DATA / f"{which}_n{n}.tex"
            assert path.read_text() == text, (which, n)


class TestVerify:
    def test_green_run(self, capsys, cache_dir):
        rc, out, _ = run(capsys, "verify", "--n", "2", "--cache-dir", cache_dir)
        assert rc == EXIT_OK
        assert "6 identity families, 0 failures" in out
        assert out.count("ok ") == 6

    def test_json_format(self, capsys, cache_dir):
        rc, out, _ = run(
            capsys, "verify", "--n", "2", "--format", "json",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_OK
        obj = json.loads(out)
        assert obj["ok"] is True

    def test_detects_seeded_fault(self, capsys, cache_dir, monkeypatch):
        # negative control: corrupt one polynomial family and expect a
        # nonzero exit with a counterexample in the report; verify reads
        # U' off T through specialize
        import ennola.multiplicities as mult

        real = mult.specialize
        monkeypatch.setattr(mult, "specialize", lambda which, t, key: (
            real(which, t, key).scale(-1) + mult.ONE if which == "Uprime" else real(which, t, key)))
        rc, out, _ = run(capsys, "verify", "--n", "2", "--cache-dir", cache_dir)
        assert rc == EXIT_VERIFY
        assert "FAIL" in out
        assert "failures" in out.splitlines()[-1]
        assert "0 failures" not in out.splitlines()[-1]

    def test_detects_seeded_t_oracle_fault(self, capsys, cache_dir, monkeypatch):
        import ennola.multiplicities as mult

        real = mult.u_deformed_log_sum

        def corrupted(ctx):
            series = real(ctx)
            f = series.coeffs[2]
            key = min(f.coeffs)
            series.coeffs[2] = f._with({**f.coeffs, key: f.coeffs[key] + mult.U}, f.den)
            return series

        monkeypatch.setattr(mult, "u_deformed_log_sum", corrupted)
        rc, out, _ = run(capsys, "verify", "--n", "2", "--cache-dir", cache_dir)
        assert rc == EXIT_VERIFY
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL tau-matches-u-deformed-product"
        ]
        assert "log Exp(u Psi) != u-deformed log" in out

    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "1", "--format", "csv"),
        ("verify", "--n", "1", "--format", "tex"),
        ("cache", "build", "--n", "1", "--format", "tex"),
        ("cache", "clear", "--format", "json"),
    ], ids=["verify-csv", "verify-tex", "cache-build-tex", "cache-clear-json"])
    def test_format_a_subcommand_does_not_read_is_rejected(self, capsys, tmp_path, argv):
        # verify prints text or json only, and cache prints no table
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(cache)])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not cache.exists()


class TestInternalErrors:
    @pytest.mark.parametrize("argv,fault,message", [
        (("table", "--which", "V", "--n", "1"), "omega", "internal error: not a polynomial"),
        (("table", "--which", "T", "--n", "1"), "exp_u_psi", "internal error: coefficient of"),
        (("table", "--which", "T", "--n", "3"), "norm1", "internal error: digit size 1 below 2"),
        (("verify", "--n", "3"), "character_rows", "internal error: digit size 1 below 2"),
    ], ids=["V-omega-internal error: not a polynomial",
            "T-exp_u_psi-internal error: coefficient of",
            "T-norm1-internal error: digit size 1 below 2",
            "verify-character_rows-internal error: digit size 1 below 2"])
    def test_broken_invariant_exits_internal(
        self, capsys, tmp_path, monkeypatch, argv, fault, message
    ):
        # failure injection: a kernel with a spurious 1/(q + 1) does not
        # divide over the closed-form denominator of its logarithm; dropping
        # the factor u from Exp(u Psi) breaks the divisibility that T
        # relies on; a zero coefficient bound sizes the packed digits of
        # the kernel, or of the change to the Schur basis, at 1 bit, which
        # unpack refuses as a broken invariant, not as a refused input.
        # `pair` takes the class-type sum, so the k-fold pipeline is
        # reached through `table`
        import ennola.multiplicities as mult
        import ennola.symfunc as symfunc
        from ennola.coeffs import ONE, Q
        from ennola.symfunc import SymFunc
        from oracles import pleth_exp

        if fault == "norm1":
            monkeypatch.setattr(mult, "norm1", lambda p: 0)
        elif fault == "character_rows":
            real_rows = symfunc._character_rows
            monkeypatch.setattr(symfunc, "_character_rows",
                                lambda n, to_powersum: (real_rows(n, to_powersum)[0], 0))
        elif fault == "omega":
            real = mult._build_omega

            def skewed(k, N):
                omega = real(k, N)
                f = omega.coeffs[1]
                omega.coeffs[1] = SymFunc(f.k, f.n, f.coeffs, f.den * (Q + ONE))
                return omega

            monkeypatch.setattr(mult, "_build_omega", skewed)
        else:
            monkeypatch.setattr(mult.MasterContext, "exp_u_psi",
                                property(lambda ctx: pleth_exp(ctx.psi)))
        rc, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path / "c"))
        assert rc == EXIT_INTERNAL
        assert out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("argv", [
        ("table", "--which", "V", "--n", "1"),
        ("verify", "--n", "2"),
    ], ids=["table", "verify"])
    def test_any_other_exception_exits_internal(self, capsys, monkeypatch, argv):
        # an exception outside the four classes is an internal error, not
        # exit 1, which is the code of a failed verify identity; both
        # commands reach the master series
        import ennola.multiplicities as mult

        def broken(ctx):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(mult.MasterContext, "psi", property(broken))
        rc, out, err = run(capsys, *argv, "--cache-dir", "")
        assert (rc, out) == (EXIT_INTERNAL, "")
        first, *trace = err.splitlines()
        assert first == "internal error: RuntimeError: stage broke"
        assert trace[0] == "Traceback (most recent call last):"
        assert trace[-1] == "RuntimeError: stage broke"

    def test_src_has_no_bare_assert(self):
        # every invariant raises AssertionError explicitly, so python -O,
        # which drops assert statements, keeps its checks and exit code
        import ast

        import ennola

        bare = [f"{path.name}:{node.lineno}"
                for path in sorted(Path(ennola.__file__).parent.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Assert)]
        assert bare == []

    def test_src_raises_value_error_only_in_input_checks(self):
        # main reads a ValueError as a refused input, exit 2: only the
        # functions that check what comes from outside the program raise
        # it, and a broken value inside it is an AssertionError, exit 4
        import ast

        import ennola

        checks = {"cli:_check_sizes", "cli:cmd_cache", "cli:cmd_pair", "coeffs:poly_from_json",
                  "multiplicities:MasterContext.__init__",
                  "multiplicities:MasterContext._check_degree",
                  "partitions:check_components", "partitions:check_partition",
                  "types:make_type"}

        def raisers(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from raisers(child, (*scope, child.name))
                    continue
                if isinstance(child, ast.Raise):
                    exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    if isinstance(exc, ast.Name) and exc.id == "ValueError":
                        yield ".".join(scope)
                yield from raisers(child, scope)

        found = {f"{path.stem}:{name}"
                 for path in Path(ennola.__file__).parent.glob("*.py")
                 for name in raisers(ast.parse(path.read_text(encoding="utf-8")), ())}
        assert sorted(found - checks) == []  # each other module:function that does
        assert found == checks  # and each input check still refuses


class TestCache:
    def test_build_then_reuse(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        rc, out, _ = run(capsys, "cache", "build", "--n", "2", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out.count("wrote ") == 2
        files = sorted(os.listdir(cache))
        assert files == ["psi_k3_n1.json", "psi_k3_n2.json"]
        before = {f: (Path(cache) / f).read_bytes() for f in files}
        rc2, out2, _ = run(capsys, "cache", "build", "--n", "2", "--cache-dir", cache)
        assert rc2 == EXIT_OK
        assert out2.count("kept ") == 2 and "wrote " not in out2
        after = {f: (Path(cache) / f).read_bytes() for f in files}
        assert before == after  # rebuilding is byte-idempotent

    def test_build_prints_the_entries_in_each_file(self, capsys, tmp_path):
        # the file holds one entry per sorted key, and so does the count
        cache = str(tmp_path / "c")
        for verb in ("wrote", "kept"):
            rc, out, _ = run(capsys, "cache", "build", "--n", "4", "--cache-dir", cache)
            assert rc == EXIT_OK
            lines = out.splitlines()
            assert [line.split(" (")[1] for line in lines] == [
                "1 entries)", "1 entries)", "2 entries)", "7 entries)"]
            for line in lines:
                assert line.startswith(verb + " ")
                path = line.split()[1]
                count = json.loads(Path(path).read_text())["count"]
                assert line.endswith(f"({count} entries)")

    def test_build_over_a_mixed_cache(self, capsys, tmp_path):
        # degree 1 usable, 2 refused, 3 and 4 missing
        def mixed(name):
            cache = str(tmp_path / name)
            assert run(capsys, "cache", "build", "--n", "2", "--cache-dir", cache)[0] == EXIT_OK
            (Path(cache) / "psi_k3_n2.json").write_text("{}")
            return cache

        cache = mixed("c")
        rc, out, err = run(capsys, "cache", "build", "--n", "4", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert [line.split()[0] for line in out.splitlines()] == ["kept", "wrote", "wrote", "wrote"]
        assert err.count("warning: ignoring") == 1
        argv = ("verify", "--n", "4", "--format", "json", "--cache-dir")
        rc, out, _ = run(capsys, *argv, mixed("fresh"))
        assert (rc, out) == run(capsys, *argv, "")[:2]

    @pytest.mark.parametrize("argv", [("build", "--n", "2"), ("clear",)],
                             ids=["build", "clear"])
    def test_no_directory_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        # "" means no cache to the other commands; cache has nothing to act on
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        rc, out, err = run(capsys, "cache", *argv, "--cache-dir", "")
        assert rc == EXIT_USAGE
        assert out == ""
        assert err == 'error: cache needs a directory; --cache-dir "" means no cache\n'
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run(capsys, "cache", "build", "--n", "1", "--cache-dir", cache)
        rc, out, _ = run(capsys, "cache", "clear", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert "removed 1" in out
        assert os.listdir(cache) == []

    def test_clear_scoped_to_k(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run(capsys, "cache", "build", "--n", "1", "--cache-dir", cache)
        run(capsys, "cache", "build", "--n", "1", "--k", "4", "--cache-dir", cache)
        rc, out, _ = run(capsys, "cache", "clear", "--k", "4", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert os.listdir(cache) == ["psi_k3_n1.json"]

    @pytest.mark.parametrize("args, removed", [
        (("--k", "3"), True), ((), True), (("--k", "4"), False), (("--k", "31"), False),
    ], ids=["k3", "every-k", "k4", "k31"])
    def test_clear_removes_a_killed_writers_temp_file(self, capsys, tmp_path, monkeypatch,
                                                      args, removed):
        # a writer killed between its temp file and the rename leaves the
        # temp file under the table's prefix, which clear finds for that k
        import ennola.multiplicities as mult

        cache = str(tmp_path / "c")
        with monkeypatch.context() as m:
            m.setattr(mult.os, "replace", lambda src, dst: None)
            mult.save_cache(cache, 3, 1, {})
        [tmp] = os.listdir(cache)
        assert tmp.startswith("psi_k3_n1.") and tmp.endswith(".tmp")
        rc, out, _ = run(capsys, "cache", "clear", *args, "--cache-dir", cache)
        assert (rc, out) == (EXIT_OK, f"removed {int(removed)} cache file(s) from {cache}\n")
        assert os.listdir(cache) == ([] if removed else [tmp])

    def test_build_requires_n(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "build", "--cache-dir", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert "the following arguments are required: --n" in capsys.readouterr().err

    def test_clear_takes_no_n(self, capsys, tmp_path):
        # clear removes every degree of one k, or of every k: an --n that
        # it would ignore is refused before anything is removed
        cache = str(tmp_path / "c")
        run(capsys, "cache", "build", "--n", "3", "--cache-dir", cache)
        with pytest.raises(SystemExit) as exc:
            main(["cache", "clear", "--n", "3", "--cache-dir", cache])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --n 3" in captured.err
        assert sorted(os.listdir(cache)) == [f"psi_k3_n{n}.json" for n in (1, 2, 3)]

    def test_clear_of_a_regular_file_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc, out, err = run(capsys, "cache", "clear", "--cache-dir", str(blocker))
        assert (rc, out) == (EXIT_IO, "")
        assert err.startswith("error: ") and "Not a directory" in err
        assert blocker.read_text() == ""

    def test_clear_of_a_missing_directory_removes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "missing"
        rc, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(cache))
        assert (rc, out) == (EXIT_OK, f"removed 0 cache file(s) from {cache}\n")
        assert not cache.exists()

    @pytest.mark.parametrize("action", [("build", "--n", "1"), ("clear",)], ids=["build", "clear"])
    def test_empty_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch, action):
        # "" means "no cache" for pair, table and verify; cache build and
        # clear must not fall back to the user's default cache directory
        xdg = tmp_path / "xdg"
        kept = xdg / "ennola" / "psi_k3_n1.json"
        kept.parent.mkdir(parents=True)
        kept.write_text("{}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        rc, out, err = run(capsys, "cache", *action, "--cache-dir", "")
        assert rc == EXIT_USAGE
        assert out == "" and '--cache-dir ""' in err
        assert sorted(p.name for p in xdg.rglob("*")) == ["ennola", "psi_k3_n1.json"]
        assert kept.read_text() == "{}"

    def test_relative_xdg_cache_home_is_ignored(self, capsys, tmp_path, monkeypatch):
        # the XDG Base Directory spec calls a relative XDG_CACHE_HOME invalid:
        # the default is then ~/.cache/ennola, not a directory under the
        # working directory
        cwd, home = tmp_path / "cwd", tmp_path / "home"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", "rel")
        argv = ("table", "--which", "V", "--n", "2")
        want = run(capsys, *argv, "--cache-dir", "")
        assert run(capsys, *argv) == want
        assert list(cwd.iterdir()) == []
        assert [p.name for p in (home / ".cache" / "ennola").iterdir()] == ["psi_k3_n2.json"]

    def test_cold_build_writes_each_table_once(self, capsys, tmp_path, monkeypatch):
        import ennola.multiplicities as mult

        calls = []
        real = mult.save_cache

        def counted(cache_dir, k, n, table):
            calls.append((k, n))
            return real(cache_dir, k, n, table)

        monkeypatch.setattr(mult, "save_cache", counted)
        cache = str(tmp_path / "c")
        rc, out, _ = run(capsys, "cache", "build", "--n", "3", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out.count("wrote ") == 3
        assert calls == [(3, 1), (3, 2), (3, 3)]

    def test_unwritable_cache_dir_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc, _, err = run(
            capsys, "cache", "build", "--n", "1",
            "--cache-dir", str(blocker / "nested"),
        )
        assert rc == EXIT_IO
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("table", "--which", "Vprime", "--n", "3"),
        ("table", "--which", "V", "--n", "2"),
    ], ids=["table-Vprime", "table"])
    def test_failed_cache_write_warns_once(self, capsys, tmp_path, argv):
        # a regular file as the cache directory: the answer and the exit
        # code are those of a run without a cache, plus one warning
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc, out, err = run(capsys, *argv, "--cache-dir", str(blocker))
        assert (rc, out) == run(capsys, *argv, "--cache-dir", "")[:2]
        assert err.startswith("warning: cache not written: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("which,expected", [("U", "q + 1"), ("V", "q")])
    def test_cache_missing_an_entry_is_ignored(self, capsys, tmp_path, which, expected):
        # a well-formed cache file with one entry dropped must not change
        # the answer: it is ignored with a warning and recomputed
        from ennola.multiplicities import cache_path

        cache = str(tmp_path / "c")
        run(capsys, "cache", "build", "--n", "3", "--cache-dir", cache)
        path = cache_path(cache, 3, 3)
        payload = json.loads(Path(path).read_text())
        kept = [e for e in payload["entries"] if e["mu"] != ["1^3"] * 3]
        assert len(kept) == len(payload["entries"]) - 1
        payload["entries"] = kept
        Path(path).write_text(json.dumps(payload))
        rc, out, err = run(capsys, "table", "--which", which, "--n", "3", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "(1,1,1), (1,1,1), (1,1,1) → " + expected
        assert f"ignoring incompatible cache file {path}" in err

    @pytest.mark.parametrize("edited", [["1^3", "1^3", "2.1"], ["1^3", "2.1", "1^3"]])
    @pytest.mark.parametrize("which", ["V", "Vprime", "U", "T"])
    def test_orbit_members_that_disagree_are_ignored(self, capsys, tmp_path, edited, which):
        # the file holds one entry per sorted key; a second entry of the
        # same orbit, at the sorted key (a repeat) or at another ordering
        # (an unsorted key), under a valid count and digest makes the file
        # ignored, and the answer is the one computed with no cache
        import ennola.multiplicities as mult

        argv = ("table", "--which", which, "--n", "3")
        rc, want, _ = run(capsys, *argv, "--cache-dir", "")
        assert rc == EXIT_OK
        cache = str(tmp_path / "c")
        run(capsys, "cache", "build", "--n", "3", "--cache-dir", cache)
        path = mult.cache_path(cache, 3, 3)
        payload = json.loads(Path(path).read_text())
        hits = [e for e in payload["entries"] if sorted(e["mu"]) == sorted(edited)]
        assert [e["mu"] for e in hits] == [["1^3", "1^3", "2.1"]]
        assert hits[0]["poly"] == [["1", 0, 0]]
        payload["entries"].append({"mu": edited, "poly": [["5", 0, 0]]})
        payload["count"] = len(payload["entries"])
        payload["sha256"] = mult._entries_digest(payload["entries"])
        Path(path).write_text(json.dumps(payload))
        rc, out, err = run(capsys, *argv, "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out == want
        assert f"ignoring incompatible cache file {path}" in err

    @pytest.mark.parametrize("field,value,queries", [
        # each passed the count and digest checks and reached parse_partition
        # or PolyQU unchecked
        ("mu", [2, 2, 2], ["V"]),
        ("qdeg", -1, ["V", "T"]),
        ("qdeg", 1.5, ["V"]),
        ("qdeg", True, ["V"]),
        ("mu", ["1,1", "1,1", "1,1"], ["V"]),
    ], ids=["int-partition-text", "negative-exponent", "float-exponent", "bool-exponent",
            "comma-partition-text"])
    def test_malformed_field_is_ignored(self, capsys, tmp_path, field, value, queries):
        # one entry's field replaced under a rewritten digest: the file is
        # ignored with one warning, and each answer is the no-cache one; a
        # query is the table of one family at the file's degree
        import ennola.multiplicities as mult

        n = 2 if field == "mu" else 3
        for which in queries:
            argv = ("table", "--which", which, "--n", str(n))
            rc, want, _ = run(capsys, *argv, "--cache-dir", "")
            assert rc == EXIT_OK
            cache = str(tmp_path / which)
            run(capsys, "cache", "build", "--n", str(n), "--cache-dir", cache)
            path = mult.cache_path(cache, 3, n)
            payload = json.loads(Path(path).read_text())
            entry = next(e for e in payload["entries"] if e["mu"] == ["1^%d" % n] * 3)
            if field == "mu":
                entry["mu"] = value
            else:
                entry["poly"][0][1] = value
            payload["sha256"] = mult._entries_digest(payload["entries"])
            Path(path).write_text(json.dumps(payload))
            rc, out, err = run(capsys, *argv, "--cache-dir", cache)
            assert (rc, out) == (EXIT_OK, want)
            assert err == f"warning: ignoring incompatible cache file {path}; recomputing\n"

    def test_v2_fixture_is_ignored(self, capsys, tmp_path):
        # the committed version-2 files, every ordering of each key: the
        # no-cache answer and one warning per file (the cold master series
        # tries every degree), and a V table rewrites only its own degree
        import shutil

        cache = tmp_path / "c"
        shutil.copytree(DATA / "cache_v2", cache)
        argv = ("table", "--which", "V", "--n", "2")
        want = run(capsys, *argv, "--cache-dir", "")
        rc, out, err = run(capsys, *argv, "--cache-dir", str(cache))
        assert (rc, out) == want[:2]
        assert err.splitlines() == [f"warning: ignoring incompatible cache file "
                                    f"{cache / name}; recomputing"
                                    for name in ("psi_k3_n2.json", "psi_k3_n1.json")]
        assert json.loads((cache / "psi_k3_n2.json").read_text())["version"] == 3
        assert json.loads((cache / "psi_k3_n1.json").read_text())["version"] == 2

    def test_only_v_queries_verify_and_build_write(self, capsys, tmp_path):
        # psi_schur alone saves: a V or V' table writes its own degree,
        # cache build every degree, T, U and U' tables none, and `pair`
        # and verify none, since both read V off the class-type sum
        every = ["psi_k3_n1.json", "psi_k3_n2.json", "psi_k3_n3.json"]
        runs = [
            (("table", "--which", "T", "--n", "3"), []),
            (("table", "--which", "U", "--n", "3"), []),
            (("table", "--which", "Uprime", "--n", "3"), []),
            (("pair", "--which", "V", "--mu", "2.1,2.1,1^3"), []),
            (("table", "--which", "Vprime", "--n", "3"), ["psi_k3_n3.json"]),
            (("table", "--which", "Vprime", "--n", "2"), ["psi_k3_n2.json"]),
            (("table", "--which", "V", "--n", "3"), ["psi_k3_n3.json"]),
            (("verify", "--n", "3"), []),
            (("cache", "build", "--n", "3"), every),
        ]
        for i, (argv, files) in enumerate(runs):
            cache = tmp_path / str(i)
            assert run(capsys, *argv, "--cache-dir", str(cache))[0] == EXIT_OK
            assert (sorted(os.listdir(cache)) if cache.exists() else []) == files, argv

    @pytest.mark.parametrize("literal", [
        ("--mu", "2.1,2.1,1^3"),
        ("--type", "1:1.1;2:1,1:1^4,3:1;1:1"),
    ], ids=["mu", "type"])
    def test_pair_creates_no_cache(self, capsys, tmp_path, literal):
        # the class-type sum reads and writes no cache: a fresh directory
        # stays uncreated, for every family that takes the literal
        cache = tmp_path / "c"
        families = [w for w in WHICH_CHOICES if literal[0] == "--mu" or w in ("V", "Vprime")]
        for which in families:
            assert run(capsys, "pair", "--which", which, *literal,
                       "--cache-dir", str(cache))[0] == EXIT_OK, which
            assert not cache.exists(), which

    def test_nesting_too_deep_to_decode_is_ignored(self, capsys, tmp_path):
        # the decoder raises RecursionError, not ValueError, on 200,000
        # nested arrays: the file is ignored like any other bad file
        from ennola.multiplicities import cache_path

        argv = ("table", "--which", "V", "--n", "1")
        want = run(capsys, *argv, "--cache-dir", "")
        cache = str(tmp_path / "c")
        os.makedirs(cache)
        path = cache_path(cache, 3, 1)
        Path(path).write_text("[" * 200_000)
        rc, out, err = run(capsys, *argv, "--cache-dir", cache)
        assert (rc, out) == want[:2] == (EXIT_OK, "(1), (1), (1) → 1\n")
        assert err == f"warning: ignoring incompatible cache file {path}; recomputing\n"

    def test_corrupt_cache_warns_and_recomputes(self, capsys, tmp_path):
        from ennola.multiplicities import cache_path

        cache = str(tmp_path / "c")
        os.makedirs(cache)
        with open(cache_path(cache, 3, 2), "w") as fh:
            fh.write('{"version": -99}')
        rc, out, err = run(capsys, "table", "--which", "V", "--n", "2", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out.strip()  # answer still produced
        assert "ignoring incompatible cache file" in err


class TestHelp:
    """The --k help of each command says what the command does without
    --k: cache clear removes every k.  pair has no --k; it reads k from
    its literal."""

    @pytest.mark.parametrize("command, k_help", [
        (("cache", "build"), "number of tensor factors (default 3)"),
        (("cache", "clear"), "number of tensor factors (default: every k)"),
        (("table",), "number of tensor factors (default 3)"),
        (("verify",), "number of tensor factors (default 3)"),
    ], ids=["cache-build", "cache-clear", "table", "verify"])
    def test_k_help(self, capsys, monkeypatch, command, k_help):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per option
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith("--k K"))
        assert line.split("--k K", 1)[1].strip() == k_help

    def test_pair_reads_k_from_the_literal(self, capsys):
        rc, out, _ = run(capsys, "pair", "--which", "kron", "--mu", "1,1,1,1")
        assert (rc, out) == (EXIT_OK, "1\n")

    def test_clear_without_k_removes_every_k(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        for k in ("3", "4"):
            run(capsys, "cache", "build", "--n", "1", "--k", k, "--cache-dir", cache)
        rc, out, _ = run(capsys, "cache", "clear", "--cache-dir", cache)
        assert rc == EXIT_OK
        assert "removed 2" in out
        assert os.listdir(cache) == []


class TestRegressionPins:
    """SHA-256 of whole CLI outputs as the code printed them when the pins
    were taken, trailing newline included, computed with no cache.  These
    are regression pins, not paper goldens: they guard T tables that no
    reference file covers (degree 6; k = 4 at degree 5; k = 2 at degree 9,
    where the log of the kernel has empty pieces), the JSON verify
    reports at (k, n) = (3, 4) and (4, 3), whose case counts and
    failure texts must not move, and the csv Kronecker table at degree
    9, where every row sums character values and prints its labels, 1^9
    among them, in the dot form."""

    @pytest.mark.parametrize("args,digest", [
        (("--n", "6"), "cc99daf022be7cb4783259ee087b5a59cbf7b571aa28c8f3613db9dd82462b09"),
        (("--k", "4", "--n", "5"),
         "7ee08f705c45f065e31ddfc8e0cafa403014d1d0a488a04a3bf0da85ae9d89f8"),
        (("--k", "2", "--n", "9"),
         "4ad01442fdfea9c704b460397a061d7fb46181d46aa80b623c2ff8a9e41ca151"),
    ], ids=["k3-n6", "k4-n5", "k2-n9"])
    def test_t_table_digest(self, capsys, args, digest):
        import hashlib

        rc, out, _ = run(capsys, "table", "--which", "T", *args,
                         "--format", "json", "--cache-dir", "")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (("--n", "4"), "ae6e3c2067da9568da91d09a07572e3a4ebf20a4e3252906e0e1531d8a2e3d8d"),
        (("--k", "4", "--n", "3"),
         "410c2d505930c0a77be2bcb7278126bc24d333e06f6827709e0bb85cf252c21f"),
    ], ids=["n4", "k4-n3"])
    def test_verify_report_digest(self, capsys, args, digest):
        import hashlib

        rc, out, _ = run(capsys, "verify", *args, "--format", "json", "--cache-dir", "")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (("--n", "9"), "5b80110ef2d9dd5f25ff79bff1f70287d9e9a48a313a3587b8ecf0b7dd54955a"),
    ], ids=["k3-n9"])
    def test_kron_table_digest(self, capsys, args, digest):
        import hashlib

        rc, out, _ = run(capsys, "table", "--which", "kron", *args,
                         "--format", "csv", "--cache-dir", "")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestStartupImports:
    """Start-up is most of a small query's cost, so the command line loads
    no module that the answer does not need: the modules a child
    interpreter holds after the CLI queries below, minus those it holds
    after `python -c pass` (site may preload some, typing among them),
    include none of the heavy standard modules that dataclasses and
    fractions would pull in; the Kronecker queries, --help and usage
    errors load none of the pipeline's modules; and `pair`, which takes
    the class-type sum, loads exactly the modules of that sum, at a
    `--mu` and a `--type` literal alike: none of the k-fold tables'
    modules."""

    HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "typing"}

    QUERIES = [
        *(["pair", "--which", w, "--mu", "2.1,2.1,1^3"]
          for w in ("V", "Vprime", "U", "Uprime", "T", "kron")),
        ["pair", "--which", "V", "--type", "2:1,2:1,2:1"],
        ["table", "--which", "V", "--n", "3", "--format", "tex"],
        ["verify", "--n", "3"],
        ["verify", "--k", "4", "--n", "2"],
        ["cache", "build", "--n", "2"],
    ]

    PIPELINE = {"ennola.multiplicities", "ennola.symfunc", "ennola.types"}

    NO_PIPELINE_QUERIES = [
        ["pair", "--which", "kron", "--mu", "2.1,2.1,1^3"],
        ["table", "--which", "kron", "--n", "3"],
        ["pair", "--which", "V", "--mu", "2.1,2"],
        ["pair", "--which", "V", "--mu", "1,1,1", "--type", "1:1,1:1,1:1"],
        ["--help"],
    ]

    CHILD = """
import json, sys
import ennola.cli

def code(argv):
    try:
        return ennola.cli.main(argv)
    except SystemExit as exc:
        return exc.code

queries, cache = json.loads(sys.argv[1]), sys.argv[2]
print([code(q + ["--cache-dir", cache]) for q in queries])
print(" ".join(sys.modules))
"""

    def test_cli_loads_no_heavy_module(self, tmp_path):
        base = set(_child("import sys; print(' '.join(sys.modules))")[-1].split())
        *_, codes, modules = _child(self.CHILD, json.dumps(self.QUERIES),
                                         str(tmp_path / "cache"))
        assert codes == str([EXIT_OK] * len(self.QUERIES))
        loaded = set(modules.split()) - base
        assert "ennola.multiplicities" in loaded
        assert not loaded & self.HEAVY, sorted(loaded & self.HEAVY)

    PAIR = {"ennola", "ennola.cli", "ennola.coeffs", "ennola.partitions", "ennola.types"}

    @staticmethod
    def _ennola_modules(modules: str) -> set:
        return {m for m in modules.split() if m.partition(".")[0] == "ennola"}

    def test_pair_mu_loads_only_the_class_type_sum(self, tmp_path):
        cache = tmp_path / "cache"
        queries = [["pair", "--which", w, "--mu", "2.1,2.1,1^3"]
                   for w in ("V", "Vprime", "U", "Uprime", "T")]
        *_, codes, modules = _child(self.CHILD, json.dumps(queries), str(cache))
        assert codes == str([EXIT_OK] * len(queries))
        assert self._ennola_modules(modules) == self.PAIR
        assert not cache.exists()

    def test_pair_type_loads_only_the_class_type_sum(self, tmp_path):
        cache = tmp_path / "cache"
        queries = [["pair", "--which", w, "--type", "1:1.1;2:1,1:1^4,3:1;1:1"]
                   for w in ("V", "Vprime")]
        *_, codes, modules = _child(self.CHILD, json.dumps(queries), str(cache))
        assert codes == str([EXIT_OK] * len(queries))
        assert self._ennola_modules(modules) == self.PAIR
        assert not cache.exists()

    def test_kron_and_usage_errors_load_no_pipeline(self, tmp_path):
        cache = tmp_path / "cache"
        *_, codes, modules = _child(self.CHILD, json.dumps(self.NO_PIPELINE_QUERIES),
                                         str(cache))
        assert codes == str([EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK])
        loaded = set(modules.split())
        assert self._ennola_modules(modules) == {"ennola", "ennola.cli", "ennola.coeffs",
                                                 "ennola.partitions"}
        assert not loaded & self.PIPELINE, sorted(loaded & self.PIPELINE)
        assert not cache.exists()


class TestProcessEntry:
    """`cli.run`, the process entry, runs `main()` with the cyclic garbage
    collector off and freezes the heap before exit.  That is sound only
    while the pipeline makes no reference cycles, which the first test
    checks; `main(argv)` itself leaves the collector alone."""

    def test_pipeline_makes_no_cycles(self, tmp_path):
        from oracles import T_poly_product_oracle
        from ennola.multiplicities import (
            Uprime_poly_product_oracle,
            V_poly,
            build_context,
            load_cache,
            save_cache,
            verify_suite,
        )
        from ennola.types import parse_multitype

        def pipeline(cache: str) -> None:
            for k, n in ((3, 5), (4, 4)):
                ctx = build_context(k, n, cache)
                ctx.tau_schur(n)
                table = ctx.psi_schur(n)
                T_poly_product_oracle(ctx)
                Uprime_poly_product_oracle(ctx)
                assert verify_suite(ctx).ok
                save_cache(cache + "-copy", k, n, table)
                assert load_cache(cache + "-copy", k, n) == table
            V_poly(build_context(3, 4, cache), parse_multitype("1:1.1;2:1,1:1^4,3:1;1:1"))

        pipeline(str(tmp_path / "warm-up"))  # one-time cycles: imports, caches
        gc.collect()
        gc.disable()
        try:
            pipeline(str(tmp_path / "measured"))
            assert gc.collect() == 0
        finally:
            gc.enable()

    QUERIES = [
        ["table", "--which", "V", "--n", "3", "--cache-dir", ""],
        ["pair", "--which", "V", "--mu", "2.1,2", "--cache-dir", ""],
        ["pair", "--which", "X", "--mu", "1,1,1"],
        ["--help"],
    ]

    CHILD = """
import contextlib, gc, io, json, runpy, sys
import ennola.multiplicities as m

states = []
build = m.build_context

def spy(*args):
    states.append(gc.isenabled())
    return build(*args)

m.build_context = spy

def entry(argv):
    gc.enable()
    sys.argv = ["ennola", *argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runpy.run_module("ennola.cli", run_name="__main__")
    except SystemExit as exc:
        return [exc.code, out.getvalue(), err.getvalue()]

print(json.dumps([[entry(q) for q in json.loads(sys.argv[1])], states]))
"""

    def test_entry_runs_without_collector_and_answers_as_main(self, capsys, monkeypatch):
        results, states = json.loads(_child(self.CHILD, json.dumps(self.QUERIES))[-1])
        assert states == [False]  # the one query that reaches the pipeline

        monkeypatch.setenv("COLUMNS", "80")
        expected = []
        for argv in self.QUERIES:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            expected.append([code, *capsys.readouterr()])
        assert [r[0] for r in expected] == [EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK]
        assert results == expected

    def test_console_script_is_the_entry(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert 'ennola = "ennola.cli:run"' in pyproject.read_text(encoding="utf-8")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_alone(self, capsys, enabled):
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["pair", "--which", "T", "--mu", "2.1,2.1,1^3",
                         "--cache-dir", ""]) == EXIT_OK
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            gc.enable()


class TestEveryFunctionRuns:
    """src/ holds what the commands run: a child interpreter runs every
    family and format of `pair` and `table` at n <= 3, the `--type`
    queries, `verify`, `cache build`, a warm T `table`, `cache clear` and a
    usage error, all under sys.setprofile, and every module-level function
    and non-dunder method of the package is entered, save the ones below.
    A helper that only the tests call belongs in tests/oracles.py."""

    NOT_RUN = {
        "cli.run": "the process entry, which TestProcessEntry runs",
        "multiplicities.U_poly_product_oracle":
            "perfbench wraps it; it leaves when perfbench reads a trace (ROADMAP item 1b)",
        "multiplicities.transformed_hl":
            "perfbench wraps it; it leaves when perfbench reads a trace (ROADMAP item 1b)",
    }

    CHILD = """
import contextlib, importlib, io, json, os, pkgutil, sys, types
import ennola.cli

queries = json.loads(sys.argv[1])
os.environ["XDG_CACHE_HOME"] = sys.argv[2]  # the default cache directory
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

codes = []
sys.setprofile(profile)
for argv in queries:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(ennola.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)

def functions(owner):
    for name, obj in vars(owner).items():
        for fn in (obj.fget, obj.fset) if isinstance(obj, property) else (obj,):
            fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
            fn = getattr(fn, "__wrapped__", fn)  # lru_cache
            if isinstance(fn, types.FunctionType):
                yield name, fn

missed = []
for info in pkgutil.iter_modules(ennola.__path__):
    module = importlib.import_module("ennola." + info.name)
    for name, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            missed += [f"{info.name}.{name}.{attr}" for attr, fn in functions(obj)
                       if not (attr.startswith("__") and attr.endswith("__"))
                       and fn.__code__ not in entered]
    missed += [f"{info.name}.{name}" for name, fn in functions(module)
               if fn.__module__ == module.__name__ and fn.__code__ not in entered]
print(json.dumps([codes, sorted(missed)]))
"""

    def queries(self) -> list[list[str]]:
        mu, mt = "2.1,2.1,1^3", "1:1.1;2:1,1:1^4,3:1;1:1"
        formats = ("text", "json", "csv", "tex")
        return [
            *(["pair", "--which", w, "--mu", mu, "--format", f]
              for w in WHICH_CHOICES for f in formats),
            *(["table", "--which", w, "--n", str(n), "--format", f]
              for w in WHICH_CHOICES for n in (1, 2, 3) for f in formats),
            *(["pair", "--which", w, "--type", mt, "--format", f]
              for w in ("V", "Vprime") for f in formats),
            *(["verify", "--n", "3", "--format", f] for f in ("text", "json")),
            ["cache", "build", "--n", "3"],
            ["table", "--which", "T", "--n", "3"],
            ["cache", "clear"],
            ["pair", "--which", "V", "--mu", "2.1,2.x,1^3"],
        ]

    def test_every_function_is_entered(self, tmp_path):
        queries = self.queries()
        codes, missed = json.loads(_child(self.CHILD, json.dumps(queries), str(tmp_path))[-1])
        assert codes == [EXIT_OK] * (len(queries) - 1) + [EXIT_USAGE]
        assert missed == sorted(self.NOT_RUN)
