"""Command-line interface: output formats, exit codes, cache behavior, and
byte-exact agreement with the frozen reference tables."""

from __future__ import annotations

import json
import os
import subprocess
import sys
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

DATA = Path(__file__).parent / "data"


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

    def test_k_mismatch(self, capsys, cache_dir):
        rc, _, err = run(
            capsys, "pair", "--which", "kron", "--mu", "2.1,2.1,2.1",
            "--k", "4", "--cache-dir", cache_dir,
        )
        assert rc == EXIT_USAGE
        assert "does not match" in err

    def test_type_only_for_generic(self, capsys, cache_dir):
        rc, _, err = run(
            capsys, "pair", "--which", "U", "--type", "1:1,1:1,1:1",
            "--cache-dir", cache_dir,
        )
        assert rc == EXIT_USAGE
        assert "only valid" in err

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
        (("pair", "--which", "kron", "--mu", "2.1,2.1,2.1", "--k", "0"), "k", 0),
        (("verify", "--n", "0"), "n", 0),
        (("verify", "--n", "2", "--k", "0"), "k", 0),
        (("cache", "build", "--n", "0"), "n", 0),
        (("cache", "clear", "--k", "0"), "k", 0),
    ])
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
        assert err == "error: --mu must have size at least 1, got 0\n"
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
        assert "5 identity families, 0 failures" in out
        assert out.count("ok ") == 5

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
        # nonzero exit with a counterexample in the report
        import ennola.multiplicities as mult

        real = mult.Uprime_poly
        monkeypatch.setattr(
            mult, "Uprime_poly", lambda ctx, mu: real(ctx, mu).scale(-1) + mult.ONE
        )
        rc, out, _ = run(capsys, "verify", "--n", "2", "--cache-dir", cache_dir)
        assert rc == EXIT_VERIFY
        assert "FAIL" in out
        assert "failures" in out.splitlines()[-1]
        assert "0 failures" not in out.splitlines()[-1]

    def test_detects_seeded_t_oracle_fault(self, capsys, cache_dir, monkeypatch):
        import ennola.multiplicities as mult

        real = mult.T_poly_product_oracle

        def corrupted(k, N, ctx=None):
            table = real(k, N, ctx)
            key = min(table)
            table[key] = table[key] + mult.U
            return table

        monkeypatch.setattr(mult, "T_poly_product_oracle", corrupted)
        rc, out, _ = run(capsys, "verify", "--n", "2", "--cache-dir", cache_dir)
        assert rc == EXIT_VERIFY
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL tau-matches-u-deformed-product"
        ]
        assert "tau != u-deformed product" in out

    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "1", "--format", "csv"),
        ("verify", "--n", "1", "--format", "tex"),
        ("cache", "build", "--n", "1", "--format", "tex"),
        ("cache", "clear", "--format", "json"),
    ])
    def test_format_a_subcommand_does_not_read_is_rejected(self, capsys, tmp_path, argv):
        # verify prints text or json only, and cache prints no table
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(cache)])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not cache.exists()


class TestInternalErrors:
    @pytest.mark.parametrize("which,fault,message", [
        ("V", "omega", "internal error: not a polynomial"),
        ("T", "exp_u_psi", "internal error: coefficient of"),
    ])
    def test_broken_invariant_exits_internal(
        self, capsys, tmp_path, monkeypatch, which, fault, message
    ):
        # failure injection: a kernel with a spurious 1/(q + 1) does not
        # divide over the closed-form denominator of its logarithm; dropping
        # the factor u from Exp(u Psi) breaks the divisibility that T
        # relies on
        import ennola.multiplicities as mult
        from ennola.coeffs import ONE, Q

        if fault == "omega":
            real = mult._build_omega

            def skewed(k, N):
                omega = real(k, N)
                omega.coeffs[1] = omega.coeffs[1].divide(Q + ONE)
                return omega

            monkeypatch.setattr(mult, "_build_omega", skewed)
        else:
            monkeypatch.setattr(mult.MasterContext, "exp_u_psi",
                                property(lambda ctx: ctx.psi.pleth_exp()))
        rc, out, err = run(
            capsys, "pair", "--which", which, "--mu", "1,1,1",
            "--cache-dir", str(tmp_path / "c"),
        )
        assert rc == EXIT_INTERNAL
        assert out == ""
        assert err.startswith(message)


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

    def test_build_requires_n(self, capsys, tmp_path):
        rc, _, err = run(capsys, "cache", "build", "--cache-dir", str(tmp_path))
        assert rc == EXIT_USAGE
        assert "--n is required" in err

    @pytest.mark.parametrize("action", [("build", "--n", "1"), ("clear",)])
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

    def test_cold_build_writes_each_table_once(self, capsys, tmp_path, monkeypatch):
        import ennola.cli as cli
        import ennola.multiplicities as mult

        calls = []
        real = mult.save_cache

        def counted(cache_dir, k, n, table):
            calls.append((k, n))
            return real(cache_dir, k, n, table)

        monkeypatch.setattr(mult, "save_cache", counted)
        monkeypatch.setattr(cli, "save_cache", counted, raising=False)
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
        ("pair", "--which", "V", "--mu", "2.1,2.1,2.1"),
        ("table", "--which", "V", "--n", "2"),
        ("verify", "--n", "2"),
    ])
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
        rc, out, err = run(
            capsys, "pair", "--which", which, "--mu", "1^3,1^3,1^3",
            "--cache-dir", cache,
        )
        assert rc == EXIT_OK
        assert out == expected + "\n"
        assert f"ignoring incompatible cache file {path}" in err

    @pytest.mark.parametrize("edited", [["1^3", "1^3", "2.1"], ["1^3", "2.1", "1^3"]])
    @pytest.mark.parametrize("which", ["V", "Vprime", "U", "T"])
    def test_orbit_members_that_disagree_are_ignored(self, capsys, tmp_path, edited, which):
        # the file holds one entry per sorted key; a second entry of the
        # same orbit, at the sorted key (a repeat) or at another ordering
        # (an unsorted key), under a valid count and digest makes the file
        # ignored, and the answer is the one computed with no cache
        import ennola.multiplicities as mult

        mu = "2.1,1^3,1^3"
        rc, want, _ = run(capsys, "pair", "--which", which, "--mu", mu, "--cache-dir", "")
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
        rc, out, err = run(capsys, "pair", "--which", which, "--mu", mu, "--cache-dir", cache)
        assert rc == EXIT_OK
        assert out == want
        assert f"ignoring incompatible cache file {path}" in err

    @pytest.mark.parametrize("field,value,queries", [
        # each passed the count and digest checks and reached parse_partition
        # or PolyQU unchecked
        ("mu", [2, 2, 2], [("V", "2,2,2")]),
        ("qdeg", -1, [("V", "1^3,1^3,1^3"), ("T", "2.1,2.1,1^3")]),
        ("qdeg", 1.5, [("V", "1^3,1^3,1^3")]),
        ("qdeg", True, [("V", "1^3,1^3,1^3")]),
    ], ids=["int-partition-text", "negative-exponent", "float-exponent", "bool-exponent"])
    def test_malformed_field_is_ignored(self, capsys, tmp_path, field, value, queries):
        # one entry's field replaced under a rewritten digest: the file is
        # ignored with one warning, and each answer is the no-cache one
        import ennola.multiplicities as mult

        for which, mu in queries:
            rc, want, _ = run(capsys, "pair", "--which", which, "--mu", mu, "--cache-dir", "")
            assert rc == EXIT_OK
            cache = str(tmp_path / which)
            n = 2 if field == "mu" else 3
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
            rc, out, err = run(capsys, "pair", "--which", which, "--mu", mu, "--cache-dir", cache)
            assert (rc, out) == (EXIT_OK, want)
            assert err == f"warning: ignoring incompatible cache file {path}; recomputing\n"

    def test_v2_fixture_is_ignored(self, capsys, tmp_path):
        # the committed version-2 files, every ordering of each key: the
        # no-cache answer and one warning per file (the cold master series
        # tries every degree), and a V query rewrites only its own degree
        import shutil

        cache = tmp_path / "c"
        shutil.copytree(DATA / "cache_v2", cache)
        want = run(capsys, "pair", "--which", "V", "--mu", "1^2,1^2,1^2", "--cache-dir", "")
        rc, out, err = run(capsys, "pair", "--which", "V", "--mu", "1^2,1^2,1^2",
                           "--cache-dir", str(cache))
        assert (rc, out) == want[:2]
        assert err.splitlines() == [f"warning: ignoring incompatible cache file "
                                    f"{cache / name}; recomputing"
                                    for name in ("psi_k3_n2.json", "psi_k3_n1.json")]
        assert json.loads((cache / "psi_k3_n2.json").read_text())["version"] == 3
        assert json.loads((cache / "psi_k3_n1.json").read_text())["version"] == 2

    def test_only_v_queries_verify_and_build_write(self, capsys, tmp_path):
        # psi_schur alone saves: a V or V' query writes its own degree,
        # verify and cache build every degree, and T, U, U' none
        every = ["psi_k3_n1.json", "psi_k3_n2.json", "psi_k3_n3.json"]
        runs = [
            (("table", "--which", "T", "--n", "3"), []),
            (("pair", "--which", "U", "--mu", "2.1,2.1,1^3"), []),
            (("pair", "--which", "Uprime", "--mu", "2.1,2.1,1^3"), []),
            (("pair", "--which", "V", "--mu", "2.1,2.1,1^3"), ["psi_k3_n3.json"]),
            (("pair", "--which", "Vprime", "--type", "2:1,2:1,2:1"), ["psi_k3_n2.json"]),
            (("table", "--which", "V", "--n", "3"), ["psi_k3_n3.json"]),
            (("verify", "--n", "3"), every),
            (("cache", "build", "--n", "3"), every),
        ]
        for i, (argv, files) in enumerate(runs):
            cache = tmp_path / str(i)
            assert run(capsys, *argv, "--cache-dir", str(cache))[0] == EXIT_OK
            assert (sorted(os.listdir(cache)) if cache.exists() else []) == files, argv

    def test_corrupt_cache_warns_and_recomputes(self, capsys, tmp_path):
        from ennola.multiplicities import cache_path

        cache = str(tmp_path / "c")
        os.makedirs(cache)
        with open(cache_path(cache, 3, 2), "w") as fh:
            fh.write('{"version": -99}')
        rc, out, err = run(
            capsys, "pair", "--which", "V", "--mu", "1^2,1^2,2",
            "--cache-dir", cache,
        )
        assert rc == EXIT_OK
        assert out.strip()  # answer still produced
        assert "ignoring incompatible cache file" in err


class TestRegressionPins:
    """SHA-256 of whole CLI outputs as the code printed them when the pins
    were taken, trailing newline included, computed with no cache.  These
    are regression pins, not paper goldens: they guard the degree-6 T table
    and the k = 4, degree-5 T table, which no reference file covers, and
    the JSON verify reports at (k, n) = (3, 4) and (4, 3), whose case
    counts, failure texts and audits must not move."""

    @pytest.mark.parametrize("args,digest", [
        (("--n", "6"), "cc99daf022be7cb4783259ee087b5a59cbf7b571aa28c8f3613db9dd82462b09"),
        (("--k", "4", "--n", "5"),
         "7ee08f705c45f065e31ddfc8e0cafa403014d1d0a488a04a3bf0da85ae9d89f8"),
    ])
    def test_t_table_digest(self, capsys, args, digest):
        import hashlib

        rc, out, _ = run(capsys, "table", "--which", "T", *args,
                         "--format", "json", "--cache-dir", "")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (("--n", "4"), "c3beeb4f12117cacbc084dea14055215e5de44432afce1848dbc8edbd74466d2"),
        (("--k", "4", "--n", "3"),
         "c2a7d6ec82a5657cfcc16654e3c572ba11a9058d9d93c0ae0b6c17299995ecc6"),
    ], ids=["n4", "k4-n3"])
    def test_verify_report_digest(self, capsys, args, digest):
        import hashlib

        rc, out, _ = run(capsys, "verify", *args, "--format", "json", "--cache-dir", "")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestStartupImports:
    """Start-up is most of a small query's cost, so the command line loads
    no module that the answer does not need: the modules a child
    interpreter holds after the CLI queries below, minus those it holds
    after `python -c pass` (site may preload some, typing among them),
    include none of the heavy standard modules that dataclasses and
    fractions would pull in; and the Kronecker queries, --help and usage
    errors load none of the pipeline's modules."""

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

    PIPELINE = {"ennola.multiplicities", "ennola.symfunc", "ennola.hall_littlewood",
                "ennola.types"}

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

    def _child(self, code: str, *args: str) -> list[str]:
        import ennola

        env = dict(os.environ)
        src = str(Path(ennola.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.splitlines()

    def test_cli_loads_no_heavy_module(self, tmp_path):
        base = set(self._child("import sys; print(' '.join(sys.modules))")[-1].split())
        *_, codes, modules = self._child(self.CHILD, json.dumps(self.QUERIES),
                                         str(tmp_path / "cache"))
        assert codes == str([EXIT_OK] * len(self.QUERIES))
        loaded = set(modules.split()) - base
        assert "ennola.multiplicities" in loaded
        assert not loaded & self.HEAVY, sorted(loaded & self.HEAVY)

    def test_kron_and_usage_errors_load_no_pipeline(self, tmp_path):
        cache = tmp_path / "cache"
        *_, codes, modules = self._child(self.CHILD, json.dumps(self.NO_PIPELINE_QUERIES),
                                         str(cache))
        assert codes == str([EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK])
        loaded = set(modules.split())
        assert "ennola.characters" in loaded
        assert not loaded & self.PIPELINE, sorted(loaded & self.PIPELINE)
        assert not cache.exists()
