"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402


def bench(tmp_path, *args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--size", "tiny", "--seconds", "1", "--seed", "5",
           "--results", str(tmp_path / "runs.jsonl"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_benchmark_json_names_match_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACE_METRICS


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(tmp_path, workload):
    proc, lines = bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert out["metrics"][name]["unit"] == unit
        assert out["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] for line in lines), name
    rec = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    assert rec["seed"] == 5 and rec["queries"]


def test_smoke_traced_run_prints_every_layer_metric(tmp_path):
    proc, lines = bench(tmp_path, "--workload", "build_cold", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(lines)
    assert set(out["metrics"]) == set(run.TRACE_METRICS)
    assert out["metrics"]["multiplicities.tau_schur.rows"]["value"] > 0
    assert out["metrics"]["coeffs.poly_gcd.calls"]["value"] > 0
    rec = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    spans = [s for child in rec["traces"] for s in child["spans"]]
    assert {"id", "name", "start", "end", "parent"} <= set(spans[0])
    assert any(s["name"] == "multiplicities.tau_schur" for s in spans)


def test_corrupted_golden_row_fails_the_run(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(os.path.join(ROOT, "tests", "data"), data)
    path = data / "V_n2.tex"
    text = path.read_text()
    assert "& $1$\\\\" in text
    path.write_text(text.replace("& $1$\\\\", "& $q$\\\\", 1))
    proc, lines = bench(tmp_path, "--workload", "build_cold", "--goldens", str(data))
    assert proc.returncode == 1
    out = result(lines)
    # the tex table differs byte for byte, and T at u = 0 disagrees with the row
    assert not out["correct"] and out["failed"] == 2
    assert sum(line.startswith("MISMATCH") for line in lines) == 2


def test_child_exiting_nonzero_fails_the_run(tmp_path):
    pkg = tmp_path / "src" / "ennola"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import sys\n\nif __name__ == '__main__':\n    sys.exit(3)\n")
    proc, lines = bench(tmp_path, "--workload", "build_cold", "--src", str(tmp_path / "src"))
    assert proc.returncode == 1
    out = result(lines)
    assert not out["correct"] and out["failed"] == 3
    assert out["attempted"] == 3 + run.SCALES["tiny"].cold_setups


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = bench(tmp_path, "--workload", "pairs_cold", cwd=tmp_path,
                        script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode == 2
    assert not any(line.startswith("{") for line in lines)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = run.latency_stats([float(i) for i in range(1, 26)])
    assert lat["latency_tail_s"] == 15.0
    assert lat["tail_samples_beyond"] == 10 and lat["tail_percentile"] == 60.0
    assert lat["latency_p50_s"] == 13.0
    few = run.latency_stats([3.0, 1.0, 2.0])
    assert few["latency_tail_s"] == 3.0 and few["tail_samples_beyond"] == 0


def test_verdicts_use_the_bound_and_the_spread():
    spec = {"bound": 0.1, "better": "lower"}
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run.verdict(base, [x * 1.2 for x in base], spec) == "worse"
    assert run.verdict(base, [x * 0.8 for x in base], spec) == "better"
    assert run.verdict(base, base, spec) == "unchanged"
    assert run.verdict(base, [0.5, 1.0, 1.5, 2.0, 0.7], spec) == "unresolved"


def test_evaluator_specializes_t_to_the_three_families():
    # T(u, q) = u^2 + 2uq + q^3 at mu = (1^3, 1^3, 1^3): d = 9 - 9 + 2 = 2
    t = {(0, 2): 1, (1, 1): 2, (3, 0): 1}
    mu = ((1, 1, 1),) * 3
    assert checks.u_at_zero(t) == {(3, 0): 1}
    assert checks.u_at_one(t) == {(0, 0): 1, (1, 0): 2, (3, 0): 1}
    assert checks.u_at_minus_one(t, mu) == {(0, 0): -1, (1, 0): -2, (3, 0): 1}
    assert checks.top_u(t, 3) == {(0, 0): 1}
    assert checks.parse_tex_poly("q^5 - 2q^3 + q - 1") == {(5, 0): 1, (3, 0): -2, (1, 0): 1, (0, 0): -1}


def test_speed_meter_scales_by_the_median_chunk_around_a_child():
    meter = hostspeed.SpeedMeter()
    meter.starts = [0.1 * i for i in range(100)]
    # the host runs at half the reference speed from t = 5 on
    meter.durations = [hostspeed.REF_CHUNK_S * (1 if i < 50 else 2) for i in range(100)]
    assert meter.scale(4.0, 0.0, 4.0) == 4.0
    assert meter.scale(4.0, 5.5, 9.5) == 2.0
    # a short child takes the MIN_SAMPLES samples nearest to it
    assert meter.scale(0.05, 9.9, 9.95) == 0.025
    assert meter.chunk_s(4.9, 5.0) == 1.5 * hostspeed.REF_CHUNK_S
    assert hostspeed.SpeedMeter().scale(3.0, 0.0, 1.0) == 3.0
