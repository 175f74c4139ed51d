"""End-to-end benchmark of the ennola command line.

    python3 perfbench/run.py --workload pairs_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Run from the root of a source checkout; the program is run from its
sources (src/) and answers are checked against tests/data/.  One client
runs one `ennola` child process at a time (a closed loop), each with
--jobs left at its default of 1, --cache-dir pointing at a fresh or the
workload's own directory, and XDG_CACHE_HOME at a temporary directory,
so no user cache is ever read or written.

Workloads (inputs come only from --seed):
  build_cold  the paper's deliverable: cold `table --which T --n 5`,
              `table --which V --n 5 --format tex` and `verify --n 4`.
  pairs_cold  single `pair` queries, each a cold process with an empty
              cache, over every family and the shapes k = 3, n = 2..4 and
              k = 4, n = 2..3.
  types_warm  `pair --type` queries on random semisimple multitypes of
              size 3..5 plus `pair --mu` queries, reading the cache that
              `cache build --n 5` wrote during set-up.

The timed phase runs whole rounds; a round is a fixed query list, shuffled
anew for each round.  --seconds sets the number of rounds: seconds divided
by the workload's round time on the reference machine (2 vCPUs of a
2.1 GHz Xeon), rounded, at least one.  So a run does the same work on
every commit, and whole rounds keep the mix of queries, and so the latency
percentiles, the same from seed to seed.

Times are reported at a reference host speed: the children run on one
CPU beside a speed meter (perfbench/hostspeed.py) that times a fixed
pure-Python chunk while they run, and each time is scaled by the chunk's
reference time over its median time around it.  The times as measured are
printed and recorded too, as measured_*.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
round run through perfbench/traced_cli.py, after the same round was run
untraced to measure the tracing overhead.  Every run also appends a
record, with its seed, its query list and any traced spans, to
.perfbench_results/runs.jsonl.
Exit status: 0 when every answer is right, 1 when any is wrong, 2 when the
checkout lacks the program or its golden tables.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
from hostspeed import SpeedMeter
from spans import LAYER_METRICS, LayerTotals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results", "runs.jsonl")
FAMILIES = ("V", "Vprime", "U", "Uprime", "T", "kron")
CHILD_TIMEOUT_S = 160
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {**LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads.  `full` is the benchmark; `tiny`
    exists for the benchmark's own tests."""

    build_n: int
    verify_n: int
    # (k, n, multipartitions per round); each is asked for every family
    pair_shapes: tuple
    cache_n: int
    # size -> semisimple multitypes per round; each is asked as V and V'
    type_sizes: dict
    # size -> `pair --which V --mu` queries per round
    mu_sizes: dict
    cold_setups: int = 9
    warm_setups: int = 2


# Weights are chosen so that the median and the tail (the 11th slowest
# query) of a round fall inside a group of queries of like cost rather
# than on the edge between two groups, which keeps both steady: for
# pairs_cold the k = 3, n = 3 queries and the k = 4, n = 3 unipotent
# queries; for types_warm the n = 5 multitype queries.
SCALES = {
    "full": Scale(
        build_n=5, verify_n=4,
        pair_shapes=((3, 2, 1), (3, 3, 3), (3, 4, 1), (4, 2, 1), (4, 3, 3)),
        cache_n=5, type_sizes={3: 1, 4: 1, 5: 6}, mu_sizes={3: 1, 4: 1, 5: 2},
    ),
    "tiny": Scale(
        build_n=2, verify_n=2, pair_shapes=((3, 2, 1), (4, 2, 1)),
        cache_n=3, type_sizes={3: 1}, mu_sizes={2: 1, 3: 1},
        cold_setups=2, warm_setups=1,
    ),
}


@dataclass
class Query:
    """One child process: its CLI arguments and how to check its answer."""

    label: str
    args: list
    check: tuple = ()
    cache: str | None = None  # a shared cache directory; None means fresh
    rc: int | None = None
    seconds: float = 0.0  # wall time, as measured
    scaled: float = 0.0  # wall time at the reference host speed
    t0: float = 0.0
    t1: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    stderr: str = ""
    error: str | None = None


@dataclass
class Outcome:
    queries: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, q: Query, message: str) -> None:
        if q.error is None:
            q.error = message
            self.errors.append(f"{q.label} {' '.join(q.args)}: {message}")


class Runner:
    """Runs ennola children one at a time inside the checkout."""

    def __init__(self, src: str, work: str, outcome: Outcome, meter: SpeedMeter):
        self.src = src
        self.work = work
        self.outcome = outcome
        self.meter = meter
        self.traced = False
        self.layers = LayerTotals()
        self.traces: list = []  # spans of each traced child, kept with the results
        self.peak_rss_mb = 0.0
        self.xdg = self.fresh_dir("xdg")

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.work)

    def run(self, q: Query) -> Query:
        """Run one ennola command with a fresh cache, or q.cache if set."""
        env = dict(os.environ, PYTHONPATH=self.src, XDG_CACHE_HOME=self.xdg)
        argv = [*q.args, "--cache-dir", q.cache or self.fresh_dir("cache")]
        if self.traced:
            env["PERFBENCH_TRACE_OUT"] = os.path.join(self.fresh_dir("trace"), "spans.json")
            self.spawn(q, [sys.executable, os.path.join(HERE, "traced_cli.py"), *argv], env)
            if q.error is None:
                with open(env["PERFBENCH_TRACE_OUT"], encoding="utf-8") as fh:
                    payload = json.load(fh)
                self.layers.add_process(payload)
                self.traces.append({"label": q.label, "args": q.args, **payload})
        else:
            self.spawn(q, [sys.executable, "-m", "ennola.cli", *argv], env)
        return q

    def bare_startup(self) -> Query:
        """A child that only imports the command line module."""
        q = Query("startup", ["-c", "import ennola.cli"])
        env = dict(os.environ, PYTHONPATH=self.src, XDG_CACHE_HOME=self.xdg)
        self.spawn(q, [sys.executable, *q.args], env)
        return q

    def spawn(self, q: Query, cmd: list, env: dict) -> None:
        """Run cmd to completion, recording its exit code, wall time, peak
        RSS (from wait4) and output in q."""
        out_dir = self.fresh_dir("out")
        out_path = os.path.join(out_dir, "stdout")
        err_path = os.path.join(out_dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            q.t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            self.meter.busy.set()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                self.meter.busy.clear()
                watchdog.cancel()
            q.t1 = time.perf_counter()
            q.seconds = q.t1 - q.t0
        proc.returncode = q.rc = os.waitstatus_to_exitcode(status)
        q.rss_mb = usage.ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, q.rss_mb)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            q.stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            q.stderr = fh.read()
        shutil.rmtree(out_dir)
        self.outcome.queries.append(q)
        if q.rc != 0:
            self.outcome.fail(q, f"exit code {q.rc}: {q.stderr.strip()[-300:]}")


# workloads


class Workload:
    name = ""
    round_s = 1.0  # seconds per round on the reference machine

    def __init__(self, scale: Scale, seed: int, runner: Runner, goldens: checks.Goldens):
        self.scale = scale
        self.rng = random.Random(seed)
        self.runner = runner
        self.goldens = goldens
        self.round_queries = self.make_round()

    def make_round(self) -> list:
        raise NotImplementedError

    def setup(self, reps: int | None = None) -> list:
        """Untimed preparation, repeated reps times; returns the set-up
        children whose times setup_s is the median of."""
        return [self.runner.bare_startup() for _ in range(reps or self.scale.cold_setups)]

    def new_round(self) -> list:
        qs = [Query(q.label, q.args, q.check, q.cache) for q in self.round_queries]
        self.rng.shuffle(qs)
        return qs

    def check(self, done: list, outcome: Outcome) -> None:
        raise NotImplementedError

    def extra_metrics(self, done: list) -> dict:
        return {}


class BuildCold(Workload):
    name = "build_cold"
    round_s = 29.0

    def make_round(self) -> list:
        s = self.scale
        table_t = Query("table_T", ["table", "--which", "T", "--n", str(s.build_n), "--k", "3",
                                    "--format", "json"], ("T", s.build_n))
        table_v = Query("table_V", ["table", "--which", "V", "--n", str(s.build_n), "--k", "3",
                                    "--format", "tex"], ("V", s.build_n))
        verify = Query("verify", ["verify", "--n", str(s.verify_n), "--k", "3", "--format", "json"],
                       ("verify",))
        return [table_t, table_v, verify]

    def check(self, done: list, outcome: Outcome) -> None:
        for q in done:
            if q.error is not None:
                continue
            kind = q.check[0]
            try:
                if kind == "T":
                    errors = checks.check_t_table(q.stdout, self.goldens, q.check[1])
                elif kind == "V":
                    with open(self.goldens.path("V", q.check[1]), encoding="utf-8") as fh:
                        same = fh.read() == q.stdout
                    errors = [] if same else ["tex output differs from the golden file"]
                else:
                    errors = checks.check_verify_report(q.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            if errors:
                outcome.fail(q, "; ".join(errors[:5]))

    def extra_metrics(self, done: list) -> dict:
        return {f"{label}_s": statistics.median([q.scaled for q in done if q.label == label])
                for label in ("table_T", "table_V", "verify")}


class PairsCold(Workload):
    name = "pairs_cold"
    round_s = 18.0

    def make_round(self) -> list:
        out = []
        for k, n, groups in self.scale.pair_shapes:
            parts = checks.partitions(n)
            for g in range(groups):
                mu = tuple(self.rng.choice(parts) for _ in range(k))
                for fam in FAMILIES:
                    out.append(Query(f"pair_{fam}_k{k}n{n}",
                                     ["pair", "--which", fam, "--mu", checks.mu_literal(mu),
                                      "--format", "json"],
                                     (f"k{k}n{n}g{g}", fam, mu)))
        return out

    def check(self, done: list, outcome: Outcome) -> None:
        groups: dict = {}
        for i, q in enumerate(done):
            # a group is one multipartition of one round, asked for every family
            groups.setdefault((i // len(self.round_queries), q.check[0]), []).append(q)
        for members in groups.values():
            mu = members[0].check[2]
            answers = {}
            for q in members:
                answers[q.check[1]] = None
                if q.error is None:
                    try:
                        answers[q.check[1]] = checks.poly_from_json(json.loads(q.stdout)["poly"])
                    except (ValueError, KeyError, TypeError) as exc:
                        outcome.fail(q, f"unreadable output: {exc!r}")
            errors = checks.check_pair_group(mu, answers, self.goldens)
            for q in members:
                if q.check[1] in errors:
                    outcome.fail(q, errors[q.check[1]])


def random_semisimple_type(rng: random.Random, n: int) -> list:
    """Entries (d, r): degree d, eigenvalue multiplicity r, partition 1^r."""
    entries = []
    rest = n
    while rest:
        d = rng.randint(1, rest)
        r = rng.randint(1, rest // d)
        entries.append((d, r))
        rest -= d * r
    return entries


def type_literal(entries: list) -> str:
    return ";".join(f"{d}:" + ".".join(["1"] * r) for d, r in entries)


class TypesWarm(Workload):
    name = "types_warm"
    round_s = 13.0

    cache = ""
    expected = None

    def make_round(self) -> list:
        out = []
        for n, count in self.scale.type_sizes.items():
            for _ in range(count):
                while True:
                    comps = [random_semisimple_type(self.rng, n) for _ in range(3)]
                    # all-primary multitypes take the --mu code path; --mu covers it
                    if any(c != [(1, n)] for c in comps):
                        break
                literal = ",".join(type_literal(c) for c in comps)
                for fam in ("V", "Vprime"):
                    out.append(Query(f"type_{fam}_n{n}",
                                     ["pair", "--which", fam, "--type", literal, "--format", "json"],
                                     ("type", fam, literal)))
        for n, count in self.scale.mu_sizes.items():
            parts = checks.partitions(n)
            for _ in range(count):
                mu = tuple(self.rng.choice(parts) for _ in range(3))
                out.append(Query(f"mu_V_n{n}",
                                 ["pair", "--which", "V", "--mu", checks.mu_literal(mu),
                                  "--format", "json"], ("mu", "V", mu)))
        return out

    def new_round(self) -> list:
        qs = super().new_round()
        for q in qs:
            q.cache = self.cache
        return qs

    def setup(self, reps: int | None = None) -> list:
        builds = []
        for _ in range(reps or self.scale.warm_setups):
            # each build starts from an empty directory; queries read the last
            self.cache = self.runner.fresh_dir("warm")
            q = self.runner.run(Query("cache_build", ["cache", "build", "--n", str(self.scale.cache_n)],
                                      cache=self.cache))
            builds.append(q)
            missing = [n for n in range(1, self.scale.cache_n + 1)
                       if not os.path.exists(os.path.join(self.cache, f"psi_k3_n{n}.json"))]
            if q.error is None and missing:
                self.runner.outcome.fail(q, f"no cache file for n in {missing}")
        if self.expected is None:
            self.expected = self.expected_by_log_route()
        return builds

    def expected_by_log_route(self) -> dict:
        """Every multitype of the round, computed once in this process with
        no cache, through the kernel and the plethystic logarithm."""
        sys.path.insert(0, self.runner.src)
        from ennola.coeffs import poly_to_json
        from ennola.multiplicities import V_poly, Vprime_poly, build_context
        from ennola.types import parse_multitype

        ctx = build_context(3, max(self.scale.type_sizes), None)
        fn = {"V": V_poly, "Vprime": Vprime_poly}
        out = {}
        for q in self.round_queries:
            if q.check[0] == "type":
                _, fam, literal = q.check
                p = fn[fam](ctx, parse_multitype(literal))
                out[(fam, literal)] = checks.poly_from_json(poly_to_json(p))
        return out

    def check(self, done: list, outcome: Outcome) -> None:
        for q in done:
            if q.error is not None:
                continue
            kind, fam, what = q.check
            try:
                got = checks.poly_from_json(json.loads(q.stdout)["poly"])
            except (ValueError, KeyError, TypeError) as exc:
                outcome.fail(q, f"unreadable output: {exc!r}")
                continue
            want = self.expected[(fam, what)] if kind == "type" else self.goldens.row("V", what)
            if got != want:
                outcome.fail(q, f"{checks.poly_text(got)} != expected {checks.poly_text(want)}")


WORKLOADS = {w.name: w for w in (BuildCold, PairsCold, TypesWarm)}


# metrics


def latency_stats(seconds: list) -> dict:
    """Median and tail: the highest percentile with at least TAIL_BEYOND
    samples beyond it, or the maximum when there are fewer samples."""
    ordered = sorted(seconds, reverse=True)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return {
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": ordered[beyond],
        "tail_percentile": 100.0 * (len(ordered) - beyond) / len(ordered),
        "tail_samples_beyond": beyond,
        "samples": len(ordered),
    }


def run_rounds(workload: Workload, rounds: int) -> tuple:
    """The queries run and the start and end of the timed phase."""
    done = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        for q in workload.new_round():
            done.append(workload.runner.run(q))
    return done, (t0, time.perf_counter())


def phase_seconds(meter: SpeedMeter, span: tuple) -> tuple:
    """Wall time of a phase, as measured and at the reference speed."""
    wall = span[1] - span[0]
    return wall, meter.scale(wall, *span)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale,
                 src: str, goldens_dir: str) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    outcome = Outcome()
    # the children and the speed meter share one CPU, so that the meter
    # sees the speed the children get
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with SpeedMeter() as meter:
            runner = Runner(src, work, outcome, meter)
            workload = WORKLOADS[name](scale, seed, runner, checks.Goldens(goldens_dir))
            setups = workload.setup()
            if trace:
                # one round untraced, then the same round and set-up traced
                rounds = 1
                done, span = run_rounds(workload, rounds)
                runner.traced = True
                workload.setup(reps=1)
                traced, traced_span = run_rounds(workload, rounds)
                workload.check(traced, outcome)
            else:
                rounds = max(1, round(seconds / workload.round_s))
                done, span = run_rounds(workload, rounds)
        for q in outcome.queries:
            q.scaled = meter.scale(q.seconds, q.t0, q.t1)
        workload.check(done, outcome)
        lat = latency_stats([q.scaled for q in done])
        measured_lat = latency_stats([q.seconds for q in done])
        measured_wall, wall = phase_seconds(meter, span)
        e2e = {
            "setup_s": statistics.median([q.scaled for q in setups]),
            "wall_s": wall,
            "latency_p50_s": lat["latency_p50_s"],
            "latency_tail_s": lat["latency_tail_s"],
            "peak_rss_mb": runner.peak_rss_mb,
        }
        measured = {
            "measured_setup_s": statistics.median([q.seconds for q in setups]),
            "measured_wall_s": measured_wall,
            "measured_p50_s": measured_lat["latency_p50_s"],
            "measured_tail_s": measured_lat["latency_tail_s"],
            "host_chunk_s": meter.chunk_s(*span) or 0.0,
        }
        if trace:
            metrics = dict(runner.layers.values)
            metrics["trace.wall_s"] = phase_seconds(meter, traced_span)[1]
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
            units = TRACE_METRICS
        else:
            metrics, units = e2e, END_TO_END
        attempted = len(outcome.queries)
        failed = sum(q.error is not None for q in outcome.queries)
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "rounds": rounds,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "end_to_end": e2e,
            "details": {**{k: v for k, v in lat.items() if not k.startswith("latency")},
                        **workload.extra_metrics(done), **measured,
                        "setup_times_s": [q.scaled for q in setups]},
            "queries": [{"label": q.label, "args": q.args, "seconds": q.seconds,
                         "scaled_s": q.scaled, "rss_mb": q.rss_mb, "rc": q.rc, "error": q.error}
                        for q in outcome.queries],
            "errors": outcome.errors,
            "traces": runner.traces,
        }
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def print_report(rec: dict) -> None:
    for err in rec["errors"]:
        print(f"MISMATCH {err}")
    d = rec["details"]
    print(f"{rec['workload']} seed={rec['seed']} rounds={rec['rounds']} "
          f"attempted={rec['attempted']} failed={rec['failed']}")
    lines = [(k, v, END_TO_END[k]) for k, v in rec["end_to_end"].items()]
    lines += [(k, v, "s") for k, v in d.items() if k.endswith("_s") and isinstance(v, float)]
    lines.append(("error_rate", rec["error_rate"], "ratio"))
    for name, value, unit in lines:
        print(f"  {name:16} {value:12.6f} {unit}")
    print(f"  tail is p{d['tail_percentile']:.1f}: {d['tail_samples_beyond']} of "
          f"{d['samples']} samples beyond it")
    if rec["trace"]:
        for name, m in rec["metrics"].items():
            print(f"  {name:40} {m['value']:14.6f} {m['unit']}")


# comparison of two result files


def load_bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(old: list, new: list, spec: dict) -> str:
    """better / worse / unchanged by the metric's bound; unresolved when
    either side's spread is wider than the bound."""
    bound, lower = spec["bound"], spec["better"] == "lower"
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    if (o3 - o1) > bound * om or (n3 - n1) > bound * nm:
        return "unresolved"
    change = (nm - om) if lower else (om - nm)
    if change > bound * om:
        return "worse"
    if -change > (o3 - o1):
        return "better"
    return "unchanged"


def compare(old_path: str, new_path: str) -> int:
    bounds = load_bounds()

    def load(path: str) -> dict:
        by_workload: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    by_workload.setdefault(rec["workload"], []).append(rec["end_to_end"])
        return by_workload

    old, new = load(old_path), load(new_path)
    worse = False
    for wl in sorted(set(old) & set(new)):
        cells = []
        for name, spec in bounds.items():
            a = [r[name] for r in old[wl]]
            b = [r[name] for r in new[wl]]
            v = verdict(a, b, spec)
            worse |= v == "worse"
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            cells.append(f"{name} {am:.4g} [{a1:.4g},{a3:.4g}] -> {bm:.4g} [{b1:.4g},{b3:.4g}] {v}")
        print(f"{wl} (runs {len(old[wl])} vs {len(new[wl])}): " + " | ".join(cells))
    return 1 if worse else 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SCALES), default="full")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="package sources the children run")
    parser.add_argument("--goldens", default=os.path.join(ROOT, "tests", "data"),
                        help="directory of the golden tex tables")
    parser.add_argument("--results", default=RESULTS, help="JSON lines file to append to")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    for need in (os.path.join(args.src, "ennola", "cli.py"),
                 os.path.join(args.goldens, "V_n5.tex")):
        if not os.path.exists(need):
            print(f"error: {need} not found; run from the root of an ennola checkout",
                  file=sys.stderr)
            return 2
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       SCALES[args.size], os.path.abspath(args.src), os.path.abspath(args.goldens))
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    print_report(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
