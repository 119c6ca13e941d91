"""witnesslab benchmark: sweep throughput and `test` latency, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it measures the code under
src/ and writes only under .bench_run/ there.  Workloads:

  sweep-fixed3       `witnesslab sweep --max 100000 --ell fixed:3 --rounds 2 --workers 1`
  sweep-smallest-w2  the same with `--ell smallest --workers 2`
  test-word          closed loop of stronger_test(n, 2, None, CounterRng(seed_i)) on
                     seeded 14-62-bit primes and rough composites, 1 s deadline per call
  test-big           the same loop on 64-1024-bit primes and semiprimes and the
                     Mersenne primes M89-M2203, 4 s deadline per call; every one
                     of its 25 cases runs, whatever --seconds says

Every timed run gets a fresh interpreter (bench/child.py) that is not
warmed first, because the package's module-level caches would otherwise
carry over between repeats.  Set-up is timed in its own fresh
interpreters: `import witnesslab` plus a ready probe (one tiny sweep and
one test through cli.main), the median of several.

End-to-end times are scaled to a reference core speed (CAL_REF_S):
the children time a fixed pure-Python loop (child.calibration_s) between
test calls, and from a timer signal in the processes that do a sweep's
work (the CLI process, or each pool worker), and each time is multiplied
by CAL_REF_S over the loop's time around it.  On a shared machine a
core's speed swings by half for tens of seconds, which no amount of
repetition inside one run averages out.

--trace 0 prints the end-to-end metrics.  For a sweep the work unit is
one odd n (its record is its verdict), so verdict latency is the
sweep's wall time per n; the tail is the highest percentile with at
least 10 samples beyond it, or the maximum when there are fewer.
--trace 1 runs the workload once untraced and once under bench/tracer.py
and prints the per-layer metrics: self time per traced function (over
the whole traced child, ready probe included, and over every pool
worker), call counts per n or per verdict, and the tracing overhead.
A traced test run covers the first TRACE_CASES cases (all of test-big)
in both children, so per-layer figures cover the same work on every
commit.

The last stdout line is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
Any failed check (digest, summary, oracle sample, verdict, deadline,
exception) marks its operation failed; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 7
TRACE_CASES = 8000
RUN_LIMIT_S = 170.0
ROUNDS = 2
# child.calibration_s() on a 2-core x86-64 virtual machine at full speed.
CAL_REF_S = 0.0065


@dataclass(frozen=True)
class Sweep:
    argv: tuple[str, ...]
    max_n: int
    sha256: str

    @property
    def odd_n(self) -> int:
        return (self.max_n - 1) // 2

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1])


@dataclass(frozen=True)
class Test:
    big: bool
    pool: int
    deadline_s: float


_SWEEP_MAX = 100000
# Why these workloads: the two products stress disjoint layers.
#  - sweep-fixed3 is the CLI default and the factorization-bound closed-form
#    path, with no ring or rng work: factor-once shows here, and a faster
#    ring_mul should not move it.
#  - sweep-smallest-w2 uses the same counting layers differently: a
#    conductor search for every n (no cache hits), larger ell, which makes
#    local_data and count_D heavier, 8 factorizations per n, and the fork
#    pool, record pickling and ordered merge.  A change that helps fixed:3
#    but slows the search or the parallel path shows here.  Two workers
#    equals the cores of the reference machine.
#  - test-word is mostly primes, whose verdicts are ring-bound (ring_mul,
#    rng), and composites with no small factors, including Miller-Rabin
#    liars.  Factor-once should not move it.  Its exact mix (bench/inputs.py)
#    is an assumption, not measured traffic.
#  - test-big is the only workload with big-int numth and rng draws at or
#    above 2**63.  Nearly every call fails at this commit (ValueError or
#    OverflowError on some, the deadline on most), so it is kept out of
#    BENCHMARK.json, whose workloads must run without failures, until that
#    is fixed.  All of its cases run, so the deadline is what keeps a traced
#    run (two passes) within RUN_LIMIT_S.
# The sweep digests are of the --out CSV: byte-identical output for any
# --workers is a contract of the CLI.
WORKLOADS = {
    "sweep-fixed3": Sweep(
        ("sweep", "--max", str(_SWEEP_MAX), "--ell", "fixed:3", "--rounds", str(ROUNDS), "--workers", "1"),
        _SWEEP_MAX,
        "6baff58276283de6d6f4ece789cf9d8e48abbd0cd875fb341ccd9ab41264dbd6",
    ),
    "sweep-smallest-w2": Sweep(
        ("sweep", "--max", str(_SWEEP_MAX), "--ell", "smallest", "--rounds", str(ROUNDS), "--workers", "2"),
        _SWEEP_MAX,
        "b1b34fe188492192d9817dcbce3313988dfca3a709ef7feccfc5224cb702744f",
    ),
    # The pool is never reused within a run (a repeated n would hit the
    # package's conductor cache); a run ends when time or pool runs out.
    "test-word": Test(big=False, pool=32000, deadline_s=1.0),
    "test-big": Test(big=True, pool=0, deadline_s=4.0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "n_per_s": "1/s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SELF_SPANS = (
    "numth.factorize", "numth.is_prime", "numth.is_perfect_power",
    "witness.count_F", "witness.count_MR", "witness.mr_witness",
    "galois.find_conductor", "galois.local_data", "galois.count_Gal", "galois.count_D",
    "galois.count_H", "galois.cofactor_k", "galois.ring_mul", "galois.ring_pow",
    "galois.sigma_apply", "galois.invertibility", "galois.galois_test",
    "product.stronger_test", "rng.stream",
    "analysis.examine", "analysis.add_record", "analysis.merge",
    "cli.sink", "cli.bounds_report",
)
PER_N_SPANS = ("numth.factorize", "numth.is_prime", "galois.conductor_failure", "galois.count_D")
PER_VERDICT_SPANS = ("galois.ring_mul", "rng.stream")


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts children in fresh interpreters and keeps to the run's time limit."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count:03d}-{stem}"

    def child(self, mode: str, spec: dict) -> dict:
        spec = {"src": str(SRC), "probe_out": str(self.path("probe.csv")), **spec}
        spec_path, result_path = self.path(f"{mode}.spec.json"), self.path(f"{mode}.result.json")
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(spec_path), str(result_path)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            err = f"{mode} child exceeded the run's time limit"
        finally:
            # Also ends pool workers a crashed or killed child left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            lines = (err or "").strip().splitlines()
            raise ChildFailed(lines[-1] if lines else f"{mode} child exited with {proc.returncode}")
        return json.loads(result_path.read_text())


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def scaled(seconds: float, calibrations: list[float]) -> float:
    """A time taken while the machine ran at `calibrations`, at reference speed."""
    return seconds * CAL_REF_S / statistics.fmean(calibrations)


def measure_setup(runner: Runner) -> dict:
    runs = [runner.child("setup", {}) for _ in range(SETUP_REPEATS)]
    imports = [scaled(r["import_s"], r["calibrations"]) for r in runs]
    first_calls = [scaled(r["first_call_s"], r["calibrations"]) for r in runs]
    return {
        "setup_s": statistics.median(a + b for a, b in zip(imports, first_calls)),
        "import_s": statistics.median(imports),
        "first_call_s": statistics.median(first_calls),
        "raw_setup_s": statistics.median(r["import_s"] + r["first_call_s"] for r in runs),
    }


# -- sweeps -----------------------------------------------------------------


def sweep_once(runner: Runner, wl: Sweep, trace: bool = False) -> dict:
    out = runner.path("sweep.csv")
    cal_dir = runner.path("cal")
    cal_dir.mkdir()
    spec = {
        "argv": [*wl.argv, "--out", str(out)],
        "workers": wl.workers,
        "cal_dir": str(cal_dir),
        "trace": trace,
        "trace_dir": str(runner.workdir),
    }
    try:
        result = runner.child("sweep", spec)
    except ChildFailed as exc:
        return {
            "wall_s": RUN_LIMIT_S,
            "calibrations": [CAL_REF_S],
            "problems": [f"child failed: {exc}"],
            "rss_kb": 0,
            "trace": None,
        }
    problems = [] if result["exit_code"] == 0 else [f"exit code {result['exit_code']}"]
    result["out"] = out
    result["problems"] = problems
    result["rss_kb"] = max(result["rss_self_kb"], result["rss_workers_kb"])
    return result


def check_sweeps(results: list[dict], wl: Sweep, rng: random.Random) -> None:
    import checks

    for result in results:
        if "out" in result and not result["problems"]:
            result["problems"] += checks.check_sweep(result["out"], result["stdout"], wl.sha256, ROUNDS, rng)


def sweep_metrics(results: list[dict], wl: Sweep) -> tuple[dict, dict]:
    walls = [scaled(r["wall_s"], r["calibrations"]) for r in results]
    rates = [wl.odd_n / wall for wall in walls]
    good = [wl.odd_n / wall if not r["problems"] else 0.0 for r, wall in zip(results, walls)]
    per_n_ms = [1000.0 * wall / wl.odd_n for wall in walls]
    tail_ms, pct, samples = tail(per_n_ms)
    metrics = {
        "n_per_s": statistics.median(rates),
        "verdicts_per_s": statistics.median(good),
        "verdict_p50_ms": statistics.median(per_n_ms),
        "verdict_tail_ms": tail_ms,
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024.0,
    }
    notes = {
        "n_per_s": "unscaled median {:.1f}".format(statistics.median(wl.odd_n / r["wall_s"] for r in results)),
        "verdict_tail_ms": f"p{pct:.2f} of {samples} sweeps",
        "peak_rss_mb": "max over sweeps of the CLI process ({} MB) and its largest worker ({} MB)".format(
            max(r.get("rss_self_kb", 0) for r in results) // 1024,
            max(r.get("rss_workers_kb", 0) for r in results) // 1024,
        ),
    }
    return metrics, notes


# -- tests ------------------------------------------------------------------


def test_cases(wl: Test, seed: int) -> list[dict]:
    import inputs

    return inputs.test_big_cases(seed) if wl.big else inputs.test_word_cases(seed, wl.pool)


def test_once(runner: Runner, wl: Test, inputs_path: Path, seconds: float | None,
              max_ops: int | None = None, trace: bool = False) -> dict:
    """One test child; it stops after `seconds` of calls (None: no limit) or `max_ops` calls."""
    spec = {
        "inputs": str(inputs_path),
        "seconds": seconds,
        "max_ops": max_ops,
        "deadline_s": wl.deadline_s,
        "rounds": ROUNDS,
        "trace": trace,
        "trace_dir": str(runner.workdir),
    }
    return runner.child("test", spec)


def check_tests(result: dict, cases: list[dict], wl: Test) -> list[str]:
    """Check each verdict; set the scaled per-call latencies (failures at the deadline)."""
    import checks

    cals = result["calibrations"]
    problems = []
    latencies = []
    for i, (case, latency, window, outcome) in enumerate(
        zip(cases, result["latencies"], result["windows"], result["outcomes"])
    ):
        status = result["failures"].get(str(i), "ok")
        factor = result["factors"].get(str(i))
        evidence = None if factor is None else ("factor", factor)
        problem = checks.verdict_problem(case, status, outcome, evidence)
        if problem is not None:
            problems.append(problem)
            latencies.append(max(latency, wl.deadline_s))
        else:
            latencies.append(scaled(latency, cals[window : window + 2]))
    result["raw_wall_s"] = math.fsum(result["latencies"])
    result["latencies"] = latencies
    result["wall_s"] = math.fsum(latencies)
    result["problems"] = problems
    return problems


def test_metrics(result: dict) -> tuple[dict, dict]:
    ops = len(result["latencies"])
    wall = result["wall_s"]
    latencies_ms = [1000.0 * x for x in result["latencies"]]
    tail_ms, pct, samples = tail(latencies_ms)
    metrics = {
        "n_per_s": ops / wall,
        "verdicts_per_s": (ops - len(result["problems"])) / wall,
        "verdict_p50_ms": statistics.median(latencies_ms),
        "verdict_tail_ms": tail_ms,
        "peak_rss_mb": result["rss_self_kb"] / 1024.0,
    }
    notes = {
        "n_per_s": "unscaled {:.1f}".format(ops / result["raw_wall_s"]),
        "verdict_tail_ms": f"p{pct:.3f} of {samples} calls",
    }
    return metrics, notes


# -- per-layer metrics from a traced child ------------------------------------


def layer_metrics(trace: dict, units: int, overhead: float, setup: dict) -> dict:
    """Per-layer metrics; `units` is n visited (sweeps) or verdicts (tests)."""
    every, workload = trace["all"], trace["workload"]

    def row(table, span):
        return table.get(span, {"calls": 0, "self_s": 0.0, "cache_hits": 0})

    metrics = {f"{span}.self_s": row(every, span)["self_s"] for span in SELF_SPANS}
    for span in PER_N_SPANS:
        metrics[f"{span}.calls_per_n"] = row(workload, span)["calls"] / units
    for span in PER_VERDICT_SPANS:
        metrics[f"{span}.calls_per_verdict"] = row(workload, span)["calls"] / units
    finder = row(workload, "galois.find_conductor")
    metrics["galois.find_conductor.cache_hit_ratio"] = (
        finder["cache_hits"] / finder["calls"] if finder["calls"] else 0.0
    )
    metrics["analysis.sweep.wait_s"] = row(every, "analysis.sweep")["self_s"]
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.first_call_s"] = setup["first_call_s"]
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_n"):
        return "calls/n"
    if name.endswith("calls_per_verdict"):
        return "calls/verdict"
    return "ratio"


# -- entry point ------------------------------------------------------------


def run(args, runner: Runner) -> tuple[dict, dict, int, int, dict | None]:
    """(metrics, notes, attempted, failed, trace) for one workload run."""
    wl = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:check:{args.seed}")
    setup = measure_setup(runner)
    notes: dict = {}
    trace = None
    if isinstance(wl, Sweep):
        if args.trace:
            plain = sweep_once(runner, wl)
            traced = sweep_once(runner, wl, trace=True)
            results = [plain, traced]
            check_sweeps(results, wl, rng)
            if traced["trace"] is None:
                raise ChildFailed("; ".join(traced["problems"]))
            trace = traced["trace"]
            # Raw walls: the two sweeps ran back to back, and only the
            # untraced one calibrates during the sweep.
            metrics = layer_metrics(trace, wl.odd_n, traced["wall_s"] / plain["wall_s"], setup)
        else:
            results = []
            start = time.monotonic()
            while not results or time.monotonic() - start < args.seconds:
                results.append(sweep_once(runner, wl))
            check_sweeps(results, wl, rng)
            metrics, notes = sweep_metrics(results, wl)
            metrics["setup_s"] = setup["setup_s"]
        attempted = len(results)
        failed = sum(1 for r in results if r["problems"])
        for r in results:
            for problem in r["problems"]:
                print(f"check failed: {problem}", file=sys.stderr)
    else:
        cases = test_cases(wl, args.seed)
        inputs_path = runner.path("cases.json")
        inputs_path.write_text(json.dumps({"cases": [[str(c["n"]), c["seed"]] for c in cases]}))
        if args.trace:
            done = min(TRACE_CASES, len(cases))
            plain = test_once(runner, wl, inputs_path, None, max_ops=done)
            traced = test_once(runner, wl, inputs_path, None, max_ops=done, trace=True)
            results = [plain, traced]
        else:
            results = [test_once(runner, wl, inputs_path, None if wl.big else args.seconds)]
        problems = []
        for r in results:
            problems += check_tests(r, cases, wl)
        if args.trace:
            trace = traced["trace"]
            metrics = layer_metrics(trace, done, traced["raw_wall_s"] / plain["raw_wall_s"], setup)
        else:
            metrics, notes = test_metrics(results[0])
            metrics["setup_s"] = setup["setup_s"]
        attempted = sum(len(r["latencies"]) for r in results)
        failed = len(problems)
        for problem in sorted(set(problems))[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
    notes["setup_s"] = "median of {} fresh interpreters: import {:.4f} s + first calls {:.4f} s; unscaled {:.4f} s".format(
        SETUP_REPEATS, setup["import_s"], setup["first_call_s"], setup["raw_setup_s"]
    )
    return metrics, notes, attempted, failed, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "witnesslab" / "__init__.py").is_file():
        print(f"error: no witnesslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        metrics, notes, attempted, failed, trace = run(args, Runner(workdir))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace is not None:
        trace_path = RUN_DIR / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(trace["edges"], indent=1))
        print(f"trace edges written to {trace_path.relative_to(ROOT)}")
    error_rate = failed / attempted
    for name, value in metrics.items():
        unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
        note = notes.get(name)
        print(f"{args.workload} {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print(f"{args.workload} error_rate = {error_rate!r} ratio  ({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name) if args.trace else END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
