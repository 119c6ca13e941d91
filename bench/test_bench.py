"""Tests of the benchmark's tracer and output checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import Tracer  # noqa: E402
from witnesslab import analysis, cli, galois, numth, product, witness  # noqa: E402
from witnesslab.rng import CounterRng  # noqa: E402


def _sweep_bytes(path: Path, *argv: str) -> tuple[bytes, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", "--max", "3001", *argv, "--out", str(path)]) == 0
    return path.read_bytes(), out.getvalue()


@pytest.mark.parametrize(
    "argv", [("--ell", "fixed:3"), ("--ell", "smallest", "--workers", "2")], ids=["fixed3", "smallest-w2"]
)
def test_traced_sweep_writes_the_same_bytes(tmp_path, argv):
    plain, plain_stdout = _sweep_bytes(tmp_path / "plain.csv", *argv)
    with Tracer(tmp_path) as tracer:
        with tracer.span("workload"):
            traced, traced_stdout = _sweep_bytes(tmp_path / "traced.csv", *argv)
    tracer.absorb_worker_dumps()
    assert traced == plain
    assert traced_stdout.replace("traced.csv", "plain.csv") == plain_stdout
    totals = tracer.totals()
    # Every odd n is examined once, in the parent or in a pool worker.
    assert totals["analysis.examine"]["calls"] == (3001 - 1) // 2
    assert totals["cli.sink"]["calls"] == (3001 - 1) // 2
    assert totals["numth.factorize"]["calls"] > totals["analysis.examine"]["calls"]


def test_self_times_sum_to_the_root_span(tmp_path):
    with Tracer() as tracer:
        with tracer.span("workload"):
            _sweep_bytes(tmp_path / "rows.csv", "--ell", "fixed:3")
            product.stronger_test(1000003, 2, None, CounterRng(7))
    totals = tracer.totals()
    root = totals["workload"]
    assert math.isclose(sum(row["self_s"] for row in totals.values()), root["total_s"], rel_tol=1e-9)
    assert all(row["self_s"] >= 0 or math.isclose(row["self_s"], 0, abs_tol=1e-9) for row in totals.values())
    assert totals["galois.ring_mul"]["calls"] > 0
    assert totals["rng.stream"]["calls"] == 3


def test_restore_puts_every_binding_back():
    originals = {
        (mod, name): getattr(mod, name)
        for mod in (numth, witness, galois, product, analysis)
        for name in ("factorize", "find_conductor", "examine", "sweep", "ring_mul", "is_prime")
        if hasattr(mod, name)
    }
    stream = CounterRng.stream
    add_record = analysis.SweepAggregate.add_record
    tracer = Tracer().install()
    assert galois.factorize is not originals[(galois, "factorize")]
    assert analysis.find_conductor is not originals[(analysis, "find_conductor")]
    tracer.restore()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert CounterRng.stream is stream
    assert analysis.SweepAggregate.add_record is add_record


def test_cache_hits_are_counted():
    n = 1000033
    galois.find_conductor.cache_clear()
    with Tracer() as tracer:
        galois.find_conductor(n)
        product.stronger_test(n, 1, None, CounterRng(1))
    row = tracer.totals()["galois.find_conductor"]
    assert (row["calls"], row["cache_hits"]) == (2, 1)


def test_sweep_checks_catch_a_changed_row(tmp_path):
    path = tmp_path / "rows.csv"
    _, stdout = _sweep_bytes(path, "--ell", "fixed:3")
    good_sha = checks.sha256_of(path)
    assert checks.check_sweep(path, stdout, good_sha, 2, random.Random(0)) == []
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[2] = str(int(fields[2]) + 1)  # the F count of one row
    lines[5] = ",".join(fields)
    path.write_text("".join(lines))
    problems = checks.check_sweep(path, stdout, good_sha, 2, random.Random(0))
    assert any("sha256" in p for p in problems)
    assert any(p.startswith("sum_log_F=") for p in problems)


def test_verdict_checks():
    prime = {"n": 1000003, "prime": True}
    composite = {"n": 1000003 * 1000033, "prime": False}
    assert checks.verdict_problem(prime, "ok", "probably-prime", None) is None
    assert checks.verdict_problem(prime, "ok", "composite", ["mr-round", "0"]) is not None
    assert checks.verdict_problem(prime, "timeout", None, None) == "timeout at 20 bits"
    assert checks.verdict_problem(composite, "ok", "composite", ["factor", "1000033"]) is None
    assert checks.verdict_problem(composite, "ok", "composite", ["factor", "7"]) is not None
    assert checks.verdict_problem(composite, "ok", "probably-prime", None) is not None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, count = bench_run.tail(values)
    assert (value, count) == (90, 100)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert bench_run.tail([3.0, 1.0]) == (3.0, 100.0, 2)
