import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import traceback

import numpy as np
import pytest

from witnesslab import analysis, cli, galois, numth, product, witness
from witnesslab.analysis import (
    AdversarialConfig,
    BoundsReport,
    FixedEll,
    NoQFound,
    SmallestEll,
    SweepAggregate,
    _zeta,
    adversarial_generate,
    adversarial_pool,
    compare_bounds,
    eval_c1,
    eval_c3,
    examine,
    sweep,
)
from witnesslab.numth import (
    carmichael_lambda,
    euler_phi,
    is_prime,
    lcm_range,
    primes_up_to,
    unity_root_count,
)
from witnesslab.witness import count_F


# -- per-n records ----------------------------------------------------------


def test_examine_full_record():
    rec = examine(35, 2, FixedEll(3))
    assert (rec.n, rec.composite) == (35, True)
    assert (rec.F, rec.MR, rec.Gal, rec.D, rec.H) == (4, 2, 36, 144, 576)
    assert (rec.k, rec.Str, rec.ell) == (1, 144, 3)
    assert rec.skip is None
    assert rec.covered


def rebind_everywhere(monkeypatch, original, replacement):
    """Replace original at every witnesslab module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "witnesslab" or name.startswith("witnesslab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("policy", [FixedEll(3), SmallestEll()])
def test_examine_factors_n_once(monkeypatch, policy):
    original = numth.factorize
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    rebind_everywhere(monkeypatch, original, counting)
    for n in (35, 1105, 3 * 5 * 7 * 11 * 13, 9, 27, 97):
        calls.clear()
        examine(n, 2, policy)
        assert calls.count(n) == 1, (n, calls)


@pytest.mark.parametrize("policy", [FixedEll(3), FixedEll(5), SmallestEll()])
def test_examine_matches_the_public_counts(policy):
    for n in range(3, 3001, 2):
        rec = examine(n, 2, policy)
        if not rec.covered:
            continue
        ell = rec.ell
        expected = (
            galois.count_Gal(n, ell),
            galois.count_D(n, ell),
            galois.count_H(n, ell - 1),
            galois.cofactor_k(n, ell),
        )
        assert (rec.Gal, rec.D, rec.H, rec.k) == expected, (n, ell)


@pytest.mark.parametrize(
    "policy,ns",
    [(FixedEll(3), (35, 65, 101, 125, 6545)), (SmallestEll(), (7, 35, 1105, 6545, 3**5 * 7))],
)
def test_examine_checks_each_conductor_once(monkeypatch, policy, ns):
    """A covered n builds no RingDescriptor, walks each prime once, and computes D once."""
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    for fn in (galois.local_data, galois._conductor_counts, galois.count_Gal,
               galois.count_D, galois.cofactor_k):
        rebind_everywhere(monkeypatch, fn, counting(fn.__name__, fn))
    check = galois.RingDescriptor.__post_init__
    monkeypatch.setattr(galois.RingDescriptor, "__post_init__", counting("RingDescriptor", check))
    for n in ns:
        calls.clear()
        rec = examine(n, 2, policy)
        assert rec.covered, n
        primes = len(numth.factorize(n).factors)
        assert sorted(calls) == ["_conductor_counts"] + ["local_data"] * primes, (n, calls)


def test_counts_take_n_or_its_factorization():
    for n in range(3, 3001, 2):
        fac = numth.factorize(n)
        assert witness.count_F(fac) == witness.count_F(n)
        assert witness.count_MR(fac) == witness.count_MR(n)
        assert witness.is_carmichael(fac) == witness.is_carmichael(n)
        for ell in (3, 5, 7, 11):
            assert galois.count_H(fac, ell - 1) == galois.count_H(n, ell - 1)
            if galois.conductor_failure(n, ell) is not None:
                continue
            for count in (galois.count_Gal, galois.count_D, galois.cofactor_k, galois.unit_count):
                assert count(fac, ell) == count(n, ell), (count.__name__, n, ell)
            assert product.count_Str(fac, 2, ell) == product.count_Str(n, 2, ell)


def test_examine_skip_reasons():
    assert examine(121, 2, FixedEll(3)).skip == "perfect-power"
    assert examine(9, 2, FixedEll(3)).skip == "perfect-power"
    assert examine(3, 2, FixedEll(3)).skip == "not-coprime"
    assert examine(7, 2, FixedEll(3)).skip == "not-primitive-root"
    assert examine(7, 2, SmallestEll(3)).skip == "no-conductor"
    # F and MR are always present, even for skipped n
    rec = examine(121, 2, FixedEll(3))
    assert (rec.F, rec.MR) == (10, 10)
    assert rec.Gal is None and not rec.covered


@pytest.mark.parametrize("n,r", [(1, 2), (-5, 2), (34, 2), (35, -1), (35, 2.5), (35.0, 2)])
def test_examine_rejects_bad_inputs_before_factoring(monkeypatch, n, r):
    def no_factoring(n):
        raise AssertionError("examine factored a rejected input")

    monkeypatch.setattr(analysis, "factorize", no_factoring)
    if isinstance(n, float) or isinstance(r, float):
        error, message = TypeError, "cannot be interpreted as an integer"
    else:
        error, message = ValueError, "r must be >= 0" if n == 35 else "n must be odd and >= 3"
    with pytest.raises(error, match=message):
        examine(n, r, FixedEll(3))


@pytest.mark.parametrize("policy", ["fixed:3", 3, None])
@pytest.mark.parametrize("n", [9, 35, 340282366920956911314252961405970309027])
def test_examine_rejects_an_unknown_policy_before_factoring(monkeypatch, n, policy):
    """Also for a square, which needs no conductor, and for a 128-bit
    semiprime, which rho would take seconds to give up on."""
    def no_factoring(n):
        raise AssertionError("examine factored n under an unknown policy")

    monkeypatch.setattr(analysis, "factorize", no_factoring)
    with pytest.raises(TypeError, match="unknown conductor policy"):
        examine(n, 2, policy)


def test_examine_smallest_policy_searches():
    rec = examine(7, 2, SmallestEll())
    assert rec.ell == 5 and rec.covered


def test_examine_prime_power():
    rec = examine(125, 2, FixedEll(3))
    assert rec.covered and rec.Gal == 24 and rec.Str == 384


# -- aggregation ------------------------------------------------------------


def build_agg(lo, hi, r=2):
    agg = SweepAggregate(rounds=r)
    for n in range(lo, hi + 1, 2):
        agg.add_record(examine(n, r, FixedEll(3)))
    return agg


def test_sweep_matches_manual_aggregate():
    agg = sweep(999, 2, FixedEll(3))
    manual = build_agg(3, 999)
    assert agg.sum_F == manual.sum_F == 5154
    assert agg.sum_Gal == manual.sum_Gal == 18456
    assert agg.sum_Str == manual.sum_Str
    assert agg.count_composite == manual.count_composite == 332
    assert agg.count_covered_composite == 80
    assert agg == manual


def aggregate_fields(agg, kind):
    """(name, value) for each field of agg holding a value of type kind."""
    pairs = [(f.name, getattr(agg, f.name)) for f in dataclasses.fields(agg)]
    return [(name, value) for name, value in pairs if isinstance(value, kind)]


def test_merge_is_exact_for_integers():
    whole = build_agg(3, 2999)
    parts = build_agg(3, 999).merge(build_agg(1001, 1999)).merge(build_agg(2001, 2999))
    ints = aggregate_fields(whole, int)
    assert len(ints) == len(dataclasses.fields(whole)) == 14
    for name, value in ints:
        assert getattr(parts, name) == value, name


def test_merge_log_sums_are_stable():
    whole = build_agg(3, 2999)
    parts = build_agg(2001, 2999).merge(build_agg(3, 999)).merge(build_agg(1001, 1999))
    for name in ("sum_log_F", "sum_log_MR_r", "sum_log_H"):
        assert getattr(parts, name) == getattr(whole, name) > 0, name
        assert parts.summary()[name] == whole.summary()[name], name


@pytest.mark.parametrize("policy", [FixedEll(3), SmallestEll()], ids=["fixed3", "smallest"])
def test_summary_log_sums_are_the_exact_sums_of_the_rows(policy):
    rows = []
    summary = sweep(10001, 2, policy, record_sink=rows.append).summary()
    covered = [rec for rec in rows if rec.covered]
    assert summary["sum_log_F"] == math.fsum(math.log(rec.F) for rec in rows)
    assert summary["sum_log_MR_r"] == math.fsum(2 * math.log(rec.MR) for rec in rows)
    assert summary["sum_log_H"] == math.fsum(math.log(rec.H) for rec in covered)


def test_aggregate_does_not_depend_on_the_chunk_width(monkeypatch):
    for policy in (FixedEll(3), SmallestEll()):
        default_rows, rows = [], []
        default = sweep(5001, 2, policy, record_sink=default_rows.append)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_CHUNK_ODDS", 7)
            assert len(analysis._chunk_ranges(5001)) == 358
            assert sweep(5001, 2, policy, record_sink=rows.append) == default
        assert_same_records(rows, default_rows)


def test_log_units_refuse_a_value_that_would_truncate():
    assert analysis._log_units(0.0) == 0
    assert analysis._log_units(math.log(2)) / 2**53 == math.log(2)
    with pytest.raises(ValueError):
        analysis._log_units(0.1)


def test_merge_rejects_mixed_rounds():
    with pytest.raises(ValueError):
        SweepAggregate(rounds=2).merge(SweepAggregate(rounds=3))


def test_sweep_worker_count_is_invisible():
    """Chunked reduction makes the result independent of parallelism."""
    serial = sweep(5001, 2, FixedEll(3), workers=1)
    parallel = sweep(5001, 2, FixedEll(3), workers=3)
    assert serial.sum_F == parallel.sum_F
    assert serial.sum_Str == parallel.sum_Str
    assert serial.sum_log_F == parallel.sum_log_F
    assert serial.sum_log_MR_r == parallel.sum_log_MR_r
    assert serial.sum_log_H == parallel.sum_log_H
    assert serial == parallel


def test_sweep_record_sink_order():
    seen = []
    sweep(301, 2, FixedEll(3), workers=2, record_sink=lambda rec: seen.append(rec.n))
    assert seen == list(range(3, 302, 2))


def _record_the_workers(monkeypatch, events):
    """Patch os.fork, os.kill and os.waitpid to log each worker forked,
    killed and reaped in events; return the list of forked pids."""
    forked = []
    fork, kill, waitpid = os.fork, os.kill, os.waitpid

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_kill(pid, sig):
        events.append(("kill", pid, sig))
        kill(pid, sig)

    def recording_waitpid(pid, options):
        reaped = waitpid(pid, options)
        events.append(("reaped", pid))
        return reaped

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", recording_kill)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return forked


def _killed_then_reaped(forked):
    return [("kill", pid, signal.SIGKILL) for pid in forked] + [("reaped", pid) for pid in forked]


def test_sweep_sink_error_terminates_the_pool(monkeypatch):
    """A failing sink kills and reaps the workers before the error reaches
    the caller, instead of waiting for every chunk."""
    events = []
    forked = _record_the_workers(monkeypatch, events)

    def failing_sink(rec):
        raise OSError("sink is full")

    try:
        sweep(200001, 2, FixedEll(3), workers=2, record_sink=failing_sink)
    except OSError as exc:
        events.append(str(exc))
    assert len(forked) == 2
    assert events == _killed_then_reaped(forked) + ["sink is full"]


def test_sweep_records_roundtrip():
    recs = []
    sweep(99, 2, FixedEll(3), record_sink=recs.append)
    assert [r.n for r in recs] == list(range(3, 100, 2))
    assert recs[0].skip == "not-coprime"


def test_sweep_text_sink_error_terminates_the_pool(monkeypatch):
    """A failing write of a chunk's rendered rows kills and reaps the workers too."""
    events = []
    forked = _record_the_workers(monkeypatch, events)

    def failing_write(text):
        events.append(text[:8])
        raise OSError("disk is full")

    try:
        sweep(200001, 2, FixedEll(3), workers=2, record_sink=failing_write, row_format="csv")
    except OSError as exc:
        events.append(str(exc))
    assert len(forked) == 2
    assert events == ["3,0,2,2,", *_killed_then_reaped(forked), "disk is full"]


def test_pool_is_no_larger_than_the_work(monkeypatch, tmp_path):
    forks = _record_the_workers(monkeypatch, [])
    assert cli.main(["sweep", "--max", "10", "--workers", "64", "--out", str(tmp_path / "rows.csv")]) == 0
    assert sweep(10, 2, FixedEll(3), workers=64) == sweep(10, 2, FixedEll(3))
    assert forks == []  # 4 odd n make one chunk, run serially
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 7)
    chunks = len(analysis._chunk_ranges(301))
    assert sweep(301, 2, FixedEll(3), workers=64) == sweep(301, 2, FixedEll(3))
    assert len(forks) == chunks == 22
    assert sweep(301, 2, FixedEll(3), workers=3) == sweep(301, 2, FixedEll(3))
    assert len(forks) == chunks + 3


def test_a_dead_worker_raises_instead_of_hanging():
    """A worker that dies mid-sweep ends sweep with ChildProcessError naming
    its chunk, and the CLI with exit 1 and one error line.  The run is a
    subprocess with a timeout, so that a hang fails this test instead of
    stopping the suite."""
    script = textwrap.dedent(
        """
        import os, sys
        from witnesslab import analysis, cli

        chunk = analysis._process_chunk

        def dying_chunk(args):
            if args[0] == 12003:  # the fourth chunk, the second worker's second
                os._exit(9)
            return chunk(args)

        analysis._process_chunk = dying_chunk
        try:
            analysis.sweep(20001, 2, analysis.FixedEll(3), workers=2)
        except ChildProcessError as exc:
            print(f"raised: {exc}")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        sys.exit(cli.main(["sweep", "--max", "20001", "--workers", "2", "--out", os.devnull]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ), timeout=60
    )
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("raised: ") and "n = 12003" in lines[0], proc.stdout
    assert lines[1:] == ["no child left"], proc.stdout
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "n = 12003" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_a_chunk_error_under_two_workers_follows_the_earlier_rows(monkeypatch, tmp_path, capsys):
    """A chunk's exception surfaces with its own type after every earlier
    chunk's rows have reached the sink in order; the CLI exits 1."""
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 7)
    failing = list(analysis._chunk_ranges(301))[5]
    chunk = analysis._process_chunk

    def over_budget(args):
        if args[0] == failing:
            raise numth.BudgetExceeded(f"chunk at {failing} over budget")
        return chunk(args)

    monkeypatch.setattr(analysis, "_process_chunk", over_budget)
    seen = []
    with pytest.raises(numth.BudgetExceeded, match=f"chunk at {failing} over budget"):
        sweep(301, 2, FixedEll(3), workers=2, record_sink=lambda rec: seen.append(rec.n))
    assert seen == list(range(3, failing, 2))
    assert cli.main(["sweep", "--max", "301", "--workers", "2", "--out", str(tmp_path / "rows.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: chunk at {failing} over budget\n"
    assert captured.out == ""


def test_a_chunk_error_in_a_worker_carries_its_traceback(monkeypatch, tmp_path, capsys):
    """The exception of a chunk run in a forked worker has the worker's
    traceback as its cause, so it names the helper that raised it, as under
    one worker; it keeps its type, and the CLI prints one error line."""
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 7)
    failing = list(analysis._chunk_ranges(301))[5]
    aggregate = analysis._aggregate

    def aggregate_over_budget(cols, r):
        if cols.n[0] == failing:
            raise numth.BudgetExceeded(f"chunk at {failing} over budget")
        return aggregate(cols, r)

    monkeypatch.setattr(analysis, "_aggregate", aggregate_over_budget)
    for workers in (1, 2):
        with pytest.raises(numth.BudgetExceeded, match=f"chunk at {failing} over budget") as info:
            sweep(301, 2, FixedEll(3), workers=workers)
        text = "".join(traceback.format_exception(info.type, info.value, info.tb))
        assert "in aggregate_over_budget" in text, workers
    assert "in aggregate_over_budget" in str(info.value.__cause__)
    assert cli.main(["sweep", "--max", "301", "--workers", "2", "--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err == f"error: chunk at {failing} over budget\n"


@pytest.mark.parametrize(
    "make, error",
    [(lambda: FixedEll(9), ValueError), (lambda: FixedEll(2), ValueError), (lambda: FixedEll(1), ValueError),
     (lambda: FixedEll(-3), ValueError), (lambda: SmallestEll(2), ValueError), (lambda: SmallestEll(0), ValueError),
     (lambda: FixedEll(3.0), TypeError), (lambda: SmallestEll(10.5), TypeError)],
    ids=["fixed9", "fixed2", "fixed1", "fixed-3", "smallest2", "smallest0", "fixed3.0", "smallest10.5"],
)
def test_policies_reject_invalid_values(make, error):
    with pytest.raises(error):
        make()


def test_sweep_rejects_an_unknown_row_format():
    """sweep and render_records share one check and its message."""
    message = "row_format must be 'csv' or 'json', got 'xml'"
    with pytest.raises(ValueError, match=message):
        sweep(99, 2, FixedEll(3), record_sink=print, row_format="xml")
    for records in ([examine(35, 2, FixedEll(3))], []):
        with pytest.raises(ValueError, match=message):
            analysis.render_records(records, "xml")


def _no_fork():
    raise AssertionError("no worker may start")


@pytest.mark.parametrize("policy", [3, "fixed:3", None])
def test_sweep_with_an_unknown_policy_stops_before_any_chunk(monkeypatch, policy):
    def no_sieve(limit):
        raise AssertionError("sweep sieved for rejected arguments")

    chunks = []
    monkeypatch.setattr(analysis, "_process_chunk", _stop_at_the_first_chunk(chunks))
    monkeypatch.setattr(analysis, "_odd_primes", no_sieve)
    monkeypatch.setattr(os, "fork", _no_fork)
    # A worker count that is not an integer stops it too, at any range.
    for x_max in (99, 10**5):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sweep(x_max, 2, FixedEll(3), workers=2.5)
    for workers in (1, 2):
        with pytest.raises(TypeError, match="unknown conductor policy"):
            sweep(99, 2, policy, workers=workers)
        with pytest.raises(TypeError, match="unknown conductor policy"):
            sweep(99, 2, policy, workers=workers, record_sink=print, row_format="csv")
        # So is a round count that is not an integer, under a known policy.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sweep(99, 2.5, FixedEll(3), workers=workers)
    assert chunks == []


# -- block engine -------------------------------------------------------------


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b, (a, b)
        assert [type(v) for v in a] == [type(v) for v in b], a


POLICIES = [FixedEll(3), SmallestEll(), FixedEll(5), FixedEll(7)]
POLICY_IDS = ["fixed3", "smallest", "fixed5", "fixed7"]


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
def test_block_rows_equal_examine_rows_up_to_1e5(monkeypatch, policy):
    reference = [examine(n, 2, policy) for n in range(3, 100001, 2)]
    examined = []
    real_examine = analysis.examine

    def counting_examine(n, r, policy):
        examined.append(n)
        return real_examine(n, r, policy)

    monkeypatch.setattr(analysis, "examine", counting_examine)
    rows = []
    agg = sweep(100000, 2, policy, record_sink=rows.append)
    assert examined == []  # every chunk went through the block engine
    assert_same_records(rows, reference)
    manual = SweepAggregate(rounds=2)
    for rec in reference:
        manual.add_record(rec)
    assert agg == manual


WINDOW_STARTS = [10**6 + 1, 10**7 + 1, 3036996499, 3036998499, 10**10 + 1, 10**12 + 1]


# The fixed:3 windows keep their bare start as id.  3036998499 straddles
# isqrt(2**63 - 1) = 3037000499, past which n**2 leaves int64.
@pytest.mark.parametrize(
    "start,policy",
    [(start, policy) for policy in POLICIES for start in WINDOW_STARTS],
    ids=[f"{start}" if name == "fixed3" else f"{start}-{name}" for name in POLICY_IDS for start in WINDOW_STARTS],
)
def test_block_window_equals_examine(start, policy):
    stop = start + 2 * 2000
    primes = numth._odd_primes(math.isqrt(stop - 1))
    rows = analysis._records(analysis._block_columns(start, stop, 2, policy, primes))
    assert_same_records(rows, [examine(n, 2, policy) for n in range(start, stop, 2)])


@pytest.mark.parametrize("policy", [FixedEll(3), SmallestEll()], ids=["fixed3", "smallest"])
@pytest.mark.parametrize("r", [0, 2, 300])
def test_chunk_aggregate_equals_add_record_over_its_records(policy, r):
    cols = analysis._block_columns(3, 4003, r, policy, numth._odd_primes(63))
    manual = SweepAggregate(rounds=r)
    for rec in analysis._records(cols):
        manual.add_record(rec)
    assert analysis._aggregate(cols, r) == manual


def test_block_gives_no_conductor_rows(monkeypatch):
    policy = SmallestEll(7)
    reference = [examine(n, 2, policy) for n in range(3, 20002, 2)]
    monkeypatch.setattr(analysis, "examine", None)  # the block engine must not need it
    rows = []
    sweep(20001, 2, policy, record_sink=rows.append)
    assert_same_records(rows, reference)
    skips = {rec.skip for rec in rows}
    assert {"no-conductor", "perfect-power", None} == skips
    assert {rec.ell for rec in rows} == {3, 5, 7, None}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
def test_block_engine_needs_no_conductor_memo(monkeypatch, policy, workers):
    """The engine gathers conductors and local data from the conductor
    tables alone: with the per-n lookups that examine makes raising, a
    sweep gives the same rows."""
    reference = []
    agg = sweep(20001, 2, policy, record_sink=reference.append)

    def lookup(*args):
        raise AssertionError("the block engine made a per-n conductor lookup")

    for module in (galois, analysis):  # analysis holds the names it imported
        for name in ("conductor_failure", "find_conductor", "local_data", "_conductor_counts"):
            monkeypatch.setattr(module, name, lookup, raising=False)
    rows = []
    assert sweep(20001, 2, policy, workers=workers, record_sink=rows.append) == agg
    assert_same_records(rows, reference)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_sieves_once_before_its_workers_fork(monkeypatch, workers):
    """sweep sieves the odd primes up to isqrt(x_max) once, in the calling
    process, and every chunk takes its sieving primes from them."""
    reference = sweep(30001, 2, SmallestEll())
    parent, limits = os.getpid(), []
    real_primes = analysis._odd_primes

    def sieve(limit):
        assert os.getpid() == parent, "a worker sieved"
        limits.append(limit)
        return real_primes(limit)

    monkeypatch.setattr(analysis, "_odd_primes", sieve)
    assert sweep(30001, 2, SmallestEll(), workers=workers) == reference
    assert limits == [math.isqrt(30001)]


def _stop_at_the_first_chunk(chunks):
    def first_chunk(args):
        chunks.append(args[:2])
        raise LookupError("stop at the first chunk")

    return first_chunk


def test_sweep_past_the_sieve_cap_stops_before_any_chunk(monkeypatch, tmp_path, capsys):
    """isqrt(x_max) above 10**8 would need sieving primes past primes_up_to's cap."""
    chunks = []
    monkeypatch.setattr(analysis, "_process_chunk", _stop_at_the_first_chunk(chunks))
    monkeypatch.setattr(os, "fork", _no_fork)
    x_max = (10**8 + 1) ** 2
    assert math.isqrt(x_max - 1) == 10**8 == numth._SIEVE_LIMIT
    for workers in (1, 2):
        with pytest.raises(numth.BudgetExceeded):
            sweep(x_max, 2, FixedEll(3), workers=workers)
    assert cli.main(["sweep", "--max", str(x_max), "--out", str(tmp_path / "rows.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: sieve capped at {10**8}, got {10**8 + 1}\n"
    assert captured.out == ""
    assert chunks == []
    # The same boundary under a smaller cap, where the sweep just below it is
    # short; the cap is the sieve's own, which the trial primes (10**4) fit.
    monkeypatch.setattr(numth, "_SIEVE_LIMIT", 10**4)
    with pytest.raises(numth.BudgetExceeded):
        sweep((10**4 + 1) ** 2, 2, FixedEll(3))
    with pytest.raises(LookupError):
        sweep((10**4 + 1) ** 2 - 1, 2, FixedEll(3))
    assert chunks == [(3, 4003)]


def test_sweep_makes_its_chunks_lazily(monkeypatch):
    starts, drawn, chunks = analysis._chunk_ranges(10**9), [], []

    class CountedStarts:
        def __len__(self):
            return len(starts)

        def __iter__(self):
            for start in starts:
                drawn.append(start)
                yield start

    monkeypatch.setattr(analysis, "_chunk_ranges", lambda x_max: CountedStarts())
    monkeypatch.setattr(analysis, "_process_chunk", _stop_at_the_first_chunk(chunks))
    with pytest.raises(LookupError):
        sweep(10**9, 2, FixedEll(3))
    assert drawn == [3] and chunks == [(3, 4003)]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_without_a_sink_builds_no_records(monkeypatch, workers):
    with_sink = sweep(20001, 2, FixedEll(3), workers=workers, record_sink=lambda rec: None)

    class NoRecords:
        def _make(*args):
            raise AssertionError("a record was built with no sink")

    monkeypatch.setattr(analysis, "SweepRecord", NoRecords)
    monkeypatch.setattr(analysis, "_render", NoRecords._make)
    assert sweep(20001, 2, FixedEll(3), workers=workers) == with_sink
    assert sweep(20001, 2, FixedEll(3), workers=workers, row_format="csv") == with_sink
    assert analysis._process_chunk((3, 4003, 2, FixedEll(3), None, numth._odd_primes(63)))[0] == []


def _record_cells(rec):
    """The CSV cells csv.writer is given: booleans become 1/0 and None an empty cell."""
    return ["" if v is None else int(v) if isinstance(v, bool) else v for v in rec]


@pytest.mark.parametrize("policy", [FixedEll(3), SmallestEll()], ids=["fixed3", "smallest"])
def test_rendered_rows_match_csv_writer_and_json_dumps(policy):
    records = []
    sweep(10001, 2, policy, record_sink=records.append)
    expected_csv = io.StringIO()
    writer = csv.writer(expected_csv, lineterminator="\n")
    writer.writerow(analysis.SweepRecord._fields)
    writer.writerows(map(_record_cells, records))
    expected_json = "".join(json.dumps(rec._asdict(), separators=(",", ":")) + "\n" for rec in records)
    rendered = {}
    for fmt in ("csv", "json"):
        chunks = []
        sweep(10001, 2, policy, record_sink=chunks.append, row_format=fmt)
        assert len(chunks) == len(analysis._chunk_ranges(10001))
        rendered[fmt] = "".join(chunks)
    assert analysis.CSV_HEADER + rendered["csv"] == expected_csv.getvalue()
    assert rendered["json"] == expected_json
    assert analysis.render_records(records[:3], "json") == "".join(expected_json.splitlines(True)[:3])
    assert analysis.render_records([]) == analysis.render_records([], "json") == ""


def test_block_checks_the_sieved_factorization(monkeypatch):
    n = np.array([27, 35], dtype=np.int64)
    assert analysis._split_off(n, np.array([27, 5])).tolist() == [1, 7]
    with pytest.raises(ValueError):
        analysis._split_off(n, np.array([27, 10]))
    # A composite among the sieving primes extracts 9 * 27 from n = 27.
    real_primes = analysis._odd_primes
    monkeypatch.setattr(analysis, "_odd_primes", lambda limit: np.sort(np.append(real_primes(limit), 9)))
    for policy in POLICIES:
        with pytest.raises(ValueError):
            analysis._block_columns(3, 4003, 2, policy, analysis._odd_primes(63))


def _per_row_log_units(values, scale):
    return sum(analysis._log_units(scale * math.log(v)) for v in values)


@pytest.mark.parametrize("scale", [0, 1, 3, 3000])
def test_log_sums_by_distinct_value_equal_the_per_row_sums(scale):
    repeats = np.array([35, 4, 1, 35, 2**62 + 1, 4, 35, 1, 9, 2**63 - 1] * 3, dtype=np.int64)
    past_int64 = np.array([2**63, 35, 10**400, 2**63, 1, 10**400, 7], dtype=object)
    for values in (repeats, past_int64, repeats[:1], repeats[:0]):
        assert analysis._log_units_sum(values, scale) == _per_row_log_units(values.tolist(), scale)


def test_block_log_sums_refuse_a_value_that_would_truncate():
    values = [35, 4, 1, 10**40]
    assert analysis._log_units_sum(values, 3) == _per_row_log_units(values, 3)
    with pytest.raises(ValueError):
        analysis._log_units(math.log(1.1))
    with pytest.raises(ValueError):
        analysis._log_units_sum([35, 1.1])


# -- series constants -------------------------------------------------------


def test_eval_c1_small_bound_by_hand():
    # prime powers up to 4 are 2, 3, 4
    expected = math.log(2) / 2 + math.log(3) / 6 + math.log(2) / 8
    val, tail = eval_c1(4)
    assert val == pytest.approx(expected, abs=1e-15)
    assert tail == pytest.approx(2 * (math.log(4) + 1) / 4)


def test_eval_c1_converges():
    v4, t4 = eval_c1(10**4)
    v5, t5 = eval_c1(10**5)
    assert abs(v5 - v4) < t4
    assert t5 < t4
    assert v5 == pytest.approx(0.898454904829415, abs=1e-12)


def test_eval_c3_reduces_to_c1():
    for bound in (100, 10**4):
        assert eval_c3(1, bound)[0] == eval_c1(bound)[0]


def test_eval_c3_term_by_term():
    """Every prime power s <= 1000 adds f(s, gcd(lambda(s), d))**2 * log p/(s*phi(s)).

    fsum rounds exactly, so the partial sum at each bound s equals the
    fsum of the expected terms up to s only if every term is the same.
    """
    powers = sorted(
        (p**j, p) for p in primes_up_to(1000) for j in range(1, 10) if p**j <= 1000
    )
    for d in range(1, 13):
        terms = []
        for s, p in powers:
            f = unity_root_count(s, math.gcd(carmichael_lambda(s), d))
            terms.append(f * f * math.log(p) / (s * euler_phi(s)))
            assert eval_c3(d, s)[0] == math.fsum(terms), (d, s)
    # s = 3, d = 2 by hand: 2 square roots of 1 mod 3
    inc = eval_c3(2, 3)[0] - eval_c3(2, 2)[0]
    assert inc == pytest.approx(4 * math.log(3) / 6, rel=1e-12)


def _series_sums_by_loop(d, bound):
    """The series sums as one loop over the prime powers: the reference."""
    c1_terms, c3_terms = [], []
    for p in primes_up_to(bound):
        s, j = p, 1
        while s <= bound:
            f = numth._unity_roots_prime_power(p, j, d)
            log_p, den = math.log(p), s * (s - s // p)
            c1_terms.append(log_p / den)
            c3_terms.append(f * f * log_p / den)
            s, j = s * p, j + 1
    return math.fsum(c1_terms), math.fsum(c3_terms)


@pytest.mark.parametrize("bound", [2, 3, 4, 8, 9, 16, 1000, 10**5])
def test_series_columns_equal_the_loop_bit_for_bit(bound):
    # Bounds 8 and 16 reach 2**j with j >= 3, whose f has its own rule.
    for d in (1, 2, 3, 4, 6, 10, 12, 28, 2**64 * 3 * 5 * 7):
        assert analysis._series_sums(d, bound) == _series_sums_by_loop(d, bound), d


def test_series_values_are_frozen_bit_for_bit():
    # Both sums come from one pass; every value is == the two-pass one.
    assert eval_c1(10**5)[0] == 0.898454904829415
    assert eval_c1(1000)[0] == 0.897460846258802
    frozen = {
        2: (2.9006724374666275, 2.8966750513020276),
        3: (1.7998586714790523, 1.794899537022557),
        4: (4.7974969991915755, 4.787438724729198),
        6: (6.506287504065177, 6.486429814357047),
        10: (6.3330254572372535, 6.305086317125299),
    }
    for d, (at_10_5, at_1000) in frozen.items():
        assert eval_c3(d, 10**5)[0] == at_10_5, d
        assert eval_c3(d, 1000)[0] == at_1000, d
        assert analysis._series_sums(d, 10**5) == (eval_c1(10**5)[0], at_10_5)


def test_eval_c3_tail_scales_with_d():
    _, t1 = eval_c1(1000)
    _, t3 = eval_c3(3, 1000)
    assert t3 == pytest.approx((2 * 3) ** 2 * t1)


def test_series_rejects_tiny_bound():
    with pytest.raises(ValueError):
        eval_c1(1)


# -- adversarial construction -----------------------------------------------


def test_adversarial_pool_m60():
    cfg = AdversarialConfig(M=60)
    assert adversarial_pool(cfg) == (7, 11, 13, 31, 61)


def test_adversarial_pool_respects_cutoff_and_bound():
    cfg = AdversarialConfig(M=60, prime_bound=30, cutoff=10)
    assert adversarial_pool(cfg) == (11, 13)


def test_adversarial_pool_has_only_odd_primes():
    # 2 - 1 divides every M, and an odd M leaves 2 prime to M
    assert adversarial_pool(AdversarialConfig(M=3, cutoff=0)) == ()
    assert adversarial_pool(AdversarialConfig(M=60, cutoff=0)) == (7, 11, 13, 31, 61)
    with pytest.raises(ValueError, match="smaller than k=1"):
        adversarial_generate(AdversarialConfig(M=3, cutoff=0, k=1), rng=0)


def test_adversarial_subset_forcing():
    cfg = AdversarialConfig(M=60)
    out = adversarial_generate(cfg, subset=(7, 11, 13))
    assert (out.n, out.s, out.q) == (41041, 1001, 41)
    assert out.predicted_floor == euler_phi(1001) == 720
    assert count_F(out.n) >= out.predicted_floor
    assert (out.n - 1) % 60 == 0


def test_adversarial_two_prime_subset():
    out = adversarial_generate(AdversarialConfig(M=60, k=2), subset=(7, 11))
    assert out.s == 77 and out.q == 53 and out.n == 4081
    assert (out.n - 1) % 60 == 0
    assert count_F(out.n) >= out.predicted_floor == euler_phi(77) == 60


def test_adversarial_seeded_draws():
    cfg = AdversarialConfig(M=60)
    a = adversarial_generate(cfg, rng=4)
    b = adversarial_generate(cfg, rng=4)
    assert a == b
    assert len(a.chosen) == 3
    assert set(a.chosen) <= set(a.pool)
    assert (a.n - 1) % 60 == 0
    assert count_F(a.n) >= a.predicted_floor


def test_adversarial_floor_holds_across_seeds():
    cfg = AdversarialConfig(M=60)
    for seed in range(8):
        out = adversarial_generate(cfg, rng=seed)
        assert out.q not in out.chosen
        assert count_F(out.n) >= out.predicted_floor


def test_adversarial_rejects_bad_subsets():
    cfg = AdversarialConfig(M=60)
    with pytest.raises(ValueError):
        adversarial_generate(cfg, subset=(7, 11, 17))  # 17 not in pool
    with pytest.raises(ValueError):
        adversarial_generate(cfg, subset=(7, 7, 11))  # repeat
    with pytest.raises(ValueError):
        adversarial_generate(AdversarialConfig(M=60, prime_bound=12))
    with pytest.raises(ValueError, match="M must be >= 1, got -60"):
        AdversarialConfig(M=-60)  # q would walk down from a negative target forever


def test_adversarial_needs_at_least_one_prime():
    # with no pool prime s = 1 and n = q would be a prime
    with pytest.raises(ValueError):
        adversarial_generate(AdversarialConfig(M=60, k=0), rng=0)
    with pytest.raises(ValueError):
        adversarial_generate(AdversarialConfig(M=60), subset=())


def test_adversarial_no_q_when_s_shares_factor_with_m():
    # 7 divides lcm(1..12), so s = 7 could never be inverted mod M: the
    # pool leaves out every prime dividing M
    cfg = AdversarialConfig(M=lcm_range(12), k=1)
    assert not {7, 11} & set(adversarial_pool(cfg))
    with pytest.raises(ValueError, match="7 is not in the pool"):
        adversarial_generate(cfg, subset=(7,))


def test_adversarial_q_limit():
    cfg = AdversarialConfig(M=60, q_search_limit=7)
    with pytest.raises(NoQFound):
        adversarial_generate(cfg, subset=(7, 11, 13))  # needs q = 41


# -- bounds report ----------------------------------------------------------


def test_compare_bounds_rows():
    agg = sweep(999, 2, FixedEll(3))
    report = compare_bounds(agg, 2)
    labels = [row.label for row in report.rows]
    assert labels == [
        "gal-mean-lower",
        "gal-mean-upper",
        "mr-mean-lower",
        "mr-mean-upper",
        "str-mean-lower",
        "str-mean-upper",
        "mr-geometric-slope",
        "h-geometric-slope",
    ]
    row = next(row for row in report.rows if row.label == "gal-mean-lower")
    assert row.empirical == pytest.approx(18456 / 999)
    assert row.reference == pytest.approx(999 ** (15 / 23))


def test_log_value_formats_as_its_float():
    for value in (1.5e300, 2.0, 9.9999996e12, 1e-5):
        assert format(analysis._LogValue(math.log(value)), ".6e") == format(value, ".6e")
    assert format(analysis._LogValue(math.log(12345678 * 10**400)), ".6e") == "1.234568e+407"
    assert format(analysis._LogValue(math.log(99999996 * 10**392)), ".6e") == "1.000000e+400"
    assert format(analysis._LogValue(math.inf), ".6e") == "inf"


def test_compare_bounds_past_the_float_range():
    agg = sweep(9999, 100, FixedEll(3))
    report = compare_bounds(agg, 2)
    row = next(row for row in report.rows if row.label == "mr-mean-lower")
    assert isinstance(row.empirical, analysis._LogValue)
    assert row.empirical.ln == pytest.approx(math.log(agg.sum_MR_r) - math.log(9999), rel=1e-15)
    assert row.reference.ln == pytest.approx((100 - 8 / 23) * math.log(9999), rel=1e-15)
    assert isinstance(next(row for row in report.rows if row.label == "gal-mean-lower").empirical, float)


def test_compare_bounds_render_mentions_coverage():
    agg = sweep(999, 2, FixedEll(3))
    lines = compare_bounds(agg, 2).render()
    assert any("composite with conductor data" in line for line in lines)
    assert sum(1 for line in lines if "empirical=" in line) == 8


def test_compare_bounds_r1_has_no_zeta_reference():
    # zeta(r) only converges for r >= 2, so the str upper bound is open at r=1
    agg = sweep(999, 1, FixedEll(3))
    report = compare_bounds(agg, 2)
    row = next(row for row in report.rows if row.label == "str-mean-upper")
    assert row.reference is None or math.isinf(row.reference) or row.note


def test_zeta_matches_mpmath_exactly():
    mpmath = pytest.importorskip("mpmath")
    for r in range(2, 65):
        assert _zeta(r) == float(mpmath.zeta(r)), r


def test_zeta_known_values():
    # runs without mpmath; pi**4 / 90 in floats is itself off by an ulp
    assert _zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert _zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)
    with pytest.raises(ValueError):
        _zeta(1)


def test_compare_bounds_takes_its_rounds_from_the_aggregate():
    for rounds in (1, 2, 3):
        report = compare_bounds(sweep(999, rounds, FixedEll(3)), 2)
        assert report.rounds == rounds
        row = next(row for row in report.rows if row.label == "mr-mean-lower")
        assert row.reference == pytest.approx(999 ** (rounds - 8 / 23))
