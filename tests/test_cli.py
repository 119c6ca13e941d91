import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from witnesslab import analysis, cli, galois, numth, product
from witnesslab.analysis import AdversarialConfig, FixedEll, SmallestEll
from witnesslab.galois import NoConductor
from witnesslab.rng import CounterRng

EXPECTED_HEADER = "n,composite,F,MR,Gal,D,H,k,Str,ell,skip"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("WITNESSLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "witnesslab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout


def test_importing_the_main_module_runs_nothing():
    """`python -m witnesslab` runs the CLI; importing witnesslab.__main__ does not."""
    proc = subprocess.run(
        [sys.executable, "-c", "import witnesslab.__main__"], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_unknown_command_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_test_perfect_power():
    proc = run_cli("test", "9")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=9 verdict=composite reason=perfect-power factor=3 exponent=2"


def test_test_composite_frozen_line():
    proc = run_cli("test", "341", "--seed", "5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "n=341 verdict=composite stage=miller-rabin round=0 rounds=2 seed=5"
    )


def test_test_prime():
    proc = run_cli("test", "97", "--seed", "0")
    assert proc.returncode == 0
    assert "verdict=probably-prime" in proc.stdout


@pytest.mark.parametrize("e", [89, 127, 521])
def test_test_mersenne_prime_above_2_63(e):
    proc = run_cli("test", str(2**e - 1), "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "verdict=probably-prime" in proc.stdout


def test_test_env_seed_matches_flag():
    via_env = run_cli("test", "341", env_extra={"WITNESSLAB_SEED": "5"})
    via_flag = run_cli("test", "341", "--seed", "5")
    assert via_env.stdout == via_flag.stdout


def test_env_seed_of_2_128_is_a_runtime_error():
    proc = run_cli("test", "15", env_extra={"WITNESSLAB_SEED": str(10**41)})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: seed must be in [0, 2**128)")
    assert "Traceback" not in proc.stderr
    top = run_cli("test", "15", "--seed", str(2**128 - 1))
    assert top.returncode == 0 and f"seed={2**128 - 1}" in top.stdout


def test_test_rejects_even_n():
    proc = run_cli("test", "8")
    assert proc.returncode == 2


def test_test_rejects_garbage_ell():
    proc = run_cli("test", "341", "--ell", "nope")
    assert proc.returncode == 2


def test_test_unusable_conductor_is_runtime_error():
    # 7 = 1 mod 3, so ell=3 is structurally invalid for n=7
    proc = run_cli("test", "7", "--ell", "3")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_count_row_frozen():
    proc = run_cli("count", "35", "--ell", "fixed:3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines == [EXPECTED_HEADER, "35,1,4,2,36,144,576,1,144,3,"]


def test_count_skipped_row():
    proc = run_cli("count", "9")
    lines = proc.stdout.strip().splitlines()
    assert lines[1] == "9,1,2,2,,,,,,,perfect-power"


def test_count_rejects_bare_ell():
    proc = run_cli("count", "35", "--ell", "3")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("count", "35", "--ell", "fixed:4"),
        ("count", "35", "--ell", "fixed:2"),
        ("count", "35", "--ell", "auto"),
        ("count", "35", "--rounds", "-1"),
        ("test", "35", "--rounds", "-1"),
        ("sweep", "--max", "11", "--ell", "fixed:4", "--out", "{tmp}/rows.csv"),
        ("sweep", "--max", "11", "--rounds", "-1", "--out", "{tmp}/rows.csv"),
        ("sweep", "--max", "11", "--workers", "0", "--out", "{tmp}/rows.csv"),
        ("sweep", "--max", "11", "--out", "{tmp}/missing/rows.csv"),
        ("sweep", "--max", "2", "--out", "{tmp}/rows.csv"),
        ("sweep", "--max", "-5", "--out", "{tmp}/rows.csv"),
        ("count", "35", "--ell", "smallest:0"),
        ("constants", "--d", "0"),
        ("constants", "--bound", "1"),
        ("adversary", "--M", "0"),
        ("adversary", "--k", "0"),
        ("adversary", "--seed", "-1"),
        ("test", "35", "--ell", "4"),
        ("test", "35", "--ell", "-3"),
        ("test", "35", "--seed", "-1"),
        ("test", "35", "--seed", str(2**128)),
        ("adversary", "--seed", str(10**41)),
        ("oracle-check", "--suite", "f", "--max", "-5"),
        ("adversary", "--pool-bound", "-5"),
        ("adversary", "--pool-bound", "1"),
        ("adversary", "--q-limit", "-1"),
        ("adversary", "--cutoff", "-1"),
        ("adversary", "--M", "lcm:200000000"),
    ],
)
def test_bad_arguments_exit_2(tmp_path, args):
    proc = run_cli(*(arg.format(tmp=tmp_path) for arg in args))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sweep_csv(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli(
        "sweep", "--max", "1001", "--rounds", "2", "--ell", "fixed:3",
        "--out", str(out),
    )
    assert proc.returncode == 0
    rows = out.read_text().splitlines()
    assert rows[0] == EXPECTED_HEADER
    assert rows[1] == "3,0,2,2,,,,,,,not-coprime"
    assert len(rows) == 1 + 500
    summary = proc.stdout.splitlines()[0]
    assert "x=1001" in summary and "composite=333" in summary
    assert "sum_Gal=20616" in summary
    # a fixed conductor fixes d, so the bounds table is printed
    assert any("gal-mean-lower" in line for line in proc.stdout.splitlines())


def test_sweep_json_matches_csv(tmp_path):
    csv_out = tmp_path / "rows.csv"
    json_out = tmp_path / "rows.jsonl"
    run_cli("sweep", "--max", "301", "--ell", "fixed:3", "--out", str(csv_out))
    run_cli("sweep", "--max", "301", "--ell", "fixed:3", "--format", "json",
            "--out", str(json_out))
    with open(csv_out, newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    json_rows = [json.loads(line) for line in json_out.read_text().splitlines()]
    assert len(csv_rows) == len(json_rows) == 150
    for c, j in zip(csv_rows, json_rows):
        assert int(c["n"]) == j["n"]
        assert c["Gal"] == ("" if j["Gal"] is None else str(j["Gal"]))
        assert c["skip"] == ("" if j["skip"] is None else j["skip"])


# sha256 of the --out bytes of `sweep --max 10001`, and of its stdout
# without the out= field, under 1, 2 and 4 workers: a change to any
# count, column or format shows.
FROZEN_SWEEP_10001 = {
    ("fixed:3", "csv"): "60f9a96e414a7d867d7c516ab8b84ec5ddb7bc5d527fb1b1a4a6039515364a3c",
    ("fixed:3", "json"): "89b758a97a9419fe9ce1cae086803d63b99a23fa4d1214f854da8baa1f56db98",
    ("smallest", "csv"): "cc425d500b9296bb8dc3f3e6afaad74e164496da21e3b5ccf7656ad928383ba9",
    ("smallest", "json"): "40ddd955398a73f35d8091635ca9a7e222073085488008b90e6743c1fb3ed3cf",
}
FROZEN_SUMMARY_10001 = {
    "fixed:3": "5acabe3f68576eec51499eaabc5b95836850aaacd2d2bbbb029b0b4ac699c137",
    "smallest": "391c070149791f298cd33120d803019364511bdf949f6cb56234edb64ce2425e",
}


@pytest.mark.parametrize("ell,fmt", sorted(FROZEN_SWEEP_10001))
def test_sweep_rows_frozen(tmp_path, capsys, ell, fmt):
    out = tmp_path / f"rows.{fmt}"
    for workers in ("1", "2", "4"):
        argv = ["sweep", "--max", "10001", "--ell", ell, "--format", fmt, "--out", str(out), "--workers", workers]
        assert cli.main(argv) == 0
        summary = capsys.readouterr().out.replace(f" out={out}", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_SWEEP_10001[ell, fmt], workers
        assert hashlib.sha256(summary.encode()).hexdigest() == FROZEN_SUMMARY_10001[ell], workers


@pytest.fixture
def no_int_digit_limit():
    """Lift CPython's int/str conversion limit in this process, as cli.main does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_count_row_past_4300_digits(no_int_digit_limit):
    proc = run_cli("count", "35", "--ell", "fixed:3", "--rounds", "20000")
    assert proc.returncode == 0, proc.stderr
    header, line = proc.stdout.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert len(row["Str"]) > 4300
    assert int(row["Str"]) == int(row["MR"]) ** 20000 * int(row["Gal"])


def test_sweep_rows_past_4300_digits(tmp_path, no_int_digit_limit):
    out = tmp_path / "rows.csv"
    proc = run_cli("sweep", "--max", "99", "--rounds", "3000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["Str"]]
    assert max(len(row["Str"]) for row in rows) > 4300
    for row in rows:
        assert int(row["Str"]) == int(row["MR"]) ** 3000 * int(row["Gal"])
    table = [line for line in proc.stdout.splitlines() if "empirical=" in line]
    assert len(table) == 8


@pytest.mark.parametrize("rounds", [80, 100])
def test_bounds_table_past_the_float_range(tmp_path, rounds):
    proc = run_cli("sweep", "--max", "9999", "--rounds", str(rounds), "--out", str(tmp_path / "rows.csv"))
    assert proc.returncode == 0, proc.stderr
    table = [line for line in proc.stdout.splitlines() if "empirical=" in line]
    assert len(table) == 8
    assert not any("inf" in line or "nan" in line for line in table)


def test_sweep_smallest_policy_skips_bounds_table(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli("sweep", "--max", "101", "--ell", "smallest:50", "--out", str(out))
    assert proc.returncode == 0
    assert "bounds report: skipped" in proc.stdout


def test_adversary_frozen_seed():
    proc = run_cli("adversary", "--M", "60", "--seed", "4")
    assert proc.returncode == 0
    line = proc.stdout.strip()
    assert "pool=7,11,13,31,61" in line
    assert "M=60" in line and "seed=4" in line
    fields = dict(kv.split("=") for kv in line.split())
    n, s, q = int(fields["n"]), int(fields["s"]), int(fields["q"])
    assert n == s * q and (n - 1) % 60 == 0


def test_adversary_lcm_modulus():
    proc = run_cli("adversary", "--M", "lcm:6", "--seed", "4")
    assert "M=60" in proc.stdout


def test_constants_consistency():
    proc = run_cli("constants", "--d", "1", "--bound", "2000")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    c1 = dict(kv.split("=") for kv in lines[0].split())
    c3 = dict(kv.split("=") for kv in lines[1].split())
    assert float(c1["c1"]) == float(c3["c3"])
    assert float(c1["tail"]) > 0


def test_oracle_check_passes():
    proc = run_cli("oracle-check", "--suite", "mr", "--max", "199")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 99
    assert all(line.endswith("status=pass") for line in lines)


def _error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sweep_write_failure_is_an_error_line():
    proc = run_cli("sweep", "--max", "5", "--out", "/dev/full")
    assert proc.returncode == 1
    assert len(_error_lines(proc.stderr)) == 1
    assert "Traceback" not in proc.stderr


def test_rejected_sweep_leaves_out_untouched(tmp_path, capsys):
    """A sweep that sweep's own checks reject writes its rows to a temporary
    file, which is removed, so --out keeps its bytes."""
    out = tmp_path / "keep.csv"
    out.write_bytes(b"precious\n")
    assert cli.main(["sweep", "--max", str(10**17), "--out", str(out)]) == 1
    assert out.read_bytes() == b"precious\n"
    captured = capsys.readouterr()
    assert len(_error_lines(captured.err)) == 1 == len(captured.err.splitlines())
    assert captured.out == ""


def _chunk_error(monkeypatch):
    """--workers 2, and a chunk past n = 20000 over budget."""
    chunk = analysis._process_chunk

    def over_budget(args):
        if args[0] > 20000:
            raise numth.BudgetExceeded("chunk over budget")
        return chunk(args)

    monkeypatch.setattr(analysis, "_process_chunk", over_budget)
    return ["--workers", "2"], 1


def _write_error(monkeypatch):
    """The third write of rows fails, as on a full disk."""
    real_sweep = analysis.sweep

    def sweep(*args, record_sink, **kwargs):
        writes = []

        def write(text):
            writes.append(text)
            if len(writes) == 3:
                raise OSError(28, "No space left on device")
            record_sink(text)

        return real_sweep(*args, record_sink=write, **kwargs)

    monkeypatch.setattr(analysis, "sweep", sweep)
    return [], 1


def _interrupt(monkeypatch):
    """Ctrl-C at the seventh chunk."""
    chunk = analysis._process_chunk
    seen = []

    def interrupted(args):
        seen.append(args[0])
        if len(seen) == 7:
            raise KeyboardInterrupt
        return chunk(args)

    monkeypatch.setattr(analysis, "_process_chunk", interrupted)
    return [], 130


@pytest.mark.parametrize("failure", [_chunk_error, _write_error, _interrupt])
def test_a_failed_sweep_leaves_out_as_it_was(monkeypatch, tmp_path, capsys, failure):
    """--out is replaced only by a completed sweep, keeping the mode that
    open(path, "w") would leave; no temporary file is left behind, and a
    --out that is not a regular file is written in place."""
    out = tmp_path / "keep.csv"
    out.write_bytes(b"precious\n")
    out.chmod(0o640)
    argv = ["sweep", "--max", "40001", "--out", str(out)]
    extra, expected = failure(monkeypatch)
    assert cli.main(argv + extra) == expected
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1
    if expected == 130:
        assert errors == ["error: interrupted"]
    assert out.read_bytes() == b"precious\n"
    assert os.listdir(tmp_path) == ["keep.csv"]

    monkeypatch.undo()
    assert cli.main(["sweep", "--max", "10001", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_SWEEP_10001["fixed:3", "csv"]
    assert oct(out.stat().st_mode & 0o777) == oct(0o640)
    umask = os.umask(0o022)
    os.umask(umask)
    assert cli.main(["sweep", "--max", "11", "--out", str(tmp_path / "new.csv")]) == 0
    assert oct((tmp_path / "new.csv").stat().st_mode & 0o777) == oct(0o666 & ~umask)
    assert sorted(os.listdir(tmp_path)) == ["keep.csv", "new.csv"]
    # In place, as /dev/stdout (a symlink) and /dev/null are; made here, so
    # that a broken replace cannot touch /dev.
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "new.csv")
    assert cli.main(["sweep", "--max", "11", "--out", str(link)]) == 0
    assert link.is_symlink() and link.read_text().startswith(EXPECTED_HEADER + "\n3,0,2,2,")
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["sweep", "--max", "11", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive() and read == [(tmp_path / "new.csv").read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["keep.csv", "link.csv", "new.csv", "rows.fifo"]


def _exit_code_and_last_line(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exit:
        code = exit.code
    return code, capsys.readouterr().err.splitlines()[-1]


def _owner_message(make) -> str:
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


@pytest.mark.parametrize(
    "argv, env_seed, code, make",
    [
        (["test", "35", "--seed", str(2**128)], None, 2, lambda: CounterRng(2**128)),
        (["test", "35"], str(2**128), 1, lambda: CounterRng(2**128)),
        (["test", "35"], "-1", 1, lambda: CounterRng(-1)),
        (["count", "35", "--ell", "fixed:4"], None, 2, lambda: FixedEll(4)),
        (["test", "35", "--ell", "4"], None, 2, lambda: FixedEll(4)),
        (["count", "35", "--ell", "smallest:2"], None, 2, lambda: SmallestEll(2)),
        (["test", "35", "--rounds", "-1"], None, 2, lambda: numth._rounds(-1)),
        (["count", "35", "--rounds", "-1"], None, 2, lambda: numth._rounds(-1)),
        (["sweep", "--out", os.devnull, "--max", "2"], None, 2, lambda: analysis.sweep(2)),
        (["sweep", "--max", "11", "--out", os.devnull, "--workers", "0"], None, 2,
         lambda: analysis.sweep(11, workers=0)),
        (["oracle-check", "--suite", "f", "--max", "2"], None, 2, lambda: analysis.sweep(2)),
        (["constants", "--d", "0"], None, 2, lambda: analysis.eval_c3(0)),
        (["constants", "--bound", "1"], None, 2, lambda: analysis.eval_c1(1)),
        (["adversary", "--M", "0"], None, 2, lambda: AdversarialConfig(M=0)),
        (["adversary", "--k", "0"], None, 2, lambda: analysis.adversarial_generate(AdversarialConfig(k=0))),
        (["adversary", "--pool-bound", "1"], None, 2, lambda: AdversarialConfig(prime_bound=1)),
        (["adversary", "--cutoff", "-1"], None, 2, lambda: AdversarialConfig(cutoff=-1)),
        (["adversary", "--q-limit", "1"], None, 2, lambda: AdversarialConfig(q_search_limit=1)),
    ],
    ids=["seed-flag", "seed-env-2**128", "seed-env-negative", "count-fixed4", "test-ell4", "smallest2",
         "test-rounds-1", "count-rounds-1", "sweep-max2", "sweep-workers0", "oracle-max2", "constants-d0",
         "constants-bound1", "adversary-M0", "adversary-k0", "adversary-pool-bound1", "adversary-cutoff-1",
         "adversary-q-limit1"],
)
def test_each_value_is_reported_by_its_owner(monkeypatch, capsys, argv, env_seed, code, make):
    """A seed is checked by CounterRng, a conductor option by FixedEll or
    SmallestEll, a round count by numth._rounds, a range, worker count,
    degree, bound or k by the function that takes it, and the other
    adversary options by AdversarialConfig, wherever they come from: one
    message per rule, exit 2 for a flag and 1 for the environment."""
    monkeypatch.delenv("WITNESSLAB_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("WITNESSLAB_SEED", env_seed)
    got_code, line = _exit_code_and_last_line(argv, capsys)
    message = _owner_message(make)
    assert got_code == code
    assert line == f"error: {message}" if code == 1 else line.endswith(f"error: argument {argv[-2]}: {message}")


@pytest.mark.parametrize(
    "argv, option, bad",
    [
        (["test", "abc"], "n", "abc"),
        (["count", "x7"], "n", "x7"),
        (["test", "35", "--rounds", "two"], "--rounds", "two"),
        (["count", "35", "--rounds", "1.5"], "--rounds", "1.5"),
        (["sweep", "--max", "x", "--out", os.devnull], "--max", "x"),
        (["sweep", "--max", "11", "--workers", "2.0", "--out", os.devnull], "--workers", "2.0"),
        (["constants", "--d", "1e3"], "--d", "1e3"),
        (["constants", "--bound", "ten"], "--bound", "ten"),
        (["adversary", "--M", "abc"], "--M", "abc"),
        (["adversary", "--M", "lcm:x"], "--M", "x"),
        (["adversary", "--pool-bound", "2^8"], "--pool-bound", "2^8"),
        (["adversary", "--cutoff", "five"], "--cutoff", "five"),
        (["adversary", "--k", ""], "--k", ""),
        (["adversary", "--q-limit", "1e6"], "--q-limit", "1e6"),
        (["adversary", "--seed", "0x10"], "--seed", "0x10"),
        (["test", "35", "--seed", "seven"], "--seed", "seven"),
        (["test", "35", "--ell", "three"], "--ell", "three"),
        (["count", "35", "--ell", "fixed:x"], "--ell", "x"),
        (["count", "35", "--ell", "smallest:x"], "--ell", "x"),
        (["oracle-check", "--suite", "f", "--max", "9.0"], "--max", "9.0"),
    ],
)
def test_every_integer_option_reports_a_non_integer_the_same_way(capsys, argv, option, bad):
    """One parser for every integer option: argparse names the int type,
    never a private function."""
    code, line = _exit_code_and_last_line(argv, capsys)
    assert code == 2
    assert line.endswith(f"error: argument {option}: invalid int value: {bad!r}")
    assert re.search(r"(?<![\w-])_", line) is None


def test_ctrl_c_is_one_error_line(monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(product, "stronger_test", interrupted)
    assert cli.main(["test", "35"]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_ctrl_c_stops_a_forked_sweep_with_exit_130(tmp_path):
    """SIGINT to the process group, as Ctrl-C sends it: the workers are
    reaped and the temporary --out file removed before the one error line."""
    env = dict(os.environ)
    env.pop("WITNESSLAB_SEED", None)
    argv = ["sweep", "--max", str(10**8), "--workers", "2", "--out", str(tmp_path / "rows.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "witnesslab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.listdir(tmp_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert os.listdir(tmp_path), "the sweep never opened its temporary file"
        time.sleep(0.5)  # let the workers start
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
    assert os.listdir(tmp_path) == []


def _sweep_to_stdout(out: str, stdout) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("WITNESSLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "witnesslab", "sweep", "--max", "11", "--out", out],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sweep_out_dev_stdout_keeps_rows_before_the_summary(tmp_path):
    """--out /dev/stdout writes the rows through stdout itself, so a file that
    stdout is sent to holds the header, the rows, then the summary and the
    bounds table; a pipe gets the same, and /dev/null only the summary."""
    rows = tmp_path / "rows.csv"
    reference = run_cli("sweep", "--max", "11", "--out", str(rows))
    summary = reference.stdout.replace(f" out={rows}", " out={out}")
    expected = rows.read_text() + summary.format(out="/dev/stdout")
    assert "bounds report at x=11" in expected
    captured = tmp_path / "stdout.txt"
    with open(captured, "w") as handle:
        proc = _sweep_to_stdout("/dev/stdout", handle)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert captured.read_text() == expected
    piped = _sweep_to_stdout("/dev/stdout", subprocess.PIPE)
    assert (piped.returncode, piped.stdout) == (0, expected)
    discarded = _sweep_to_stdout(os.devnull, subprocess.PIPE)
    assert (discarded.returncode, discarded.stdout) == (0, summary.format(out=os.devnull))


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_ends_quietly(tmp_path, buffered):
    """A reader that closes stdout early, as `| head -1` does, ends the
    command with exit 141 and nothing on stderr, whether the first failed
    write is a print or the final flush; sweep --out still holds every row."""
    env = dict(os.environ)
    env.pop("WITNESSLAB_SEED", None)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    sweep = ["sweep", "--max", "20001", "--ell", "smallest", "--workers", "2", "--out"]
    assert run_cli(*sweep, str(tmp_path / "unpiped.csv")).returncode == 0
    for argv in ([*sweep, str(tmp_path / "piped.csv")], ["oracle-check", "--suite", "f", "--max", "501"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "witnesslab", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()  # the reader is gone before the first line
        with proc.stderr:
            err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b""), argv
    digests = {hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("unpiped.csv", "piped.csv")}
    assert len(digests) == 1


def test_sweep_without_fork_runs_in_process(monkeypatch, tmp_path, capsys):
    """Where os.fork does not exist, --workers N runs the chunks in-process
    and gives the rows and aggregate of one worker."""
    rows = []
    serial = analysis.sweep(10001, 2, SmallestEll(), record_sink=rows.append, row_format="csv")
    monkeypatch.delattr(os, "fork")
    forkless = []
    assert analysis.sweep(10001, 2, SmallestEll(), workers=2, record_sink=forkless.append, row_format="csv") == serial
    assert forkless == rows
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--max", "10001", "--workers", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_SWEEP_10001["fixed:3", "csv"]
    summary = capsys.readouterr().out.replace(f" out={out}", "")
    assert hashlib.sha256(summary.encode()).hexdigest() == FROZEN_SUMMARY_10001["fixed:3"]


def test_constants_bound_above_sieve_cap_exits_1():
    proc = run_cli("constants", "--bound", "100000001")
    assert proc.returncode == 1
    assert len(_error_lines(proc.stderr)) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,ell",
    [
        (("test", "1000003", "--ell", "1048589"), 1048589),
        (("test", "15", "--ell", "1048583"), 1048583),  # a Miller-Rabin round would find 15 composite
        (("count", "15", "--ell", "fixed:1048583"), 1048583),
    ],
    ids=["test-prime", "test-composite", "count"],
)
def test_a_conductor_past_the_table_cap_exits_1_at_once(argv, ell):
    """Every entry point that takes a conductor reads its table, so one
    past the cap of 2**20 stops before any ring of degree ell - 1 is built."""
    start = time.perf_counter()
    proc = run_cli(*argv)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert _error_lines(proc.stderr) == [f"error: conductor {ell} is past the table cap of {2**20}"]
    assert "Traceback" not in proc.stderr


def test_oracle_check_past_brute_budget_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(numth, "_BRUTE_LIMIT", 20)
    assert cli.main(["oracle-check", "--suite", "f", "--max", "31"]) == 1
    captured = capsys.readouterr()
    assert len(_error_lines(captured.err)) == 1
    assert captured.out.splitlines()[-1].startswith("n=19 ")


def test_oracle_check_gal_past_brute_budget_exits_1(monkeypatch, capsys):
    """n = 1001 needs 1001**2 elements, past the budget; the run ends there."""
    brute_Gal = galois.brute_Gal

    def fast_below_budget(n, ell):
        if n**2 <= numth._BRUTE_LIMIT:
            return galois.count_Gal(n, ell)
        return brute_Gal(n, ell)

    monkeypatch.setattr(galois, "brute_Gal", fast_below_budget)
    assert cli.main(["oracle-check", "--suite", "gal", "--max", "1001"]) == 1
    captured = capsys.readouterr()
    assert len(_error_lines(captured.err)) == 1
    assert captured.out.splitlines()[-1].startswith("n=995 ")


def test_test_no_conductor_exits_1(monkeypatch, capsys):
    def no_conductor(n):
        raise NoConductor(f"no conductor for {n}")

    monkeypatch.setattr(product, "find_conductor", no_conductor)
    assert cli.main(["test", "341"]) == 1
    captured = capsys.readouterr()
    assert _error_lines(captured.err) == ["error: no conductor for 341"]
    assert captured.out == ""


def test_count_past_the_rho_budget_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(numth, "_RHO_BUDGET", 64)
    assert cli.main(["count", str(999_979 * 999_983)]) == 1
    captured = capsys.readouterr()
    assert len(_error_lines(captured.err)) == 1
    assert "rho budget" in captured.err
    assert captured.out == ""


def test_adversary_with_odd_modulus_never_emits_even_n(capsys):
    """With M odd and cutoff < 2, p = 2 passes 1 | M and 2 does not divide M."""
    assert cli.main(["adversary", "--M", "3", "--cutoff", "0", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert _error_lines(captured.err) == ["error: pool () smaller than k=1"]
    assert captured.out == ""


@pytest.mark.parametrize("seed", range(8))
def test_adversary_defaults_succeed(seed, capsys):
    assert cli.main(["adversary", "--seed", str(seed)]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    n, M = int(fields["n"]), int(fields["M"])
    assert M == 27720 and (n - 1) % M == 0
