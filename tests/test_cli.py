import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from witnesslab import cli, galois, numth, product
from witnesslab.galois import NoConductor

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
    """The arguments are checked before --out is opened, which would truncate it."""
    out = tmp_path / "keep.csv"
    out.write_bytes(b"precious\n")
    assert cli.main(["sweep", "--max", str(10**17), "--out", str(out)]) == 1
    assert out.read_bytes() == b"precious\n"
    captured = capsys.readouterr()
    assert len(_error_lines(captured.err)) == 1 == len(captured.err.splitlines())
    assert captured.out == ""


def test_constants_bound_above_sieve_cap_exits_1():
    proc = run_cli("constants", "--bound", "100000001")
    assert proc.returncode == 1
    assert len(_error_lines(proc.stderr)) == 1
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
