"""End-to-end checks, one test per shipped guarantee.

Closed-form counts are held against enumeration oracles, reference
values are frozen, and the CLI sweep is exercised at full scale with
its determinism guarantee. Run with `pytest tests/test_acceptance.py -v`;
a status line per criterion is printed as each finishes.
"""

import csv
import math
import os
import subprocess
import sys
import time

import pytest

from witnesslab.analysis import (
    AdversarialConfig,
    FixedEll,
    adversarial_generate,
    adversarial_pool,
    eval_c1,
    eval_c3,
)
from witnesslab.galois import (
    brute_Gal,
    cofactor_k,
    conductor_failure,
    count_D,
    count_Gal,
    count_H,
    local_data,
)
from witnesslab.numth import euler_phi, factorize, is_prime, primes_up_to
from witnesslab.product import PROBABLY_PRIME, count_Str, stronger_test
from witnesslab.rng import CounterRng
from witnesslab.witness import brute_F, brute_MR, count_F, count_MR, is_carmichael

X_FULL = 100_000


def run_cli(*args):
    env = dict(os.environ)
    env.pop("WITNESSLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "witnesslab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=330,
    )


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    """One full-scale sweep per worker count, shared by two criteria."""
    base = tmp_path_factory.mktemp("sweep")
    runs = {}
    for workers in (1, 4):
        out = base / f"rows-w{workers}.csv"
        start = time.perf_counter()
        proc = run_cli(
            "sweep", "--max", str(X_FULL), "--rounds", "2", "--ell", "fixed:3",
            "--out", str(out), "--workers", str(workers),
        )
        assert proc.returncode == 0, proc.stderr
        runs[workers] = (proc, out, time.perf_counter() - start)
    return runs


def test_c01_mr_count_formula():
    """Closed form matches enumeration for every odd composite below 3000."""
    start = time.perf_counter()
    for n in range(9, 3000, 2):
        if is_prime(n):
            continue
        assert count_MR(n) == brute_MR(n), n
    assert time.perf_counter() - start < 10


def test_c02_fermat_count_formula():
    for n in range(3, 3001, 2):
        assert count_F(n) == brute_F(n), n


def test_c03_galois_count_formula():
    """Formula vs enumeration where ell=3 is valid, plus one ell=5 case."""
    start = time.perf_counter()
    for n in range(9, 401, 2):
        if n % 3 != 2 or is_prime(n):
            continue
        assert count_Gal(n, 3) == brute_Gal(n, 3), n
    assert count_Gal(27, 5) == brute_Gal(27, 5) == 80
    assert time.perf_counter() - start < 60


def test_c04_reference_counts():
    assert count_Gal(35, 3) == 36
    assert count_D(35, 3) == 144
    assert count_H(35, 2) == 576
    assert cofactor_k(35, 3) == 1
    assert count_MR(35) == 2
    assert count_F(35) == 4
    assert count_Str(35, 2, 3) == 144
    assert count_Gal(65, 3) == 144
    assert count_D(65, 3) == 288
    assert count_MR(65) == 6


def test_c05_divisibility_chain():
    """F | Gal | D | H with an integral cofactor, no exceptions allowed."""
    violations = []
    for n in range(9, 10_001, 2):
        if is_prime(n) or conductor_failure(n, 3) is not None:
            continue
        F, g = count_F(n), count_Gal(n, 3)
        dv, h = count_D(n, 3), count_H(n, 2)
        k = cofactor_k(n, 3)
        full = 1
        for p in {q for q, _ in factorize(n).factors}:
            full *= p ** local_data(n, 3, p).f - 1
        if g % F or dv % g or h % dv or k < 1 or dv * k != full:
            violations.append(n)
    assert violations == []


def test_c06_carmichael_census():
    by_fermat = [
        n
        for n in range(9, X_FULL, 2)
        if not is_prime(n) and count_F(n) == euler_phi(n)
    ]
    by_korselt = [n for n in range(9, X_FULL, 2) if is_carmichael(n)]
    assert by_fermat == by_korselt
    assert len(by_fermat) == 16
    assert by_fermat[0] == 561
    assert 41041 in by_fermat


def test_c07_series_constants():
    c1_b5, tail_b5 = eval_c1(10**5)
    c1_b6, tail_b6 = eval_c1(10**6)
    c3_b6, _ = eval_c3(1, 10**6)
    assert abs(c3_b6 - c1_b6) < 1e-9
    assert abs(c1_b6 - c1_b5) < 1e-4
    # observed movement must sit inside the stated tail majorant
    assert abs(c1_b6 - c1_b5) <= tail_b5
    assert tail_b6 < tail_b5


def test_c08_adversarial_floor():
    cfg = AdversarialConfig(M=60)
    assert adversarial_pool(cfg) == (7, 11, 13, 31, 61)
    out = adversarial_generate(cfg, subset=(7, 11, 13))
    assert out.n == 41041 and out.q == 41
    assert out.predicted_floor == euler_phi(7 * 11 * 13) == 720
    assert count_F(out.n) == 28800 >= out.predicted_floor


def test_c09_density_monte_carlo():
    """stronger_test's pass rate on 35 is Str / ((n - 1)**r (n**d - 1))."""
    trials = 20_000
    exact = 1 / 578  # (MR/(n-1)) * (Gal/(n**2-1)) = (2/34) * (36/1224)
    passes = sum(
        stronger_test(35, 1, 3, CounterRng(seed)).outcome == PROBABLY_PRIME
        for seed in range(trials)
    )
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(passes / trials - exact) <= 3 * se


def test_c10_prime_robustness():
    """No prime below 10^4 is ever called composite, any seed, 50 trials."""
    for p in primes_up_to(10_000):
        if p == 2:
            continue
        for trial in range(50):
            assert stronger_test(p, 2, rng=trial).outcome == PROBABLY_PRIME, (p, trial)


def test_c11_sweep_and_bounds(sweep_runs):
    proc, out_path, elapsed = sweep_runs[1]
    assert elapsed < 300
    for label in (
        "gal-mean-lower", "gal-mean-upper",
        "mr-mean-lower", "mr-mean-upper",
        "str-mean-lower", "str-mean-upper",
    ):
        assert label in proc.stdout, label
    sum_F = sum_Gal = 0
    with open(out_path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["composite"] == "1" and row["Gal"]:
                sum_F += int(row["F"])
                sum_Gal += int(row["Gal"])
    assert sum_Gal / X_FULL > sum_F / X_FULL


def test_c12_worker_determinism(sweep_runs):
    _, out_serial, _ = sweep_runs[1]
    _, out_parallel, _ = sweep_runs[4]
    assert out_serial.read_bytes() == out_parallel.read_bytes()
