"""Output checks for the benchmark's workloads.

Sweeps: the --out file's sha256 must match the digest recorded for the
workload, the printed count_*/sum_* summary must match what the rows
imply, and a seeded sample of rows is recomputed with the enumeration
oracles (brute_F, brute_MR, and brute_Gal where n**(ell-1) <= 1e6).
Tests: every prime must get probably-prime, every composite must get
composite, and factor evidence must be a proper divisor of n.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random

import sympy

GAL_BRUTE_LIMIT = 10**6
SAMPLE_ROWS = 16
SAMPLE_GAL_ROWS = 3


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_summary(stdout: str) -> dict[str, str]:
    """The first stdout line of `witnesslab sweep`: key=value pairs."""
    first = stdout.splitlines()[0] if stdout else ""
    return dict(field.split("=", 1) for field in first.split() if "=" in field)


def _opt(cell: str) -> int | None:
    return int(cell) if cell != "" else None


def read_rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return [
            {
                "n": int(row["n"]),
                "composite": row["composite"] == "1",
                "F": int(row["F"]),
                "MR": int(row["MR"]),
                "Gal": _opt(row["Gal"]),
                "Str": _opt(row["Str"]),
                "H": _opt(row["H"]),
                "ell": _opt(row["ell"]),
                "skip": row["skip"],
            }
            for row in reader
        ]


def summary_from_rows(rows: list[dict], rounds: int) -> dict:
    composite = [r for r in rows if r["composite"]]
    covered = [r for r in rows if not r["skip"]]
    covered_composite = [r for r in covered if r["composite"]]
    return {
        "x": max(r["n"] for r in rows),
        "visited": len(rows),
        "composite": len(composite),
        "covered": len(covered),
        "covered_composite": len(covered_composite),
        "skipped": len(rows) - len(covered),
        "sum_F": sum(r["F"] for r in composite),
        "sum_MR_r": sum(r["MR"] ** rounds for r in composite),
        "sum_Gal": sum(r["Gal"] for r in covered_composite),
        "sum_Str": sum(r["Str"] for r in covered_composite),
        "sum_log_F": math.fsum(math.log(r["F"]) for r in rows),
        "sum_log_MR_r": math.fsum(rounds * math.log(r["MR"]) for r in rows),
        "sum_log_H": math.fsum(math.log(r["H"]) for r in covered),
    }


def check_summary(printed: dict[str, str], rows: list[dict], rounds: int) -> list[str]:
    problems = []
    for key, want in summary_from_rows(rows, rounds).items():
        got = printed.get(key)
        if got is None:
            problems.append(f"summary lacks {key}")
        elif isinstance(want, float):
            if not math.isclose(float(got), want, rel_tol=1e-9):
                problems.append(f"{key}={got}, rows give {want!r}")
        elif int(got) != want:
            problems.append(f"{key}={got}, rows give {want}")
    return problems


def check_rows_by_oracle(rows: list[dict], rounds: int, rng: random.Random) -> list[str]:
    """Recompute a seeded sample of rows with the enumeration oracles."""
    from witnesslab import brute_F, brute_Gal, brute_MR

    problems = []
    for row in rng.sample(rows, min(SAMPLE_ROWS, len(rows))):
        n = row["n"]
        if row["composite"] != (not sympy.isprime(n)):
            problems.append(f"n={n}: composite={row['composite']}")
        if (row["F"], row["MR"]) != (brute_F(n), brute_MR(n)):
            problems.append(f"n={n}: F,MR={row['F']},{row['MR']} disagree with brute force")
    small = [r for r in rows if r["ell"] is not None and r["n"] ** (r["ell"] - 1) <= GAL_BRUTE_LIMIT]
    for row in rng.sample(small, min(SAMPLE_GAL_ROWS, len(small))):
        n, ell = row["n"], row["ell"]
        gal = brute_Gal(n, ell)
        if row["Gal"] != gal or row["Str"] != row["MR"] ** rounds * gal:
            problems.append(f"n={n}: Gal={row['Gal']} but brute_Gal({n}, {ell})={gal}")
    return problems


def check_sweep(out_path, stdout: str, expected_sha: str, rounds: int, rng: random.Random) -> list[str]:
    problems = []
    sha = sha256_of(out_path)
    if sha != expected_sha:
        problems.append(f"--out sha256 {sha} != recorded {expected_sha}")
    rows = read_rows(out_path)
    if not rows:
        return problems + ["--out has no rows"]
    problems += check_summary(parse_summary(stdout), rows, rounds)
    problems += check_rows_by_oracle(rows, rounds, rng)
    return problems


def verdict_problem(case: dict, status: str, outcome: str | None, evidence) -> str | None:
    """Why one test operation failed, or None when it is correct."""
    n = int(case["n"])
    if status != "ok":
        return f"{status} at {n.bit_length()} bits"
    if case["prime"]:
        return None if outcome == "probably-prime" else f"prime {n} got {outcome}"
    if outcome != "composite":
        return f"composite {n} got {outcome}"
    if evidence is not None and evidence[0] == "factor":
        g = int(evidence[1])
        if not (1 < g < n and n % g == 0):
            return f"factor {g} is not a proper divisor of {n}"
    return None
