"""Seeded inputs for the test workloads, labelled independently of numth.

Primality labels come from sympy.isprime (a test-only dependency), and
conductors from a direct primitive-root check, so no label depends on
the code being measured.  The same (workload, seed) always gives the
same cases.

test-word is built in blocks of 200 cases with a fixed make-up, so any
prefix of the list that a run gets through has nearly the same mix of
costs whatever the seed.  The make-up below (80% primes, 15% semiprimes,
5% Miller-Rabin liars) and the spread of bit sizes are an assumption
chosen for the benchmark, not measured `test` traffic; the mix sets
verdicts_per_s and verdict_p50_ms, since prime verdicts cost far more
than composite ones.
  - 160 primes.  Their smallest conductors follow the frequencies seen
    on random primes (half need ell = 3, a few need ell >= 17), and the
    bit size of each slot is fixed, so the costly slots that set the
    latency tail are the same in every block.
  - 30 semiprimes p*q with both factors above 1000.
  - 4 Chernick numbers (6k+1)(12k+1)(18k+1) and 6 numbers p(2p-1) with
    p = 3 (mod 4): composites with many Miller-Rabin liars.
"""

from __future__ import annotations

import math
import random

import sympy

WORD_BITS = (14, 62)
BLOCK_PRIME_ELLS = {3: 82, 5: 38, 7: 15, 11: 10, 13: 5, 17: 5, 19: 2, 23: 2, 29: 1}
BLOCK_SEMIPRIMES = 30
BLOCK_CHERNICK = 4
BLOCK_RABIN_MONIER = 6
BLOCK_SIZE = sum(BLOCK_PRIME_ELLS.values()) + BLOCK_SEMIPRIMES + BLOCK_CHERNICK + BLOCK_RABIN_MONIER
MIN_FACTOR = 1000

BIG_BITS = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
MERSENNE_EXPONENTS = (89, 107, 127, 521, 607, 1279, 2203)

_SMALL_PRIMES = tuple(sympy.primerange(3, 1000))
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _primitive_roots(ell: int) -> frozenset[int]:
    qs = sympy.primefactors(ell - 1)
    return frozenset(r for r in range(1, ell) if all(pow(r, (ell - 1) // q, ell) != 1 for q in qs))


_CONDUCTORS = tuple(sympy.primerange(3, 2000))
_ROOTS = {ell: _primitive_roots(ell) for ell in _CONDUCTORS[:20]}


def smallest_conductor(n: int) -> int | None:
    """Smallest prime ell < 2000 with n a primitive root mod ell, or None."""
    for ell in _CONDUCTORS:
        roots = _ROOTS.get(ell)
        if roots is None:
            roots = _ROOTS[ell] = _primitive_roots(ell)
        if n % ell in roots:
            return ell
    return None


def _rough(n: int) -> bool:
    """No prime factor below 1000 (cheap filter before sympy)."""
    return math.gcd(n, _PRIMORIAL) == 1


def _random_odd(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | 1 | (1 << (bits - 1))


def _prime_with_conductor(rng: random.Random, bits: int, ell: int, seen: set) -> int:
    while True:
        n = _random_odd(rng, bits)
        if n in seen or smallest_conductor(n) != ell:
            continue
        if (n < 1000 or _rough(n)) and sympy.isprime(n):
            return n


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = _random_odd(rng, bits)
        if _rough(n) and sympy.isprime(n):
            return n


def _semiprime(rng: random.Random, bits: int, seen: set) -> int:
    while True:
        p_bits = rng.randint(max(11, bits // 2 - 4), bits // 2)
        p = _random_prime(rng, p_bits)
        q = _random_prime(rng, bits - p_bits + 1)
        n = p * q
        if p != q and n.bit_length() == bits and n not in seen:
            return n


def _chernick(rng: random.Random, seen: set) -> int:
    k_max = math.floor((2**WORD_BITS[1] / 1296) ** (1 / 3))
    while True:
        k = rng.randint(MIN_FACTOR // 6 + 1, k_max)
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(factors)
        if n < 2 ** WORD_BITS[1] and n not in seen and all(sympy.isprime(f) for f in factors):
            return n


def _rabin_monier(rng: random.Random, seen: set) -> int:
    while True:
        p = _random_prime(rng, rng.randint(11, WORD_BITS[1] // 2 - 1))
        n = p * (2 * p - 1)
        if p % 4 == 3 and n not in seen and sympy.isprime(2 * p - 1):
            return n


def _block_plan() -> list[tuple[str, int, int]]:
    """(kind, bits, ell) per slot of one block; identical for every seed."""
    lo, hi = WORD_BITS
    plan = []
    j = 0
    for ell, count in BLOCK_PRIME_ELLS.items():
        for _ in range(count):
            low = lo if ell <= 5 else 24 if ell <= 13 else 32
            plan.append(("prime", low + (j * 29) % (hi - low + 1), ell))
            j += 1
    for i in range(BLOCK_SEMIPRIMES):
        plan.append(("semiprime", 24 + (i * 13) % (hi - 24 + 1), 0))
    plan += [("chernick", 0, 0)] * BLOCK_CHERNICK
    plan += [("rabin-monier", 0, 0)] * BLOCK_RABIN_MONIER
    return plan


def test_word_cases(seed: int, count: int) -> list[dict]:
    """`count` cases (rounded up to whole blocks) as {n, prime, seed}."""
    rng = random.Random(f"test-word:{seed}")
    plan = _block_plan()
    seen: set[int] = set()
    cases = []
    for _ in range(-(-count // BLOCK_SIZE)):
        block = []
        for kind, bits, ell in plan:
            if kind == "prime":
                n = _prime_with_conductor(rng, bits, ell, seen)
            elif kind == "semiprime":
                n = _semiprime(rng, bits, seen)
            elif kind == "chernick":
                n = _chernick(rng, seen)
            else:
                n = _rabin_monier(rng, seen)
            seen.add(n)
            block.append({"n": n, "prime": kind == "prime"})
        rng.shuffle(block)
        cases += block
    for case in cases:
        case["seed"] = rng.getrandbits(32)
    return cases


def test_big_cases(seed: int) -> list[dict]:
    """Primes and semiprimes of 64-1024 bits, then Mersenne primes M89-M2203."""
    rng = random.Random(f"test-big:{seed}")
    cases = []
    for bits in BIG_BITS:
        cases.append({"n": _random_prime(rng, bits), "prime": True})
        p = _random_prime(rng, bits // 2)
        q = _random_prime(rng, bits - bits // 2)
        cases.append({"n": p * q, "prime": False})
    for e in MERSENNE_EXPONENTS:
        cases.append({"n": 2**e - 1, "prime": True})
    for case in cases:
        case["prime"] = bool(sympy.isprime(case["n"])) if case["prime"] else False
        case["seed"] = rng.getrandbits(32)
    return cases
