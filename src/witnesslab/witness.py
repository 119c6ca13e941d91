"""Fermat and Miller-Rabin witnesses and exact bad-witness counts.

A "bad witness" for composite n is a base the test fails to reject.
Both counts come in two flavors: a closed-form product over the prime
factors of n, and a direct enumeration oracle used to cross-check it.
The two paths are kept independent on purpose.  Closed forms take n or
its Factorization.
"""

from __future__ import annotations

import math

import numpy as np

from . import numth
from .numth import BudgetExceeded, Factorization, NotCoprime, _factored, _pow_mod, two_adic_split
from .rng import CounterRng, draw_int


def fermat_witness(n: int, a: int) -> bool:
    """True when base a passes the Fermat test a**(n-1) = 1 mod n.

    Composite n passing means a is a bad witness (a "Fermat liar").
    """
    _check_base(n, a)
    return pow(a, n - 1, n) == 1


def mr_witness(n: int, a: int) -> bool:
    """True when base a passes the Miller-Rabin test for odd n >= 3."""
    _check_base(n, a)
    if n % 2 == 0:
        raise ValueError("n must be odd")
    k, m = two_adic_split(n - 1)
    x = pow(a, m, n)
    if x == 1:
        return True
    for _ in range(k):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _check_base(n: int, a: int) -> None:
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 1 <= a < n:
        raise ValueError("base out of range")
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) > 1")


def count_F(n: int | Factorization) -> int:
    """Exact number of Fermat-passing bases: prod gcd(p-1, n-1)."""
    fac = _factored(n)
    n = fac.n
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    result = 1
    for p, _ in fac.factors:
        result *= math.gcd(p - 1, n - 1)
    return result


def count_MR(n: int | Factorization) -> int:
    """Exact number of Miller-Rabin-passing bases for odd n >= 3 (Monier).

    Write n - 1 = 2**k * m with m odd.  Over the w distinct primes
    p | n, let v be the least 2-adic valuation of p - 1 and s the
    product of gcd(m, odd part of p - 1).  The count is
    (1 + (2**(v*w) - 1) / (2**w - 1)) * s, in exact integers: the
    fraction is the geometric sum 1 + 2**w + ... + 2**(w*(v-1)).
    """
    fac = _factored(n)
    n = fac.n
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    k, m = two_adic_split(n - 1)
    v, s = k, 1  # v <= k: every p = 1 mod 2**v makes n = 1 mod 2**v
    for p, _ in fac.factors:
        e, odd = two_adic_split(p - 1)
        v = min(v, e)
        s *= math.gcd(m, odd)
    w = len(fac.factors)
    return (1 + ((1 << (v * w)) - 1) // ((1 << w) - 1)) * s


def _unit_bases(n: int) -> np.ndarray:
    """The units in [1, n), as int64: below isqrt(2**63 - 1), _pow_mod is exact mod n."""
    if n > numth._BRUTE_LIMIT:
        raise BudgetExceeded(f"enumeration capped at {numth._BRUTE_LIMIT}, got {n}")
    a = np.arange(1, n, dtype=np.int64)
    return a[np.gcd(a, n) == 1]


def brute_F(n: int) -> int:
    """Oracle: count Fermat-passing units by full enumeration."""
    if n < 3:
        raise ValueError("n must be >= 3")
    a = _unit_bases(n)
    return int(np.count_nonzero(_pow_mod(a, n - 1, n) == 1))


def brute_MR(n: int) -> int:
    """Oracle: count Miller-Rabin-passing units by full enumeration."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    a = _unit_bases(n)
    k, m = two_adic_split(n - 1)
    x = _pow_mod(a, m, n)
    good = x == 1
    for _ in range(k):
        good |= x == n - 1
        x = x * x % n
    return int(np.count_nonzero(good))


def is_carmichael(n: int | Factorization) -> bool:
    """Korselt's criterion: squarefree composite with p-1 | n-1 for all p."""
    if isinstance(n, int) and (n < 3 or n % 2 == 0):
        return False
    fac = _factored(n)  # an even n fails Korselt: an odd p | n has even p-1
    n = fac.n
    return len(fac.factors) > 1 and all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in fac.factors)


def _mr_rounds(n: int, r: int, streams: CounterRng) -> tuple | None:
    """Round i tests a base in [1, n) from stream i: ("factor", g) when it
    shares g > 1 with n, ("mr-round", i) when it fails, None when all pass."""
    for i in range(r):
        a = draw_int(streams._shared_stream(i), 1, n)
        g = math.gcd(a, n)
        if g > 1:
            return ("factor", g)
        if not mr_witness(n, a):
            return ("mr-round", i)
    return None
