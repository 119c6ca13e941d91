"""Elementary number-theoretic utilities and the package's caps.

Everything here takes and returns plain Python integers except two
numpy kernels: the sieve _odd_primes, and _pow_mod, the one vectorised
modular power, which the sweep's block engine and the brute_F and
brute_MR oracles share.  The caps are _SIEVE_LIMIT on the sieve,
_BRUTE_LIMIT on every enumeration oracle (read when it is called) and
_RHO_BUDGET on factorization.  Factorization is trial division by a
cached prime table, then Pollard rho splitting under a budget of
_RHO_BUDGET rho updates per call.  Rho needs about sqrt(p) updates to
split off a prime p, so an n whose second-largest prime factor has up
to about 40 bits fits (psi_13, two 41-bit primes, takes 1.8 million
updates); larger ones raise BudgetExceeded instead of running for
hours.  Trial division proves prime any factor below p**2, p the last
trial prime reached; is_prime certifies the larger ones.  Rule owners:
_at_least (lower bounds), _odd_n, _coprime and _enumerable (oracle cap).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np


class NotCoprime(ValueError):
    """Raised when an argument shares a factor with the modulus."""


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its stated budget."""


_TRIAL_BOUND = 10_000
_SIEVE_LIMIT = 10**8
# Elements an enumeration oracle may visit: units mod n for brute_F and
# brute_MR, all n**(ell-1) elements of S for brute_Gal.
_BRUTE_LIMIT = 10**6

# Miller-Rabin to the first 13 prime bases is deterministic below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all
# of them (the first 12 fail at psi_12 ~ 3.2e23).  From psi_13 on, a
# strong Lucas test follows; with base 2 that is BPSW, which has no
# known counterexample.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _odd_n(n: int) -> int:
    """n as an int, checked odd and >= 3."""
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    return n


def _at_least(name: str, low: int, value: int) -> int:
    """value through operator.index, checked >= low: every rule "name must be >= low"."""
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


_rounds = partial(_at_least, "r", 0)


def _coprime(a: int, m: int) -> None:
    """Raise NotCoprime unless gcd(a, m) = 1."""
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"gcd({a}, {m}) > 1")


def _enumerable(n: int, d: int = 1) -> None:
    """Raise BudgetExceeded when an oracle would visit n**d > _BRUTE_LIMIT elements."""
    if d > _BRUTE_LIMIT.bit_length() or n**d > _BRUTE_LIMIT:
        raise BudgetExceeded(f"{n}**{d} elements exceed the enumeration cap of {_BRUTE_LIMIT}")


def _odd_primes(limit: int) -> np.ndarray:
    """The odd primes <= limit as an int64 array, by a sieve of
    Eratosthenes over the odd numbers: limit / 2 bytes, so above
    _SIEVE_LIMIT it raises BudgetExceeded before allocating."""
    if limit > _SIEVE_LIMIT:
        raise BudgetExceeded(f"sieve capped at {_SIEVE_LIMIT}, got {limit}")
    if limit < 3:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return (2 * np.flatnonzero(odd) + 1).astype(np.int64, copy=False)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, as Python ints; _odd_primes gives the odd ones."""
    return [2, *_odd_primes(limit).tolist()] if limit >= 2 else []


def _pow_mod(x: np.ndarray, e, modulus) -> np.ndarray:
    """x**e % modulus elementwise (x < modulus, e >= 1), left to right.

    e is an int, the same for every element, or an int64 array.  Each
    product is at most min(modulus, x**i) * min(modulus, x**j) with
    i + j <= e, so it fits int64 where modulus <= isqrt(2**63 - 1) or
    x**e < 2**63.
    """
    # An int e takes a plain if per bit: sent through np.where as a 0-d
    # array, it made brute_F and brute_MR 1.3x slower.
    shared = isinstance(e, int)
    result = np.ones_like(x)
    for bit in reversed(range((e if shared else int(e.max(initial=0))).bit_length())):
        result = result * result % modulus
        if not shared:
            result = result * np.where(e >> bit & 1, x, 1) % modulus
        elif e >> bit & 1:
            result = result * x % modulus
    return result


@lru_cache(maxsize=None)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_TRIAL_BOUND))


def two_adic_split(k: int) -> tuple[int, int]:
    """Write k = 2**e * m with m odd; return (e, m).

    Callers wanting the largest odd divisor of k-1 apply this to k-1.
    """
    k = _at_least("k", 1, k)
    e = (k & -k).bit_length() - 1
    return e, k >> e


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below psi_13 ~ 3.3e24, BPSW from there on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    k, m = two_adic_split(n - 1)
    for a in _MR_BASES:
        x = pow(a, m, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    For odd n > 41: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  With n + 1 = 2**s * m, m odd, n passes when
    U_m = 0 or V_(m * 2**r) = 0 mod n for some 0 <= r < s.
    """
    root = math.isqrt(n)
    if root * root == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(|D|, n) > 1 with |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s, m = two_adic_split(n + 1)

    def halve(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    # Left-to-right over the bits of m: U_2k = U_k V_k, V_2k = V_k**2 - 2Q**k,
    # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(m)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve(U + V), halve(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


_RHO_BATCH = 128
# Updates y -> y**2 + c allowed in one factorize call, over every rho
# run it makes (all c values and replays included).
_RHO_BUDGET = 2**22


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite n (Brent's cycle variant), and
    the number of updates of y it took.

    y iterates y -> y**2 + c.  For r = 1, 2, 4, ..., x saves y, y skips
    r steps, then takes r more, each compared with x: the |x - y| are
    multiplied mod n in batches of _RHO_BATCH under one gcd.  A batch
    whose gcd is n is replayed one step at a time from its start to find
    the first nontrivial gcd.  Raises BudgetExceeded before the updates
    would exceed budget.
    """
    if n % 2 == 0:
        return 2, 0
    used = 0

    def spend(steps: int) -> None:
        nonlocal used
        used += steps
        if used > budget:
            raise BudgetExceeded(f"rho budget of {_RHO_BUDGET} steps exceeded splitting {n}")

    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                steps = min(_RHO_BATCH, r - k)
                spend(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                start = (start * start + c) % n
                g = math.gcd(abs(x - start), n)
        if g != n:
            return g, used
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer.

    factors lists (prime, exponent) pairs with strictly increasing
    primes; the product reconstructs n exactly (checked on construction,
    since the closed-form counts trust a given factorization).
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.reconstruct() != self.n:
            raise ValueError(f"{self.factors} does not multiply to {self.n}")

    def reconstruct(self) -> int:
        return reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.

    Raises BudgetExceeded when splitting the cofactors left by trial
    division needs more than _RHO_BUDGET rho updates in all.
    """
    n = _at_least("n", 1, n)
    remaining = n
    counts: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > remaining:
            break
        while remaining % p == 0:
            counts[p] = counts.get(p, 0) + 1
            remaining //= p
    # What is left, and every factor of it, has no prime factor below the
    # last trial prime p reached, so each such m < p*p is a prime.
    stack = [remaining] if remaining > 1 else []
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if m < p * p or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d, used = _pollard_rho(m, budget)
        budget -= used
        stack.extend((d, m // d))
    return Factorization(n, tuple(sorted(counts.items())))


def _factored(n: int | Factorization) -> Factorization:
    """n's factorization: a Factorization is returned unchanged, an int is factored."""
    return n if isinstance(n, Factorization) else factorize(n)


def euler_phi(n: int) -> int:
    """Euler's totient of n."""
    result = 1
    for p, e in factorize(n).factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def carmichael_lambda(n: int) -> int:
    """Exponent of the unit group mod n (Carmichael's function)."""
    if n == 1:
        return 1
    parts = []
    for p, e in factorize(n).factors:
        if p == 2 and e >= 3:
            parts.append(2 ** (e - 2))
        else:
            parts.append(p ** (e - 1) * (p - 1))
    return math.lcm(*parts)


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m.

    Raises NotCoprime when gcd(a, m) > 1.  The order is found by
    reducing lambda(m) prime by prime, so it costs one factorization of
    lambda(m) rather than a scan.
    """
    m = _at_least("m", 1, m)
    _coprime(a, m)
    if m == 1:
        return 1
    order = carmichael_lambda(m)
    for p, _ in factorize(order).factors:
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _unity_roots_prime_power(p: int, e: int, d: int) -> int:
    """Solutions of y**d = 1 in the units mod p**e."""
    if p == 2:
        if e == 1:
            return 1
        if e == 2:
            return math.gcd(d, 2)
        return math.gcd(d, 2) * math.gcd(d, 1 << (e - 2))
    # Units mod an odd prime power form a cyclic group.
    return math.gcd(d, p ** (e - 1) * (p - 1))


def unity_root_count(s: int, d: int) -> int:
    """Number of units y mod s with y**d = 1, by CRT over prime powers."""
    s, d = _at_least("s", 1, s), _at_least("d", 1, d)
    result = 1
    for p, e in factorize(s).factors:
        result *= _unity_roots_prime_power(p, e, d)
    return result


def lcm_range(bound: int) -> int:
    """lcm(1, 2, ..., bound): the product of the largest power of each
    prime p <= bound that is <= bound.

    The powers are multiplied as a balanced product tree, so the large
    products are few and of equal size: quasi-linear in bound, where
    folding lcm over 2..bound is quadratic.  Raises BudgetExceeded above
    the sieve cap.
    """
    bound = _at_least("bound", 1, bound)
    level = []
    for p in primes_up_to(bound):
        power = p
        while power * p <= bound:
            power *= p
        level.append(power)
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


# e**e: above this x, logloglog x > 0, so the exponent in L_of is positive.
_EE = math.exp(math.e)


def L_of(x: float) -> float:
    """The subexponential scale exp(log x * logloglog x / loglog x).

    Clamped to 1 for x <= e**e, where the exponent would be undefined
    or negative; at e**e it is 0, so L is continuous.
    """
    if x <= _EE:
        return 1.0
    loglog = math.log(math.log(x))
    return math.exp(math.log(x) * math.log(loglog) / loglog)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0: integer Newton from 2**ceil(bits/k)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_power(n: int) -> tuple[int, int] | None:
    """(b, k) with b**k == n and k >= 2 minimal, or None."""
    if n < 4:
        return None
    for k in primes_up_to(n.bit_length()):  # the minimal k is always prime
        b = _iroot(n, k)
        if b >= 2 and b**k == n:
            return b, k
    return None
