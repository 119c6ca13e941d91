"""Cyclic ring extensions of Z/nZ and the Galois-style test.

The extension is realized as S = (Z/nZ)[X] / (1 + X + ... + X**(ell-1))
for a prime conductor ell with n a primitive root mod ell, so S has
degree d = ell - 1 over Z/nZ and the map sigma: X -> X**(n mod ell)
generates a cyclic automorphism group of order d.  The test accepts n
when a sampled unit x satisfies sigma(x) = x**n; for prime n that is
the Frobenius identity, for composite n it almost never holds.  Units
are decided in one place, by the ring norm: x is a unit of S exactly
when the product of its d conjugates, a constant, is a unit mod n.
galois_test returns None on a pass and otherwise the evidence tuple a
composite StrongerVerdict carries, as the Miller-Rabin rounds do.
count_Gal counts the accepted units in closed form and brute_Gal by
enumeration.  Closed forms take n or its Factorization.  count_Gal,
count_D and cofactor_k are the three fields of one pass over the
primes of n, which a sweep runs once per (n, ell).

Elements are coefficient tuples of length d over the power basis
1, X, ..., X**(ell-2).  Products use Kronecker substitution: each
operand, reduced mod n, is packed into one integer with coefficient i
in the w-bit slot i, w = 2*bitlen(n) + bitlen(ell), and one integer
product gives the polynomial product.  Working mod X**ell - 1, a
coefficient sums at most d products, each below n**2, so it stays
below d * n**2 < 2**w and no slot carries into the next.  X**ell = 1
is applied to the packed product P as one fold modulo 2**(w*ell) - 1,
(P & (2**(w*ell) - 1)) + (P >> (w*ell)), which adds slot k + ell onto
slot k.  The ell slots are then unpacked, the relation 1 + X + ... +
X**(ell-1) = 0 subtracts the top slot from the others, and each
coefficient is reduced mod n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numth import BudgetExceeded, Factorization, _factored, is_prime, mult_order

_BRUTE_LIMIT = 10**6

DEFAULT_ELL_MAX = 2000


class PerfectPower(ArithmeticError):
    """n = base**exponent with exponent even: n is a certified composite.

    Squares are quadratic residues mod every odd prime, hence never
    primitive roots; no conductor can exist, and the witness (base,
    exponent) already proves compositeness.
    """

    def __init__(self, base: int, exponent: int):
        super().__init__(f"{base}**{exponent}")
        self.base = base
        self.exponent = exponent


class NoConductor(ArithmeticError):
    """No valid conductor found below the search bound."""


class InvalidConductor(ValueError):
    """The requested (n, ell) pair violates the ring preconditions."""


class NonIntegral(ArithmeticError):
    """An exact-division invariant failed; indicates a real bug."""


def conductor_failure(n: int, ell: int) -> str | None:
    """Why ell is unusable for n, as a short tag, or None if usable."""
    return _residue_failure(n % ell if ell > 0 else -1, ell)


@lru_cache(maxsize=None)
def _residue_failure(residue: int, ell: int) -> str | None:
    if ell < 3 or not is_prime(ell):
        return "conductor-not-prime"
    if residue == 0:
        return "not-coprime"
    if _order_mod_ell(residue, ell) != ell - 1:
        return "not-primitive-root"
    return None


@lru_cache(maxsize=None)
def _order_mod_ell(residue: int, ell: int) -> int:
    # ell stays small (conductors are searched below a few thousand),
    # so an unbounded cache keyed by (residue, ell) is safe.
    return mult_order(residue, ell)


def find_conductor(n: int, ell_max: int = DEFAULT_ELL_MAX) -> int:
    """Smallest prime ell <= ell_max with n a primitive root mod ell.

    Squares, the even perfect powers, are rejected up front via
    PerfectPower(isqrt(n), 2); odd powers such as cubes can still be
    primitive roots.  Raises NoConductor when the bound is exhausted.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    root = math.isqrt(n)
    if root * root == n:
        raise PerfectPower(root, 2)
    for ell in range(3, ell_max + 1, 2):
        if conductor_failure(n, ell) is None:
            return ell
    raise NoConductor(f"no conductor for {n} below {ell_max}")


@dataclass(frozen=True)
class RingDescriptor:
    """The extension ring S for a given (n, ell) pair."""

    n: int
    ell: int
    d: int = field(init=False)
    sigma_exponent: int = field(init=False)

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise InvalidConductor("n must be odd and >= 3")
        failure = conductor_failure(self.n, self.ell)
        if failure is not None:
            raise InvalidConductor(f"ell={self.ell} for n={self.n}: {failure}")
        object.__setattr__(self, "d", self.ell - 1)
        object.__setattr__(self, "sigma_exponent", self.n % self.ell)

    def element(self, coeffs) -> tuple[int, ...]:
        """Canonicalize a coefficient sequence (length <= d) into S."""
        coeffs = list(coeffs)
        if len(coeffs) > self.d:
            raise ValueError(f"at most {self.d} coefficients expected")
        coeffs += [0] * (self.d - len(coeffs))
        return tuple(c % self.n for c in coeffs)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.d

    def one(self) -> tuple[int, ...]:
        return self.element([1])

    def omega(self) -> tuple[int, ...]:
        """The image of X, a primitive ell-th root of unity in S."""
        return self.element([0, 1])


def _pack(a, n: int, w: int) -> int:
    """The integer holding a's coefficients, reduced mod n, in w-bit slots."""
    packed = 0
    for c in reversed(a):
        packed = packed << w | c % n
    return packed


def ring_mul(R: RingDescriptor, a, b) -> tuple[int, ...]:
    """Product in S by Kronecker substitution (see the module docstring).

    Coefficients outside [0, n) are accepted; the result is canonical.
    """
    n, ell = R.n, R.ell
    w = 2 * n.bit_length() + ell.bit_length()
    packed = _pack(a, n, w)
    P = packed * packed if a is b else packed * _pack(b, n, w)
    span = w * ell
    P = (P & ((1 << span) - 1)) + (P >> span)
    top = P >> (span - w)
    mask = (1 << w) - 1
    coeffs = []
    for _ in range(ell - 1):
        coeffs.append(((P & mask) - top) % n)
        P >>= w
    return tuple(coeffs)


def ring_pow(R: RingDescriptor, a, e: int) -> tuple[int, ...]:
    """a**e in S by left-to-right square-and-multiply (e >= 0): for e >= 1,
    bitlen(e) - 1 squarings and popcount(e) - 1 products by a."""
    if e < 0:
        raise ValueError("negative exponent")
    a = R.element(a)
    result = a if e else R.one()
    for bit in bin(e)[3:]:
        result = ring_mul(R, result, result)
        if bit == "1":
            result = ring_mul(R, result, a)
    return result


def sigma_apply(R: RingDescriptor, x, j: int = 1) -> tuple[int, ...]:
    """Apply sigma**j, the substitution X -> X**(n**j mod ell)."""
    u = pow(R.sigma_exponent, j, R.ell)
    acc = [0] * R.ell
    for i, ci in enumerate(x):
        acc[i * u % R.ell] += ci
    top = acc[R.ell - 1]
    return tuple((c - top) % R.n for c in acc[: R.ell - 1])


def ring_norm(R: RingDescriptor, x) -> int:
    """Product of all sigma-conjugates of x, as an element of Z/nZ.

    The product is sigma-invariant, hence a constant.  It is built by
    doubling along the cyclic group: with y_k the product of the first
    k conjugates, y_2k = y_k * sigma**k(y_k) and y_(k+1) = y_k *
    sigma**k(x), so d conjugates cost floor(log2 d) + popcount(d) - 1
    ring products (the Itoh-Tsujii addition chain).
    """
    x = tuple(x)
    y, k = x, 1
    for bit in bin(R.d)[3:]:
        y = ring_mul(R, y, sigma_apply(R, y, k))
        k *= 2
        if bit == "1":
            y = ring_mul(R, y, sigma_apply(R, x, k))
            k += 1
    assert not any(y[1:]), "ring norm must be a constant"
    return y[0]


def invertibility(R: RingDescriptor, x) -> int:
    """g = gcd(norm(x), n): 1 exactly when x is a unit of S.

    x is a unit exactly when its norm is a unit of Z/nZ: modulo each
    prime p of n, S/pS is a product of fields permuted transitively by
    sigma, so the norm vanishes mod p as soon as x vanishes in one of
    them.  A g strictly between 1 and n is a proper divisor of n; g = n
    (the zero element included) leaves no factor.
    """
    return math.gcd(ring_norm(R, x), R.n)


def galois_test(R: RingDescriptor, x) -> tuple | None:
    """One round on a nonzero x: None (a pass) iff x is a unit and sigma(x) = x**n.

    The pass set is exactly the set count_Gal counts.  Otherwise the
    result is the StrongerVerdict evidence for n composite:
    ("factor", g) when g = gcd(norm(x), n) is a proper divisor of n,
    ("galois-round", "not-a-unit") when g = n, and
    ("galois-round", "sigma-mismatch") for a unit with sigma(x) != x**n.
    """
    x = tuple(x)
    if not any(c % R.n for c in x):
        raise ValueError("x must be nonzero")
    g = invertibility(R, x)
    if g == R.n:
        return ("galois-round", "not-a-unit")
    if g > 1:
        return ("factor", g)
    if sigma_apply(R, x) == ring_pow(R, x, R.n):
        return None
    return ("galois-round", "sigma-mismatch")


@dataclass(frozen=True)
class PrimeLocalData:
    """How a prime p of n sits inside S.

    f: residue degree, the order of p mod ell (so S/pS is a product of
       m = d/f copies of GF(p**f))
    z: the j in [0, f) with (n**m)**j = p mod ell, coprime to f;
    t: inverse of z mod f.  Both are 0 when f = 1.  The p-power
    Frobenius acts as sigma**(z*m).
    """

    p: int
    f: int
    m: int
    z: int
    t: int


def local_data(n: int, ell: int, p: int) -> PrimeLocalData:
    """Local invariants of prime p for the ring with conductor ell.

    n**m generates the order-f subgroup of (Z/ell)^* that holds p, so z
    is found by walking its f powers.  Raises ArithmeticError when p is
    not among them, which happens only when n is not a primitive root.
    """
    f = _order_mod_ell(p % ell, ell)
    m = (ell - 1) // f
    g, power = pow(n, m, ell), 1
    for z in range(f):
        if power == p % ell:
            return PrimeLocalData(p=p, f=f, m=m, z=z, t=pow(z, -1, f) if f > 1 else 0)
        power = power * g % ell
    raise ArithmeticError(f"{p} is not a power of {n}**{m} mod {ell}")


def _conductor_counts(fac: Factorization, ell: int) -> tuple[int, int, int]:
    """(count_Gal, count_D, cofactor_k) for n = fac.n, in one pass over its primes.

    The caller must already have checked that ell is a valid conductor
    for n (RingDescriptor(n, ell), or conductor_failure(n, ell) is None).
    """
    n = fac.n
    n_d = n ** (ell - 1) - 1
    gal = relaxed = numerator = 1
    for p, _ in fac.factors:
        loc = local_data(n, ell, p)
        residue_units = p**loc.f - 1
        gal *= math.gcd(n**loc.m - p**loc.t, residue_units)
        relaxed *= math.gcd(residue_units, n_d)
        numerator *= residue_units
    k, remainder = divmod(numerator, relaxed)
    if remainder:
        raise NonIntegral(f"{numerator} not divisible by {relaxed}")
    return gal, relaxed, k


def count_Gal(n: int | Factorization, ell: int) -> int:
    """Exact bad-witness count for the Galois round: the number of
    invertible x in S with sigma(x) = x**n, as a product of local gcds."""
    fac = _factored(n)
    RingDescriptor(fac.n, ell)
    return _conductor_counts(fac, ell)[0]


def count_D(n: int | Factorization, ell: int) -> int:
    """Product over p | n of gcd(p**f - 1, n**d - 1)."""
    fac = _factored(n)
    RingDescriptor(fac.n, ell)
    return _conductor_counts(fac, ell)[1]


def count_H(n: int | Factorization, d: int) -> int:
    """Product over p | n of gcd(p**d - 1, n**d - 1); needs no conductor."""
    fac = _factored(n)
    n = fac.n
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    n_d = n**d - 1
    result = 1
    for p in fac.primes():
        result *= math.gcd(p**d - 1, n_d)
    return result


def cofactor_k(n: int | Factorization, ell: int) -> int:
    """The exact ratio (prod over p of p**f - 1) / count_D(n, ell)."""
    fac = _factored(n)
    RingDescriptor(fac.n, ell)
    return _conductor_counts(fac, ell)[2]


def unit_count(n: int | Factorization, ell: int) -> int:
    """Order of the unit group of S: prod p**((v-1)d) * (p**f - 1)**m."""
    fac = _factored(n)
    RingDescriptor(fac.n, ell)
    d = ell - 1
    result = 1
    for p, v in fac.factors:
        f = _order_mod_ell(p % ell, ell)
        m = d // f
        result *= p ** ((v - 1) * d) * (p**f - 1) ** m
    return result


def _vec_fold(acc: np.ndarray, n: int) -> np.ndarray:
    """Reduce length-ell rows to canonical d coefficients mod n."""
    return (acc[:, :-1] - acc[:, -1:]) % n


def _vec_ring_mul(R: RingDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ell, d, n = R.ell, R.d, R.n
    acc = np.zeros((a.shape[0], ell), dtype=np.int64)
    for i in range(d):
        col = a[:, i]
        for j in range(d):
            acc[:, (i + j) % ell] += col * b[:, j]
    return _vec_fold(acc, n)


def _vec_sigma(R: RingDescriptor, x: np.ndarray, j: int = 1) -> np.ndarray:
    u = pow(R.sigma_exponent, j, R.ell)
    acc = np.zeros((x.shape[0], R.ell), dtype=np.int64)
    for i in range(R.d):
        acc[:, i * u % R.ell] += x[:, i]
    return _vec_fold(acc, R.n)


def _vec_ring_pow(R: RingDescriptor, x: np.ndarray, e: int) -> np.ndarray:
    result = np.zeros_like(x)
    result[:, 0] = 1
    acc = x % R.n
    while e:
        if e & 1:
            result = _vec_ring_mul(R, result, acc)
        acc = _vec_ring_mul(R, acc, acc)
        e >>= 1
    return result


def brute_Gal(n: int, ell: int) -> int:
    """Oracle: enumerate all of S and count Galois-passing units.

    Independent of count_Gal: no factorization of n, just the defining
    condition checked for every coefficient vector.  Units are
    decided through the ring norm, the product of all sigma-conjugates,
    which lands in Z/nZ and is a unit exactly when x is.
    """
    R = RingDescriptor(n, ell)
    d = R.d
    total = n**d
    if total > _BRUTE_LIMIT:
        raise BudgetExceeded(f"{n}**{d} elements exceed {_BRUTE_LIMIT}")
    idx = np.arange(total, dtype=np.int64)
    coeffs = np.empty((total, d), dtype=np.int64)
    div = np.int64(1)
    for i in range(d):
        coeffs[:, i] = idx // div % n
        div *= n
    norm = coeffs.copy()
    for j in range(1, d):
        norm = _vec_ring_mul(R, norm, _vec_sigma(R, coeffs, j))
    assert not norm[:, 1:].any(), "ring norm must be a constant"
    invertible = np.gcd(norm[:, 0], n) == 1
    match = np.all(_vec_ring_pow(R, coeffs, n) == _vec_sigma(R, coeffs), axis=1)
    return int(np.count_nonzero(invertible & match))
