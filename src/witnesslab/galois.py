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
1, X, ..., X**(ell-2).  Products use Kronecker substitution: an
element is packed into one integer with coefficient i in the W-bit
slot i, and one integer product gives the polynomial product.
ring_pow keeps its operands packed from the first product to the
last, every coefficient only lazily reduced, in [0, 5n).  With
b = bitlen(n) and L = bitlen(ell), a coefficient of a product mod
X**ell - 1 sums at most d < 2**L products below (5n)**2 < 2**(2b+5),
so every slot of a product stays below 2**X, X = 2b + L + 8.
X**ell = 1 is applied to the packed product P as one fold modulo
2**(W*ell) - 1, (P & (2**(W*ell) - 1)) + (P >> (W*ell)), which adds
slot k + ell onto slot k.  The top slot d is then taken off, and the
d low slots are reduced together by one Barrett step (Barrett,
CRYPTO '86): with mu = floor(2**(X+1) / n) and T keeping the low
X-b+1 bits of each slot, the slotwise quotient estimate
Q = ((((P >> (b-1)) & T) * mu) >> (X-b+2)) & T satisfies
q - 2 <= Q <= q for the true quotient q of each slot.  (Dropping the
low b-1 bits costs the estimate under 2**(b-1)/n <= 1, flooring mu
under P/2**(X+1) < 1/2.)  So P - Q*n leaves every slot in [0, 3n).
The relation 1 + X + ... + X**(ell-1) = 0 subtracts the top slot from
the others: adding (n - top mod n) * ones, with the repunit ones the
sum of 2**(W*i) over i < d, adds a value in [1, n] to each slot,
which ends below 4n, inside [0, 5n).  No mask or shift crosses a
slot.  A slot of the masked P >> (b-1) times mu is below
2**(X-b+1) * 2**(X-b+2) = 2**(2X-2b+3), within W = 2X - 2b + 5 bits,
and the low bits that either right shift moves out of a slot land
above the X-b+1 bits that T keeps of the slot below.  Q*n is at most
P in every slot, so the subtraction borrows across no slot.  Only the
result is unpacked, with one reduction mod n per coefficient; ring_mul
is the same kernel between a pack and an unpack.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import numth
from .numth import BudgetExceeded, Factorization, _factored, is_prime, mult_order

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

    @cached_property
    def layout(self) -> KroneckerLayout:
        """The packed-product constants of this ring (see the module docstring)."""
        n, d = self.n, self.d
        b = n.bit_length()
        x = 2 * b + self.ell.bit_length() + 8
        w = 2 * x - 2 * b + 5
        ones = ((1 << (w * d)) - 1) // ((1 << w) - 1)
        return KroneckerLayout(
            n=n,
            d=d,
            w=w,
            span=w * self.ell,
            fold_mask=(1 << (w * self.ell)) - 1,
            top=w * d,
            low_mask=(1 << (w * d)) - 1,
            shift=b - 1,
            quotient_mask=ones * ((1 << (x - b + 1)) - 1),
            mu=(1 << (x + 1)) // n,
            quotient_shift=x - b + 2,
            ones=ones,
        )

    def element(self, coeffs) -> tuple[int, ...]:
        """Canonicalize a coefficient sequence (length <= d) into S."""
        coeffs = list(coeffs)
        if len(coeffs) > self.d:
            raise ValueError(f"at most {self.d} coefficients expected")
        coeffs += [0] * (self.d - len(coeffs))
        return tuple(c % self.n for c in coeffs)

    def one(self) -> tuple[int, ...]:
        return self.element([1])


class KroneckerLayout(NamedTuple):
    """Slot width W and Barrett constants of the packed product in one ring."""

    n: int
    d: int
    w: int  # W = 2X - 2b + 5 bits per slot
    span: int  # W * ell: the fold point of X**ell = 1
    fold_mask: int  # 2**span - 1
    top: int  # W * d: where slot d starts
    low_mask: int  # 2**top - 1: the d low slots
    shift: int  # b - 1
    quotient_mask: int  # T: the low X - b + 1 bits of each of the d slots
    mu: int  # floor(2**(X+1) / n)
    quotient_shift: int  # X + 1 - (b - 1)
    ones: int  # the repunit sum of 2**(W*i) over i < d


def _pack(a, lay: KroneckerLayout) -> int:
    """The integer holding a's coefficients, reduced mod n, in W-bit slots."""
    n, w = lay.n, lay.w
    packed = 0
    for c in reversed(a):
        packed = packed << w | c % n
    return packed


def _unpack(packed: int, lay: KroneckerLayout) -> tuple[int, ...]:
    """The canonical coefficient tuple of a packed element."""
    n, w = lay.n, lay.w
    mask = (1 << w) - 1
    return tuple((packed >> (w * i) & mask) % n for i in range(lay.d))


def _mul_packed(A: int, B: int, lay: KroneckerLayout) -> int:
    """The product kernel: packed A * B in S, every slot in [0, 5n) in and out."""
    n, _, _, span, fold_mask, top_at, low_mask, shift, mask, mu, quotient_shift, ones = lay
    P = A * B
    P = (P & fold_mask) + (P >> span)
    top = P >> top_at
    P &= low_mask
    Q = (((P >> shift) & mask) * mu >> quotient_shift) & mask
    return P - Q * n + (n - top % n) * ones


def ring_mul(R: RingDescriptor, a, b) -> tuple[int, ...]:
    """Product in S by Kronecker substitution (see the module docstring).

    Coefficients outside [0, n) are accepted; the result is canonical.
    More than d coefficients raise ValueError, as R.element does: the
    kernel's slot bounds hold for d slots.
    """
    if len(a) > R.d or len(b) > R.d:
        raise ValueError(f"at most {R.d} coefficients expected")
    lay = R.layout
    A = _pack(a, lay)
    return _unpack(_mul_packed(A, A if a is b else _pack(b, lay), lay), lay)


_WINDOW_EDGES = (8, 24, 80, 240, 672)  # bitlen(e) where ring_pow's k grows


def ring_pow(R: RingDescriptor, a, e: int) -> tuple[int, ...]:
    """a**e in S (e >= 0) by a left-to-right sliding window (HAC 14.85).

    The window width k follows bitlen(e): 1 below 8 bits, 2 below 24,
    3 below 80, 4 below 240, 5 below 672 and 6 from 672 on.  For e >= 1
    the products are: the table of odd powers a, a**3, ..., a**(2**k-1),
    2**(k-1) products when k > 1 (a**2, then one per further entry)
    and none when k = 1; then, with e cut from the left into windows of
    at most k bits that start and end with a 1, bitlen(e) minus the
    first window's length squarings and one product per later window.
    The operands stay packed in between (_mul_packed).
    """
    if e < 0:
        raise ValueError("negative exponent")
    a = R.element(a)
    if not e:
        return R.one()
    lay = R.layout
    k = 1 + bisect_right(_WINDOW_EDGES, e.bit_length())
    odd = [_pack(a, lay)]  # odd[i] = a**(2*i + 1)
    if k > 1:
        square = _mul_packed(odd[0], odd[0], lay)
        for _ in range(2 ** (k - 1) - 1):
            odd.append(_mul_packed(odd[-1], square, lay))
    # Each piece is the zeros before a window, then the window: the
    # longest run of at most k bits that starts and ends with a 1.
    bits = bin(e)[2:]
    first, *pieces = re.findall(f"0*1[01]{{0,{k - 1}}}(?<=1)", bits)
    result = odd[int(first, 2) >> 1]
    for piece in pieces:
        for _ in range(len(piece)):
            result = _mul_packed(result, result, lay)
        result = _mul_packed(result, odd[int(piece, 2) >> 1], lay)
    for _ in range(len(bits) - len(bits.rstrip("0"))):
        result = _mul_packed(result, result, lay)
    return _unpack(result, lay)


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
    for p, _ in fac.factors:
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


# Elements of S that brute_Gal enumerates at once.  Their coefficients
# are int32: a product sums at most d coefficient products, so every
# entry stays below d * n**2 <= 2 * 10**6 under the enumeration cap.
_BRUTE_BLOCK = 2**14


def _block_mul(R: RingDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products in S of (d, block) coefficient arrays with entries in [0, n)."""
    d, ell = R.d, R.ell
    acc = np.empty((2 * d - 1, a.shape[1]), dtype=a.dtype)
    np.multiply(b, a[0], out=acc[:d])
    acc[d:] = 0
    term = np.empty_like(b)
    for i in range(1, d):
        np.multiply(b, a[i], out=term)
        acc[i : i + d] += term
    acc[: d - 2] += acc[ell:]  # X**ell = 1
    acc[:d] -= acc[d]  # X**d = -(1 + X + ... + X**(d-1))
    return np.remainder(acc[:d], R.n, out=acc[:d])


def _block_sigma(R: RingDescriptor, x: np.ndarray, j: int = 1) -> np.ndarray:
    """sigma**j of (d, block) coefficient arrays."""
    u = pow(R.sigma_exponent, j, R.ell)
    acc = np.zeros((R.ell, x.shape[1]), dtype=x.dtype)
    acc[[i * u % R.ell for i in range(R.d)]] = x
    return (acc[: R.d] - acc[R.d]) % R.n


def _block_pow(R: RingDescriptor, x: np.ndarray, e: int) -> np.ndarray:
    """x**e (e >= 1) by left-to-right square-and-multiply."""
    result = x
    for bit in bin(e)[3:]:
        result = _block_mul(R, result, result)
        if bit == "1":
            result = _block_mul(R, result, x)
    return result


def brute_Gal(n: int, ell: int) -> int:
    """Oracle: enumerate all of S and count Galois-passing units.

    Independent of count_Gal: no factorization of n, just the defining
    condition checked for every coefficient vector, _BRUTE_BLOCK
    elements at a time.  Units are decided through the ring norm, the
    product of all sigma-conjugates, which lands in Z/nZ and is a unit
    exactly when x is.
    """
    R = RingDescriptor(n, ell)
    d = R.d
    total = n**d
    if total > numth._BRUTE_LIMIT:
        raise BudgetExceeded(f"{n}**{d} elements exceed {numth._BRUTE_LIMIT}")
    count = 0
    for low in range(0, total, _BRUTE_BLOCK):
        index = np.arange(low, min(low + _BRUTE_BLOCK, total), dtype=np.int64)
        x = np.array([index // n**i % n for i in range(d)], dtype=np.int32)
        norm = x
        for j in range(1, d):
            norm = _block_mul(R, norm, _block_sigma(R, x, j))
        assert not norm[1:].any(), "ring norm must be a constant"
        unit = np.gcd(norm[0], n) == 1
        match = (_block_pow(R, x, n) == _block_sigma(R, x)).all(axis=0)
        count += int(np.count_nonzero(unit & match))
    return count
