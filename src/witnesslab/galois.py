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
primes of n, which examine runs once per n; a sweep takes the same
local terms a chunk at a time.  Both read every conductor fact from
_conductor_table, one table of discrete logs per conductor.

Elements are coefficient tuples of length d over the power basis
1, X, ..., X**(ell-2).  Products use Kronecker substitution: an
element is packed into one integer with coefficient i in the W-bit
slot i, and one integer product gives the polynomial product.
ring_pow and ring_norm keep their operands packed from the first
product to the last, every coefficient only lazily reduced, in
[0, 5n).  A packed operand may fill all ell slots, 0 to d: it is an
element of Z/n[X]/(X**ell - 1), which S is the quotient of by
1 + X + ... + X**(ell-1) (Silverman's redundant representation,
CHES '99); a freshly packed x has slot d empty.  With b = bitlen(n) and
L = bitlen(ell), a coefficient of a product mod X**ell - 1 sums at
most ell < 2**L products below (5n)**2 < 2**(2b+5), so every slot of
a product stays below 2**X, X = 2b + L + 8.  X**ell = 1 is applied to
the packed product P as one fold modulo 2**(W*ell) - 1,
(P & (2**(W*ell) - 1)) + (P >> (W*ell)), which adds slot k + ell onto
slot k.  The slots are then reduced together by one Barrett step
(Barrett, CRYPTO '86): with mu = floor(2**(X+1) / n) and T keeping the
low X-b+1 bits of each slot, the slotwise quotient estimate
Q = ((((P >> (b-1)) & T) * mu) >> (X-b+2)) & T satisfies
q - 2 <= Q <= q for the true quotient q of each slot.  (Dropping the
low b-1 bits costs the estimate under 2**(b-1)/n <= 1, flooring mu
under P/2**(X+1) < 1/2.)  So P - Q*n leaves every slot in [0, 3n).

RingDescriptor.layout picks one of two kernels per ring, from b alone,
and binds the ring's constants into it.  The cutoff CYCLIC_BITS = 104
is where the measured ring_pow(x, n) times of the two kernels cross
for ell = 5 (the table is at CYCLIC_BITS).  Up to it, the cyclic
kernel stays in Z/n[X]/(X**ell - 1): the multiply, the fold, the
Barrett step over all ell slots and P - Q*n, 11 big-integer
operations, every slot out in [0, 3n).  Above it, the folded kernel
keeps d slots, which makes the multiply smaller: before the Barrett
step it takes the top slot d off and reduces the d low slots, and
then 1 + X + ... + X**(ell-1) = 0 subtracts the top slot
from the others: adding (n - top mod n) * ones, with the repunit ones
the sum of 2**(W*i) over i < d, adds a value in [1, n] to each slot,
which ends below 4n, inside [0, 5n).  No mask or shift crosses a
slot.  A slot of the masked P >> (b-1) times mu is below
2**(X-b+1) * 2**(X-b+2) = 2**(2X-2b+3), within W = 2X - 2b + 5 bits,
and the low bits that either right shift moves out of a slot land
above the X-b+1 bits that T keeps of the slot below.  Q*n is at most
P in every slot, so the subtraction borrows across no slot.  sigma**k
maps X**i to X**(i * n**k mod ell), which permutes the ell slots, so
ring_norm's conjugates are packed too.  Only a result is unpacked:
slot d, if any, comes off the d slots below it, with one reduction
mod n per coefficient.  ring_mul is the same kernel between a pack
and an unpack.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import numth
from .numth import BudgetExceeded, Factorization, _at_least, _coprime, _enumerable, _factored, _odd_n, is_prime

DEFAULT_ELL_MAX = 2000
# The largest bitlen(n) whose rings use the cyclic kernel.  ring_pow(x, n)
# time, cyclic kernel over folded, each cell the median of 5 primes n of
# that many bits (each the median of 7 interleaved timings), on one core
# of an Intel Xeon under CPython 3.11:
#
#     bits   ell 3   ell 5   ell 7   ell 11
#       64    0.84    0.88    0.92    0.97
#       96    0.89    0.93    1.00    0.99
#      104    0.93    0.96    1.00    1.00
#      112    0.89    1.04    1.00    1.08
#      128    0.95    1.03    1.00    1.03
#      192    1.00    1.10    1.06    0.99
#      256    1.14    1.10    1.13    1.07
#
# Past 104 bits the larger multiply of ell slots against d costs more
# than the folded kernel's six further operations for all but ell = 3.
CYCLIC_BITS = 104


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


def conductor_failure(n: int, ell: int) -> str | None:
    """Why ell is unusable for n, as a short tag read from its table, or None if usable."""
    table = _conductor_table(ell)
    if table is None:
        return "conductor-not-prime"
    return _SKIP_TAGS[table[_TAG, n % ell]]


# The rows of a conductor table, and the skip tags by their code in its
# tag row.
_TAG, _IND, _M, _F, _INV = range(5)
_SKIP_TAGS = np.array([None, "not-coprime", "not-primitive-root"], dtype=object)
# The largest conductor with a table: a table is 40 * ell bytes, 42 MB
# at this cap.
_TABLE_LIMIT = 2**20


@lru_cache(maxsize=None)
def _conductor_table(ell: int) -> np.ndarray | None:
    """Every conductor fact about ell, by residue r mod ell: an int64
    array of five rows, or None when ell is not a prime >= 3.

    conductor_failure, local_data and unit_count read single entries;
    the sweep's block engine gathers whole columns.  With g the least
    primitive root mod ell and d = ell - 1, ind[r] is the discrete log
    of r to base g, read off the d powers of g; the other rows follow
    from k = ind[r].  tag[r] is 1 (not-coprime) at r = 0, 0 (accepted)
    where gcd(k, d) = 1, that is where r is a primitive root, and 2
    (not-primitive-root) elsewhere.  For a prime p = r mod ell,
    local_data's m is gcd(k, d), f = d / m is the order of p, and
    inv[r] = (k / m)**-1 mod f, computed as (k / m)**(2 lambda(d) - 1)
    mod f, since lambda(f) divides lambda(d) and 2 lambda(d) - 1 >= 1.
    For n a primitive root, p = (n**m)**z with z = (k / m) / ind[n]
    mod f, so t = z**-1 mod f is ind[n] * inv[r] mod f, and 0 when
    f = 1.  Column 0 holds tag 1 and the other values of r = 1.  A
    prime past _TABLE_LIMIT raises BudgetExceeded.
    """
    if ell < 3 or not is_prime(ell):
        return None
    if ell > _TABLE_LIMIT:
        raise BudgetExceeded(f"conductor {ell} is past the table cap of {_TABLE_LIMIT}")
    d = ell - 1
    factors = numth.factorize(d).factors
    g = next(g for g in range(2, ell) if all(pow(g, d // q, ell) != 1 for q, _ in factors))
    # g**k for k < d as g**(step * i + j): giant steps i by baby steps j.
    step = math.isqrt(d - 1) + 1
    giant, baby = (_powers(base, step, ell) for base in (pow(g, step, ell), g))
    powers = (giant[:, None] * baby % ell).ravel()[:d]
    k = np.arange(d)
    m = np.ones(d, dtype=np.int64)  # gcd(k, d), built up a prime power of d at a time
    for q, e in factors:
        for j in range(1, e + 1):
            m[:: q**j] *= q
    f = d // m
    table = np.empty((5, ell), dtype=np.int64)
    table[:, 0] = (1, 0, d, 1, 0)
    inv = numth._pow_mod(k // m, 2 * numth.carmichael_lambda(d) - 1, f)
    table[:, powers] = (np.where(m == 1, 0, 2), k, m, f, inv)
    return table


def _powers(base: int, count: int, modulus: int) -> np.ndarray:
    """base**j % modulus for j < count, as an int64 array."""
    steps = itertools.accumulate(itertools.repeat(base, count - 1), lambda x, y: x * y % modulus, initial=1)
    return np.array(list(steps), dtype=np.int64)


def find_conductor(n: int, ell_max: int = DEFAULT_ELL_MAX) -> int:
    """Smallest prime ell <= ell_max with n a primitive root mod ell.

    Squares, the even perfect powers, are rejected up front via
    PerfectPower(isqrt(n), 2); odd powers such as cubes can still be
    primitive roots.  Raises NoConductor when the bound is exhausted.
    """
    n = _odd_n(n)
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
        _odd_n(self.n)
        failure = conductor_failure(self.n, self.ell)
        if failure is not None:
            raise InvalidConductor(f"ell={self.ell} for n={self.n}: {failure}")
        object.__setattr__(self, "d", self.ell - 1)
        object.__setattr__(self, "sigma_exponent", self.n % self.ell)

    @cached_property
    def layout(self) -> KroneckerLayout:
        """The slot width and the product kernel of this ring (see the module docstring)."""
        n, d, ell = self.n, self.d, self.ell
        b = n.bit_length()
        x = 2 * b + ell.bit_length() + 8
        w = 2 * x - 2 * b + 5
        cyclic = b <= CYCLIC_BITS
        # The repunit sum of 2**(W*i) over the slots the kernel reduces, and
        # the Barrett step's constants: the shift b - 1, the mask T of the
        # low X - b + 1 bits of each of those slots, mu = floor(2**(X+1) / n)
        # and the quotient shift X + 1 - (b - 1).
        ones = ((1 << (w * (ell if cyclic else d))) - 1) // ((1 << w) - 1)
        barrett = (b - 1, ones * ((1 << (x - b + 1)) - 1), (1 << (x + 1)) // n, x - b + 2)
        if cyclic:
            mul = _cyclic_kernel(n, w * ell, *barrett)
        else:
            mul = _folded_kernel(n, w * ell, *barrett, w * d, ones)
        return KroneckerLayout(n, d, w, w * d, mul)

    def element(self, coeffs) -> tuple[int, ...]:
        """Canonicalize a coefficient sequence (length <= d) into S."""
        coeffs = self._fits(list(coeffs))
        coeffs += [0] * (self.d - len(coeffs))
        return tuple(c % self.n for c in coeffs)

    def one(self) -> tuple[int, ...]:
        return self.element([1])

    def _fits(self, coeffs):
        """coeffs, checked to hold at most d coefficients."""
        if len(coeffs) > self.d:
            raise ValueError(f"at most {self.d} coefficients expected")
        return coeffs


class KroneckerLayout(NamedTuple):
    """Slot width W and product kernel of the packed elements of one ring."""

    n: int
    d: int
    w: int  # W = 2X - 2b + 5 bits per slot
    top: int  # W * d: where slot d starts
    mul: Callable[[int, int], int]  # packed A * B: _cyclic_kernel's or _folded_kernel's


def _pack(a, lay: KroneckerLayout) -> int:
    """The integer holding a's coefficients, reduced mod n, in W-bit slots."""
    n, w = lay.n, lay.w
    packed = 0
    for c in reversed(a):
        packed = packed << w | c % n
    return packed


def _unpack(packed: int, lay: KroneckerLayout) -> tuple[int, ...]:
    """The canonical coefficient tuple of a packed element: slot d, if
    any, comes off the d slots below it (1 + X + ... + X**d = 0)."""
    n, w = lay.n, lay.w
    mask = (1 << w) - 1
    top = packed >> lay.top
    return tuple(((packed >> (w * i) & mask) - top) % n for i in range(lay.d))


def _cyclic_kernel(
    n: int, span: int, shift: int, mask: int, mu: int, quotient_shift: int
) -> Callable[[int, int], int]:
    """The product up to CYCLIC_BITS, with the ring's constants bound: packed
    A * B in Z/n[X]/(X**ell - 1), all ell slots in [0, 5n) in and in [0, 3n) out."""
    fold_mask = (1 << span) - 1  # span = W * ell: the fold point of X**ell = 1

    def cyclic(A: int, B: int) -> int:
        P = A * B
        P = (P & fold_mask) + (P >> span)
        Q = (((P >> shift) & mask) * mu >> quotient_shift) & mask
        return P - Q * n

    return cyclic


def _folded_kernel(
    n: int, span: int, shift: int, mask: int, mu: int, quotient_shift: int, top_at: int, ones: int
) -> Callable[[int, int], int]:
    """The product above CYCLIC_BITS, with the ring's constants bound: packed
    A * B in S, all ell slots in [0, 5n) in, the d low slots in [0, 5n) and
    slot d empty out."""
    fold_mask = (1 << span) - 1
    low_mask = (1 << top_at) - 1  # the d low slots

    def folded(A: int, B: int) -> int:
        P = A * B
        P = (P & fold_mask) + (P >> span)
        top = P >> top_at
        P &= low_mask
        Q = (((P >> shift) & mask) * mu >> quotient_shift) & mask
        return P - Q * n + (n - top % n) * ones

    return folded


def ring_mul(R: RingDescriptor, a, b) -> tuple[int, ...]:
    """Product in S by Kronecker substitution (see the module docstring).

    Coefficients outside [0, n) are accepted; the result is canonical.
    More than d coefficients raise ValueError, as R.element does.
    """
    lay = R.layout
    A = _pack(R._fits(a), lay)
    return _unpack(lay.mul(A, A if a is b else _pack(R._fits(b), lay)), lay)


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
    The operands stay packed in between, multiplied by R.layout.mul.
    """
    e = _at_least("e", 0, e)
    a = R.element(a)
    if not e:
        return R.one()
    lay = R.layout
    return _unpack(_pow_packed(_pack(a, lay), e, lay.mul), lay)


def _pow_packed(A: int, e: int, mul: Callable[[int, int], int]) -> int:
    """A**e for a packed A and e >= 1 by the kernel mul, packed (see ring_pow)."""
    k = 1 + bisect_right(_WINDOW_EDGES, e.bit_length())
    odd = [A]  # odd[i] = A**(2*i + 1)
    if k > 1:
        square = mul(A, A)
        for _ in range(2 ** (k - 1) - 1):
            odd.append(mul(odd[-1], square))
    # Each piece is the zeros before a window, then the window: the
    # longest run of at most k bits that starts and ends with a 1.
    bits = bin(e)[2:]
    first, *pieces = re.findall(f"0*1[01]{{0,{k - 1}}}(?<=1)", bits)
    result = odd[int(first, 2) >> 1]
    for piece in pieces:
        for _ in range(len(piece)):
            result = mul(result, result)
        result = mul(result, odd[int(piece, 2) >> 1])
    for _ in range(len(bits) - len(bits.rstrip("0"))):
        result = mul(result, result)
    return result


def sigma_apply(R: RingDescriptor, x, j: int = 1) -> tuple[int, ...]:
    """Apply sigma**j, the substitution X -> X**(n**j mod ell)."""
    u = pow(R.sigma_exponent, j, R.ell)
    acc = [0] * R.ell
    for i, ci in enumerate(x):
        acc[i * u % R.ell] += ci
    top = acc[R.ell - 1]
    return tuple((c - top) % R.n for c in acc[: R.ell - 1])


def _sigma_packed(A: int, v: int, lay: KroneckerLayout) -> int:
    """sigma**j of a packed A, with v = n**-j mod ell: sigma**j maps X**i to
    X**(i * n**j), so slot i of the result is slot i * v mod ell of A."""
    w, ell = lay.w, lay.d + 1
    mask = (1 << w) - 1
    out = 0
    for i in range(ell - 1, -1, -1):
        out = out << w | A >> (w * (i * v % ell)) & mask
    return out


def ring_norm(R: RingDescriptor, x) -> int:
    """Product of all sigma-conjugates of x, as an element of Z/nZ.

    The product is sigma-invariant, hence a constant.  It is built by
    doubling along the cyclic group: with y_k the product of the first
    k conjugates, y_2k = y_k * sigma**k(y_k) and y_(k+1) = y_k *
    sigma**k(x), so d conjugates cost floor(log2 d) + popcount(d) - 1
    ring products (the Itoh-Tsujii addition chain).  The operands stay
    packed throughout; sigma**k permutes their ell slots.
    """
    lay, u, ell = R.layout, R.sigma_exponent, R.ell
    mul = lay.mul
    X = _pack(R._fits(tuple(x)), lay)
    Y, k = X, 1
    for bit in bin(R.d)[3:]:
        Y = mul(Y, _sigma_packed(Y, pow(u, -k, ell), lay))
        k *= 2
        if bit == "1":
            Y = mul(Y, _sigma_packed(X, pow(u, -k, ell), lay))
            k += 1
    y = _unpack(Y, lay)
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

    f, m and t are read from the conductor's table at p mod ell and
    n mod ell, and z = t**-1 mod f.  Raises InvalidConductor when ell
    is not a prime, NotCoprime when ell divides p, and ArithmeticError
    when f > 1 and t is not coprime to f: p is then not a power of n**m
    mod ell, which happens only when n is not a primitive root.
    """
    table = _conductor_table(ell)
    if table is None:
        raise InvalidConductor(f"ell={ell}: conductor-not-prime")
    _coprime(p, ell)
    _, _, m, f, inv = table[:, p % ell].tolist()
    t = int(table[_IND, n % ell]) * inv % f
    if f > 1 and math.gcd(t, f) != 1:
        raise ArithmeticError(f"{p} is not a power of {n}**{m} mod {ell}")
    return PrimeLocalData(p=p, f=f, m=m, z=pow(t, -1, f) if f > 1 else 0, t=t)


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
    return gal, relaxed, numerator // relaxed  # each D term divides its p**f - 1


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
    n, d = _at_least("n", 2, fac.n), _at_least("d", 1, d)
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
    table = _conductor_table(ell)
    for p, v in fac.factors:
        f = int(table[_F, p % ell])
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
    _enumerable(n, d)
    total = n**d
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
