"""Property tests: ring_mul and ring_pow against schoolbook cyclic products."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.galois import (
    RingDescriptor,
    _mul_packed,
    conductor_failure,
    galois_test,
    ring_mul,
    ring_pow,
)

ELLS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101)


def schoolbook(R, a, b):
    """Reference product in S: every a_i * b_j lands at (i + j) mod ell,
    then the top coefficient is folded by 1 + X + ... + X**(ell-1) = 0."""
    acc = [0] * R.ell
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc[(i + j) % R.ell] += ai * bj
    return tuple((c - acc[-1]) % R.n for c in acc[:-1])


def _ring(ell, residue, k):
    # n = 2*ell*k + (an odd number congruent to residue mod ell): n is odd
    # and a primitive root mod ell when residue is, so (n, ell) is valid.
    odd_residue = residue if residue % 2 else residue + ell
    return RingDescriptor(2 * ell * k + odd_residue, ell)


@st.composite
def rings(draw):
    ell = draw(st.sampled_from(ELLS))
    bits = draw(st.integers(14, 256))
    roots = [g for g in range(2, ell) if conductor_failure(g, ell) is None]
    residue = draw(st.sampled_from(roots))
    low = 2 ** (bits - 1) // (2 * ell) + 1
    high = (2**bits - 1) // (2 * ell) - 1
    R = _ring(ell, residue, draw(st.integers(low, high)))
    assert R.n.bit_length() == bits
    return R


def elements(R, low=0, high=None):
    high = R.n - 1 if high is None else high
    drawn = st.lists(st.integers(low, high), min_size=R.d, max_size=R.d).map(tuple)
    return st.one_of(st.just((R.n - 1,) * R.d), drawn)


def _is_canonical(R, x):
    return len(x) == R.d and all(type(c) is int and 0 <= c < R.n for c in x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_mul_matches_schoolbook(data):
    R = data.draw(rings())
    a = data.draw(elements(R))
    b = data.draw(elements(R))
    product = ring_mul(R, a, b)
    assert product == schoolbook(R, a, b)
    assert _is_canonical(R, product)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_mul_squares_the_same_tuple(data):
    R = data.draw(rings())
    a = data.draw(elements(R))
    assert ring_mul(R, a, a) == schoolbook(R, a, a)


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("bits", [14, 64, 256])
def test_ring_mul_largest_slots(ell, bits):
    """All coefficients n - 1 make every slot as large as it can get."""
    roots = [g for g in range(2, ell) if conductor_failure(g, ell) is None]
    R = _ring(ell, roots[-1], (2**bits - 1) // (2 * ell) - 1)
    assert R.n.bit_length() == bits
    top = (R.n - 1,) * R.d
    assert ring_mul(R, top, top) == schoolbook(R, top, top)
    assert ring_mul(R, top, list(top)) == schoolbook(R, top, top)
    assert ring_mul(R, top, R.one()) == top
    with pytest.raises(ValueError, match="at most"):
        ring_mul(R, top + (1,), top)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_canonical_inputs_give_canonical_results(data):
    R = data.draw(rings())
    raw_a = data.draw(elements(R, -3 * R.n, 3 * R.n))
    raw_b = data.draw(elements(R, -3 * R.n, 3 * R.n))
    a = tuple(c % R.n for c in raw_a)
    b = tuple(c % R.n for c in raw_b)
    assert ring_mul(R, raw_a, raw_b) == schoolbook(R, a, b)
    assert ring_mul(R, raw_a, raw_a) == schoolbook(R, a, a)
    e = data.draw(st.integers(0, 40))
    power = ring_pow(R, raw_a, e)
    assert power == ring_pow(R, a, e)
    assert _is_canonical(R, power)
    if any(a):
        assert galois_test(R, raw_a) == galois_test(R, a)


def schoolbook_powers(R, a, exponents):
    """a**e for each e by repeated schoolbook products: the squares
    a**(2**i) first, then for each e the product of those over its set bits."""
    squares = [R.element(a)]
    for _ in range(max(exponents).bit_length() - 1):
        squares.append(schoolbook(R, squares[-1], squares[-1]))
    powers = []
    for e in exponents:
        power = R.one()
        for i, square in enumerate(squares):
            if e >> i & 1:
                power = schoolbook(R, power, square)
        powers.append(power)
    return powers


def extreme_moduli(bits, ell):
    """The least n above 2**(bits-1) and the greatest n below 2**bits that
    are valid for ell: the two ends of the Barrett step's quotient estimate.
    ell consecutive odd n meet every residue mod ell, so the ell odd n at
    each end hold a valid one whenever the bit length has that many."""
    odd = range(2 ** (bits - 1) + 1, 2**bits, 2)
    valid = [n for n in (*odd[:ell], *odd[-ell:]) if conductor_failure(n, ell) is None]
    return sorted({valid[0], valid[-1]}) if valid else []


def window_edges(*js):
    """Exponents 2**j - 1, 2**j and 2**j + 1: 2**j has one bit more."""
    return [2**j + s for j in js for s in (-1, 0, 1)]


# Every (bits, ell) that has a valid n of that bit length, except one:
# at 1024 bits and ell = 101 a product squares a 208k-bit integer, about
# 10 ms, and the 256-bit row and the ell = 31 column cover that corner.
BARRETT_RINGS = [
    (bits, ell)
    for bits in (2, 14, 64, 256, 1024)
    for ell in ELLS
    if extreme_moduli(bits, ell) and (bits, ell) != (1024, 101)
]


@pytest.mark.parametrize("bits,ell", BARRETT_RINGS)
def test_ring_pow_matches_schoolbook_at_barrett_extremes(bits, ell):
    """All coefficients n - 1 (the element X**-1, which fills every slot of
    the first product), n at both ends of its bit length, e at the
    window-width edges at 8 and 24 bits and at random up to 2**80."""
    exponents = window_edges(7, 23) + [random.Random(f"{bits}-{ell}").getrandbits(80)]
    for n in extreme_moduli(bits, ell):
        R = RingDescriptor(n, ell)
        top = (n - 1,) * R.d
        expected = schoolbook_powers(R, top, exponents)
        assert [ring_pow(R, top, e) for e in exponents] == expected, n


@pytest.mark.parametrize("ell", (3, 5, 7, 13))
@pytest.mark.parametrize("bits", (14, 64))
def test_ring_pow_matches_schoolbook_across_window_widths(bits, ell):
    """Every edge of the window table (k = 1 to 6), at both ends of n's
    bit length, for all coefficients n - 1 and for a random element."""
    draw = random.Random(f"{bits}-{ell}")
    exponents = window_edges(7, 23, 79, 239, 671) + [draw.getrandbits(80), draw.getrandbits(700)]
    for n in extreme_moduli(bits, ell):
        R = RingDescriptor(n, ell)
        for a in ((n - 1,) * R.d, tuple(draw.randrange(n) for _ in range(R.d))):
            expected = schoolbook_powers(R, a, exponents)
            assert [ring_pow(R, a, e) for e in exponents] == expected, (n, a)


@pytest.mark.parametrize("ell", (3, 5, 101))
@pytest.mark.parametrize("bits", (14, 64, 256, 1024))
def test_barrett_step_reduces_every_slot_below_2_to_the_x(bits, ell):
    """Times the packed one, the kernel's product is its operand, so its
    Barrett step sees any slot values below 2**X, X = 2b + L + 8, the
    bound a product's slots keep.  Each slot comes back below 5n and
    congruent mod n, also just below the largest multiples of n."""
    for n in extreme_moduli(bits, ell):
        R = RingDescriptor(n, ell)
        lay = R.layout
        bound = 1 << (2 * bits + ell.bit_length() + 8)
        q_max = (bound - 1) // n
        draw = random.Random(n)
        values = [0, 1, n - 1, n, q_max * n - 1, q_max * n, bound - 1]
        values += [draw.randrange(q_max // 2, q_max) * n - 1 for _ in range(3 * R.d)]
        values += [draw.randrange(bound) for _ in range(R.d)]
        for start in range(0, len(values), R.d):
            slots = values[start:start + R.d]
            A = sum(v << (lay.w * i) for i, v in enumerate(slots))
            out = _mul_packed(A, 1, lay)
            assert out >> (lay.w * R.d) == 0
            reduced = [out >> (lay.w * i) & ((1 << lay.w) - 1) for i in range(len(slots))]
            assert all(r < 5 * n and (r - v) % n == 0 for r, v in zip(reduced, slots)), n
