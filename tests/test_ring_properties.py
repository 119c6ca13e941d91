"""Property tests: ring_mul and ring_pow against schoolbook cyclic products,
on both packed kernels: the cyclic one up to CYCLIC_BITS, the folded one above."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.galois import (
    CYCLIC_BITS,
    RingDescriptor,
    _pow_packed,
    _unpack,
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
@pytest.mark.parametrize("bits", [14, 64, CYCLIC_BITS, CYCLIC_BITS + 1, 256])
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


def represented(R, slots):
    """The element of S that ell packed slots stand for: slot d comes off
    the others, as 1 + X + ... + X**d = 0."""
    return tuple((c - slots[R.d]) % R.n for c in slots[: R.d])


def largest_slots(R, draw):
    """ell slots in [4n, 5n), just below the kernels' input bound 5n, so
    slot d is never empty; 5n - 1 - c gives every element of S."""
    return [5 * R.n - 1 - draw.randrange(R.n) for _ in range(R.ell)]


def packed(R, slots):
    return sum(v << (R.layout.w * i) for i, v in enumerate(slots))


@pytest.mark.parametrize(
    "bits,kernel", [(CYCLIC_BITS - 1, "cyclic"), (CYCLIC_BITS, "cyclic"), (CYCLIC_BITS + 1, "folded")]
)
@pytest.mark.parametrize("ell", (3, 5, 101))
def test_the_kernel_follows_the_bit_length_of_n(bits, kernel, ell):
    for n in extreme_moduli(bits, ell):
        assert RingDescriptor(n, ell).layout.mul.__name__ == kernel, n


def window_edges(*js):
    """Exponents 2**j - 1, 2**j and 2**j + 1: 2**j has one bit more."""
    return [2**j + s for j in js for s in (-1, 0, 1)]


# Every (bits, ell) that has a valid n of that bit length, except ell = 101
# at 1024 bits, where a product squares a 208k-bit integer, about 10 ms,
# and on both sides of CYCLIC_BITS, where the 64- and 256-bit rows already
# take ell = 101 through each kernel.
BARRETT_RINGS = [
    (bits, ell)
    for bits in (2, 14, 64, CYCLIC_BITS, CYCLIC_BITS + 1, 256, 1024)
    for ell in ELLS
    if extreme_moduli(bits, ell) and not (ell == 101 and bits in (CYCLIC_BITS, CYCLIC_BITS + 1, 1024))
]


@pytest.mark.parametrize("bits,ell", BARRETT_RINGS)
def test_ring_pow_matches_schoolbook_at_barrett_extremes(bits, ell):
    """All coefficients n - 1 (the element X**-1, which fills every slot of
    the first product), n at both ends of its bit length, e at the
    window-width edges at 8 and 24 bits and at random up to 2**80.  Then,
    on the kernel itself, operands with all ell slots in [4n, 5n): the
    cyclic kernel's largest, and for the folded kernel ones with slot d
    taken, as the packed ring norm makes after sigma.  e = 127 has
    window width 1, so the power multiplies by that operand 6 times."""
    draw = random.Random(f"{bits}-{ell}")
    exponents = window_edges(7, 23) + [draw.getrandbits(80)]
    for n in extreme_moduli(bits, ell):
        R = RingDescriptor(n, ell)
        top = (n - 1,) * R.d
        expected = schoolbook_powers(R, top, exponents)
        assert [ring_pow(R, top, e) for e in exponents] == expected, n
        lay = R.layout
        slots, other = largest_slots(R, draw), largest_slots(R, draw)
        a = represented(R, slots)
        product = lay.mul(packed(R, slots), packed(R, other))
        assert _unpack(product, lay) == schoolbook(R, a, represented(R, other)), n
        power = _pow_packed(packed(R, slots), 127, lay.mul)
        assert _unpack(power, lay) == schoolbook_powers(R, a, [127])[0], n


@pytest.mark.parametrize("ell", (3, 5, 7, 13))
@pytest.mark.parametrize("bits", (14, 64, CYCLIC_BITS + 1))
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
@pytest.mark.parametrize("bits", (14, 64, CYCLIC_BITS, CYCLIC_BITS + 1, 256, 1024))
def test_barrett_step_reduces_every_slot_below_2_to_the_x(bits, ell):
    """Times the packed one, the kernel's product is its operand, so its
    Barrett step sees any values below 2**X, X = 2b + L + 8, the bound a
    product's slots keep, in all ell slots.  The cyclic kernel returns
    each slot below 3n and congruent mod n; the folded one takes slot d
    off the d slots below it, each of which comes back below 5n.  Both
    also just below the largest multiples of n.  Every ell consecutive
    values are one operand, so the extreme values, which open and close
    the list, reach the lowest slots and the highest, slot d among them."""
    for n in extreme_moduli(bits, ell):
        R = RingDescriptor(n, ell)
        lay = R.layout
        bound = 1 << (2 * bits + ell.bit_length() + 8)
        q_max = (bound - 1) // n
        draw = random.Random(n)
        extremes = [0, 1, n - 1, n, q_max * n - 1, q_max * n, bound - 1]
        values = [draw.randrange(q_max // 2, q_max) * n - 1 for _ in range(ell)]
        values = extremes + values + [draw.randrange(bound) for _ in range(ell)] + extremes
        for start in range(len(values) - ell + 1):
            slots = values[start:start + ell]
            out = lay.mul(packed(R, slots), 1)
            reduced = [out >> (lay.w * i) & ((1 << lay.w) - 1) for i in range(ell)]
            assert out >> (lay.w * ell) == 0
            if lay.mul.__name__ == "cyclic":
                assert all(r < 3 * n and (r - v) % n == 0 for r, v in zip(reduced, slots)), n
            else:
                assert reduced[R.d] == 0, n
                assert all(r < 5 * n for r in reduced), n
                assert represented(R, reduced) == represented(R, slots), n
