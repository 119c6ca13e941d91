"""Property tests: the Kronecker ring_mul against a schoolbook cyclic product."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.galois import (
    RingDescriptor,
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
