import math

import numpy as np
import pytest

from witnesslab.numth import BudgetExceeded, NotCoprime, euler_phi, is_prime
from witnesslab.rng import CounterRng
from witnesslab.witness import (
    _mr_rounds,
    brute_F,
    brute_MR,
    count_F,
    count_MR,
    fermat_witness,
    is_carmichael,
    mr_witness,
)

CARMICHAELS_BELOW_1E5 = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
    41041, 46657, 52633, 62745, 63973, 75361,
]


def test_fermat_witness_examples():
    # 2 lies for the Carmichael number 561 but exposes 15
    assert fermat_witness(561, 2)
    assert not fermat_witness(15, 2)
    assert fermat_witness(7, 3)


def test_mr_witness_examples():
    assert mr_witness(9, 8)   # -1 mod 9 always survives
    assert not mr_witness(9, 2)
    assert not mr_witness(561, 2)
    assert mr_witness(97, 5)  # coprime bases always pass for prime n


def test_witness_predicates_reject_bad_bases():
    with pytest.raises(NotCoprime):
        mr_witness(9, 3)
    with pytest.raises(NotCoprime):
        fermat_witness(15, 5)
    with pytest.raises(ValueError):
        mr_witness(8, 3)
    with pytest.raises(ValueError):
        mr_witness(9, 0)


@pytest.mark.parametrize(
    "n,k,m,v,w,s",
    [
        (9, 3, 1, 1, 1, 1),
        (35, 1, 17, 1, 2, 1),
        (65, 6, 1, 2, 2, 1),
        (97, 5, 3, 5, 1, 3),
        (561, 4, 35, 1, 3, 5),
    ],
)
def test_mr_params(n, k, m, v, w, s):
    assert 2**k * m == n - 1 and m % 2 == 1
    assert count_MR(n) == (1 + sum(2 ** (w * i) for i in range(v))) * s


@pytest.mark.parametrize(
    "n,expected",
    [(9, 2), (35, 4), (65, 16), (561, 320), (41041, 28800)],
)
def test_count_F_composites(n, expected):
    assert count_F(n) == expected


def test_count_F_primes():
    for p in (3, 5, 7, 97, 561 + 2):  # 563 is prime
        assert is_prime(p)
        assert count_F(p) == p - 1


@pytest.mark.parametrize("n,expected", [(9, 2), (35, 2), (65, 6), (561, 10)])
def test_count_MR_composites(n, expected):
    assert count_MR(n) == expected
    assert brute_MR(n) == expected


def test_count_MR_prime_is_group_order():
    for p in (5, 13, 97, 1009):
        assert count_MR(p) == p - 1


def test_brute_oracles_match_scalar_predicates():
    """The vectorized enumerations agree with the per-base predicates."""
    for n in (9, 15, 21, 35, 49, 91, 105, 561):
        f = sum(
            1
            for a in range(1, n)
            if math.gcd(a, n) == 1 and fermat_witness(n, a)
        )
        m = sum(
            1
            for a in range(1, n)
            if math.gcd(a, n) == 1 and mr_witness(n, a)
        )
        assert brute_F(n) == f
        assert brute_MR(n) == m


def test_mr_liars_are_fermat_liars():
    for n in range(9, 1500, 2):
        if is_prime(n):
            continue
        assert count_MR(n) <= count_F(n)
        assert count_MR(n) == brute_MR(n)


def test_monier_rabin_quarter_bound():
    """Odd composites above 9 keep MR non-witnesses under phi/4."""
    for n in range(11, 3000, 2):
        if is_prime(n):
            continue
        assert 4 * count_MR(n) <= euler_phi(n), n


def test_carmichael_detection():
    assert is_carmichael(561)
    assert is_carmichael(41041)
    assert not is_carmichael(35)
    assert not is_carmichael(9)
    assert not is_carmichael(563)  # prime
    found = [n for n in range(3, 20_000, 2) if is_carmichael(n)]
    assert found == [c for c in CARMICHAELS_BELOW_1E5 if c < 20_000]


def test_carmichael_iff_full_fermat_deception():
    for n in range(9, 20_000, 2):
        if is_prime(n):
            continue
        assert (count_F(n) == euler_phi(n)) == is_carmichael(n), n


def passes_mr_rounds(n, r, seed):
    return _mr_rounds(n, r, CounterRng(seed)) is None


def test_mr_rounds_contract():
    assert passes_mr_rounds(97, 5, 0)
    assert not passes_mr_rounds(561, 3, 0)
    # deterministic under the seeded rng contract
    assert _mr_rounds(341, 2, CounterRng(7)) == _mr_rounds(341, 2, CounterRng(7))
    assert passes_mr_rounds(341, 0, 0)  # zero rounds never reject


def test_mr_rounds_error_rate_is_low():
    wrong = sum(1 for seed in range(200) if passes_mr_rounds(341, 2, seed))
    # MR(341) = 50 of phi = 300, so two rounds pass with chance ~1/36
    assert wrong <= 30


def test_brute_budget():
    with pytest.raises(BudgetExceeded):
        brute_F(1_000_003)
    with pytest.raises(BudgetExceeded):
        brute_MR(1_000_003)


def test_brute_rejects_tiny():
    with pytest.raises(ValueError):
        brute_F(1)
