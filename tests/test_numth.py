import math
import random

import numpy as np
import pytest

from witnesslab import numth
from witnesslab.numth import (
    BudgetExceeded,
    Factorization,
    NotCoprime,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_perfect_power,
    is_prime,
    L_of,
    lcm_range,
    mult_order,
    primes_up_to,
    two_adic_split,
    unity_root_count,
)


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 9, 25, 10**4, 10**5])
def test_primes_up_to_matches_sympy(limit):
    sympy = pytest.importorskip("sympy")
    primes = primes_up_to(limit)
    assert type(primes) is list
    assert all(type(p) is int for p in primes)
    assert primes == list(sympy.primerange(limit + 1))


def test_odd_primes_is_the_int64_tail_of_primes_up_to():
    for limit in (-3, 0, 2, 3, 30, 10**4 + 7):
        odd = numth._odd_primes(limit)
        assert odd.dtype == np.int64
        assert odd.tolist() == primes_up_to(limit)[1:]
    with pytest.raises(BudgetExceeded):
        numth._odd_primes(10**8 + 1)


def _pow_mod_matches_pow(x, e, modulus):
    """_pow_mod on x (a list) against pow; e and modulus are an int or a list."""
    args = [v if isinstance(v, int) else np.array(v, dtype=np.int64) for v in (x, e, modulus)]
    got = numth._pow_mod(*args)
    assert got.dtype == np.int64
    columns = [[v] * len(x) if isinstance(v, int) else v for v in (x, e, modulus)]
    assert got.tolist() == list(map(pow, *columns))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_pow_mod_at_the_int64_edge_of_x_to_the_e(d):
    """x**e < 2**63 keeps every product exact, for any modulus above x."""
    root = numth._iroot(2**63 - 1, d)
    assert root**d < 2**63 <= (root + 1) ** d
    x = [root, root - 1, root // 2, 2]
    _pow_mod_matches_pow(x, [d, d, d, 1], [2**63 - 1, root**d, root + 1, 3])


def test_pow_mod_around_isqrt_of_the_int64_max():
    edge = math.isqrt(2**63 - 1)
    # Up to the edge, any x < modulus and any exponent stay exact.
    for modulus in (edge - 1, edge):
        _pow_mod_matches_pow([modulus - 1, modulus - 2, 12345, 1], [2**40 + 1, 3, 65537, 7], modulus)
    # Past it, x**e < 2**63 keeps them exact.
    for modulus in (edge + 1, edge + 2):
        _pow_mod_matches_pow([edge, 2**31, 3, 1], [2, 2, 39, 5], modulus)


@pytest.mark.parametrize("n", [561, 1105, 999_999])
def test_pow_mod_with_the_oracles_int_exponents(n):
    k, m = two_adic_split(n - 1)
    bases = list(range(1, n, 997 if n > 10**4 else 1))
    _pow_mod_matches_pow(bases, n - 1, n)
    _pow_mod_matches_pow(bases, m, n)


def test_pow_mod_of_empty_arrays():
    empty = np.zeros(0, dtype=np.int64)
    assert numth._pow_mod(empty, empty, empty).tolist() == []
    assert numth._pow_mod(empty, 560, 561).tolist() == []


def test_primes_up_to_caps_before_allocating():
    with pytest.raises(BudgetExceeded):
        primes_up_to(10**8 + 1)
    with pytest.raises(BudgetExceeded):
        primes_up_to(10**10)


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(10_000))
    for n in range(10_000):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)


@pytest.mark.parametrize(
    "k,expected",
    [(1, (0, 1)), (2, (1, 1)), (8, (3, 1)), (34, (1, 17)), (560, (4, 35))],
)
def test_two_adic_split(k, expected):
    assert two_adic_split(k) == expected
    e, m = expected
    assert 2**e * m == k and m % 2 == 1


def test_two_adic_split_rejects_zero():
    with pytest.raises(ValueError):
        two_adic_split(0)


def test_factorize_examples():
    assert factorize(35).factors == ((5, 1), (7, 1))
    assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))
    assert factorize(1).factors == ()
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_calls_is_prime_only_above_the_trial_square(monkeypatch):
    # A cofactor below p**2, p the last trial prime reached, has no prime
    # factor below p and so is prime; trial primes stop at 9973.
    calls = []

    def counting_is_prime(m):
        calls.append(m)
        return is_prime(m)

    monkeypatch.setattr(numth, "is_prime", counting_is_prime)
    for n in range(1, 2 * 10**5, 2):
        assert factorize(n).reconstruct() == n
    assert calls == []
    assert factorize(9973 * 10007).factors == ((9973, 1), (10007, 1))
    assert calls == []
    # a square and a semiprime of primes above 9973 still need is_prime
    for n in (10007**2, 10007 * 10009):
        calls.clear()
        fac = factorize(n)
        assert calls != []
        assert fac.reconstruct() == n and all(is_prime(p) for p, _ in fac.factors)
    assert factorize(10007**2).factors == ((10007, 2),)


def test_factorize_reconstructs():
    for n in range(1, 5001):
        f = factorize(n)
        assert f.reconstruct() == n
        assert all(is_prime(p) for p, _ in f.factors)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)


def test_factorize_semiprime():
    # two primes near 1e6 force the rho path past trial division
    p, q = 999_979, 999_983
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))


PSI_12 = 318665857834031151167461  # strong pseudoprime to every prime base <= 37


def test_is_prime_rejects_psi_12():
    assert not is_prime(PSI_12)


def test_factorize_psi_12():
    assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))


PSI_13 = 3317044064679887385961981  # strong pseudoprime to every prime base <= 41


def test_is_prime_rejects_psi_13():
    assert not is_prime(PSI_13)


def test_factorize_psi_13():
    assert factorize(PSI_13).factors == ((1287836182261, 1), (2575672364521, 1))


def test_factorize_raises_past_the_rho_budget(monkeypatch):
    # 999_979 * 999_983 takes a few hundred rho updates, so 64 is too few
    monkeypatch.setattr(numth, "_RHO_BUDGET", 64)
    with pytest.raises(BudgetExceeded):
        factorize(999_979 * 999_983)
    assert factorize(9973 * 10007).factors == ((9973, 1), (10007, 1))  # no rho


def test_rho_budget_spans_every_split_of_one_factorize_call(monkeypatch):
    n = 999_979 * 999_983 * 1_000_003
    first, used_first = numth._pollard_rho(n, numth._RHO_BUDGET)
    rest = first if not is_prime(first) else n // first
    _, used_rest = numth._pollard_rho(rest, numth._RHO_BUDGET)
    # each split alone fits in the sum less one; both together do not
    monkeypatch.setattr(numth, "_RHO_BUDGET", used_first + used_rest - 1)
    assert max(used_first, used_rest) <= numth._RHO_BUDGET
    with pytest.raises(BudgetExceeded):
        factorize(n)
    monkeypatch.setattr(numth, "_RHO_BUDGET", used_first + used_rest)
    assert factorize(n).reconstruct() == n


@pytest.mark.parametrize("e", [89, 127, 521, 607])
def test_is_prime_mersenne_primes(e):
    assert is_prime(2**e - 1)
    assert not is_prime(2**e + 1)


def test_is_prime_matches_sympy_on_large_n():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240601)
    for _ in range(400):
        bits = rng.randrange(80, 301)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(40):
        bits = rng.randrange(40, 151)
        p = sympy.nextprime(rng.getrandbits(bits))
        q = sympy.nextprime(rng.getrandbits(bits))
        assert not is_prime(p * q), (p, q)
        assert is_prime(p) and is_prime(q)


def test_factorize_matches_sympy():
    """Seeded 40-100-bit semiprimes and three-prime products.

    The smallest prime stays at or below 32 bits, so Pollard rho needs
    about 2**16 steps per split and the test stays fast.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(40):
        bits = rng.randrange(40, 101)
        small = rng.randrange(14, min(33, bits - 13))
        p = sympy.nextprime(rng.getrandbits(small))
        q = sympy.nextprime(rng.getrandbits(bits - small))
        assert dict(factorize(p * q).factors) == sympy.factorint(p * q), (p, q)
    for _ in range(40):
        n = 1
        for bits in (rng.randrange(14, 33) for _ in range(3)):
            n *= sympy.nextprime(rng.getrandbits(bits))
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_factorization_must_reconstruct_n():
    assert Factorization(35, ((5, 1), (7, 1))).factors == ((5, 1), (7, 1))
    with pytest.raises(ValueError):
        Factorization(35, ((5, 1),))
    with pytest.raises(ValueError):
        Factorization(0, ())


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(35) == 24
    assert euler_phi(561) == 320
    for p in primes_up_to(100):
        assert euler_phi(p) == p - 1
    # multiplicative on coprime pairs
    assert euler_phi(35 * 9) == euler_phi(35) * euler_phi(9)


@pytest.mark.parametrize(
    "n,lam",
    [(1, 1), (2, 1), (4, 2), (8, 2), (16, 4), (35, 12), (561, 80), (41041, 120)],
)
def test_carmichael_lambda_values(n, lam):
    assert carmichael_lambda(n) == lam


def test_carmichael_lambda_is_the_unit_group_exponent():
    """lambda(n) annihilates every unit, and no proper divisor does."""
    for n in range(2, 400):
        lam = carmichael_lambda(n)
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        assert all(pow(a, lam, n) == 1 for a in units)
        for q in {p for p, _ in factorize(lam).factors}:
            assert any(pow(a, lam // q, n) != 1 for a in units), (n, q)


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 3) == 2
    assert mult_order(3, 5) == 4
    assert mult_order(1, 9) == 1
    with pytest.raises(NotCoprime):
        mult_order(3, 9)


def test_mult_order_divides_lambda():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randrange(3, 2000)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        k = mult_order(a, m)
        assert pow(a, k, m) == 1
        assert carmichael_lambda(m) % k == 0


def test_mult_order_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    checked = 0
    while checked < 300:
        m = rng.getrandbits(rng.randrange(2, 49)) | 2
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        assert mult_order(a, m) == sympy.n_order(a, m), (a, m)
        checked += 1


def test_unity_root_count_examples():
    assert unity_root_count(7, 3) == 3
    assert unity_root_count(8, 2) == 4
    assert unity_root_count(12, 2) == 4
    for s in (3, 9, 10, 16, 45):
        assert unity_root_count(s, 1) == 1


def test_unity_root_count_brute():
    """Counts solutions of y**d = 1 against direct enumeration."""
    for s in range(2, 501):
        units = [a for a in range(1, s) if math.gcd(a, s) == 1]
        for d in range(1, 13):
            brute = sum(1 for a in units if pow(a, d, s) == 1)
            assert unity_root_count(s, d) == brute, (s, d)


def test_lcm_range():
    assert lcm_range(1) == 1
    assert lcm_range(6) == 60
    assert lcm_range(10) == 2520
    assert lcm_range(12) == 27720


def test_lcm_range_matches_the_lcm_fold():
    fold = 1
    for bound in range(1, 301):
        fold = math.lcm(fold, bound)
        assert lcm_range(bound) == fold, bound


def test_lcm_range_stops_at_the_sieve_cap():
    with pytest.raises(BudgetExceeded):
        lcm_range(2 * 10**8)
    with pytest.raises(ValueError):
        lcm_range(0)


def test_L_of_clamps_small_arguments():
    # up to e**e the exponent is undefined (x <= e) or not positive, so
    # clamp to 1; at e**e the triple log is 0, so L is continuous there
    assert L_of(10.0) == 1.0
    assert L_of(2.0) == 1.0
    ee = math.exp(math.e)
    assert L_of(ee) == 1.0
    for x in (ee * (1 + 1e-12), ee + 1e-9):
        assert 1.0 <= L_of(x) < 1.0 + 1e-9
    # no jump where the old clamp at exp(exp(e)) ~ 3814279 ended
    assert L_of(3814283) == pytest.approx(L_of(3814275), rel=1e-5)
    assert L_of(3814275) == pytest.approx(263.73, rel=1e-4)
    x = 10**8
    expected = math.exp(
        math.log(x) * math.log(math.log(math.log(x))) / math.log(math.log(x))
    )
    assert L_of(x) == pytest.approx(expected, rel=1e-12)


def test_L_of_is_subpolynomial():
    for x in (10**8, 10**12, 10**16):
        assert 1.0 < L_of(x) < x


@pytest.mark.parametrize(
    "n,expected",
    [
        (4, (2, 2)),
        (9, (3, 2)),
        (27, (3, 3)),
        (64, (8, 2)),
        (125, (5, 3)),
        (2**10, (32, 2)),
        (2**300, (2**150, 2)),
        (3**201, (3**67, 3)),
        (2**521 - 1, None),
        (6, None),
        (63, None),
        (2, None),
        (1, None),
    ],
)
def test_is_perfect_power(n, expected):
    assert is_perfect_power(n) == expected


def test_is_perfect_power_prefers_smallest_exponent():
    got = is_perfect_power(3**6)
    assert got == (27, 2)
