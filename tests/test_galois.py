import math
import random
import types

import numpy as np
import pytest

from witnesslab import analysis, galois, numth
from witnesslab.galois import (
    InvalidConductor,
    NoConductor,
    PerfectPower,
    PrimeLocalData,
    RingDescriptor,
    brute_Gal,
    cofactor_k,
    conductor_failure,
    count_D,
    count_Gal,
    count_H,
    find_conductor,
    galois_test,
    invertibility,
    local_data,
    ring_mul,
    ring_norm,
    ring_pow,
    sigma_apply,
    unit_count,
)
from witnesslab.numth import BudgetExceeded, NotCoprime, factorize, is_prime, mult_order, primes_up_to
from witnesslab.witness import count_F


def random_element(R, rng):
    return tuple(rng.randrange(R.n) for _ in range(R.d))


def add(R, a, b):
    return tuple((x + y) % R.n for x, y in zip(a, b))


# -- conductor selection ----------------------------------------------------


@pytest.mark.parametrize("n,ell", [(35, 3), (65, 3), (341, 3), (7, 5), (27, 5), (13, 5)])
def test_find_conductor(n, ell):
    assert find_conductor(n) == ell


def test_find_conductor_rejects_squares():
    with pytest.raises(PerfectPower) as info:
        find_conductor(9)
    assert (info.value.base, info.value.exponent) == (3, 2)
    with pytest.raises(PerfectPower):
        find_conductor(25)
    with pytest.raises(PerfectPower):
        find_conductor(3**4)


def test_find_conductor_allows_odd_powers():
    # an odd power can still generate the right multiplicative order
    assert find_conductor(27) == 5
    assert find_conductor(125) == 3


def test_find_conductor_exhaustion():
    with pytest.raises(NoConductor):
        find_conductor(35, 2)


def test_conductor_failure_reasons():
    assert conductor_failure(35, 3) is None
    assert conductor_failure(7, 3) == "not-primitive-root"
    assert conductor_failure(9, 3) == "not-coprime"
    assert conductor_failure(35, 9) == "conductor-not-prime"
    assert conductor_failure(35, 2) == "conductor-not-prime"


# -- ring arithmetic --------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(InvalidConductor):
        RingDescriptor(9, 3)
    with pytest.raises(InvalidConductor):
        RingDescriptor(7, 3)
    with pytest.raises(InvalidConductor):
        RingDescriptor(35, 9)
    with pytest.raises(ValueError, match="n must be odd and >= 3"):
        RingDescriptor(8, 3)
    with pytest.raises(TypeError):
        RingDescriptor(35.0, 3)


def test_descriptor_basics():
    R = RingDescriptor(35, 3)
    assert R.d == 2
    assert R.sigma_exponent == 2
    assert R.one() == (1, 0)
    assert (0,) * R.d == (0, 0)
    assert R.element([0, 1]) == (0, 1)
    assert R.element([36, -1]) == (1, 34)
    with pytest.raises(ValueError):
        R.element([1, 2, 3])


def test_omega_has_order_ell():
    for n, ell in ((35, 3), (27, 5), (341, 3), (143, 7)):
        R = RingDescriptor(n, ell)
        w = R.element([0, 1])
        assert ring_pow(R, w, ell) == R.one()
        for j in range(1, ell):
            assert ring_pow(R, w, j) != R.one()


def test_cyclotomic_relation():
    # in degree ell-1 the powers of omega satisfy 1 + X + ... + X^(ell-1) = 0
    for n, ell in ((35, 3), (27, 5)):
        R = RingDescriptor(n, ell)
        total = (0,) * R.d
        for j in range(ell):
            total = add(R, total, ring_pow(R, R.element([0, 1]), j))
        assert total == (0,) * R.d


def test_ring_mul_example():
    R = RingDescriptor(35, 3)
    assert ring_mul(R, R.element([0, 1]), R.element([0, 1])) == (34, 34)  # X^2 = -1 - X


def test_ring_axioms_on_random_elements():
    rng = random.Random(2)
    for n, ell in ((35, 3), (27, 5), (341, 3)):
        R = RingDescriptor(n, ell)
        for _ in range(25):
            a, b, c = (random_element(R, rng) for _ in range(3))
            assert ring_mul(R, a, b) == ring_mul(R, b, a)
            assert ring_mul(R, a, ring_mul(R, b, c)) == ring_mul(R, ring_mul(R, a, b), c)
            lhs = ring_mul(R, a, add(R, b, c))
            rhs = add(R, ring_mul(R, a, b), ring_mul(R, a, c))
            assert lhs == rhs
            assert ring_mul(R, a, R.one()) == a


def test_ring_pow_matches_repeated_mul():
    rng = random.Random(3)
    R = RingDescriptor(27, 5)
    for _ in range(10):
        a = random_element(R, rng)
        acc = R.one()
        for e in range(8):
            assert ring_pow(R, a, e) == acc
            acc = ring_mul(R, acc, a)
    with pytest.raises(ValueError):
        ring_pow(R, R.one(), -1)


def window_products(e):
    """(squarings, other products) of a k-bit sliding window for e >= 1.

    k comes from bitlen(e) by the table 1 below 8 bits, 2 below 24, 3
    below 80, 4 below 240, 5 below 672 and 6 above.  Windows are cut from
    the left: each is the longest run of at most k bits that starts and
    ends with a 1.
    """
    bits = bin(e)[2:]
    k = next(k for k, edge in enumerate((8, 24, 80, 240, 672, math.inf), 1) if len(bits) < edge)
    windows, i = [], 0
    while i < len(bits):
        if bits[i] == "0":
            i += 1
            continue
        end = min(i + k, len(bits))
        while bits[end - 1] == "0":
            end -= 1
        windows.append((i, end))
        i = end
    table = 2 ** (k - 1) if k > 1 else 0  # a**2, then a**3 .. a**(2**k - 1)
    first_length = windows[0][1]
    squarings = len(bits) - first_length + (k > 1)
    return squarings, table - (k > 1) + len(windows) - 1


def test_ring_pow_makes_no_wasted_products(monkeypatch):
    """ring_pow runs on its ring's packed kernel alone, cyclic or folded,
    and makes exactly the window count of products: the odd-power table,
    bitlen(e) minus the first window's length squarings, and one product
    per later window."""
    calls = []

    def counting(A, B):
        calls.append(A is B)
        return kernel(A, B)

    def forbidden(*args):
        raise AssertionError("ring_pow called ring_mul")

    monkeypatch.setattr(galois, "ring_mul", forbidden)
    exponents = [2, 3, 16, 127, 128, 129, 255, 256, 2**23 - 1, 2**23, 2**23 + 1, 2**61 - 1, 2**79,
                 2**79 + 1, 2**239 - 1, 2**239 + 1, 2**671 - 1, 2**671, 2**671 + 1, 3**700]
    for n, name in ((35, "cyclic"), (2**galois.CYCLIC_BITS + 1, "folded")):
        R = RingDescriptor(n, 3)
        x = random_element(R, random.Random(6))
        kernel = R.layout.mul
        assert kernel.__name__ == name
        monkeypatch.setitem(vars(R), "layout", R.layout._replace(mul=counting))
        calls.clear()
        assert ring_pow(R, x, 0) == R.one() and not calls
        assert ring_pow(R, x, 1) == x and not calls
        for e in exponents:
            calls.clear()
            ring_pow(R, x, e)
            assert (calls.count(True), calls.count(False)) == window_products(e), (name, e)
    # 61 ones, k = 3: a**2 and a**3 .. a**7, then 21 windows 111 .. 111 1
    # after the first: 82 products where square-and-multiply makes 120
    assert window_products(2**61 - 1) == (1 + 61 - 3, 3 + 20)


# -- the automorphism -------------------------------------------------------


def test_sigma_fixes_constants_and_maps_omega():
    R = RingDescriptor(35, 3)
    assert sigma_apply(R, R.element([17])) == R.element([17])
    assert sigma_apply(R, R.element([0, 1])) == ring_pow(R, R.element([0, 1]), 35 % 3)
    assert sigma_apply(R, R.element([0, 1]), 0) == R.element([0, 1])


def test_sigma_is_a_ring_homomorphism():
    rng = random.Random(4)
    for n, ell in ((35, 3), (27, 5)):
        R = RingDescriptor(n, ell)
        for _ in range(25):
            a, b = random_element(R, rng), random_element(R, rng)
            assert sigma_apply(R, ring_mul(R, a, b)) == ring_mul(
                R, sigma_apply(R, a), sigma_apply(R, b)
            )
            assert sigma_apply(R, add(R, a, b)) == add(
                R, sigma_apply(R, a), sigma_apply(R, b)
            )


def test_sigma_has_order_d():
    rng = random.Random(5)
    for n, ell in ((35, 3), (27, 5), (341, 3)):
        R = RingDescriptor(n, ell)
        for _ in range(10):
            a = random_element(R, rng)
            image = a
            for _ in range(R.d):
                image = sigma_apply(R, image)
            assert image == a
        # iterating j times equals the j-exponent form
        a = random_element(R, rng)
        assert sigma_apply(R, sigma_apply(R, a)) == sigma_apply(R, a, 2)


# -- invertibility and units ------------------------------------------------


def test_invertibility_examples():
    R = RingDescriptor(35, 3)
    assert invertibility(R, R.element([0, 1])) == 1
    assert invertibility(R, R.element([5])) == 5
    assert invertibility(R, (0,) * R.d) == 35


def test_invertibility_random_consistency():
    """g = 1 exactly for units (x**|S*| = 1); every g divides n."""
    rng = random.Random(6)
    for n, ell in ((35, 3), (341, 3), (27, 5)):
        R = RingDescriptor(n, ell)
        order = unit_count(n, ell)
        for _ in range(200):
            x = random_element(R, rng)
            g = invertibility(R, x)
            assert n % g == 0
            assert (g == 1) == (ring_pow(R, x, order) == R.one())


def test_invertibility_reports_a_proper_factor_or_none():
    # g = gcd(norm, n) = n leaves no proper factor to report: 3 in S for
    # n = 27 has norm 3**4, and 5 + 15X for n = 35 vanishes mod 5 and in
    # one of the two fields of S/7S
    for n, ell, x in ((27, 5, (3,)), (35, 3, (5, 15))):
        R = RingDescriptor(n, ell)
        assert invertibility(R, R.element(x)) == n


def test_invertibility_never_diverts_for_prime_n():
    rng = random.Random(7)
    R = RingDescriptor(13, 5)
    for _ in range(300):
        x = random_element(R, rng)
        g = invertibility(R, x)
        assert g in (1, 13)
        assert (g == 13) == (x == (0,) * R.d)


def test_ring_norm_is_multiplicative():
    rng = random.Random(8)
    R = RingDescriptor(35, 3)
    for _ in range(50):
        a, b = random_element(R, rng), random_element(R, rng)
        na, nb = ring_norm(R, a), ring_norm(R, b)
        assert ring_norm(R, ring_mul(R, a, b)) == (na * nb) % R.n


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_ring_norm_doubling_matches_linear_product(ell):
    n = next(m for m in range(1001, 10**4, 2) if conductor_failure(m, ell) is None)
    R = RingDescriptor(n, ell)
    rng = random.Random(ell)
    for _ in range(5):
        x = random_element(R, rng)
        product = x
        for j in range(1, R.d):
            product = ring_mul(R, product, sigma_apply(R, x, j))
        assert product[1:] == (0,) * (R.d - 1)
        assert ring_norm(R, x) == product[0]


def test_unit_count_matches_enumeration():
    R = RingDescriptor(35, 3)
    found = sum(
        1
        for a in range(35)
        for b in range(35)
        if invertibility(R, (a, b)) == 1
    )
    assert found == unit_count(35, 3) == 864


def test_unit_count_prime_case():
    # for prime p with p mod ell a primitive root the ring is a field
    assert unit_count(5, 3) == 24
    assert unit_count(13, 5) == 13**4 - 1


def test_unit_count_prime_power():
    # (p, ell) = (3, 5): f = 4, so p^((v-1)d) * (p^f - 1)^m with v = 3, m = 1
    assert unit_count(27, 5) == 3**8 * (3**4 - 1) == 524880


# -- the test itself --------------------------------------------------------


def test_galois_test_examples():
    R = RingDescriptor(35, 3)
    assert galois_test(R, R.element([0, 1])) is None
    assert galois_test(R, R.element([2])) == ("galois-round", "sigma-mismatch")
    assert galois_test(R, R.element([5])) == ("factor", 5)
    with pytest.raises(ValueError):
        galois_test(R, (0,) * R.d)
    R = RingDescriptor(27, 5)
    assert galois_test(R, R.element([3])) == ("galois-round", "not-a-unit")


@pytest.mark.parametrize(
    "n", [n for n in range(3, 101, 2) if conductor_failure(n, 3) is None]
)
def test_galois_test_pass_set_is_what_count_Gal_counts(n):
    R = RingDescriptor(n, 3)
    passed = sum(
        galois_test(R, (a, b)) is None
        for a in range(n)
        for b in range(n)
        if (a, b) != (0, 0)
    )
    assert passed == count_Gal(n, 3) == brute_Gal(n, 3)


def test_galois_test_passes_units_for_prime_n():
    rng = random.Random(9)
    R = RingDescriptor(13, 5)
    for _ in range(50):
        x = random_element(R, rng)
        if x == (0,) * R.d:
            continue
        assert galois_test(R, x) is None


def test_galois_test_pass_iff_sigma_equation():
    rng = random.Random(10)
    R = RingDescriptor(341, 3)
    for _ in range(100):
        x = random_element(R, rng)
        out = galois_test(R, x)
        if out is None or out == ("galois-round", "sigma-mismatch"):
            holds = sigma_apply(R, x) == ring_pow(R, x, R.n)
            assert (out is None) == holds


# -- local data and count formulas ------------------------------------------


@pytest.mark.parametrize(
    "n,ell,p,f,m,z,t",
    [
        (35, 3, 5, 2, 1, 1, 1),
        (35, 3, 7, 1, 2, 0, 0),
        (27, 5, 3, 4, 1, 3, 3),
    ],
)
def test_local_data_values(n, ell, p, f, m, z, t):
    loc = local_data(n, ell, p)
    assert (loc.f, loc.m, loc.z, loc.t) == (f, m, z, t)


def test_local_data_invariants():
    for ell in (3, 5, 7, 11, 13):
        for n in range(5, 2000, 2):
            if is_prime(n) or conductor_failure(n, ell) is not None:
                continue
            for p, _ in factorize(n).factors:
                loc = local_data(n, ell, p)
                assert loc.f * loc.m == ell - 1
                assert pow(n, loc.z * loc.m, ell) == p % ell
                assert math.gcd(loc.z, loc.f) == 1
                assert (loc.z * loc.t - 1) % loc.f == 0
                if loc.f == 1:
                    assert loc.z == loc.t == 0


def _derived_local_data(n, ell, p):
    """local_data from its definition, on n and p themselves."""
    f = next(k for k in range(1, ell) if pow(p, k, ell) == 1)
    m = (ell - 1) // f
    z = next((j for j in range(f) if pow(n, m * j, ell) == p % ell), None)
    if z is None:
        return None
    return PrimeLocalData(p=p, f=f, m=m, z=z, t=pow(z, -1, f) if f > 1 else 0)


def _enumerated_Gal(n, ell):
    """count_Gal(n, ell) by enumerating each local ring: for each p**e || n,
    the units x of (Z/p**e)[X]/Phi_ell with sigma(x) = x**n, counted over
    all (p**e)**d elements by brute_Gal's block helpers on a stand-in
    ring.  S is the product of these rings, so count_Gal is the
    product of the counts.  x is a unit exactly when its norm, the
    product of its d conjugates, is a unit mod p.  Uses no f, z, t or
    local_data; a local ring past numth._BRUTE_LIMIT raises BudgetExceeded."""
    d = ell - 1
    count = 1
    for p, e in factorize(n).factors:
        q = p**e
        total = q**d
        if total > numth._BRUTE_LIMIT:
            raise BudgetExceeded(f"{q}**{d} elements exceed {numth._BRUTE_LIMIT}")
        ring = types.SimpleNamespace(d=d, ell=ell, n=q, sigma_exponent=n % ell)
        local = 0
        for low in range(0, total, galois._BRUTE_BLOCK):
            index = np.arange(low, min(low + galois._BRUTE_BLOCK, total), dtype=np.int64)
            x = np.array([index // q**i % q for i in range(d)])
            norm = x
            for j in range(1, d):
                norm = galois._block_mul(ring, norm, galois._block_sigma(ring, x, j))
            assert not norm[1:].any(), "ring norm must be a constant"
            match = (galois._block_pow(ring, x, n) == galois._block_sigma(ring, x)).all(axis=0)
            local += int(np.count_nonzero((norm[0] % p != 0) & match))
        count *= local
    return count


# The composites below 200 with conductor 5 whose local rings all fit
# the enumeration budget.  Their primes have residue degree f = 1, 2 and
# 4; f = 2 (1 < f < d), which no ell = 3 check reaches, at 19 in 57 and
# 133 and at 29 in 87.
LOCALLY_ENUMERATED = (27, 33, 57, 63, 77, 87, 93, 117, 133, 143, 153, 187)


@pytest.mark.parametrize("n", LOCALLY_ENUMERATED)
def test_count_Gal_against_local_enumeration(n):
    assert count_Gal(n, 5) == _enumerated_Gal(n, 5)


def test_local_enumeration_covers_ell_5_below_200_within_its_budget():
    covered = [n for n in range(9, 200, 2) if not is_prime(n) and conductor_failure(n, 5) is None]
    assert [n for n in covered if n not in LOCALLY_ENUMERATED] == [123, 147, 177, 183]
    assert set(LOCALLY_ENUMERATED) < set(covered)
    for n, ell in ((123, 5), (147, 5), (177, 5), (183, 5), (33, 7)):  # 41**4, 49**4, 59**4, 61**4, 11**6
        with pytest.raises(BudgetExceeded):
            _enumerated_Gal(n, ell)


def test_local_data_table_equals_the_derivation():
    """local_data, read from the conductor table at (n mod ell, p mod ell),
    gives every residue pair (n = 0 mod ell included) and two lifts of it
    the derived values with the caller's p; a failure is raised again on
    every call, since the table keeps values, not exceptions, and p = 0
    mod ell raises NotCoprime."""
    for ell in (3, 5, 7, 11, 13):
        for n_res in range(ell):
            for p_res in range(ell):
                for n, p in ((n_res, p_res), (n_res + 4 * ell, p_res + 10 * ell), (n_res + 2 * ell, p_res + 6 * ell)):
                    if p_res == 0:
                        with pytest.raises(NotCoprime):
                            local_data(n, ell, p)
                        continue
                    want = _derived_local_data(n, ell, p)
                    if want is None:
                        for _ in range(2):
                            with pytest.raises(ArithmeticError):
                                local_data(n, ell, p)
                        continue
                    assert local_data(n, ell, p) == want


def test_sweep_conductor_tables_equal_the_definitions():
    """The conductor tables, at every residue pair of every prime
    ell <= 211, all gathered in one call as the block engine gathers
    them: each tag against mult_order, and f, m and t against their
    definitions (f the order of p, m = d / f, t the j in [0, f) with
    p**j = n**m mod ell, which is z**-1 mod f); up to ell = 61, every
    pair against _derived_local_data itself."""
    pairs = []
    for ell in primes_up_to(211)[1:]:
        tags = galois._SKIP_TAGS[galois._conductor_table(ell)[galois._TAG]].tolist()
        orders = [None] + [mult_order(r, ell) for r in range(1, ell)]
        assert tags == ["not-coprime"] + [
            None if order == ell - 1 else "not-primitive-root" for order in orders[1:]
        ], ell
        roots = [r for r in range(1, ell) if orders[r] == ell - 1]
        pairs += [(n, p, ell, orders[p]) for n in roots for p in range(1, ell)]
    n, p, ell, order = np.array(pairs).T
    f, m, t = (column.tolist() for column in analysis._local_data_columns(n + 4 * ell, p + 10 * ell, ell))
    assert f == order.tolist()
    assert m == ((ell - 1) // order).tolist()
    for (n, p, ell, _), f, m, t in zip(pairs, f, m, t):
        assert 0 <= t < f and pow(p, t, ell) == pow(n, m, ell), (n, p, ell)
        if ell <= 61:
            assert _derived_local_data(n, ell, p) == PrimeLocalData(p, f, m, pow(t, -1, f) if f > 1 else 0, t)


def test_sweep_conductor_tables_are_kept_and_capped(monkeypatch):
    """A table is made once per process; a composite candidate and ell < 3
    have none (so local_data raises InvalidConductor), and a prime past
    the cap raises BudgetExceeded, in the scalar lookups as in a sweep
    with that fixed conductor, which raises it before any chunk runs."""
    assert galois._conductor_table(9) is None
    assert galois._conductor_table(2) is None
    with pytest.raises(InvalidConductor):
        local_data(35, 9, 5)
    assert galois._conductor_table(7) is galois._conductor_table(7)
    galois._conductor_table.cache_clear()  # so that no table for 11 is kept from an earlier test
    monkeypatch.setattr(galois, "_TABLE_LIMIT", 7)
    with pytest.raises(BudgetExceeded):
        conductor_failure(35, 11)
    with pytest.raises(BudgetExceeded):
        local_data(35, 11, 5)
    monkeypatch.setattr(analysis, "_process_chunk", None)  # no chunk may run
    with pytest.raises(BudgetExceeded):
        analysis.sweep(99, 2, analysis.FixedEll(11))


def test_local_data_rejects_p_outside_the_subgroup():
    # 9 = 2 mod 7 has order 3, so 3 (order 6) is no power of it
    with pytest.raises(ArithmeticError):
        local_data(9, 7, 3)


@pytest.mark.parametrize(
    "n,ell,gal,dval,h",
    [
        (35, 3, 36, 144, 576),
        (65, 3, 144, 288, None),
        (27, 5, 80, None, None),
        (125, 3, 24, 24, 24),
    ],
)
def test_count_formulas_frozen(n, ell, gal, dval, h):
    assert count_Gal(n, ell) == gal
    if dval is not None:
        assert count_D(n, ell) == dval
    if h is not None:
        assert count_H(n, ell - 1) == h


def test_count_Gal_against_enumeration():
    for n in (35, 65, 95, 125, 341, 485):
        assert count_Gal(n, 3) == brute_Gal(n, 3), n
    assert count_Gal(27, 5) == brute_Gal(27, 5) == 80


def test_count_chain_divides():
    """F | Gal | D | H for composites with a valid conductor."""
    for n in range(9, 3000, 2):
        if is_prime(n) or conductor_failure(n, 3) is not None:
            continue
        F = count_F(n)
        g, dv, h = count_Gal(n, 3), count_D(n, 3), count_H(n, 2)
        assert g % F == 0
        assert dv % g == 0
        assert h % dv == 0
        # k is the integer deficit of D against the full local product
        full = 1
        for p in {q for q, _ in factorize(n).factors}:
            full *= p ** local_data(n, 3, p).f - 1
        assert dv * cofactor_k(n, 3) == full


def test_count_H_prime():
    for p in (5, 13, 97):
        assert count_H(p, 2) == p**2 - 1


def test_cofactor_values():
    assert cofactor_k(35, 3) == 1
    assert cofactor_k(65, 3) == 1
    # 95 = 5 * 19 with 19 = 1 mod 3: gcd(18, 95**2 - 1) = 6 leaves k = 3
    assert cofactor_k(95, 3) == 3
    assert cofactor_k(155, 3) == 5


def test_brute_Gal_budget():
    with pytest.raises(BudgetExceeded):
        brute_Gal(1001, 3)


def test_brute_Gal_rejects_invalid_ring():
    with pytest.raises(InvalidConductor):
        brute_Gal(7, 3)
    with pytest.raises(TypeError):
        brute_Gal(35.0, 3)
