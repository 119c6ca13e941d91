import hashlib

import pytest

from witnesslab.galois import PerfectPower
from witnesslab.numth import euler_phi, primes_up_to
from witnesslab.product import count_Str, mc_density, stronger_test
from witnesslab.rng import CounterRng
from witnesslab.witness import count_MR
from witnesslab.galois import count_Gal, unit_count


@pytest.mark.parametrize(
    "n,r,ell,expected",
    [(35, 2, 3, 144), (35, 0, 3, 36), (35, 1, 3, 72), (65, 1, 3, 864)],
)
def test_count_Str_frozen(n, r, ell, expected):
    assert count_Str(n, r, ell) == expected


def test_count_Str_is_a_product():
    for n in (35, 65, 341):
        for r in range(4):
            assert count_Str(n, r, 3) == count_MR(n) ** r * count_Gal(n, 3)


def test_stronger_test_deterministic_under_seed():
    a = stronger_test(341, 2, rng=0)
    b = stronger_test(341, 2, rng=0)
    assert a == b
    assert a.outcome == "composite"
    assert a.evidence == ("mr-round", 0)


def test_stronger_test_seed_sweep_on_composite():
    for seed in range(5):
        v = stronger_test(341, 2, rng=seed)
        assert v.outcome == "composite"
        assert not v.probably_prime


def test_stronger_test_accepts_counter_rng():
    assert stronger_test(341, 2, rng=CounterRng(0)) == stronger_test(341, 2, rng=0)


def test_stronger_test_evidence_structure():
    for n in (35, 341, 561, 1105):
        for seed in range(10):
            v = stronger_test(n, 2, rng=seed)
            if v.probably_prime:
                continue
            kind, detail = v.evidence
            if kind == "factor":
                assert 1 < detail < n and n % detail == 0
            elif kind == "mr-round":
                assert 0 <= detail < 2
            else:
                assert kind == "galois-round"


def test_stronger_test_on_primes():
    for p in primes_up_to(300):
        if p < 3:
            continue
        v = stronger_test(p, 2, rng=1)
        assert v.outcome == "probably-prime", p


def test_stronger_test_rejects_squares():
    with pytest.raises(PerfectPower):
        stronger_test(9, 2, rng=0)
    with pytest.raises(PerfectPower):
        stronger_test(25, 2, rng=0)


def test_stronger_test_explicit_conductor():
    v = stronger_test(341, 2, ell=3, rng=0)
    assert v.outcome == "composite"


def test_stronger_test_zero_rounds_still_runs_galois():
    # r = 0 leaves only the substitution check
    seen = {stronger_test(341, 0, rng=s).outcome for s in range(30)}
    assert "composite" in seen


def test_mc_density_regression():
    est, se = mc_density(35, 1, 3, 2000, seed=7)
    assert est == pytest.approx(0.003)
    assert se == pytest.approx(0.0012229063741758812, rel=1e-12)
    assert mc_density(35, 1, 3, 2000, seed=7) == (est, se)


def test_mc_density_tracks_exact_ratio():
    """The estimate stays within 3 standard errors of the exact density."""
    cases = [(35, 1, 3), (65, 1, 3), (35, 2, 3)]
    for n, r, ell in cases:
        exact = (
            count_MR(n) ** r
            / euler_phi(n) ** r
            * count_Gal(n, ell)
            / unit_count(n, ell)
        )
        est, se = mc_density(n, r, ell, 8000, seed=11)
        assert abs(est - exact) <= 3 * max(se, 1e-9), (n, r, ell, est, exact)


def test_mc_density_different_seeds_differ():
    a = mc_density(35, 1, 3, 2000, seed=1)
    b = mc_density(35, 1, 3, 2000, seed=2)
    assert a != b


def test_seeded_verdicts_frozen():
    # The 2000 odd n above 10**6 hold every kind of verdict but not-a-unit;
    # 1002001 = 1001**2 is the one perfect power.
    digest = hashlib.sha256()
    kinds = set()
    for seed in (0, 1):
        for r in (0, 2):
            for n in range(10**6 + 1, 10**6 + 4000, 2):
                try:
                    v = stronger_test(n, r, None, CounterRng(seed))
                    row = (n, v.outcome, v.evidence)
                except PerfectPower as power:
                    row = (n, "composite", ("perfect-power", power.base))
                kinds.add(row[2] if row[2] is None else row[2][0])
                digest.update(repr(row).encode())
    assert kinds == {None, "mr-round", "galois-round", "factor", "perfect-power"}
    assert digest.hexdigest() == (
        "4f79d3d37a4bdb4c948b08737f7f21df50c12f41f82614c3f2d6f4d3f478688e"
    )
