import hashlib
import os
import random
import subprocess
import sys
import threading

import pytest

from witnesslab import product, witness
from witnesslab.galois import NoConductor, PerfectPower
from witnesslab.numth import euler_phi, is_prime, primes_up_to
from witnesslab.product import PROBABLY_PRIME, count_Str, mc_density, stronger_test
from witnesslab.rng import CounterRng, draw_int
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
        assert v.outcome != PROBABLY_PRIME


def test_stronger_test_accepts_counter_rng():
    assert stronger_test(341, 2, rng=CounterRng(0)) == stronger_test(341, 2, rng=0)


def test_stronger_test_evidence_structure():
    for n in (35, 341, 561, 1105):
        for seed in range(10):
            v = stronger_test(n, 2, rng=seed)
            if v.outcome == PROBABLY_PRIME:
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


@pytest.mark.parametrize("n,r", [(1, 1), (34, 1), (35, -1)])
def test_mc_density_rejects_bad_inputs_before_sampling(monkeypatch, n, r):
    def no_sampling(*args, **kwargs):
        raise AssertionError("mc_density sampled for a rejected input")

    monkeypatch.setattr(product, "CounterRng", no_sampling)
    message = "r must be >= 0" if r < 0 else "n must be odd and >= 3"
    with pytest.raises(ValueError, match=message):
        mc_density(n, r, 3, 50, seed=1)


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


def _next_prime(x):
    x |= 1
    while not is_prime(x):
        x += 2
    return x


def _wide_cases():
    """200 n: 14-62-bit primes and semiprimes, pseudoprimes, five n above 2**63."""
    pick = random.Random(5)
    primes, composites = [], []
    for _ in range(100):
        bits = pick.randint(14, 62)
        primes.append(_next_prime(pick.getrandbits(bits) | 1 << (bits - 1)))
    for _ in range(85):
        a = pick.randint(7, 31)
        b = pick.randint(7, 62 - a)
        p = _next_prime(pick.getrandbits(a) | 1 << (a - 1))
        q = _next_prime(pick.getrandbits(b) | 1 << (b - 1))
        composites.append(p * q)
    liars = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
             341550071728321, 3825123056546413051, 41041, 825265]
    big = [2**64 - 59, 2**64 + 1, 2**89 - 1, (2**61 - 1) * (2**31 - 1), 2**127 - 1]
    return primes + composites + liars + big


def _verdict_row(n, seed):
    try:
        v = stronger_test(n, 2, None, CounterRng(seed))
        return (n, v.outcome, v.evidence)
    except (PerfectPower, NoConductor) as exc:
        return (n, type(exc).__name__)


def test_seeded_verdicts_frozen_wide():
    # Word-size and wider n, seeds up to 2**128 - 1; the digest was taken
    # when every round still built its own Philox.
    cases = _wide_cases()
    assert len(cases) == 200 and sum(n > 2**63 for n in cases) == 5
    digest = hashlib.sha256()
    for seed in (0, 2**64, 2**64 + 12345, 2**128 - 1):
        for n in cases:
            digest.update(repr(_verdict_row(n, seed)).encode())
    assert digest.hexdigest() == (
        "8469bd5139eb8bb28c1f548800e5e003a61672eb61a882376abe4289d9e4131c"
    )


def test_held_stream_is_untouched_by_verdicts():
    held = CounterRng(3).stream(1)
    fresh = CounterRng(3).stream(1)
    assert draw_int(held, 0, 2**70, 3) == draw_int(fresh, 0, 2**70, 3)
    for n in _wide_cases()[:20]:
        _verdict_row(n, 3)
    assert draw_int(held, 1, 2**40, 5) == draw_int(fresh, 1, 2**40, 5)
    assert held.integers(0, 2**32) == fresh.integers(0, 2**32)


def test_two_threads_give_the_serial_verdicts(monkeypatch):
    # Round 0 on 3 * p ends in ("factor", 3) or ("mr-round", 0) by its
    # draw, so a draw from the other thread's stream shows in the rows.
    # The two threads draw with different seeds.
    cases = [(3 * n, seed) for n in _wide_cases()[:100] for seed in (1, 2**64 + 1)]
    cases += [(n, seed) for n in _wide_cases() for seed in (0, 2**128 - 1)]
    serial = [_verdict_row(n, seed) for n, seed in cases]
    rows = [None] * len(cases)
    me = threading.local()
    turn = threading.Condition()
    state = {"turn": 0, "done": [False, False]}

    def draw_in_turn(gen, low, high, size=None):
        # Each thread takes its stream, then waits while the other thread
        # draws and takes its next stream: lock-step, every draw.
        other = 1 - me.part
        with turn:
            state["turn"] = other
            turn.notify_all()
            turn.wait_for(lambda: state["turn"] == me.part or state["done"][other], 10)
        return draw_int(gen, low, high, size)

    def run(part):
        me.part = part
        try:
            for i in range(part, len(cases), 2):
                rows[i] = _verdict_row(*cases[i])
        finally:
            with turn:
                state["done"][part] = True
                turn.notify_all()

    monkeypatch.setattr(witness, "draw_int", draw_in_turn)
    monkeypatch.setattr(product, "draw_int", draw_in_turn)
    threads = [threading.Thread(target=run, args=(part,)) for part in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert rows == serial
    assert {row[2] for row in serial[:200]} == {("factor", 3), ("mr-round", 0)}


@pytest.mark.parametrize("module,index", [(witness, 0), (product, 2)])
def test_a_cut_off_draw_leaves_nothing_behind(monkeypatch, module, index):
    # The patched draw takes part of the stream, as a draw cut off by an
    # alarm would, then raises.  2**61 - 1 is prime, so both Miller-Rabin
    # rounds pass and the Galois round (stream 2) draws too.  Round 0 on
    # 3 * (2**61 - 1) ends in ("factor", 3) or ("mr-round", 0) by its draw.
    cases = [(3 * (2**61 - 1), seed) for seed in range(7, 15)]
    cases += [(2**61 - 1, 7), (1000003, 2**64), (2**64 + 1, 7)]
    script = (
        "from witnesslab.product import stronger_test\n"
        "from witnesslab.rng import CounterRng\n"
        f"for n, seed in {cases!r}:\n"
        "    v = stronger_test(n, 2, None, CounterRng(seed))\n"
        "    print(repr((n, v.outcome, v.evidence)))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ), timeout=120, check=True,
    ).stdout.splitlines()

    def cut_off(gen, low, high, size=None):
        monkeypatch.setattr(module, "draw_int", draw_int)
        gen.integers(0, 2**16)
        gen.bit_generator.random_raw(3)
        raise KeyboardInterrupt

    monkeypatch.setattr(module, "draw_int", cut_off)
    with pytest.raises(KeyboardInterrupt):
        stronger_test(2**61 - 1, 2, None, CounterRng(7))
    assert module.draw_int is draw_int
    expected = draw_int(CounterRng(7).stream(index), 0, 2**64, 3)
    assert draw_int(CounterRng(7)._shared_stream(index), 0, 2**64, 3) == expected
    with pytest.raises(KeyboardInterrupt):
        monkeypatch.setattr(module, "draw_int", cut_off)
        stronger_test(2**61 - 1, 2, None, CounterRng(7))
    after = [repr(_verdict_row(n, seed)) for n, seed in cases]
    assert after == fresh
    assert len({line.split(",")[2] for line in fresh[:8]}) == 2  # draws decide
