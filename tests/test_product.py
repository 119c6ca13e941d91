import hashlib
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from witnesslab import product, witness
from witnesslab.galois import NoConductor, PerfectPower, find_conductor
from witnesslab.numth import euler_phi, factorize, is_prime, primes_up_to
from witnesslab.product import PROBABLY_PRIME, count_Str, stronger_test
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
    with pytest.raises(ValueError, match="r must be >= 0"):
        count_Str(35, -1, 3)
    with pytest.raises(TypeError):
        count_Str(35, 2.5, 3)


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


@pytest.mark.parametrize("n,r", [(1, 1), (34, 1), (35, -1), (35, 2.5), (35.0, 1)])
def test_stronger_test_rejects_bad_inputs_before_drawing(monkeypatch, n, r):
    def no_drawing(*args, **kwargs):
        raise AssertionError("stronger_test drew for a rejected input")

    monkeypatch.setattr(product, "CounterRng", no_drawing)
    if isinstance(n, float) or isinstance(r, float):
        error, message = TypeError, "cannot be interpreted as an integer"
    else:
        error, message = ValueError, "r must be >= 0" if r < 0 else "n must be odd and >= 3"
    with pytest.raises(error, match=message):
        stronger_test(n, r, 3, rng=1)


def _covered_composites(ell, below=2000):
    """The odd composites below `below` whose conductor is ell."""
    covered = []
    for n in range(9, below, 2):
        try:
            if not is_prime(n) and find_conductor(n) == ell:
                covered.append(n)
        except (PerfectPower, NoConductor):
            pass
    return covered


def _outcome_law(n, r, ell):
    """Exact probability of each outcome class of stronger_test(n, r, ell)."""
    fac = factorize(n)
    N = n ** (ell - 1) - 1
    S, G = unit_count(fac, ell), count_Gal(fac, ell)
    law = {"pass": Fraction(G, N), "sigma-mismatch": Fraction(S - G, N), "non-unit": Fraction(N - S, N)}
    if r == 0:
        return law
    phi, M = euler_phi(n), count_MR(fac)
    passes = Fraction(M, n - 1)
    law = {outcome: passes**r * p for outcome, p in law.items()}
    reached = sum(passes**i for i in range(r))  # expected rounds begun, but for the last
    law["mr-round"] = Fraction(phi - M, n - 1) * reached
    # ("factor", g) comes from a non-unit base or a non-unit ring element
    law["non-unit"] += Fraction(n - 1 - phi, n - 1) * reached
    return law


def _outcome_class(verdict):
    if verdict.evidence is None:
        return "pass"
    if verdict.evidence[0] == "mr-round":
        return "mr-round"
    if verdict.evidence == ("galois-round", "sigma-mismatch"):
        return "sigma-mismatch"
    return "non-unit"  # ("factor", g) or ("galois-round", "not-a-unit")


# The chi-squared quantile at p = 1e-6, by degrees of freedom.
_CHI2_BOUND = {2: 27.63, 3: 30.66}


@pytest.mark.parametrize(
    "r,ell,trials,cases",
    [(0, 3, 200, None), (1, 3, 2000, None), (1, 5, 500, None), (2, 7, 4000, [19220010747701502511])],
    ids=["0-3-200", "1-3-2000", "1-5-500", "2-7-4000-above-2**64"],
)
def test_stronger_test_follows_its_outcome_law(r, ell, trials, cases):
    """stronger_test's own draws against the exact law, pooled over every
    covered composite, or over the given cases.

    Each (n, r, trial) has its own seed: under one seed the raw draws are
    the same for every n, so their verdicts would be correlated.  Above
    2**64 a base takes two 64-bit words or more, so a round often takes
    more than its stream's four; 19220010747701502511 = p(2p - 1) has
    MR/(n - 1) = 1/4, so the verdicts that reach the ring round, whose
    draw is then a unit, are held to (1/4)**2 * unit_count/N.
    """
    seen, expected, pass_variance, unit_variance = Counter(), Counter(), 0.0, 0.0
    for n in cases or _covered_composites(ell):
        law = _outcome_law(n, r, ell)
        assert sum(law.values()) == 1
        for outcome, p in law.items():
            expected[outcome] += trials * float(p)
        pass_variance += trials * float(law["pass"] * (1 - law["pass"]))
        unit = law["pass"] + law["sigma-mismatch"]
        unit_variance += trials * float(unit * (1 - unit))
        for trial in range(trials):
            verdict = stronger_test(n, r, ell, CounterRng(n << 40 | r << 32 | trial))
            seen[_outcome_class(verdict)] += 1
    units = ("pass", "sigma-mismatch")
    z = sum(seen[outcome] - expected[outcome] for outcome in units) / unit_variance**0.5
    assert abs(z) <= 5, (z, seen, expected)
    if expected["pass"] < 5:
        # too rare to stand alone (at ell = 5 fewer than 1 in 10^5 verdicts pass):
        # it joins the other unit outcome
        expected["sigma-mismatch"] += expected.pop("pass")
        seen["sigma-mismatch"] += seen.pop("pass", 0)
    else:
        z = (seen["pass"] - expected["pass"]) / pass_variance**0.5
        assert abs(z) <= 5, (z, seen, expected)
    assert set(seen) <= set(expected), seen
    chi2 = sum((seen[outcome] - e) ** 2 / e for outcome, e in expected.items())
    assert chi2 <= _CHI2_BOUND[len(expected) - 1], (chi2, seen, expected)


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


def _next_word(gen):
    """Where gen's next 64-bit word sits in its key's word sequence."""
    state = gen.bit_generator.state
    counter = sum(int(word) << 64 * i for i, word in enumerate(state["state"]["counter"]))
    return 4 * (counter - 1) + state["buffer_pos"]


def test_rounds_within_their_four_words_draw_their_own_streams(monkeypatch):
    """Where no round before the last took more than the four words of its
    own stream, round i draws what a fresh stream(i) draws.  Where one
    did, the rounds up to it still do, and the next round draws from the
    block after its last word.  2**64 + 13 is prime, so both rounds and
    the ring round draw, and a base above 2**64 takes two words per try."""
    n, r = 2**64 + 13, 2
    ranges = [(1, n, None)] * r + [(0, n, find_conductor(n) - 1)]
    drawn = []

    def recording(gen, low, high, size=None):
        drawn.append(draw_int(gen, low, high, size))
        return drawn[-1]

    monkeypatch.setattr(witness, "draw_int", recording)
    monkeypatch.setattr(product, "draw_int", recording)
    spilled = 0
    for seed in range(200):
        drawn.clear()
        assert stronger_test(n, r, None, CounterRng(seed)).outcome == PROBABLY_PRIME
        gens = [CounterRng(seed).stream(i) for i in range(r + 1)]
        fresh = [draw_int(gen, *bounds) for gen, bounds in zip(gens, ranges)]
        first = next((i for i in range(r) if _next_word(gens[i]) > 4 * i + 4), None)
        if first is None:
            assert drawn == fresh, seed
        else:
            spilled += 1
            assert drawn[: first + 1] == fresh[: first + 1], seed
            gens[first].bit_generator.advance(0)
            assert _next_word(gens[first]) > 4 * first + 4
            assert drawn[first + 1] == draw_int(gens[first], *ranges[first + 1]), seed
    assert 60 < spilled < 120  # 1 - (3/4)**2 of the seeds spill in round 0 or 1


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
