import numpy as np
import pytest

from witnesslab.rng import ENV_SEED, CounterRng, default_seed, draw_int


def test_default_seed_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    assert default_seed() == 0
    monkeypatch.setenv(ENV_SEED, "1234")
    assert default_seed() == 1234


def test_streams_are_reproducible():
    a = CounterRng(5).stream(3).integers(0, 10**9, 8)
    b = CounterRng(5).stream(3).integers(0, 10**9, 8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = CounterRng(5)
    draws = [tuple(base.stream(i).integers(0, 10**9, 4)) for i in range(6)]
    assert len(set(draws)) == 6


def test_seeds_are_distinct():
    a = CounterRng(1).stream(0).integers(0, 10**9, 4)
    b = CounterRng(2).stream(0).integers(0, 10**9, 4)
    assert not np.array_equal(a, b)


def test_coerce():
    base = CounterRng(9)
    assert CounterRng.coerce(base) is base
    assert CounterRng.coerce(9).seed == 9
    assert CounterRng.coerce(None).seed == default_seed()


def test_seeds_outside_128_bits_are_rejected(monkeypatch):
    assert CounterRng(2**128 - 1).stream(0).integers(0, 10) >= 0
    message = r"seed must be in \[0, 2\*\*128\)"
    for seed in (-1, 2**128, 10**41):
        with pytest.raises(ValueError, match=message):
            CounterRng(seed)
    monkeypatch.setenv(ENV_SEED, str(10**41))
    with pytest.raises(ValueError, match=message):
        CounterRng()


def test_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        CounterRng(0).stream(-1)


def test_draw_int_below_2_63_is_generator_integers():
    pick = np.random.default_rng(11)
    for _ in range(200):
        n = int(pick.integers(2, 2**63)) >> int(pick.integers(0, 62))
        n = max(n, 2)
        seed, index = int(pick.integers(0, 2**32)), int(pick.integers(0, 8))
        expected = int(CounterRng(seed).stream(index).integers(1, n))
        assert draw_int(CounterRng(seed).stream(index), 1, n) == expected, (n, seed)
    expected = CounterRng(3).stream(1).integers(0, 10**12, size=6).tolist()
    assert draw_int(CounterRng(3).stream(1), 0, 10**12, 6) == expected


@pytest.mark.parametrize("low,high", [(1, 2**63 + 1), (0, 2**64), (5, 2**89 - 1), (1, 2**607 - 1)])
def test_big_draws_fall_in_range(low, high):
    gen = CounterRng(7).stream(0)
    draws = [draw_int(gen, low, high) for _ in range(300)] + draw_int(gen, low, high, 50)
    assert all(type(a) is int and low <= a < high for a in draws)
    assert len(set(draws)) == len(draws)
    # the top half of the range is hit about half of the time
    assert 100 < sum(a >= low + (high - low) // 2 for a in draws) < 250


def test_big_draws_are_reproducible():
    a = draw_int(CounterRng(4).stream(2), 1, 2**127 - 1, 5)
    assert a == draw_int(CounterRng(4).stream(2), 1, 2**127 - 1, 5)


_SEEDS = (0, 2**32 + 7, 2**64 - 1, 2**64, 2**128 - 1)
_INDICES = (0, 1, 2, 2**64 + 3)


@pytest.mark.parametrize("seed", _SEEDS)
def test_shared_stream_draws_what_stream_draws(seed):
    base = CounterRng(seed)
    for index in _INDICES:
        for high in (2**20, 2**63, 2**63 + 1, 2**127 - 1):
            for size in (None, 4):
                fresh = base.stream(index)
                expected = [draw_int(fresh, 1, high, size), draw_int(fresh, 0, high, size)]
                # the second draw continues on the same re-keyed generator
                shared = base._shared_stream(index)
                got = [draw_int(shared, 1, high, size), draw_int(shared, 0, high, size)]
                assert got == expected, (seed, index, high, size)


def test_shared_stream_is_one_generator_per_thread():
    base = CounterRng(3)
    first = base._shared_stream(0)
    assert base._shared_stream(5) is first
    assert CounterRng(4)._shared_stream(0) is first


def test_shared_stream_rejects_what_stream_rejects():
    for index in (-1, 2**256):
        with pytest.raises(ValueError):
            CounterRng(0).stream(index)
        with pytest.raises(ValueError):
            CounterRng(0)._shared_stream(index)
