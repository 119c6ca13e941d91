"""Seedable counter-based randomness.

Draws come from numpy's Philox generator: the (seed, stream index)
pair fully determines a stream, so round i of a randomized test can be
reproduced, or run concurrently, without sharing generator state.
Draw values are therefore stable for a fixed seed across runs.  Every
base and ring element is drawn through draw_int, which also covers
ranges wider than numpy's int64.

The rounds of a verdict do not build a generator each: each thread
keeps one Philox and re-keys it in place for every round, which gives
the same draws as a fresh one.  stream() still returns an independent
Generator, so a caller may hold several at once.
"""

from __future__ import annotations

import os
import threading

import numpy as np

ENV_SEED = "WITNESSLAB_SEED"

# Generator.integers draws int64 values, so high may be at most 2**63.
_INT64_BOUND = 1 << 63

# Philox takes a 128-bit key, so a seed lies in [0, SEED_BOUND).
SEED_BOUND = 1 << 128

# Philox's counter is four 64-bit words.
_COUNTER_BOUND = 1 << 256
_WORD = (1 << 64) - 1


def default_seed() -> int:
    """Seed from the environment, or 0 when unset."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{ENV_SEED} must be >= 0")
    return value


class CounterRng:
    """Family of independent streams keyed by (seed, index)."""

    def __init__(self, seed: int | None = None):
        self.seed = default_seed() if seed is None else int(seed)
        if not 0 <= self.seed < SEED_BOUND:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")

    def stream(self, index: int) -> np.random.Generator:
        """Generator for stream `index`; same (seed, index) = same draws."""
        return np.random.Generator(np.random.Philox(key=self.seed, counter=index))

    def _shared_stream(self, index: int) -> np.random.Generator:
        """Stream `index` from this thread's one re-keyed Generator.

        Same draws as stream(index), without building a Philox.  The
        next call on this thread re-keys the same Generator, so draw
        from it before calling again.  Each call sets the whole state,
        so a draw cut off by an exception leaves nothing behind.
        """
        if not 0 <= index < _COUNTER_BOUND:
            raise ValueError("counter must be positive and less than 2**256.")
        try:
            rekeyed = _per_thread.rekeyed
        except AttributeError:
            rekeyed = _per_thread.rekeyed = _Rekeyed()
        key, counter = rekeyed.key, rekeyed.counter
        key[0] = self.seed & _WORD
        key[1] = self.seed >> 64
        counter[0] = index & _WORD
        counter[1] = index >> 64 & _WORD
        counter[2] = index >> 128 & _WORD
        counter[3] = index >> 192
        rekeyed.bit_generator.state = rekeyed.state
        return rekeyed.generator

    @classmethod
    def coerce(cls, value) -> "CounterRng":
        """Accept None (env/default seed), an int seed, or a CounterRng."""
        if isinstance(value, cls):
            return value
        if value is None or isinstance(value, int):
            return cls(value)
        raise TypeError(f"cannot use {type(value).__name__} as rng")


class _Rekeyed:
    """A Philox with its Generator, and the state that re-keys it.

    key and counter are the state's own lists: filling them in place
    and assigning the state sets the key, all four counter words and an
    empty buffer (lists set faster than numpy arrays here).
    """

    def __init__(self):
        self.bit_generator = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.bit_generator)
        self.key = [0, 0]
        self.counter = [0, 0, 0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


# Built on each thread's first _shared_stream call.
_per_thread = threading.local()


def draw_int(gen: np.random.Generator, low: int, high: int, size: int | None = None):
    """Uniform draw from [low, high): one int, or a list of `size` ints.

    Up to high = 2**63 this is gen.integers, so those draws keep their
    values.  Wider ranges take, per value, the fewest raw 64-bit words
    of gen's stream that hold high - low - 1 and reject values past it.
    """
    if high <= _INT64_BOUND:
        drawn = gen.integers(low, high, size=size)
        return int(drawn) if size is None else drawn.tolist()
    span = high - low
    bits = (span - 1).bit_length()
    words = -(-bits // 64)

    def one() -> int:
        while True:
            value = 0
            for word in gen.bit_generator.random_raw(words).tolist():
                value = value << 64 | word
            value >>= 64 * words - bits
            if value < span:
                return low + value

    return one() if size is None else [one() for _ in range(size)]
