"""Seedable counter-based randomness.

Draws come from numpy's Philox generator: the (seed, stream index)
pair fully determines a stream, so round i of a randomized test can be
reproduced, or run concurrently, without sharing generator state.
Draw values are therefore stable for a fixed seed across runs.  Every
base and ring element is drawn through draw_int, which also covers
ranges wider than numpy's int64.
"""

from __future__ import annotations

import os

import numpy as np

ENV_SEED = "WITNESSLAB_SEED"

# Generator.integers draws int64 values, so high may be at most 2**63.
_INT64_BOUND = 1 << 63

# Philox takes a 128-bit key, so a seed lies in [0, SEED_BOUND).
SEED_BOUND = 1 << 128


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

    @classmethod
    def coerce(cls, value) -> "CounterRng":
        """Accept None (env/default seed), an int seed, or a CounterRng."""
        if isinstance(value, cls):
            return value
        if value is None or isinstance(value, int):
            return cls(value)
        raise TypeError(f"cannot use {type(value).__name__} as rng")


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
