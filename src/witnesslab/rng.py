"""Seedable counter-based randomness.

Draws come from numpy's Philox generator: the (seed, stream index)
pair fully determines a stream, so draw values are stable for a fixed
seed across runs.  Stream i is Philox at counter i, and each counter
step makes four 64-bit words, so stream i + 1 is stream i from its
fifth word on.  Every base and ring element is drawn through draw_int,
which also covers ranges wider than numpy's int64.

CounterRng is the one place that checks a seed, whether it comes from
the caller, the CLI or the WITNESSLAB_SEED environment variable.  The
rounds of a verdict do not build a generator each: each thread keeps
one Philox, and _round_stream hands round i of a verdict its words.
Round 0 sets the whole state, key, counter 0 and an empty buffer, the
draws of a fresh stream(0).  Round i > 0 starts at the block after the
one holding round i - 1's last word, which is stream i's first word
when round i - 1 took at most four, so no two rounds share a word.
stream() still returns an independent Generator, so a caller may hold
several at once.
"""

from __future__ import annotations

import operator
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
    """Seed from the environment, or 0 when unset; CounterRng checks its range."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc


class CounterRng:
    """Family of streams keyed by (seed, index); stream i + 1 overlaps
    stream i from its fifth word on."""

    def __init__(self, seed: int | None = None):
        self.seed = default_seed() if seed is None else operator.index(seed)
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
            generator = _per_thread.generator
        except AttributeError:
            generator = _per_thread.generator = np.random.Generator(np.random.Philox(key=0))
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": [index & _WORD, index >> 64 & _WORD, index >> 128 & _WORD, index >> 192],
                "key": [self.seed & _WORD, self.seed >> 64],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator

    def _round_stream(self, index: int) -> np.random.Generator:
        """This thread's Generator for round `index` of a verdict.

        Round 0 is _shared_stream(0), so nothing carries over from an
        earlier verdict or a draw cut off.  A later round starts at the
        four-word block after the one that holds round index - 1's last
        word: advance(0) keeps the counter and drops the rest of the
        buffer.  So a round that took one to four words leaves the next
        round the draws of its own stream, and one that took more leaves
        it the words after its own.  The words after a stopping time of
        an i.i.d. word sequence are again i.i.d., so the rounds are
        independent.  Rounds must come in order on one thread, each
        drawing at least one word, with no other draw in between.
        """
        if index:
            generator = _per_thread.generator
            generator.bit_generator.advance(0)
            return generator
        return self._shared_stream(0)

    @classmethod
    def coerce(cls, value) -> "CounterRng":
        """Accept None (env/default seed), an int seed, or a CounterRng."""
        return value if isinstance(value, cls) else cls(value)


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
