"""The combined test: r Miller-Rabin rounds times one Galois round.

Its bad-witness count is multiplicative, count_MR(n)**r * count_Gal(n),
which is what makes the product strictly stronger than either factor
alone.  Each round returns None when n passes it and otherwise the
evidence of a composite verdict, so stronger_test runs the Galois round
only when every Miller-Rabin round passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import galois, witness
from .galois import RingDescriptor, find_conductor
from .numth import Factorization, _factored, _odd_n, _rounds
from .rng import CounterRng, draw_int

PROBABLY_PRIME = "probably-prime"
COMPOSITE = "composite"


@dataclass(frozen=True)
class StrongerVerdict:
    """Outcome of one run of the combined test.

    evidence is None for probably-prime and otherwise explains the
    composite verdict: ("mr-round", i) for failed Miller-Rabin round i,
    ("galois-round", reason) for the ring round (reason "sigma-mismatch"
    or "not-a-unit"), ("factor", g) when the ring round surfaced a
    proper divisor g of n.
    """

    n: int
    outcome: str
    evidence: tuple | None = None


def stronger_test(n: int, r: int = 2, ell: int | None = None, rng=None) -> StrongerVerdict:
    """Run r Miller-Rabin rounds and one Galois round on odd n >= 3.

    The conductor is searched when not supplied; PerfectPower and
    NoConductor from that search propagate (the former is already a
    compositeness proof, which the CLI reports as such).  Round i draws
    from rng's _round_stream(i): stream i of the counter-based rng, or
    the words after round i - 1's where it took more than its four; the
    Galois round is round r.  Draws: uniform bases in [1, n) for the
    Miller-Rabin rounds, a uniform nonzero element of S for the Galois
    round.

    No two rounds share a word, so the rounds are independent and each
    round's outcome law is exact.  A round passes with count_MR/(n - 1),
    ends in ("factor", g) with (n - 1 - phi(n))/(n - 1) and otherwise in
    ("mr-round", i).  With N = n**d - 1, the Galois round passes with
    count_Gal/N, ends in sigma-mismatch with (unit_count - count_Gal)/N
    and otherwise in ("factor", g) or not-a-unit.  A verdict is
    probably-prime with probability count_Str / ((n - 1)**r * N).  The
    streams depend on the seed, not on n, so verdicts for different n
    under one seed share their raw draws.
    """
    n, r = _odd_n(n), _rounds(r)
    streams = CounterRng.coerce(rng)
    if ell is None:
        ell = find_conductor(n)
    R = RingDescriptor(n, ell)
    evidence = witness._mr_rounds(n, r, streams)
    if evidence is None:
        evidence = galois.galois_test(R, _draw_nonzero(R, streams._round_stream(r)))
    return StrongerVerdict(n, PROBABLY_PRIME if evidence is None else COMPOSITE, evidence)


def _draw_nonzero(R: RingDescriptor, gen) -> tuple[int, ...]:
    while True:
        x = tuple(draw_int(gen, 0, R.n, R.d))
        if any(x):
            return x


def count_Str(n: int | Factorization, r: int, ell: int) -> int:
    """Exact bad-witness count of the combined test; n is factored once."""
    r = _rounds(r)
    fac = _factored(n)
    return witness.count_MR(fac) ** r * galois.count_Gal(fac, ell)

