"""The combined test: r Miller-Rabin rounds times one Galois round.

Its bad-witness count is multiplicative, count_MR(n)**r * count_Gal(n),
which is what makes the product strictly stronger than either factor
alone.  Each round returns None when n passes it and otherwise the
evidence of a composite verdict, so stronger_test runs the Galois round
only when every Miller-Rabin round passed.  mc_density estimates the
same quantity empirically by sampling witness tuples, as a sanity check
on the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import galois, witness
from .galois import RingDescriptor, find_conductor
from .numth import Factorization, _factored
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
    from stream i of the counter-based rng; the Galois round uses
    stream r.  Draws: uniform bases in [1, n) for the Miller-Rabin
    rounds, a uniform nonzero element of S for the Galois round.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if r < 0:
        raise ValueError("r must be >= 0")
    streams = CounterRng.coerce(rng)
    if ell is None:
        ell = find_conductor(n)
    R = RingDescriptor(n, ell)
    evidence = witness._mr_rounds(n, r, streams)
    if evidence is None:
        evidence = galois.galois_test(R, _draw_nonzero(R, streams._shared_stream(r)))
    return StrongerVerdict(n, PROBABLY_PRIME if evidence is None else COMPOSITE, evidence)


def _draw_nonzero(R: RingDescriptor, gen) -> tuple[int, ...]:
    while True:
        x = tuple(draw_int(gen, 0, R.n, R.d))
        if any(x):
            return x


def _draw_unit(R: RingDescriptor, gen) -> tuple[int, ...]:
    while True:
        x = _draw_nonzero(R, gen)
        if galois.invertibility(R, x) == 1:
            return x


def count_Str(n: int | Factorization, r: int, ell: int) -> int:
    """Exact bad-witness count of the combined test; n is factored once."""
    if r < 0:
        raise ValueError("r must be >= 0")
    fac = _factored(n)
    return witness.count_MR(fac) ** r * galois.count_Gal(fac, ell)


def mc_density(
    n: int, r: int, ell: int, samples: int, seed: int | None = None
) -> tuple[float, float]:
    """Monte Carlo estimate of the combined bad-witness density.

    Samples tuples of r uniform unit bases plus one uniform unit of S
    and returns (fraction passing every round, binomial standard
    error).  The expected value is
    (count_MR/phi)**r * count_Gal/unit_count.  Reproducible for a
    fixed seed.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if r < 0:
        raise ValueError("r must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    R = RingDescriptor(n, ell)
    gen = CounterRng.coerce(seed).stream(0)
    hits = 0
    for _ in range(samples):
        ok = True
        for _ in range(r):
            a = _draw_unit_base(n, gen)
            if not witness.mr_witness(n, a):
                ok = False
                break
        if ok:
            ok = galois.galois_test(R, _draw_unit(R, gen)) is None
        if ok:
            hits += 1
    density = hits / samples
    stderr = math.sqrt(density * (1.0 - density) / samples)
    return density, stderr


def _draw_unit_base(n: int, gen) -> int:
    while True:
        a = draw_int(gen, 1, n)
        if math.gcd(a, n) == 1:
            return a
