"""Range sweeps, series constants, adversarial inputs, bound reports.

The sweep walks odd n up to a bound, records every exact count the
other modules provide, and reduces them into an aggregate of integers
(the log sums in fixed point), so the aggregate is the same for any
split of the range and any worker count.  Chunk order only orders the
records handed to the sink.  Every chunk comes from one engine,
_block_columns, which sieves it with the odd primes up to its square
root; the sieve's cap of 10**8 keeps x_max below (10**8 + 1)**2, as
sweep checks before any chunk runs.  Chunks are made lazily.  A chunk's
columns stay numpy arrays: its aggregate is taken from them a column at
a time, with one log per distinct value of an int64 column, its text
rows are formatted from them in one call, and SweepRecords are built
only for a sink that takes them.  examine, the per-n definition, gives
count its record and the tests their reference.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
from collections import namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import witness
from .galois import (
    DEFAULT_ELL_MAX,
    _conductor_counts,
    _residue_failure,
    conductor_failure,
    count_H,
    find_conductor,
    local_data,
    NoConductor,
    NonIntegral,
)
from .numth import (
    _SIEVE_LIMIT,
    BudgetExceeded,
    _iroot,
    _odd_primes,
    _pow_mod,
    factorize,
    is_prime,
    lcm_range,
    primes_up_to,
    L_of,
)
from .rng import CounterRng

# Chunk width in odd integers: the unit of work handed to a worker.
_CHUNK_ODDS = 2000


class NoQFound(ArithmeticError):
    """The complementary-prime search for the adversarial n failed."""


@dataclass(frozen=True)
class FixedEll:
    """Use one conductor for the whole sweep; skip n it does not fit."""

    ell: int

    def __post_init__(self):
        if self.ell < 3 or not is_prime(self.ell):
            raise ValueError(f"conductor must be an odd prime, got {self.ell}")


@dataclass(frozen=True)
class SmallestEll:
    """Search the smallest valid conductor per n, up to ell_max."""

    ell_max: int = DEFAULT_ELL_MAX

    def __post_init__(self):
        if self.ell_max < 3:
            raise ValueError(f"ell_max must be >= 3, got {self.ell_max}")


class SweepRecord(NamedTuple):
    """Counts for one visited odd n; the fields are the record columns.

    F and MR are always present.  The conductor-dependent fields are
    None when the policy skipped n, with skip holding a tag
    ("perfect-power", "not-coprime", "not-primitive-root",
    "no-conductor").
    """

    n: int
    composite: bool
    F: int
    MR: int
    Gal: int | None = None
    D: int | None = None
    H: int | None = None
    k: int | None = None
    Str: int | None = None
    ell: int | None = None
    skip: str | None = None

    @property
    def covered(self) -> bool:
        return self.skip is None


CSV_HEADER = ",".join(SweepRecord._fields) + "\n"

# A chunk's rows in column form: one numpy array per SweepRecord field.
# n, F, MR and ell are int64, with ell 0 where the row is skipped, and
# composite is bool; Gal, D, H, k and Str are object columns of Python
# ints with None where the row is skipped, and skip holds its tag or None.
_Columns = namedtuple("_Columns", SweepRecord._fields)


def _records(cols: _Columns) -> list[SweepRecord]:
    """The rows of cols as SweepRecords of Python ints, bools and None."""
    cells = cols._replace(ell=np.where(cols.ell > 0, cols.ell, None))
    return list(map(SweepRecord._make, zip(*(col.tolist() for col in cells))))


# A log sum is held exactly as a count of 2**-53 units.  Each addend is
# log of a positive integer (or rounds times one), so it is 0.0 or at
# least log 2 > 1/2, and a float of that size is a whole number of units.
_LOG_UNIT = 2**53


def _log_units(v: float) -> int:
    """v as an exact integer count of 2**-53 units; ValueError if it is not one."""
    scaled = v * _LOG_UNIT
    if not scaled.is_integer():
        raise ValueError(f"{v!r} is not a whole number of 2**-53 units")
    return int(scaled)


def _distinct(col: np.ndarray) -> tuple[list[int], list[int]]:
    """The distinct values of an int64 column and the count of each, as lists of ints."""
    values, counts = np.unique(col, return_counts=True)
    return values.tolist(), counts.tolist()


def _log_units_sum(values, scale: int = 1) -> int:
    """Sum of _log_units(scale * math.log(v)) over values.

    An int64 array takes one log per distinct value, whose units are
    then counted as often as the value occurs; that is exact, since each
    addend is a whole number of units.  Any other iterable, such as an
    object column with values past int64, takes one log per value.
    """
    counts = None
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        values, counts = _distinct(values)
    units = np.fromiter(map(math.log, values), dtype=np.float64) * scale * _LOG_UNIT
    if not (np.isfinite(units).all() and (units == np.trunc(units)).all()):
        raise ValueError("a log sum addend is not a whole number of 2**-53 units")
    units = map(int, units.tolist())
    return sum(units) if counts is None else sum(map(operator.mul, units, counts))


@dataclass
class SweepAggregate:
    """Exact reduction of sweep records for a fixed round count.

    Every field is an int, so merge is fieldwise addition (x takes the
    maximum) and the aggregate is the same for any split of the range.
    Integer sums run over composites only (the primed sums of the mean
    bounds); Gal and Str additionally need the conductor, so they run
    over covered composites.  The log sums feed geometric means: F and
    MR**r accumulate over every visited n, H over covered n, each in
    units of 2**-53 (see _log_units).  A sweep chunk adds its rows with
    one log per distinct F and MR (see _log_units_sum).
    """

    rounds: int = 0
    x: int = 0
    count_visited: int = 0
    count_composite: int = 0
    count_covered: int = 0
    count_covered_composite: int = 0
    count_skipped: int = 0
    sum_F: int = 0
    sum_MR_r: int = 0
    sum_Gal: int = 0
    sum_Str: int = 0
    sum_log_F: int = 0
    sum_log_MR_r: int = 0
    sum_log_H: int = 0

    def add_record(self, rec: SweepRecord) -> None:
        self.x = max(self.x, rec.n)
        self.count_visited += 1
        self.sum_log_F += _log_units(math.log(rec.F))
        self.sum_log_MR_r += _log_units(self.rounds * math.log(rec.MR))
        if rec.composite:
            self.count_composite += 1
            self.sum_F += rec.F
            self.sum_MR_r += rec.MR**self.rounds
        if rec.covered:
            self.count_covered += 1
            self.sum_log_H += _log_units(math.log(rec.H))
            if rec.composite:
                self.count_covered_composite += 1
                self.sum_Gal += rec.Gal
                self.sum_Str += rec.Str
        else:
            self.count_skipped += 1

    def merge(self, other: "SweepAggregate") -> "SweepAggregate":
        if self.rounds != other.rounds:
            raise ValueError("cannot merge aggregates with different round counts")
        merged = {f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        merged["rounds"] = self.rounds
        merged["x"] = max(self.x, other.x)
        return SweepAggregate(**merged)

    def summary(self) -> dict[str, int | float]:
        """The summary line's key -> value mapping, in field order.

        rounds is left out and the count_ prefix dropped; each log sum
        is given as units / 2**53, the correctly rounded exact sum.
        """
        out = {}
        for f in fields(self):
            if f.name == "rounds":
                continue
            value = getattr(self, f.name)
            if f.name.startswith("sum_log_"):
                value /= _LOG_UNIT
            out[f.name.removeprefix("count_")] = value
        return out


def examine(n: int, r: int, policy) -> SweepRecord:
    """Build the sweep record for one odd n, factored once for every count."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if r < 0:
        raise ValueError("r must be >= 0")
    fac = factorize(n)
    composite = fac.factors[0][1] > 1 or len(fac.factors) > 1
    f_count = witness.count_F(fac)
    mr_count = witness.count_MR(fac)

    skip = None
    ell = None
    if all(e % 2 == 0 for _, e in fac.factors):  # n is a square
        skip = "perfect-power"
    elif isinstance(policy, FixedEll):
        skip = conductor_failure(n, policy.ell)
        ell = policy.ell if skip is None else None
    elif isinstance(policy, SmallestEll):
        try:
            ell = find_conductor(n, policy.ell_max)
        except NoConductor:
            skip = "no-conductor"
    else:
        raise TypeError(f"unknown conductor policy: {policy!r}")

    if skip is not None:
        return SweepRecord(n=n, composite=composite, F=f_count, MR=mr_count, skip=skip)
    gal, relaxed, k = _conductor_counts(fac, ell)  # ell was checked above
    return SweepRecord(
        n=n,
        composite=composite,
        F=f_count,
        MR=mr_count,
        Gal=gal,
        D=relaxed,
        H=count_H(fac, ell - 1),
        k=k,
        Str=mr_count**r * gal,
        ell=ell,
    )


_INT64_MAX = 2**63 - 1


def _chunk_ranges(x_max: int) -> range:
    """Each chunk's start, as a lazy range; the chunk at start holds
    the odd n in [start, start + 2 * _CHUNK_ODDS) up to x_max."""
    return range(3, x_max + 1, 2 * _CHUNK_ODDS)


def _two_adic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, odd) with x = 2**v * odd, elementwise for positive int64 x."""
    low = x & -x
    return np.frexp(low)[1] - 1, x // low


def _split_off(n: np.ndarray, extracted: np.ndarray) -> np.ndarray:
    """n // extracted, checking that the extracted prime powers divide n."""
    cofactor = n // extracted
    if (cofactor * extracted != n).any():
        raise ValueError("sieved prime powers do not multiply to n")
    return cofactor


def _exact_quotient(numerator: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """numerator // divisor (int64 or object columns), checking that every division is exact."""
    if (numerator % divisor).any():
        raise NonIntegral("cofactor_k numerator not divisible by count_D")
    return numerator // divisor


def _block_columns(start: int, stop: int, r: int, policy) -> _Columns:
    """The columns (see _Columns) of the odd n in [start, stop).

    These are examine's closed forms, taken over (row, prime) pairs
    instead of one n at a time.  The odd primes up to isqrt(stop - 1)
    sieve the block, and what is left of each n is 1 or a prime, which
    adds one more pair.  Each count is then a product (v a minimum) of
    local terms over the pairs of its row.  F, MR and the square tag
    need no conductor; _block_conductors finds each row's conductor and
    _block_conductor_counts its Gal, D, H and k.
    """
    n = np.arange(start, stop, 2, dtype=np.int64)
    size = len(n)
    primes = _odd_primes(math.isqrt(stop - 1))
    # Row of the first odd multiple of p: start + 2*i = 0 (mod p).
    first = (-start % primes) * ((primes + 1) // 2) % primes
    hits = np.where(first < size, (size - 1 - first) // primes + 1, 0)
    p = np.repeat(primes, hits)
    rows = np.repeat(first, hits) + p * (np.arange(len(p)) - np.repeat(np.cumsum(hits) - hits, hits))
    e = np.ones_like(p)
    q = n[rows] // p
    more = q % p == 0
    while more.any():
        e += more
        q = np.where(more, q // p, q)
        more &= q % p == 0
    extracted = np.ones_like(n)
    np.multiply.at(extracted, rows, p**e)
    cofactor = _split_off(n, extracted)  # 1 or a prime above the sieving primes
    last = np.flatnonzero(cofactor > 1)
    order = np.argsort(np.concatenate((rows, last)), kind="stable")
    # One (row, p, e) per prime power p**e of each n, grouped by row.
    rows = np.concatenate((rows, last))[order]
    p = np.concatenate((p, cofactor[last]))[order]
    e = np.concatenate((e, np.ones_like(last)))[order]
    w = np.bincount(rows, minlength=size)
    starts = np.cumsum(w) - w

    def product(terms):
        return np.multiply.reduceat(terms, starts)

    p_1 = p - 1
    # count_MR: v is the least 2-adic valuation of p - 1 (never above that
    # of n - 1, since n = 1 mod 2**v), s the product of gcd(m, odd part).
    v_p, odd_p = _two_adic(p_1)
    m_n = _two_adic(n - 1)[1]
    v = np.minimum.reduceat(v_p, starts)
    MR = (((1 << (v * w)) - 1) // ((1 << w) - 1) + 1) * product(np.gcd(m_n[rows], odd_p))
    square = np.add.reduceat(e & 1, starts) == 0
    ell, skip = _block_conductors(n, square, policy)
    gal, relaxed, h, k = _block_conductor_counts(n, rows, p, w, ell)
    covered = ell > 0
    strong = np.full(size, None, dtype=object)
    strong[covered] = MR[covered].astype(object) ** r * gal[covered]
    return _Columns(
        n=n,
        composite=np.add.reduceat(e, starts) > 1,
        F=product(np.gcd(p_1, n[rows] - 1)),
        MR=MR,
        Gal=gal,
        D=relaxed,
        H=h,
        k=k,
        Str=strong,
        ell=ell,
        skip=skip,
    )


def _block_conductors(n: np.ndarray, square: np.ndarray, policy) -> tuple[np.ndarray, np.ndarray]:
    """(ell, skip) for the rows n, as examine finds them; ell is 0 where skip holds a tag.

    Squares are "perfect-power".  FixedEll tags every other row with
    _residue_failure(n % ell, ell).  SmallestEll tries the odd primes up
    to ell_max in increasing order on the rows still open, and a row
    takes the first ell that accepts its residue, or "no-conductor".
    """
    if isinstance(policy, FixedEll):
        candidates = (policy.ell,)
    else:  # SmallestEll, as check_sweep_args made sure
        candidates = (c for c in range(3, policy.ell_max + 1, 2) if is_prime(c))
    ell = np.zeros_like(n)
    skip = np.full(len(n), None, dtype=object)
    skip[square] = "perfect-power"
    open_rows, tags = np.flatnonzero(~square), None
    for c in candidates:
        if not len(open_rows):
            break
        residues, index = np.unique(n[open_rows] % c, return_inverse=True)
        tags = np.array([_residue_failure(res, c) for res in residues.tolist()], dtype=object)[index]
        accepted = np.equal(tags, None)
        ell[open_rows[accepted]] = c
        open_rows, tags = open_rows[~accepted], tags[~accepted]
    skip[open_rows] = "no-conductor" if isinstance(policy, SmallestEll) else tags
    return ell, skip


def _block_conductor_counts(
    n: np.ndarray, rows: np.ndarray, p: np.ndarray, w: np.ndarray, ell: np.ndarray
) -> list[np.ndarray]:
    """Gal, D, H and k of the rows with a conductor (ell > 0), None elsewhere,
    as object columns of Python ints.

    A row is narrow when n**d < 2**63 (d = ell - 1): each local term and
    product is then at most n**d, so all of them are int64.  The other
    rows take their products in Python ints.
    """
    # Two passes, narrow then wide: one pass with a per-pair int64 mask
    # made this stage 10-16% slower on the chunks of a smallest sweep.
    covered = ell > 0
    degrees, index = np.unique(ell[covered] - 1, return_inverse=True)
    roots = np.array([_iroot(_INT64_MAX, d) for d in degrees.tolist()], dtype=np.int64)
    narrow = covered.copy()
    narrow[covered] = n[covered] <= roots[index]
    columns = [np.full(len(n), None, dtype=object) for _ in range(4)]
    for part, exact in ((narrow, True), (covered & ~narrow, False)):
        pairs = np.flatnonzero(part[rows])
        if len(pairs):
            counts = _local_counts(n[rows[pairs]], p[pairs], ell[rows[pairs]], w[part], exact)
            for column, count in zip(columns, counts):
                column[part] = count
    return columns


def _local_counts(n: np.ndarray, p: np.ndarray, ell: np.ndarray, w: np.ndarray, exact: bool) -> tuple:
    """(Gal, D, H, k) of a run of rows, from their (n, p, ell) pairs, w pairs a row.

    The local terms are those of _conductor_counts and count_H: with
    f, m and t as local_data finds them and d = ell - 1, Gal takes
    gcd(n**m - p**t, p**f - 1), D takes gcd(n**d - 1, p**f - 1), H takes
    gcd(n**d - 1, p**d - 1), and k is the product of p**f - 1 over D.
    local_data runs once per distinct (ell, n mod ell, p mod ell), which
    is all it reads.  exact says that every row is narrow, so every
    power reduces in int64; otherwise only the pairs whose modulus is
    below 2**31 do, and the products are Python ints.
    """
    ells, ell_rank = np.unique(ell, return_inverse=True)
    # One integer key per pair: np.unique over the stacked columns
    # (axis=1) takes ten times as long.
    base = int(min(ells[-1], n.max() + 1))  # above every n % ell and p % ell
    dtype = np.int64 if len(ells) * base * base <= _INT64_MAX else object
    key = (ell_rank.astype(dtype) * base + n % ell) * base + p % ell
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    local = [local_data(*args) for args in zip(n[first].tolist(), ell[first].tolist(), p[first].tolist())]
    f, m, t = np.array([(loc.f, loc.m, loc.t) for loc in local], dtype=np.int64).T[:, group]
    d = ell - 1
    if exact:
        vector_f = vector_d = np.ones(len(p), dtype=bool)
    else:
        log_p = np.log2(p)
        vector_f, vector_d = f * log_p < 31, d * log_p < 31
    gal, residue_units = _gcd_terms(n, m, p, t, f, vector_f)
    h = _gcd_terms(n, d, p, np.zeros_like(d), d, vector_d)[0]
    relaxed = np.gcd(h, residue_units)  # p**f - 1 divides p**d - 1
    starts = np.cumsum(w) - w

    def product(terms):
        return np.multiply.reduceat(terms if exact else terms.astype(object), starts)

    relaxed = product(relaxed)
    return product(gal), relaxed, product(h), _exact_quotient(product(residue_units), relaxed)


def _gcd_terms(n, a, p, b, c, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gcd(n**a - p**b, p**c - 1) and p**c - 1 for each pair, with b < c.

    Where vector holds, both are int64, n**a reduced by _pow_mod, which
    the caller has made sure is exact there; the other pairs take
    Python ints, and the columns are then of dtype object.
    """
    if vector.all():
        modulus = p**c - 1
        return np.gcd(_pow_mod(n % modulus, a, modulus) - p**b, modulus), modulus
    terms, moduli = np.empty((2, len(p)), dtype=object)
    terms[vector], moduli[vector] = _gcd_terms(*(col[vector] for col in (n, a, p, b, c, vector)))
    scalar = ~vector
    x, e, q, s, k = (col[scalar].tolist() for col in (n, a, p, b, c))
    scalar_moduli = [base**exp - 1 for base, exp in zip(q, k)]
    differences = map(operator.sub, map(pow, x, e, scalar_moduli), map(pow, q, s))
    terms[scalar] = np.array(list(map(math.gcd, differences, scalar_moduli)), dtype=object)
    moduli[scalar] = np.array(scalar_moduli, dtype=object)
    return terms, moduli


def _aggregate(cols: _Columns, r: int) -> SweepAggregate:
    """add_record folded over the rows of cols, a column at a time."""
    composite = cols.composite
    covered = cols.ell > 0
    covered_composite = covered & composite
    count_covered = int(np.count_nonzero(covered))
    return SweepAggregate(
        rounds=r,
        x=int(cols.n.max()),
        count_visited=len(cols.n),
        count_composite=int(np.count_nonzero(composite)),
        count_covered=count_covered,
        count_covered_composite=int(np.count_nonzero(covered_composite)),
        count_skipped=len(cols.n) - count_covered,
        sum_F=sum(cols.F[composite].tolist()),
        sum_MR_r=sum(mr**r * count for mr, count in zip(*_distinct(cols.MR[composite]))),
        sum_Gal=sum(cols.Gal[covered_composite].tolist()),
        sum_Str=sum(cols.Str[covered_composite].tolist()),
        sum_log_F=_log_units_sum(cols.F),
        sum_log_MR_r=_log_units_sum(cols.MR, r),
        sum_log_H=_log_units_sum(cols.H[covered]),
    )


_ROW_TEMPLATES = {
    "csv": ",".join(["%s"] * len(SweepRecord._fields)) + "\n",
    "json": "{" + ",".join(f'"{name}":%s' for name in SweepRecord._fields) + "}\n",
}


def _render(cols: _Columns, row_format: str) -> str:
    """The rows of cols as text lines: "csv" or "json".

    A CSV line is what csv.writer writes for the record with booleans
    as 1/0 and None as an empty cell; a JSON line is the record's
    json.dumps with separators (",", ":").  Skip tags are plain words,
    so neither format needs quoting or escapes.  The cells of every
    row go into one flat list, a column at a time, and the chunk is
    formatted by one % of the row template repeated.
    """
    as_csv = row_format == "csv"
    null = "" if as_csv else "null"
    truth = np.array(["0", "1"] if as_csv else ["false", "true"], dtype=object)
    rows, width = len(cols.n), len(cols)
    skipped = cols.ell == 0
    flat = [null] * (rows * width)
    flat[0::width] = cols.n.tolist()
    flat[1::width] = truth[cols.composite.view(np.uint8)].tolist()
    flat[2::width] = cols.F.tolist()
    flat[3::width] = cols.MR.tolist()
    for j, col in enumerate((cols.Gal, cols.D, cols.H, cols.k, cols.Str, cols.ell), start=4):
        cells = col.astype(object)
        cells[skipped] = null
        flat[j::width] = cells.tolist()
    tags = cols.skip.tolist()
    quoted = {tag: null if tag is None else tag if as_csv else f'"{tag}"' for tag in set(tags)}
    flat[10::width] = map(quoted.__getitem__, tags)
    return (_ROW_TEMPLATES[row_format] * rows) % tuple(flat)


def render_records(records, row_format: str = "csv") -> str:
    """SweepRecords as the text lines a sweep writes ("csv" or "json")."""
    n, composite, *counts, ell, skip = (np.array(col, dtype=object) for col in zip(*records))
    ell[np.equal(ell, None)] = 0
    return _render(_Columns(n, composite.astype(bool), *counts, ell, skip), row_format)


def _process_chunk(args: tuple) -> tuple[list, SweepAggregate]:
    """(sink items, aggregate) for one chunk.

    output says what the sink items are: none when it is None (no
    sink), the chunk's SweepRecords when it is "records", and otherwise
    its rows as one text in that row format, "csv" or "json", rendered
    in the process that computed them.
    """
    start, stop, r, policy, output = args
    cols = _block_columns(start, stop, r, policy)
    if output is None:
        items = []
    elif output == "records":
        items = _records(cols)
    else:
        items = [_render(cols, output)]
    return items, _aggregate(cols, r)


def check_sweep_args(x_max: int, r: int, policy, workers: int, row_format: str | None) -> None:
    """Raise what sweep would for these arguments, before it runs anything.

    ValueError for a bad range, round count, worker count or row format;
    TypeError for a policy that is neither FixedEll nor SmallestEll;
    BudgetExceeded when isqrt(x_max) is past the sieve cap.
    """
    if x_max < 3:
        raise ValueError("x_max must be >= 3")
    if not isinstance(policy, (FixedEll, SmallestEll)):
        raise TypeError(f"unknown conductor policy: {policy!r}")
    if r < 0:
        raise ValueError("r must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if row_format not in (None, "csv", "json"):
        raise ValueError(f"row_format must be None, 'csv' or 'json', got {row_format!r}")
    if math.isqrt(x_max) > _SIEVE_LIMIT:
        raise BudgetExceeded(f"sweep to {x_max} needs sieving primes past the cap of {_SIEVE_LIMIT}")


def sweep(
    x_max: int,
    r: int = 2,
    policy=FixedEll(3),
    workers: int = 1,
    record_sink=None,
    row_format: str | None = None,
) -> SweepAggregate:
    """Visit every odd n in [3, x_max] and reduce the records.

    record_sink, when given, receives the rows in increasing order of n
    regardless of worker scheduling, which is why chunks are consumed in
    order.  With row_format None it gets each SweepRecord; with "csv" or
    "json" it gets each chunk's rows as one text of lines (the CSV
    without its header, CSV_HEADER).  The aggregate's sums are exact, so
    it does not depend on the chunking or the worker count.  No more
    workers start than there are chunks.  check_sweep_args checks the
    arguments before any chunk runs.
    """
    check_sweep_args(x_max, r, policy, workers, row_format)
    starts, span = _chunk_ranges(x_max), 2 * _CHUNK_ODDS
    output = None if record_sink is None else (row_format or "records")
    chunk_args = ((a, min(a + span, x_max + 1), r, policy, output) for a in starts)
    workers = min(workers, len(starts))
    if workers == 1:
        return _reduce(map(_process_chunk, chunk_args), r, record_sink)
    # Leaving the block calls terminate(): on an error in the sink the
    # workers stop now instead of finishing every queued chunk first.
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return _reduce(pool.imap(_process_chunk, chunk_args), r, record_sink)


def _reduce(results, r: int, record_sink) -> SweepAggregate:
    """Merge chunk results, handing each chunk's sink items to the sink in order."""
    total = SweepAggregate(rounds=r)
    for items, partial in results:
        for item in items:
            record_sink(item)
        total = total.merge(partial)
    return total


def _prime_power_columns(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, s, log p) for all prime powers s = p**j <= bound, as columns.

    log p is math.log of each prime, never np.log, whose rounding may
    differ.
    """
    p = s = np.concatenate(([2], _odd_primes(bound)))
    log_p = np.array(list(map(math.log, p.tolist())))
    columns = []
    while len(p):
        columns.append((p, s, log_p))
        more = s <= bound // p
        p, s, log_p = p[more], s[more] * p[more], log_p[more]
    return tuple(np.concatenate(column) for column in zip(*columns))


def _series_tail(bound: int) -> float:
    # Lambda(s)/(s*phi(s)) <= 2 log(s)/s**2 for prime powers, and the
    # summand is decreasing, so the tail is below 2*(log B + 1)/B.
    return 2.0 * (math.log(bound) + 1.0) / bound


def eval_c1(bound: int = 10**5) -> tuple[float, float]:
    """Partial sum of Lambda(s)/(s*phi(s)) over prime powers s <= bound.

    This is eval_c3 at d = 1, where every f(s, 1) is 1.  Returns
    (value, tail_majorant): the true infinite sum lies within
    tail_majorant above the returned value.
    """
    return eval_c3(1, bound)[0], _series_tail(bound)


def _series_sums(d: int, bound: int) -> tuple[float, float]:
    """eval_c1's and eval_c3's values, from columns over the prime powers.

    f is numth._unity_roots_prime_power(p, j, d): gcd(d, phi(s)), but
    gcd(d, 2) * gcd(d, 2**(j - 2)) for s = 2**j, j >= 3.  A C3 term is
    f * f * log(p) / den, evaluated left to right: f * f times the C1
    term would round differently and change the bounds table's bytes.
    Every term rounds as the float arithmetic of one prime power would,
    and fsum is exact in any order.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    p, s, log_p = _prime_power_columns(bound)
    phi = s - s // p
    # gcd(d, phi) = gcd(d mod phi, phi), taken in Python ints past int64.
    f = np.gcd(d if d <= _INT64_MAX else (d % phi.astype(object)).astype(np.int64), phi)
    two = (p == 2) & (s >= 8)
    f[two] = math.gcd(d, 2) * np.gcd(f[two], s[two] // 4)  # 2**(j - 2) divides phi
    den = s * phi
    return math.fsum((log_p / den).tolist()), math.fsum((f * f * log_p / den).tolist())


def eval_c3(d: int, bound: int = 10**5) -> tuple[float, float]:
    """Partial sum of f(s, d1)**2 * Lambda(s)/(s*phi(s)), d1 = gcd(lambda(s), d).

    f(s, d1) counts the units mod s with y**d1 = 1; for an odd prime
    power it equals d1, and doubles for 2**a with a >= 3 and d1 even.
    Since y**lambda(s) = 1 for every unit, f(s, d1) = f(s, d), which is
    what is summed.  The tail majorant scales the base tail by the
    largest possible f**2, namely (2d)**2.
    """
    return _series_sums(d, bound)[1], (2 * d) ** 2 * _series_tail(bound)


@dataclass(frozen=True)
class AdversarialConfig:
    """Knobs for constructing n = s*q with a guaranteed witness floor.

    M should be a highly divisible modulus (lcm_range works well); the
    pool collects odd primes p with cutoff < p <= prime_bound, p-1 | M
    and p not dividing M.
    """

    M: int = lcm_range(12)
    prime_bound: int = 200
    cutoff: int = 5
    k: int = 3
    q_search_limit: int = 10**6


@dataclass(frozen=True)
class AdversarialOutcome:
    n: int
    s: int
    q: int
    predicted_floor: int
    chosen: tuple[int, ...]
    pool: tuple[int, ...]


def adversarial_pool(cfg: AdversarialConfig) -> tuple[int, ...]:
    """Odd primes p with cutoff < p <= prime_bound, p - 1 dividing M and p not.

    A pool prime dividing M would leave s without an inverse mod M, and
    p = 2 would make n = s*q even.
    """
    return tuple(
        p
        for p in primes_up_to(cfg.prime_bound)[1:]  # odd primes
        if p > cfg.cutoff and cfg.M % (p - 1) == 0 and cfg.M % p != 0
    )


def adversarial_generate(
    cfg: AdversarialConfig, rng=None, subset=None
) -> AdversarialOutcome:
    """Build n = s*q with M | n-1, so count_F(n) >= phi(s) by design.

    s multiplies cfg.k distinct pool primes (a specific subset can be
    forced, e.g. to reproduce a published example); q is the least
    prime congruent to the inverse of s mod M that does not divide s.
    Every prime p | s then has p-1 | M | n-1, pushing gcd(p-1, n-1) to
    its maximum p-1.
    """
    pool = adversarial_pool(cfg)
    if subset is not None:
        requested = tuple(int(p) for p in subset)
        if not requested:
            raise ValueError("subset must name at least one pool prime")
        chosen = tuple(sorted(set(requested)))
        if len(chosen) != len(requested):
            raise ValueError("subset primes must be distinct")
        for p in chosen:
            if p not in pool:
                raise ValueError(f"{p} is not in the pool {pool}")
    else:
        if cfg.k < 1:
            raise ValueError(f"k must be >= 1, got {cfg.k}")
        if len(pool) < cfg.k:
            raise ValueError(f"pool {pool} smaller than k={cfg.k}")
        gen = CounterRng.coerce(rng).stream(0)
        picked = gen.choice(len(pool), size=cfg.k, replace=False)
        chosen = tuple(sorted(pool[int(i)] for i in picked))
    s = math.prod(chosen)
    target = pow(s, -1, cfg.M)
    q = target if target > 1 else target + cfg.M
    while q <= cfg.q_search_limit:
        if s % q != 0 and is_prime(q):
            break
        q += cfg.M
    else:
        raise NoQFound(f"no prime q = {target} (mod {cfg.M}) below {cfg.q_search_limit}")
    n = s * q
    assert (n - 1) % cfg.M == 0, "construction must force M | n-1"
    floor = math.prod(p - 1 for p in chosen)
    return AdversarialOutcome(
        n=n, s=s, q=q, predicted_floor=floor, chosen=chosen, pool=pool
    )


class _LogValue(NamedTuple):
    """A positive value past the float range, held as its natural log.

    It formats with an e spec as its float would: f"{v:.6e}".
    """

    ln: float

    def __format__(self, spec: str) -> str:
        if not math.isfinite(self.ln):
            return format(self.ln, spec)
        exponent = math.floor(self.ln / math.log(10))
        mantissa, power = format(math.exp(self.ln - exponent * math.log(10)), spec).split("e")
        return f"{mantissa}e{int(power) + exponent:+03d}"


def _mean(total: int, x: float) -> float | _LogValue:
    """total / x as a float, or as a _LogValue where that float is not finite."""
    try:
        return total / x
    except OverflowError:
        return _LogValue(math.log(total) - math.log(x))


def _curve(x: float, a: float, lx: float, k: int = 0, c: float = 1.0) -> float | _LogValue:
    """x**a * c / lx**k as a float, or as a _LogValue where that float is not
    finite (c itself may be inf, which stays a float)."""
    try:
        value = x**a * c / lx**k
    except OverflowError:
        value = math.inf
    if math.isfinite(value) or math.isinf(c):
        return value
    return _LogValue(a * math.log(x) + math.log(c) - k * math.log(lx))


@dataclass(frozen=True)
class BoundsRow:
    """One comparison line: an empirical mean next to a bound curve."""

    label: str
    empirical: float | _LogValue
    reference: float | _LogValue
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    x: int
    d: int
    rounds: int
    rows: tuple[BoundsRow, ...]
    coverage_note: str

    def render(self) -> list[str]:
        lines = [
            f"bounds report at x={self.x} (d={self.d}, rounds={self.rounds})",
            self.coverage_note,
        ]
        width = max(len(r.label) for r in self.rows)
        for r in self.rows:
            line = f"  {r.label:<{width}}  empirical={r.empirical:.6e}  reference={r.reference:.6e}"
            if r.note:
                line += f"  [{r.note}]"
            lines.append(line)
        return lines


# Terms summed exactly before the Euler-Maclaurin tail takes over.
_ZETA_TERMS = 64
# B_2/2!, B_4/4!, B_6/6!, B_8/8!.
_ZETA_EM = (Fraction(1, 12), Fraction(-1, 720), Fraction(1, 30240), Fraction(-1, 1209600))


def _zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2, rounded to float once.

    The sum of k**-s for k < N = 64 is exact; the Euler-Maclaurin tail
    at N is N**(1-s)/(s-1) + N**-s/2 plus, for j = 1..4,
    B_2j/(2j)! * s(s+1)...(s+2j-2) * N**(1-s-2j).  The first omitted
    term, with B_10, is below 1e-20 for every s >= 2, far under half
    an ulp of the result.
    """
    if s < 2:
        raise ValueError("zeta needs s >= 2")
    N = _ZETA_TERMS
    L = math.lcm(*range(1, N))
    total = Fraction(sum((L // k) ** s for k in range(1, N)), L**s)
    total += Fraction(1, (s - 1) * N ** (s - 1)) + Fraction(1, 2 * N**s)
    rising = s
    for j, coeff in enumerate(_ZETA_EM, start=1):
        total += coeff * Fraction(rising, N ** (s + 2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return float(total)


def compare_bounds(agg: SweepAggregate, d: int, r: int) -> BoundsReport:
    """Put sweep means next to the matching asymptotic bound curves.

    Purely descriptive: the curves hold in the x -> infinity limit with
    o(1) corrections, so no pass/fail judgment is attached.  Mean
    columns use the primed (composite-only) sums normalized by x; the
    geometric-mean columns use the log sums.
    """
    x = float(agg.x)
    if x < 3:
        raise ValueError("aggregate is empty")
    summary = agg.summary()
    lx = L_of(x)
    loglog = math.log(math.log(x))
    c1_val, c3_val = _series_sums(d, 10**5)
    zeta_note = ""
    if r >= 2:
        zeta_r = _zeta(r)
    else:
        zeta_r = math.inf
        zeta_note = "needs rounds >= 2"
    rows = (
        BoundsRow(
            "gal-mean-lower",
            _mean(agg.sum_Gal, x),
            _curve(x, 15 / 23, lx),
            "mean should sit above the curve for large x",
        ),
        BoundsRow(
            "gal-mean-upper",
            _mean(agg.sum_Gal, x),
            _curve(x, d, lx, 1),
            "curve carries a L(x)^(-1+o(1)) factor",
        ),
        BoundsRow(
            "mr-mean-lower",
            _mean(agg.sum_MR_r, x),
            _curve(x, r - 8 / 23, lx),
            "",
        ),
        BoundsRow(
            "mr-mean-upper",
            _mean(agg.sum_MR_r, x),
            _curve(x, r, lx, 1),
            "curve carries a L(x)^(-1+o(1)) factor; below the mr-mean-lower curve"
            " for 1.8e3 < x < 3.2e22, so compare exponents only",
        ),
        BoundsRow(
            "str-mean-lower",
            _mean(agg.sum_Str, x),
            _curve(x, r + 7 / 23, lx),
            "",
        ),
        BoundsRow(
            "str-mean-upper",
            _mean(agg.sum_Str, x),
            _curve(x, r + d, lx, 2, zeta_r),
            zeta_note or "curve carries a L(x)^(-2+o(1)) factor",
        ),
        BoundsRow(
            "mr-geometric-slope",
            2.0 * summary["sum_log_MR_r"] / x,
            r * (c1_val - 2.0 * math.log(2.0) / 3.0) * loglog,
            "slope term only; constant multiplier stays symbolic",
        ),
        BoundsRow(
            "h-geometric-slope",
            summary["sum_log_H"] / x,
            c3_val * loglog,
            "additive O(d^4) term omitted; covered n only",
        ),
    )
    coverage = (
        f"coverage: {summary['visited']} odd n visited, "
        f"{summary['composite']} composite, "
        f"{summary['covered_composite']} composite with conductor data, "
        f"{summary['skipped']} skipped"
    )
    return BoundsReport(x=agg.x, d=d, rounds=r, rows=rows, coverage_note=coverage)
