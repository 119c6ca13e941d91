"""Command-line interface.

Verdict and summary lines go to stdout as key=value pairs; row data is
CSV (fixed header) or newline-delimited JSON mirroring the same
columns.  Exit codes: 0 for a completed run (whatever the verdict),
2 for invalid arguments, 3 when an oracle check finds a mismatch, 1
for a runtime failure (a typed error, an exceeded budget or an I/O
error), reported as one error: line on stderr.

The default seed comes from the WITNESSLAB_SEED environment variable
(0 when unset); --seed overrides it.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, galois, product, witness
from .analysis import AdversarialConfig, FixedEll, SmallestEll
from .galois import PerfectPower
from .numth import BudgetExceeded, is_prime, lcm_range
from .rng import SEED_BOUND, CounterRng


def _odd_prime(text: str) -> int:
    ell = int(text) if text.isdecimal() else 0
    if ell < 3 or not is_prime(ell):
        raise argparse.ArgumentTypeError(f"conductor must be an odd prime, got {text!r}")
    return ell


def _parse_ell_policy(text: str):
    if text.startswith("fixed:"):
        return FixedEll(_odd_prime(text.split(":", 1)[1]))
    if text == "smallest":
        return SmallestEll()
    if text.startswith("smallest:"):
        return SmallestEll(_int_at_least(3)(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"expected fixed:<ell> or smallest[:<max>], got {text!r}"
    )


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _seed(text: str) -> int:
    value = _int_at_least(0)(text)
    if value >= SEED_BOUND:
        raise argparse.ArgumentTypeError(f"expected a seed below 2**128, got {value}")
    return value


_seed.__name__ = "int"


def _parse_modulus(text: str) -> int:
    if text.startswith("lcm:"):
        try:
            return lcm_range(int(text.split(":", 1)[1]))
        except BudgetExceeded as exc:  # a RuntimeError, which argparse lets through
            raise argparse.ArgumentTypeError(str(exc)) from None
    return _int_at_least(1)(text)


def _odd_n(text: str) -> int:
    n = int(text)
    if n < 3 or n % 2 == 0:
        raise argparse.ArgumentTypeError("n must be odd and >= 3")
    return n


def _conductor_arg(text: str) -> int | None:
    return None if text == "auto" else _odd_prime(text)


def _emit(**fields) -> None:
    print(" ".join(f"{k}={v}" for k, v in fields.items() if v is not None))


def cmd_test(args) -> int:
    streams = CounterRng(args.seed)
    try:
        verdict = product.stronger_test(args.n, args.rounds, args.ell, streams)
    except PerfectPower as power:
        _emit(
            n=args.n,
            verdict="composite",
            reason="perfect-power",
            factor=power.base,
            exponent=power.exponent,
        )
        return 0
    fields = {"n": args.n, "verdict": verdict.outcome}
    if verdict.evidence is not None:
        kind, detail = verdict.evidence
        if kind == "factor":
            fields["factor"] = detail
        elif kind == "mr-round":
            fields["stage"] = "miller-rabin"
            fields["round"] = detail
        else:
            fields["stage"] = "galois"
    fields["rounds"] = args.rounds
    if args.ell is not None:
        fields["ell"] = args.ell
    fields["seed"] = streams.seed
    _emit(**fields)
    return 0


def cmd_count(args) -> int:
    rec = analysis.examine(args.n, args.rounds, args.ell)
    sys.stdout.write(analysis.CSV_HEADER + analysis.render_records([rec], "csv"))
    return 0


def cmd_sweep(args) -> int:
    # A rejected run must fail before open() truncates --out.
    analysis.check_sweep_args(args.max, args.rounds, args.ell, args.workers, args.format)
    try:
        handle = open(args.out, "w", newline="")
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    with handle:
        if args.format == "csv":
            handle.write(analysis.CSV_HEADER)
        agg = analysis.sweep(
            args.max,
            args.rounds,
            args.ell,
            workers=args.workers,
            record_sink=handle.write,
            row_format=args.format,
        )
    _emit(**agg.summary(), out=args.out)
    if isinstance(args.ell, FixedEll):
        report = analysis.compare_bounds(agg, args.ell.ell - 1, args.rounds)
        for line in report.render():
            print(line)
    else:
        print("bounds report: skipped (needs a fixed conductor, so d is constant)")
    return 0


def cmd_constants(args) -> int:
    c1_val, c1_tail = analysis.eval_c1(args.bound)
    c3_val, c3_tail = analysis.eval_c3(args.d, args.bound)
    _emit(c1=repr(c1_val), tail=repr(c1_tail), bound=args.bound)
    _emit(c3=repr(c3_val), d=args.d, tail=repr(c3_tail), bound=args.bound)
    return 0


def cmd_adversary(args) -> int:
    cfg = AdversarialConfig(
        M=args.M,
        prime_bound=args.pool_bound,
        cutoff=args.cutoff,
        k=args.k,
        q_search_limit=args.q_limit,
    )
    streams = CounterRng(args.seed)
    outcome = analysis.adversarial_generate(cfg, streams)
    _emit(
        n=outcome.n,
        s=outcome.s,
        q=outcome.q,
        floor=outcome.predicted_floor,
        chosen=",".join(str(p) for p in outcome.chosen),
        pool=",".join(str(p) for p in outcome.pool),
        M=cfg.M,
        seed=streams.seed,
    )
    return 0


def cmd_oracle_check(args) -> int:
    mismatches = 0
    for n in range(3, args.max + 1, 2):
        if args.suite == "f":
            formula, brute = witness.count_F(n), witness.brute_F(n)
        elif args.suite == "mr":
            formula, brute = witness.count_MR(n), witness.brute_MR(n)
        else:
            if galois.conductor_failure(n, 3) is not None:
                continue
            formula, brute = galois.count_Gal(n, 3), galois.brute_Gal(n, 3)
        status = "pass" if formula == brute else "fail"
        if status == "fail":
            mismatches += 1
        _emit(n=n, suite=args.suite, formula=formula, brute=brute, status=status)
    if mismatches:
        print(f"error: {mismatches} oracle mismatches", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesslab",
        description="Exact bad-witness counts for compositeness tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the combined Miller-Rabin + Galois test")
    p.add_argument("n", type=_odd_n)
    p.add_argument("--rounds", type=_int_at_least(0), default=2, help="Miller-Rabin rounds")
    p.add_argument("--ell", type=_conductor_arg, default="auto", help="conductor: auto or an odd prime")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("count", help="exact counts for one n as a CSV row")
    p.add_argument("n", type=_odd_n)
    p.add_argument("--rounds", type=_int_at_least(0), default=2)
    p.add_argument("--ell", type=_parse_ell_policy, default="smallest",
                   help="fixed:<ell> or smallest[:<max>]")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sweep", help="counts for every odd n up to a bound")
    p.add_argument("--max", type=_int_at_least(3), required=True)
    p.add_argument("--rounds", type=_int_at_least(0), default=2)
    p.add_argument("--ell", type=_parse_ell_policy, default="fixed:3",
                   help="fixed:<ell> or smallest[:<max>]")
    p.add_argument("--out", required=True, help="row output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="series constants with tail majorants")
    p.add_argument("--d", type=_int_at_least(1), default=2, help="extension degree")
    p.add_argument("--bound", type=_int_at_least(2), default=10**5, help="prime-power cutoff")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("adversary", help="build n with a guaranteed witness floor")
    p.add_argument(
        "--M",
        type=_parse_modulus,
        default=lcm_range(12),
        help="modulus, or lcm:<B> for lcm(1..B); B must be below --pool-bound, "
        "since every prime up to B divides lcm(1..B) and so never enters the pool",
    )
    p.add_argument("--pool-bound", type=_int_at_least(2), default=200)
    p.add_argument("--cutoff", type=_int_at_least(0), default=5)
    p.add_argument("--k", type=_int_at_least(1), default=3)
    p.add_argument("--q-limit", type=_int_at_least(2), default=10**6)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("oracle-check", help="closed forms against enumeration")
    p.add_argument("--suite", choices=("f", "mr", "gal"), required=True)
    p.add_argument("--max", type=_int_at_least(3), required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # Str = MR**rounds * Gal can pass 4300 digits
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
