"""Command-line interface.

Verdict and summary lines go to stdout as key=value pairs; row data is
CSV (fixed header) or newline-delimited JSON mirroring the same
columns.  Exit codes: 0 for a completed run (whatever the verdict),
2 for invalid arguments, 3 when an oracle check finds a mismatch, 1
for a runtime failure (a typed error, an exceeded budget or an I/O
error) and 130 for Ctrl-C, reported as one error: line on stderr; 141,
with no error line, when stdout is a pipe whose reader has closed it.

The default seed comes from the WITNESSLAB_SEED environment variable
(0 when unset); --seed overrides it.  Every integer option is parsed
by _checked_by, so a non-integer always reads "invalid int value".
Only the library owner of a rule checks it (numth._odd_n and
_at_least's rules, CounterRng, FixedEll, SmallestEll, lcm_range and
AdversarialConfig), so each rule has one message and the CLI keeps only
its grammar.  sweep replaces --out only when it completes; a --out that
is not a regular file, such as /dev/null, is written in place, and one
that is stdout's own file is written through sys.stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import tempfile

from . import analysis, galois, numth, product, witness
from .analysis import AdversarialConfig, FixedEll, SmallestEll
from .galois import PerfectPower
from .numth import BudgetExceeded, lcm_range
from .rng import CounterRng


def _checked_by(owner):
    """argparse type owner(int(text)); owner's ValueError or BudgetExceeded
    (a RuntimeError, which argparse lets through) is a usage error."""

    def parse(text: str):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        try:
            return owner(value)
        except (ValueError, BudgetExceeded) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_fixed_ell = _checked_by(FixedEll)


def _parse_ell_policy(text: str):
    kind, colon, arg = text.partition(":")
    if kind == "fixed" and colon:
        return _fixed_ell(arg)
    if kind == "smallest":
        return _checked_by(SmallestEll)(arg) if colon else SmallestEll()
    raise argparse.ArgumentTypeError(
        f"expected fixed:<ell> or smallest[:<max>], got {text!r}"
    )


def _parse_modulus(text: str) -> int:
    if text.startswith("lcm:"):
        return _checked_by(lcm_range)(text.split(":", 1)[1])
    return _checked_by(analysis._modulus)(text)


def _conductor_arg(text: str) -> int | None:
    return None if text == "auto" else _fixed_ell(text).ell


def _emit(**fields) -> None:
    print(" ".join(f"{k}={v}" for k, v in fields.items() if v is not None))


def cmd_test(args) -> int:
    streams = CounterRng.coerce(args.seed)
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


def _open_out(path: str):
    """(handle, temporary path) for --out: a new file in its directory,
    with the mode open(path, "w") would leave, or path itself (temporary
    path None) where path is there and not a regular file.  Where path
    is stdout's own file, the handle is sys.stdout, left open: a second
    open (of /dev/stdout sent to a file) would write from offset 0, and
    the summary would overwrite the rows."""
    with contextlib.suppress(OSError, ValueError):  # ValueError: stdout has no descriptor
        if os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno())):
            return contextlib.nullcontext(sys.stdout), None
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        return open(path, "w", newline=""), None
    directory, name = os.path.split(path)
    fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    try:
        os.chmod(temp, stat.S_IMODE(mode))
        return open(fd, "w", newline=""), temp
    except BaseException:
        os.close(fd)
        os.remove(temp)
        raise


def cmd_sweep(args) -> int:
    try:
        handle, temp = _open_out(args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    try:
        with handle as out:
            if args.format == "csv":
                out.write(analysis.CSV_HEADER)
            agg = analysis.sweep(
                args.max,
                args.rounds,
                args.ell,
                workers=args.workers,
                record_sink=out.write,
                row_format=args.format,
            )
        summary = agg.summary()
        if temp is not None:
            os.replace(temp, args.out)
    except BaseException:  # Ctrl-C included: --out keeps its old bytes
        if temp is not None:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    _emit(**summary, out=args.out)
    if isinstance(args.ell, FixedEll):
        report = analysis.compare_bounds(agg, args.ell.ell - 1)
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
    streams = CounterRng.coerce(args.seed)
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
    p.add_argument("n", type=_checked_by(numth._odd_n))
    p.add_argument("--rounds", type=_checked_by(numth._rounds), default=2, help="Miller-Rabin rounds")
    p.add_argument("--ell", type=_conductor_arg, default="auto", help="conductor: auto or an odd prime")
    p.add_argument("--seed", type=_checked_by(CounterRng), default=None)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("count", help="exact counts for one n as a CSV row")
    p.add_argument("n", type=_checked_by(numth._odd_n))
    p.add_argument("--rounds", type=_checked_by(numth._rounds), default=2)
    p.add_argument("--ell", type=_parse_ell_policy, default="smallest",
                   help="fixed:<ell> or smallest[:<max>]")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sweep", help="counts for every odd n up to a bound")
    p.add_argument("--max", type=_checked_by(analysis._x_max), required=True)
    p.add_argument("--rounds", type=_checked_by(numth._rounds), default=2)
    p.add_argument("--ell", type=_parse_ell_policy, default="fixed:3",
                   help="fixed:<ell> or smallest[:<max>]")
    p.add_argument("--out", required=True, help="row output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=_checked_by(analysis._workers), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="series constants with tail majorants")
    p.add_argument("--d", type=_checked_by(analysis._degree), default=2, help="extension degree")
    p.add_argument("--bound", type=_checked_by(analysis._series_bound), default=10**5, help="prime-power cutoff")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("adversary", help="build n with a guaranteed witness floor")
    p.add_argument(
        "--M",
        type=_parse_modulus,
        default=lcm_range(12),
        help="modulus, or lcm:<B> for lcm(1..B); B must be below --pool-bound, "
        "since every prime up to B divides lcm(1..B) and so never enters the pool",
    )
    p.add_argument("--pool-bound", type=_checked_by(analysis._prime_bound), default=200)
    p.add_argument("--cutoff", type=_checked_by(analysis._cutoff), default=5)
    p.add_argument("--k", type=_checked_by(analysis._pool_size), default=3)
    p.add_argument("--q-limit", type=_checked_by(analysis._q_limit), default=10**6)
    p.add_argument("--seed", type=_checked_by(CounterRng), default=None)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("oracle-check", help="closed forms against enumeration")
    p.add_argument("--suite", choices=("f", "mr", "gal"), required=True)
    p.add_argument("--max", type=_checked_by(analysis._x_max), required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # Str = MR**rounds * Gal can pass 4300 digits
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # stdout's reader has gone.  Point fd 1 at /dev/null, so that the
        # flush at exit cannot fail again, and end as a pipe writer that
        # SIGPIPE killed would, but without the signal.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, ArithmeticError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # cmd_sweep has removed its temporary file, sweep reaped its workers
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
