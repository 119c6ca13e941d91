"""One timed run of witnesslab in a fresh interpreter.

    python3 bench/child.py <mode> <spec.json> <result.json>

Modes:
  setup  time `import witnesslab` and the first calls (the ready probe)
  sweep  call `cli.main(["sweep", ...])` once, timed from entry to return
  test   closed loop of `stronger_test` calls under a per-call deadline

The spec names the source root, the workload arguments and, with
"trace", a directory for the tracer's worker files.  A traced child runs
the ready probe first, inside the trace, so every traced layer is
entered at least once in every workload.  Untraced children never run
the probe before their timed work: they start cold, as a CLI user does.
"""

from __future__ import annotations

import array
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_PRIME = 1000003
CAL_EVERY_S = 0.25
OUTCOMES = ("probably-prime", "composite", None)


def _calibration_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
        if i % 64 == 0:
            total += pow(i | 1, 0xFFFFFFFFFFF, (1 << 61) - 1) & 1
    return total


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    On a shared machine the speed of a core drifts by half or more for
    seconds to tens of seconds at a time, and a sweep or a test call slows
    down with it in the same proportion, so timings are reported scaled
    by this.  The test loop calibrates between its calls, and a sweep
    from a timer signal in the processes that do its work (Ticker).
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


class Deadline(Exception):
    """Raised by SIGALRM when one operation outlives its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def ready_probe(cli, out_path: str) -> None:
    """One minimal call of each product: a tiny sweep and one test."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["sweep", "--max", "99", "--out", out_path]) != 0:
            raise RuntimeError("probe sweep failed")
        if cli.main(["test", str(PROBE_PRIME), "--seed", "0"]) != 0:
            raise RuntimeError("probe test failed")


def _peak_rss_kb() -> tuple[int, int]:
    """(this process, largest waited-for child) peak resident set in KiB.

    ru_maxrss of this process survives exec, so it would report the
    benchmark parent's size at the fork; VmHWM starts afresh at exec.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, workers


def run_setup(spec: dict) -> dict:
    before = calibration_s()
    start = time.perf_counter()
    import witnesslab  # noqa: F401
    from witnesslab import cli

    imported = time.perf_counter()
    ready_probe(cli, spec["probe_out"])
    ready = time.perf_counter()
    return {
        "import_s": imported - start,
        "first_call_s": ready - imported,
        "calibrations": [before, calibration_s()],
    }


def _maybe_tracer(spec: dict, cli):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer(spec["trace_dir"]).install()
    with tracer.span("setup.first_call", phase="probe"):
        ready_probe(cli, spec["probe_out"])
    return tracer


def _trace_result(tracer) -> dict | None:
    if tracer is None:
        return None
    tracer.restore()
    tracer.absorb_worker_dumps()
    return {"all": tracer.totals(), "workload": tracer.totals("workload"), "edges": tracer.edges()}


class Ticker:
    """Calibrates every CAL_EVERY_S from a timer signal, on the core of this process.

    The work of the process stops while the loop runs, so the time it
    takes (`spent`) is taken out of the work's wall time.  In a pool
    worker, `dump` names a file rewritten after every tick, because pool
    workers end without a hook.
    """

    def __init__(self, dump: Path | None = None):
        self.calibrations: list[float] = []
        self.spent = 0.0
        self.dump = dump

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        tick = time.perf_counter()
        self.calibrations.append(calibration_s(repeats=3))
        self.spent += time.perf_counter() - tick
        if self.dump is not None:
            tmp = self.dump.with_suffix(".tmp")
            tmp.write_text(json.dumps({"calibrations": self.calibrations, "spent": self.spent}))
            os.replace(tmp, self.dump)


def run_sweep(spec: dict) -> dict:
    from witnesslab import cli

    tracer = _maybe_tracer(spec, cli)
    out = io.StringIO()
    # An untraced sweep calibrates where its work runs: in a serial sweep
    # in this process, in a pool sweep in each forked worker, never in a
    # waiting parent, which would compete with the workers for the cores.
    # In a traced run the ticks' time would land in an open span.
    ticker = Ticker()
    cal_dir = Path(spec["cal_dir"])
    if tracer is None and spec["workers"] > 1:
        def start_worker_ticker():
            Ticker(cal_dir / f"worker-{os.getpid()}.json").start()

        os.register_at_fork(after_in_child=start_worker_ticker)
    calibrations = [calibration_s()]
    root = tracer.span("workload", phase="workload") if tracer else contextlib.nullcontext()
    with root, contextlib.redirect_stdout(out):
        if tracer is None and spec["workers"] == 1:
            ticker.start()
        start = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        finally:
            wall = time.perf_counter() - start
            ticker.stop()
    # Pool workers pause for their own ticks independently, so the pool
    # loses the mean of their tick times.
    workers = [json.loads(path.read_text()) for path in sorted(cal_dir.glob("worker-*.json"))]
    spent = statistics.fmean(w["spent"] for w in workers) if workers else ticker.spent
    calibrations += ticker.calibrations + [c for w in workers for c in w["calibrations"]]
    calibrations.append(calibration_s())
    own, largest_worker = _peak_rss_kb()
    return {
        "exit_code": code,
        "wall_s": wall - spent,
        "calibrations": calibrations,
        "stdout": out.getvalue(),
        "rss_self_kb": own,
        "rss_workers_kb": largest_worker,
        "trace": _trace_result(tracer),
    }


def run_test(spec: dict) -> dict:
    from witnesslab import cli
    from witnesslab.rng import CounterRng

    cases = json.loads(Path(spec["inputs"]).read_text())["cases"]
    limit = spec.get("max_ops") or len(cases)
    deadline = spec["deadline_s"]
    rounds = spec["rounds"]
    tracer = _maybe_tracer(spec, cli)
    from witnesslab import stronger_test  # after the tracer, which rebinds it

    signal.signal(signal.SIGALRM, _on_alarm)
    # Compact per-call records, so that the harness adds little to peak RSS.
    latencies = array.array("d")
    windows = array.array("I")
    outcomes = bytearray()  # index into OUTCOMES
    factors: dict[int, str] = {}
    failures: dict[int, str] = {}
    # Calibrations run between calls, every CAL_EVERY_S, outside the timing.
    calibrations = [calibration_s()]
    busy = 0.0
    next_calibration = time.perf_counter() + CAL_EVERY_S
    root = tracer.span("workload", phase="workload") if tracer else contextlib.nullcontext()
    with root:
        for index, (n_text, seed_i) in enumerate(cases[:limit]):
            n = int(n_text)
            outcome = len(OUTCOMES) - 1
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    verdict = stronger_test(n, rounds, None, CounterRng(seed_i))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                outcome = OUTCOMES.index(verdict.outcome)
                if verdict.evidence is not None and verdict.evidence[0] == "factor":
                    factors[index] = str(verdict.evidence[1])
            except Deadline:
                failures[index] = "timeout"
            except Exception as exc:  # every failure mode counts, by type
                failures[index] = f"error:{type(exc).__name__}"
            now = time.perf_counter()
            latencies.append(now - start)
            windows.append(len(calibrations) - 1)
            outcomes.append(outcome)
            busy += now - start
            if spec["seconds"] is not None and busy >= spec["seconds"]:
                break
            if now >= next_calibration:
                calibrations.append(calibration_s(repeats=3))
                next_calibration = time.perf_counter() + CAL_EVERY_S
    calibrations.append(calibration_s())
    own, _ = _peak_rss_kb()
    return {
        "latencies": latencies.tolist(),
        "windows": windows.tolist(),
        "outcomes": [OUTCOMES[i] for i in outcomes],
        "factors": factors,
        "failures": failures,
        "calibrations": calibrations,
        "rss_self_kb": own,
        "rss_workers_kb": 0,
        "trace": _trace_result(tracer),
    }


def main(argv: list[str]) -> int:
    mode, spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    runner = {"setup": run_setup, "sweep": run_sweep, "test": run_test}[mode]
    result = runner(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
