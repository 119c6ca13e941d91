"""Span tracer for witnesslab's public functions, installed from outside.

The tracer replaces each traced function at every binding site: the
defining module, every witnesslab module that copied the name with
``from .numth import factorize``, and the package namespace.  Methods
are replaced on their class.  ``analysis.sweep`` is wrapped so that the
CLI's ``record_sink`` is timed as ``cli.sink``, and the sweep's chunk
function ships the spans of forked pool workers back through files.

Spans are not kept one by one: each finished span is folded into an
aggregate keyed by (phase, parent span name, span name), holding the
call count, the total time and the self time (the span's duration minus
the time covered by its child spans).  ``restore`` puts every original
binding back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes patch the class.
TRACED = (
    ("numth", "factorize", "numth.factorize"),
    ("numth", "is_prime", "numth.is_prime"),
    ("numth", "is_perfect_power", "numth.is_perfect_power"),
    ("witness", "count_F", "witness.count_F"),
    ("witness", "count_MR", "witness.count_MR"),
    ("witness", "mr_witness", "witness.mr_witness"),
    ("galois", "find_conductor", "galois.find_conductor"),
    ("galois", "conductor_failure", "galois.conductor_failure"),
    ("galois", "local_data", "galois.local_data"),
    ("galois", "count_Gal", "galois.count_Gal"),
    ("galois", "count_D", "galois.count_D"),
    ("galois", "count_H", "galois.count_H"),
    ("galois", "cofactor_k", "galois.cofactor_k"),
    ("galois", "ring_mul", "galois.ring_mul"),
    ("galois", "ring_pow", "galois.ring_pow"),
    ("galois", "sigma_apply", "galois.sigma_apply"),
    ("galois", "invertibility", "galois.invertibility"),
    ("galois", "galois_test", "galois.galois_test"),
    ("product", "stronger_test", "product.stronger_test"),
    ("rng", "CounterRng.stream", "rng.stream"),
    ("analysis", "examine", "analysis.examine"),
    ("analysis", "SweepAggregate.add_record", "analysis.add_record"),
    ("analysis", "SweepAggregate.merge", "analysis.merge"),
    ("analysis", "compare_bounds", "cli.bounds_report"),
)
SWEEP_SPAN = "analysis.sweep"
SINK_SPAN = "cli.sink"
CHUNK_SPAN = "analysis.chunk"
PACKAGE = "witnesslab"


class Tracer:
    """Aggregated spans for the calls made while installed."""

    def __init__(self, dump_dir: str | os.PathLike | None = None):
        self.owner_pid = os.getpid()
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.phase = "workload"
        self.stats: dict[tuple[str, str | None, str], list] = {}
        self.hits: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._worker_pid: int | None = None

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.phase, parent[0] if parent is not None else None, name)
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child

    @contextlib.contextmanager
    def span(self, name: str, phase: str | None = None):
        """A root (or nested) span around benchmark code, in a phase."""
        previous = self.phase
        if phase is not None:
            self.phase = phase
        self._enter(name)
        try:
            yield
        finally:
            self._exit()
            self.phase = previous

    def wrap(self, fn, name: str):
        """fn timed as span `name`; lru_cache hits are counted too."""
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info().hits if cache_info is not None else 0
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
                if cache_info is not None and cache_info().hits > before:
                    key = (self.phase, name)
                    self.hits[key] = self.hits.get(key, 0) + 1

        return traced

    # -- installation -----------------------------------------------------

    def _bind_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _bind_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in {"numth", "witness", "galois", "product", "rng", "analysis", "cli"}
        }
        for mod_name, attr, span_name in TRACED:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._bind_attr(cls, meth, self.wrap(vars(cls)[meth], span_name))
            else:
                original = getattr(module, attr)
                self._bind_everywhere(original, self.wrap(original, span_name))
        analysis = modules["analysis"]
        self._bind_everywhere(analysis.sweep, self._wrap_sweep(analysis.sweep))
        self._bind_attr(analysis, "_process_chunk", self._wrap_chunk(analysis._process_chunk))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap_sweep(self, sweep):
        traced_sweep = self.wrap(sweep, SWEEP_SPAN)

        @functools.wraps(sweep)
        def sweep_with_sink(*args, **kwargs):
            if len(args) > 4:
                args = (*args[:4], self.wrap(args[4], SINK_SPAN), *args[5:])
            elif kwargs.get("record_sink") is not None:
                kwargs["record_sink"] = self.wrap(kwargs["record_sink"], SINK_SPAN)
            return traced_sweep(*args, **kwargs)

        return sweep_with_sink

    def _wrap_chunk(self, chunk_fn):
        traced_chunk = self.wrap(chunk_fn, CHUNK_SPAN)

        # The pool pickles this wrapper by name (module + qualname from
        # functools.wraps) and a forked worker finds it as the patched
        # module attribute, so the worker runs it with its own copy of
        # the tracer.  That copy starts empty and rewrites its file after
        # every chunk, because pool workers end without a hook.
        @functools.wraps(chunk_fn)
        def chunk_in_any_process(args):
            pid = os.getpid()
            if pid == self.owner_pid:
                return traced_chunk(args)
            if self._worker_pid != pid:
                self._worker_pid = pid
                self.stats, self.hits, self._stack = {}, {}, []
            result = traced_chunk(args)
            if self.dump_dir is not None:
                self._dump(self.dump_dir / f"worker-{pid}.json")
            return result

        return chunk_in_any_process

    # -- results ----------------------------------------------------------

    def _dump(self, path: Path) -> None:
        payload = {
            "stats": [[*key, *value] for key, value in self.stats.items()],
            "hits": [[*key, value] for key, value in self.hits.items()],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def absorb_worker_dumps(self) -> int:
        """Fold the files written by forked workers into these stats."""
        if self.dump_dir is None:
            return 0
        files = sorted(self.dump_dir.glob("worker-*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            for phase, parent, name, calls, total, self_time in payload["stats"]:
                entry = self.stats.setdefault((phase, parent, name), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
            for phase, name, hits in payload["hits"]:
                self.hits[(phase, name)] = self.hits.get((phase, name), 0) + hits
            path.unlink()
        return len(files)

    def totals(self, phase: str | None = None) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, cache_hits (one phase or all)."""
        out: dict[str, dict] = {}
        for (ph, _parent, name), (calls, total, self_time) in self.stats.items():
            if phase is not None and ph != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cache_hits": 0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_time
        for (ph, name), hits in self.hits.items():
            if (phase is None or ph == phase) and name in out:
                out[name]["cache_hits"] += hits
        return out

    def edges(self) -> list[dict]:
        """Every (phase, parent, span) aggregate, for the trace file."""
        return [
            {"phase": ph, "parent": parent, "span": name, "calls": c, "total_s": t, "self_s": s}
            for (ph, parent, name), (c, t, s) in sorted(
                self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or "", kv[0][2])
            )
        ]
