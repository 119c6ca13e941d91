"""bench/ names package functions as strings and pins sweep digests; each must still hold.

A name deleted from the package would otherwise break `bench/run.py
--trace 1`, and a change to the sweep rows its digest check, only when
the benchmark runs.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import witnesslab
from witnesslab import analysis, cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, attr, _span in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_sweep_bindings_the_tracer_wraps():
    """The tracer also wraps analysis.sweep, finding record_sink as its fifth
    positional argument, and analysis._process_chunk, the pool's chunk function."""
    assert callable(analysis.sweep) and callable(analysis._process_chunk)
    params = list(inspect.signature(analysis.sweep).parameters.values())
    assert params[4].name == "record_sink"
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:5])
    assert [p.name for p in inspect.signature(analysis._process_chunk).parameters.values()] == ["args"]
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sweep, chunk = analysis.sweep, analysis._process_chunk
    installed = tracer.Tracer().install()
    try:
        assert analysis.sweep is not sweep and analysis._process_chunk is not chunk
    finally:
        installed.restore()
    assert analysis.sweep is sweep and analysis._process_chunk is chunk


@pytest.mark.parametrize("workload", ["sweep-fixed3", "sweep-smallest-w2"])
def test_the_benchmark_sweep_digests_hold(monkeypatch, tmp_path, capsys, workload):
    """bench/run.py checks each sweep's --out bytes against a pinned sha256;
    a change to the rows fails here before it fails the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    wl = run.WORKLOADS[workload]
    out = tmp_path / "sweep.csv"
    assert cli.main([*wl.argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == wl.sha256


def test_the_oracles_the_benchmark_checks_with_resolve():
    """bench/checks.py imports brute_F, brute_MR and brute_Gal from the package
    and calls them as (n), (n) and (n, ell)."""
    tree = ast.parse(CHECKS.read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "witnesslab"
        for alias in node.names
    }
    calls = {"brute_F": (9,), "brute_MR": (9,), "brute_Gal": (5, 3)}
    assert imported == set(calls)
    for name, args in calls.items():
        oracle = getattr(witnesslab, name)
        inspect.signature(oracle).bind(*args)
        assert isinstance(oracle(*args), int), name
