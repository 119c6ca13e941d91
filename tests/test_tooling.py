"""bench/ names package functions as strings and pins sweep digests; each must still hold.

A name deleted from the package would otherwise break `bench/run.py
--trace 1`, and a change to the sweep rows its digest check, only when
the benchmark runs.  Each argument rule the package shares is raised
from one owner only, so a copy added back fails here.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import witnesslab
from witnesslab import analysis, cli, numth

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "witnesslab"


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
    positional argument, and analysis._process_chunk, each worker's chunk function."""
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


def _package_exceptions() -> set[str]:
    names = ["witnesslab" if path.stem == "__init__" else f"witnesslab.{path.stem}" for path in SRC.glob("*.py")]
    modules = [importlib.import_module(name) for name in names]
    return {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__.startswith("witnesslab")
    }


def _constant_text(message: ast.expr) -> str | None:
    """A literal message's text, an f-string's with {} for each value; None for any other."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in message.values)
    return None


def _raise_places() -> dict[str, list[str]]:
    """Each literal message of a ValueError, a TypeError or a package
    exception, with the places that raise it.  An f-string is keyed by its
    constant text."""
    raised = ("ValueError", "TypeError", *_package_exceptions())
    places: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            func = node.exc.func
            text = _constant_text(node.exc.args[0])
            if getattr(func, "id", getattr(func, "attr", None)) in raised and text is not None:
                places.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    return places


def _raises_naming(words: str) -> list[str]:
    """The places that raise an exception whose arguments' source matches `words`."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and any(re.search(words, ast.unparse(arg)) for arg in node.exc.args)
    ]


@pytest.mark.parametrize(
    ("words", "count"),
    [
        pytest.param("n must be odd", 1, id="n must be odd and >= 3"),
        pytest.param(r"\br must be", 0, id="r must be >= 0"),
        pytest.param("row_format must be", 1, id="row_format must be"),
        pytest.param(r"gcd\(", 1, id="gcd(a, n) > 1"),
    ],
)
def test_each_argument_rule_is_raised_in_one_place(words, count):
    """Every literal message is raised in one place: a rule's owner, which
    every other site calls.  numth._odd_n, analysis._row_template and
    numth._coprime are the one raise naming their rule; r's rule has no
    raise of its own, as numth._rounds binds it to numth._at_least."""
    places = _raise_places()
    assert {text: at for text, at in places.items() if len(at) > 1} == {}
    assert len(_raises_naming(words)) == count, _raises_naming(words)
    if not count:
        assert (numth._rounds.func, numth._rounds.args) == (numth._at_least, ("r", 0))
