"""bench/tracer.py names package functions as strings; each must still resolve.

A name deleted from the package would otherwise break `bench/run.py
--trace 1` only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
