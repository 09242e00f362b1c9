"""The benchmark's tracer must keep finding the functions it wraps.

bench/spans.py looks each traced function up by name in the module that
calls it and binds recorded arguments by name, so a rename in the package
would otherwise only show when a traced benchmark run breaks.
"""

import importlib.util
import inspect
from pathlib import Path

from blockstep import analysis
from blockstep.scheme import builtin

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_function_and_argument():
    spans = _load_spans()
    spans.Tracer()
    for _, mod, attr, _, arg in spans.PATCHES:
        if arg is not None:
            fn = getattr(spans._MODULES[mod], attr)
            assert arg in inspect.signature(fn).parameters, (attr, arg)


def test_traced_stability_scan_counts_its_grid_points():
    spans = _load_spans()
    tracer = spans.Tracer()
    original = analysis.stability_scan
    with tracer.patched():
        analysis.stability_scan(builtin("S2"), (-1.0, 0.0), (-1.0, 1.0), 3)
    assert analysis.stability_scan is original
    assert tracer.points() == 9
