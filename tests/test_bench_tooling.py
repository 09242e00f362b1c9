"""The benchmark's tracer must keep finding the functions it wraps.

bench/spans.py looks each traced function up by name in the module that
calls it and binds recorded arguments by name, so a rename in the package
would otherwise only show when a traced benchmark run breaks.
"""

import importlib.util
import inspect
from pathlib import Path

from blockstep import analysis, harness
from blockstep.integrate import problem
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


def test_traced_cold_study_makes_one_reference_sweep():
    # The per-layer metrics count reference work by these span names; one
    # sweep per study must show as one rk4_reference span and no bootstrap.
    spans = _load_spans()
    tracer = spans.Tracer()
    study = tracer.op(harness.converge)
    study(builtin("S2"), problem("P2"), dts=(1 / 8, 1 / 16, 1 / 32))
    refs = [r for r in tracer.spans if r[spans.NAME] == "integrate.rk4_reference"]
    assert len(refs) == 1
    assert isinstance(refs[0][spans.ARG], float)
    assert not any(r[spans.NAME] == "integrate.bootstrap" for r in tracer.spans)
    calls, retries, distinct = tracer.reference_work()
    assert (calls, retries, distinct) == (1, 0, 1)
