"""The benchmark's tracer must keep finding the functions it wraps, and its
workloads must keep calling the package the way they do.

bench/spans.py looks each traced function up by name in the module that
calls it and binds recorded arguments by name, and bench/workloads.py calls
integrate.bootstrap and integrate.step with fixed arguments, so a rename or
a signature change in the package would otherwise only show when a
benchmark run breaks.
"""

import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from blockstep import analysis, derive, harness
from blockstep.integrate import PROBLEM_NAMES, problem
from blockstep.scheme import BUILTIN_NAMES, builtin

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_warm_every_scheme_on_every_problem():
    # _warm_float_tables runs bootstrap(..., n_sub=1) and one step per pair.
    workloads = _load("workloads")
    ctx = workloads.Context({name: builtin(name) for name in BUILTIN_NAMES},
                            {name: problem(name) for name in PROBLEM_NAMES})
    workloads._warm_float_tables(ctx)


def test_tracer_finds_every_traced_function_and_argument():
    spans = _load("spans")
    spans.Tracer()
    for _, mod, attr, _, arg in spans.PATCHES:
        if arg is not None:
            fn = getattr(spans._MODULES[mod], attr)
            assert arg in inspect.signature(fn).parameters, (attr, arg)


def test_traced_stability_scan_counts_its_grid_points():
    spans = _load("spans")
    tracer = spans.Tracer()
    original = analysis.stability_scan
    with tracer.patched():
        analysis.stability_scan(builtin("S2"), (-1.0, 0.0), (-1.0, 1.0), 3)
    assert analysis.stability_scan is original
    assert tracer.points() == 9


def test_traced_cold_study_makes_one_reference_sweep():
    # The per-layer metrics count reference work by these span names; one
    # sweep per study must show as one rk4_reference span and no bootstrap.
    spans = _load("spans")
    tracer = spans.Tracer()
    study = tracer.op(harness.converge)
    study(builtin("S2"), problem("P2"), dts=(1 / 8, 1 / 16, 1 / 32))
    refs = [r for r in tracer.spans if r[spans.NAME] == "integrate.rk4_reference"]
    assert len(refs) == 1
    assert isinstance(refs[0][spans.ARG], float)
    assert not any(r[spans.NAME] == "integrate.bootstrap" for r in tracer.spans)
    calls, retries, distinct = tracer.reference_work()
    assert (calls, retries, distinct) == (1, 0, 1)


def test_traced_study_is_one_march_and_no_step():
    # bench/spans.py times a study's kernel through the "integrate.integrate"
    # span on harness.run_integration, the lockstep march that returns every
    # block of every dt; a study makes that one call and never calls step.
    spans = _load("spans")
    tracer = spans.Tracer()
    study = tracer.op(harness.converge)
    report = study(builtin("S3A"), problem("P1"))
    names = [r[spans.NAME] for r in tracer.spans]
    assert names.count("integrate.integrate") == 1
    assert "integrate.step" not in names
    assert len(report.global_err) == len(harness.STANDARD_DTS)


def test_traced_searches_eliminate_once_and_never_call_the_constraint():
    # A search gets the constraint's whole row from one elimination of the
    # Vandermonde matrix: one exact.solve_linear span, and no
    # derive.eis_constraint call for the row or for the root.
    spans = _load("spans")
    for search in (lambda: derive.search_s2((1, 0)),
                   lambda: derive.search_s3_slice(0, Fraction(467, 768), (-3, 3))):
        tracer = spans.Tracer()
        with tracer.patched():
            assert len(search()) == 1
        assert tracer.counts["derive.eis_constraint"] == 0
        names = [r[spans.NAME] for r in tracer.spans]
        assert names.count("exact.solve_linear") == 1
