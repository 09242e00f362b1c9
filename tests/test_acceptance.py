"""Acceptance gate: one test per headline capability, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the gate lines; each
test also enforces its wall-clock budget.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from blockstep.analysis import (
    residual_vector,
    spectral_radius,
    verify_conditions,
)
from blockstep.derive import search_s2, solve_B
from blockstep.exact import dot
from blockstep.harness import converge
from blockstep.integrate import integrate, make_problem, problem
from blockstep.scheme import BUILTIN_NAMES, builtin

from _oracle_util import (
    random_scheme,
    scheme_residual_on_polynomial,
    taylor_residual_on_polynomial,
)


def _gate(num, desc, ok, elapsed, budget):
    line = (
        f"[{'PASS' if ok and elapsed < budget else 'FAIL'}] "
        f"acceptance {num}: {desc} ({elapsed:.2f} s, budget {budget:g} s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_acceptance_1_exact_residuals():
    t0 = time.perf_counter()
    zero2 = (F(0), F(0))
    zero3 = (F(0), F(0), F(0))
    ok = (
        residual_vector(builtin("S2"), 1) == zero2
        and residual_vector(builtin("S2"), 2) == zero2
        and residual_vector(builtin("S2"), 3) == (F(161, 576), F(23, 576))
        and residual_vector(builtin("BUTCHER2"), 3) == (F(23, 48), F(1, 16))
        and residual_vector(builtin("S3A"), 4)
        == (F(43699, 373248), F(12787, 373248), F(2227, 373248))
        and residual_vector(builtin("S3B"), 4)
        == (F(115733, 991440), F(33623, 991440), F(5573, 991440))
        and residual_vector(builtin("S3C"), 4)
        == (F(5303, 46656), F(1439, 46656), F(119, 46656))
        and all(
            residual_vector(builtin(name), p) == zero3
            for name in ("S3A", "S3B", "S3C")
            for p in (1, 2, 3)
        )
    )
    _gate(1, "residual vectors match the frozen reference tables exactly", ok,
          time.perf_counter() - t0, 1.0)


def test_acceptance_2_condition_verification():
    t0 = time.perf_counter()
    ok = True
    for name in ("S2", "S3A", "S3B", "S3C"):
        rep = verify_conditions(builtin(name))
        ok = ok and rep.all_pass and rep.eis_residual == 0
    rep = verify_conditions(builtin("BUTCHER2"))
    ok = (
        ok
        and rep.conditions["C1"].passed
        and rep.conditions["C2"].passed
        and rep.conditions["C3"].passed
        and rep.conditions["C4"].passed is False
        and rep.eis_residual == F(19, 24)
    )
    _gate(2, "C1-C4 verification separates the schemes exactly", ok,
          time.perf_counter() - t0, 1.0)


def test_acceptance_3_derivation_roundtrip():
    t0 = time.perf_counter()
    B = solve_B((F(-1, 6), F(7, 6)), (F(1, 2), F(0)))
    roots = search_s2((F(1, 2), F(0)), a1_range=(-2, 2))
    ok = (
        B == builtin("S2").B
        and [r.param for r in roots] == [F(-1, 6)]
        and roots[0].exact
    )
    _gate(3, "coefficient solve and constraint search recover the two-step scheme",
          ok, time.perf_counter() - t0, 1.0)


def test_acceptance_4_superconvergence_on_p1():
    t0 = time.perf_counter()
    eis = converge(builtin("S2"), problem("P1"))
    plain = converge(builtin("BUTCHER2"), problem("P1"))
    ok = (
        abs(eis.maxnorm_global_slope - 3.0) <= 0.2
        and abs(eis.maxnorm_lte_slope - 2.0) <= 0.2
        and abs(plain.maxnorm_global_slope - 2.0) <= 0.2
    )
    _gate(
        4,
        "P1 slopes: S2 global "
        f"{eis.maxnorm_global_slope:.3f} (want 3.0+-0.2), LTE "
        f"{eis.maxnorm_lte_slope:.3f} (want 2.0+-0.2), BUTCHER2 global "
        f"{plain.maxnorm_global_slope:.3f} (want 2.0+-0.2)",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_acceptance_5_fourth_order_on_van_der_pol():
    t0 = time.perf_counter()
    dts = (F(1, 8), F(1, 16), F(1, 32), F(1, 64))
    slopes = {}
    ok = True
    for name in ("S3A", "S3B", "S3C"):
        rep = converge(builtin(name), problem("P2"), dts=dts)
        slopes[name] = rep.maxnorm_global_slope
        ok = ok and abs(rep.maxnorm_global_slope - 4.0) <= 0.25
        ok = ok and rep.reference.startswith("rk4 (doubling-verified")
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    _gate(5, f"van der Pol global slopes (want 4.0+-0.25): {detail}", ok,
          time.perf_counter() - t0, 10.0)


def test_acceptance_6_variable_coefficient_problem():
    t0 = time.perf_counter()
    rep = converge(builtin("S2"), problem("P4"))
    ok = (
        abs(rep.maxnorm_global_slope - 3.0) <= 0.2
        and abs(rep.maxnorm_lte_slope - 2.0) <= 0.2
    )
    _gate(
        6,
        "P4 slopes: S2 global "
        f"{rep.maxnorm_global_slope:.3f} (want 3.0+-0.2), LTE "
        f"{rep.maxnorm_lte_slope:.3f} (want 2.0+-0.2)",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_acceptance_7_property_suite():
    t0 = time.perf_counter()
    ok = True

    # f = 0 constancy drift within n * s * 2^-52 per component
    const = make_problem(
        "const", lambda t, u: np.zeros_like(u), lambda t: np.ones((1,) + np.shape(t)), [1.0]
    )
    n = 128
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        final = integrate(sch, const, F(1, n), 1.0)[-1]
        drift = float(np.max(np.abs(final - 1.0)))
        ok = ok and drift <= n * sch.s * 2.0**-52

    # A 1 = 1 exactly
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        ones = tuple(F(1) for _ in range(sch.s))
        ok = ok and tuple(dot(row, ones) for row in sch.A) == ones

    # polynomial brute-force residual oracle, 100 random s=2 rational schemes
    rng = random.Random(1234)
    dts = [F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(2)]
    for _ in range(100):
        sch = random_scheme(rng, s=2)
        deg = rng.randint(0, 5)
        u = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
        t = F(rng.randint(-2, 2), rng.randint(1, 3))
        for dt in dts:
            left = scheme_residual_on_polynomial(sch, u, t, dt)
            right = taylor_residual_on_polynomial(sch, residual_vector, u, t, dt)
            ok = ok and left == right

    # spectral radius at the origin
    for name in BUILTIN_NAMES:
        ok = ok and abs(spectral_radius(builtin(name), 0.0) - 1.0) <= 1e-12

    _gate(7, "constancy, row sums, residual oracle, unit radius at origin", ok,
          time.perf_counter() - t0, 10.0)
