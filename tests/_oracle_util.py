"""Shared independent oracles for the test suite.

Everything here avoids the package's own residual formula so that tests
compare two genuinely different routes: schemes applied to exact polynomial
data versus the package's Taylor-coefficient vectors.  gbs_solve likewise
solves an initial-value problem without the package's RK4 code, and
rk4_sweep is the RK4 march on numpy arrays that the package's march on
Python floats must reproduce bit for bit.
"""

import math
from fractions import Fraction as F

import numpy as np

from blockstep.scheme import Scheme, make_scheme


def poly_eval(coeffs, x):
    """Horner evaluation of sum_k coeffs[k] * x**k."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [F(0)]


def random_rational(rng, num=8, den=6):
    return F(rng.randint(-num, num), rng.randint(1, den))


def random_abscissae(rng, s=2):
    # strictly descending c_in ending at 0; c_out descending and ahead of
    # c_in componentwise
    steps = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(s - 1)]
    c_in = [F(0)]
    for st in steps:
        c_in.append(c_in[-1] + st)
    c_in = list(reversed(c_in))
    shift = F(rng.randint(1, 3), rng.randint(1, 2))
    c_out = [c + shift for c in c_in]
    return c_in, c_out


def random_scheme(rng, s=2, name="random") -> Scheme:
    c_in, c_out = random_abscissae(rng, s)
    A = [[random_rational(rng) for _ in range(s)] for _ in range(s)]
    B = [[random_rational(rng) for _ in range(s)] for _ in range(s)]
    return make_scheme(name, c_in, c_out, A, B)


def scheme_residual_on_polynomial(scheme: Scheme, u_coeffs, t, dt):
    """U_{n+1} - A U_n - dt B U'_n for an exact polynomial solution u.

    Evaluated entirely by applying the scheme to u at rational times; no
    Taylor expansion involved.
    """
    du = poly_deriv(u_coeffs)
    s = scheme.s
    out = []
    for i in range(s):
        acc = poly_eval(u_coeffs, t + scheme.c_out[i] * dt)
        for j in range(s):
            acc -= scheme.A[i][j] * poly_eval(u_coeffs, t + scheme.c_in[j] * dt)
            acc -= dt * scheme.B[i][j] * poly_eval(du, t + scheme.c_in[j] * dt)
        out.append(acc)
    return tuple(out)


def taylor_residual_on_polynomial(scheme: Scheme, residual_vector, u_coeffs, t, dt):
    """sum_p d_p dt^p u^(p)(t) using the package's residual vectors."""
    s = scheme.s
    out = [F(0)] * s
    coeffs = list(u_coeffs)
    p = 0
    while any(c != 0 for c in coeffs) or p == 0:
        d_p = residual_vector(scheme, p)
        up = poly_eval(coeffs, t)
        for i in range(s):
            out[i] += d_p[i] * dt**p * up
        coeffs = poly_deriv(coeffs)
        p += 1
        if p > len(u_coeffs) + 1:
            break
    return tuple(out)


def _gbs_step(rhs, t, u, H, rows):
    # One Gragg-Bulirsch-Stoer step of size H: the modified midpoint rule
    # with 2, 4, ..., 2 rows substeps, extrapolated to h = 0 in powers of h^2
    # (Aitken-Neville), order 2 rows.
    table = []
    for j in range(rows):
        n = 2 * (j + 1)
        h = H / n
        z0, z1 = u, u + h * rhs(t, u)
        for m in range(1, n):
            z0, z1 = z1, z0 + 2 * h * rhs(t + m * h, z1)
        row = [z1]
        for k in range(1, j + 1):
            ratio = (n / (2 * (j - k + 1))) ** 2
            row.append(row[k - 1] + (row[k - 1] - table[-1][k - 1]) / (ratio - 1))
        table.append(row)
    return table[-1][-1]


def gbs_solve(rhs, u0, times, H=0.125, rows=8):
    """The solution of u' = rhs(t, u), u(0) = u0 at each time in times, one
    row per time: Gragg-Bulirsch-Stoer extrapolation in plain numpy, with
    equal steps of at most H between successive requested times (Hairer,
    Norsett & Wanner, Solving ODEs I, section II.9)."""
    out = np.empty((len(times), len(u0)))
    t, u = 0.0, np.array(u0, dtype=float)
    for i in sorted(range(len(times)), key=times.__getitem__):
        end = times[i]
        m = math.ceil((end - t) / H)
        for k in range(m):
            a, b = t + (end - t) * k / m, t + (end - t) * (k + 1) / m
            u = _gbs_step(rhs, a, u, b - a, rows)
        t, out[i] = end, u
    return out


def rk4_step(rhs, t, u, h):
    """One classical RK4 step on numpy arrays, each stage and the combine an
    elementwise ufunc: the formula whose values the package's RK4 step on
    Python floats must give bit for bit."""
    k1 = np.asarray(rhs(t, u), dtype=float)
    k2 = np.asarray(rhs(t + h / 2, u + (h / 2) * k1), dtype=float)
    k3 = np.asarray(rhs(t + h / 2, u + (h / 2) * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, u + h * k3), dtype=float)
    return u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_sweep(prob, T, n, times):
    """The RK4 march of n steps of T / n on arrays, one row per time in
    times: each time is served off the grid value before it, by one
    rk4_step of the remainder, or as that value when it lies on the grid;
    T is grid point n exactly.  n = 0 (T = 0) serves u0."""
    h = T / max(n, 1)
    grid = [k * h for k in range(n)] + [T]
    out = np.empty((len(times), prob.dim))
    for i, t in enumerate(times):
        k = max(k for k in range(n + 1) if grid[k] <= t)
        u = prob.u0.copy()
        for j in range(k):
            u = rk4_step(prob.rhs, j * h, u, h)
        out[i] = u if t == grid[k] else rk4_step(prob.rhs, grid[k], u, t - grid[k])
    return out
