"""Truncation-residual analysis, error-inhibiting condition checks, stability.

The one-step residual of a smooth solution u under a block scheme expands as

    U_{n+1} - A U_n - dt * B * U'_n  =  sum_p d_p dt^p u^(p)(t_n)

with exact rational coefficient vectors

    d_p = c_out^p / p!  -  A c_in^p / p!  -  B c_in^(p-1) / (p-1)!

(elementwise powers).  The truncation order q is the largest k with d_p = 0
for all p <= k; the normalized local truncation error is then
tau_n = d_{q+1} dt^q u^(q+1) + O(dt^{q+1}).

Every valid scheme has q <= 2s - 1: w(t) = prod_j (t - c_in[j])^2 has degree
2s and w(0) = 0, so if d_1 .. d_2s all vanished its residual would vanish,
yet row 0 of that residual is w(c_out[0]) != 0 because w and w' vanish at
every input abscissa and c_out[0] exceeds them all.

A scheme is error inhibiting when the leading residual vector d_{q+1} lies in
the zero-eigenspace of A.  The checkable conditions are:

    C1  rank(A) = 1
    C2  A 1 = 1          (eigenvalue 1 with the all-ones eigenvector)
    C3  A diagonalizable  (follows from C1 and C2: A = 1 a^T with trace 1)
    C4  a^T d_{q+1} = 0   (leading residual annihilated by A)

Under C1-C2 every row of A equals the same vector a^T, so
A d_{q+1} = (a^T d_{q+1}) 1 and C4 is exactly the leading-order annihilation
statement.  Global error then converges one order beyond q.

Each d_p is computed on integers.  Let D be the lcm of the denominators of
c_in and c_out, m = D c_in and o = D c_out, and L_i the lcm of the
denominators of row i of [A | B], with alpha_i = L_i A_i and beta_i = L_i B_i.
Multiplying row i of d_p by L_i p! D^p, and using D^p c^(p-1) = D m^(p-1),

    L_i p! D^p d_p[i]  =  L_i o_i^p  -  alpha_i . m^p  -  p D beta_i . m^(p-1),

an integer, so each entry of d_p is one Fraction, reduced once.

A Scheme is immutable, so each exact result is computed once per scheme:
the integer table (D, m, o and the scaled rows), the d_p and the truncation
order are kept in the scheme's own memo, Scheme.exact_memo, and
residual_vector, residual_table, truncation_order and verify_conditions
read them from there.

C1-C3 are decided on the same integer rows.  Row i of A is alpha_i / L_i
with L_i > 0, so rank(A) is the rank of the rows alpha_i, the row sums A 1
are sum(alpha_i) / L_i, and a^T 1, the trace of A = 1 a^T, is the sum of
row 0.

Linear stability: rho(A + z B) is the largest eigenvalue modulus of the
double-precision Q(z), from numpy's LAPACK eigvals, for any block size s.
A and B are real, so rho(conj z) = rho(z): on a box with
im_range[0] == -im_range[1], stability_scan computes the upper half of the
rows and mirrors them, within 1e-12 * max(1, rho) of a direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from math import factorial, isfinite
from operator import mul
from typing import NamedTuple

import numpy as np

from .exact import ExactVector, dot, over_lcm, rank
from .scheme import Scheme


def _integers(scheme: Scheme):
    """(D, m, o, rows) of the module docstring, rows[i] = (L_i, L_i [A_i | B_i]);
    kept in the memo under "integers"."""
    memo = scheme.exact_memo
    if "integers" not in memo:
        s = scheme.s
        D, mo = over_lcm(scheme.c_in + scheme.c_out)
        rows = [over_lcm(A_i + B_i) for A_i, B_i in zip(scheme.A, scheme.B)]
        memo["integers"] = (D, mo[:s], mo[s:], rows)
    return memo["integers"]


def residual_vector(scheme: Scheme, p: int) -> ExactVector:
    """Exact residual coefficient vector d_p (p >= 0).

    d_0 = 1 - A 1 is the consistency-of-constants residual; it vanishes
    exactly when C2 holds.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    memo = scheme.exact_memo
    if p in memo:
        return memo[p]
    D, m, o, rows = _integers(scheme)
    # Row i of L_i p! D^p d_p is L_i o_i^p - n_i . (m^p | p D m^(p-1)).  At
    # p = 0 the B part drops and this is L_i (1 - A_i . 1).
    u = [x**p for x in m] + [p * D * x ** (p - 1) if p else 0 for x in m]
    scale = factorial(p) * D**p
    d = tuple(Fraction(L * y**p - sum(map(mul, n, u)), L * scale) for y, (L, n) in zip(o, rows))
    memo[p] = d
    return d


def residual_table(scheme: Scheme, p_max: int) -> dict[int, ExactVector]:
    """Residual vectors d_1 .. d_{p_max} keyed by order."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    return {p: residual_vector(scheme, p) for p in range(1, p_max + 1)}


class TruncationOrder(NamedTuple):
    q: int
    leading: ExactVector


def truncation_order(scheme: Scheme) -> TruncationOrder:
    """Largest q with d_p = 0 for all p <= q, plus the leading vector d_{q+1}.

    The walk over p = 1, 2, ... stops by p = 2s (see the module docstring).
    """
    memo = scheme.exact_memo
    if "order" not in memo:
        for p in count(1):
            leading = residual_vector(scheme, p)
            if any(leading):
                memo["order"] = TruncationOrder(p - 1, leading)
                break
    return memo["order"]


@dataclass(frozen=True)
class ConditionRecord:
    """Outcome of one condition check.

    passed is None when the condition could not be evaluated (C3 and C4
    require the rank-1 row structure established by C1 and C2).
    """

    passed: bool | None
    witness: object

    @property
    def status(self) -> str:
        if self.passed is None:
            return "NOT EVALUATED"
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    scheme_name: str
    conditions: dict[str, ConditionRecord]
    q: int
    leading: ExactVector
    a: ExactVector | None
    eis_residual: Fraction | None

    @property
    def all_pass(self) -> bool:
        return all(rec.passed for rec in self.conditions.values())


def verify_conditions(scheme: Scheme) -> VerificationReport:
    """Check C1-C4 exactly and report witnesses."""
    order = truncation_order(scheme)
    # Row i of A is alpha_i / L_i, alpha_i the first s entries of rows[i].
    s, rows = scheme.s, _integers(scheme)[3]

    r = rank([n[:s] for _, n in rows])
    c1 = ConditionRecord(r == 1, r)
    row_sums = tuple(Fraction(sum(n[:s]), L) for L, n in rows)
    c2 = ConditionRecord(all(x == 1 for x in row_sums), row_sums)

    # C1 makes A = u v^T, and C2 (A 1 = 1) gives u_i (v^T 1) = 1 for every i:
    # u is constant, so all rows of A equal the first and a is that row.
    a = scheme.A[0] if (c1.passed and c2.passed) else None
    if a is None:
        c3 = ConditionRecord(None, None)
        c4 = ConditionRecord(None, None)
        eis = None
    else:
        # trace(A) = a^T 1 = 1 != 0, so the rank-1 A has eigenvalues
        # {1, 0, ..., 0} with independent eigenvectors: diagonalizable.
        # a is row 0, so a^T 1 is row 0's sum.
        trace = row_sums[0]
        c3 = ConditionRecord(trace != 0, trace)
        eis = dot(a, order.leading)
        c4 = ConditionRecord(eis == 0, eis)

    return VerificationReport(
        scheme_name=scheme.name,
        conditions={"C1": c1, "C2": c2, "C3": c3, "C4": c4},
        q=order.q,
        leading=order.leading,
        a=a,
        eis_residual=eis,
    )


# ----- linear stability diagnostics ---------------------------------------


def spectral_radius(scheme: Scheme, z: complex) -> float:
    """rho(Q(z)), Q(z) = A + z B in double precision (z = lambda * dt)."""
    A, B, _ = scheme.float_tables
    return float(np.abs(np.linalg.eigvals(A + complex(z) * B)).max())


_EIGVALS_POINTS = 4096  # the most grid points stability_scan gives one eigvals call


def stability_scan(scheme, re_range, im_range, grid_n):
    """Spectral radius of Q(z) on a grid_n x grid_n grid of z values.

    Returns (re_vals, im_vals, rho) with rho[i][j] the radius at
    z = re_vals[j] + 1j * im_vals[i].  The computed rows are solved in
    row-major batches of at most _EIGVALS_POINTS grid points, one eigvals
    call each; a batch may start mid-row, so memory beyond the rho grid is
    bounded whatever grid_n is, and LAPACK still solves each Q(z) on its
    own, so rho does not depend on the batching.  A and B are real, so
    rho(conj z) = rho(z): if im_range[0] == -im_range[1], row i < grid_n // 2
    copies row grid_n - 1 - i, which is rho at -im_vals[grid_n - 1 - i]
    (linspace is not exactly antisymmetric), within 1e-12 * max(1, rho) of
    rho at im_vals[i].  A bound that is not finite, or a span hi - lo that
    overflows, is a ValueError, and so is a box on which Q(z) overflows (the
    entries of Q are affine in Re z and Im z, so its four corners decide
    that) or, after the scan, on which a radius is not finite.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    for axis, (lo, hi) in (("re", re_range), ("im", im_range)):
        if not isfinite(float(hi) - float(lo)):
            raise ValueError(f"{axis} range ({lo}, {hi}) is not a finite span in double precision")
    re_vals = np.linspace(re_range[0], re_range[1], grid_n)
    im_vals = np.linspace(im_range[0], im_range[1], grid_n)
    A, B, _ = scheme.float_tables
    box = f"re {tuple(re_range)}, im {tuple(im_range)}"
    corners = (re_vals[[0, -1]] + 1j * im_vals[[0, -1], None]).reshape(4, 1, 1)
    with np.errstate(over="ignore"):
        if not np.isfinite(A + corners * B).all():
            raise ValueError(f"A + z B overflows double precision on the box {box}")
    rho = np.empty((grid_n, grid_n))
    half = grid_n // 2 if im_range[0] == -im_range[1] else 0
    # Q(z) is built as z B + A on complex copies of the flattened tables, the
    # IEEE operations of A + z B in one outer product, and the largest modulus
    # is taken across the s columns: both avoid numpy's slow loops over short
    # trailing axes, and neither changes a bit of rho.
    s = len(A)
    A, B = A.astype(complex).ravel(), B.astype(complex).ravel()
    flat = rho.reshape(-1)
    for start in range(half * grid_n, flat.size, _EIGVALS_POINTS):
        stop = min(start + _EIGVALS_POINTS, flat.size)
        i, j = np.divmod(np.arange(start, stop), grid_n)
        Q = np.multiply.outer(re_vals[j] + 1j * im_vals[i], B)
        Q += A
        radii = np.abs(np.linalg.eigvals(Q.reshape(-1, s, s)))
        flat[start:stop] = reduce(np.maximum, radii.T)
    rho[:half] = rho[::-1][:half]
    if not np.isfinite(rho).all():
        raise ValueError(f"spectral radius of A + z B is not finite on the box {box}")
    return re_vals, im_vals, rho
