"""Construction of new error-inhibiting scheme candidates.

Fixing A and the abscissae determines B uniquely from the order conditions
d_p = 0, p = 1..s: each row b_i of B solves the transposed Vandermonde system

    sum_j b_ij c_in[j]^(p-1)  =  (c_out[i]^p - A_i . c_in^p) / p ,   p = 1..s.

_assemble solves it on integers.  With D the lcm of the denominators of
c_in and c_out, m = D c_in and o = D c_out, multiplying condition p by
p D^p and using D^p c^(p-1) = D m^(p-1) gives

    sum_j b_ij p D m_j^(p-1)  =  o_i^p - A_i . m^p ,

so the matrix has integer entries and each right-hand side is an integer
less one moment.  Scaling a whole row of a linear system leaves its solution
as it was, so B does not change.

The designs here fix the rank-1 row a, so A = 1 a^T with a^T 1 = 1.  What
remains is the error-inhibiting constraint a^T d_{s+1}(a) = 0 over the
(s-1)-parameter family of admissible a.  That constraint is affine in a:
the right-hand sides above share the term a^T c_in^p across rows, so every
row of d_{s+1} is kappa_i + lambda(a) with lambda linear and the same for
all rows, and a^T d_{s+1} = a^T kappa + lambda(a) once a^T 1 = 1.  So the
constraint is w . a on the hyperplane, with w_k its value at the unit
vector e_k, and each search root is one exact linear solve on that row.

Row k of B and of d_p read only row k of A, and row k of 1 e_k^T is row k
of the identity, so w is d_{s+1} of the design with A = I: one assembly.

eis_constraint(a) evaluates a^T d_{s+1} on the assembled scheme of a,
apart from this row; the searches do not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import analysis
from .exact import ExactMatrix, ExactVector, as_vector, dot, over_lcm, solve_linear
from .scheme import Scheme


def _abscissae(s: int, c_in, c_out):
    """The abscissae of an s-stage design, as Fraction tuples.

    Every entry point takes its abscissae through here.  c_in defaults to
    the evenly spaced ((s-1)/s, ..., 1/s, 0) and c_out to c_in + 1.  c_in
    must have length s and no repeated entry (a singular moment matrix);
    the solve reads only c_in, and the Scheme _assemble builds checks the rest.
    """
    c_in = tuple(Fraction(s - 1 - j, s) for j in range(s)) if c_in is None else as_vector(c_in)
    c_out = tuple(c + 1 for c in c_in) if c_out is None else as_vector(c_out)
    if len(c_in) != s:
        raise ValueError(f"dimension mismatch: c_in has {len(c_in)} entries, need s = {s}")
    if len(set(c_in)) != s:
        raise ValueError("singular moment matrix")
    return c_in, c_out


def _assemble(c_in, c_out, A, moments, name: str) -> Scheme:
    """Scheme with these abscissae, this A and the unique B with d_p = 0
    for p = 1..s, solved on the integer system of the module docstring.

    moments(v) is A v for an integer vector v, so a shared row is one dot.
    """
    s = len(c_in)
    D, mo = over_lcm(c_in + c_out)
    m, o = mo[:s], mo[s:]
    orders = range(1, s + 1)
    V = [[p * D * x ** (p - 1) for x in m] for p in orders]
    R = [[y**p - mom for y, mom in zip(o, moments([x**p for x in m]))] for p in orders]
    return Scheme(name, c_in, c_out, A, tuple(zip(*solve_linear(V, R))))


def assemble(a, c_in=None, c_out=None, name: str = "derived") -> Scheme:
    """Scheme with A = 1 a^T and the unique B with d_p = 0 for p = 1..s."""
    a = as_vector(a)
    s = len(a)
    c_in, c_out = _abscissae(s, c_in, c_out)
    if sum(a) != 1:
        raise ValueError("row sum violation")
    # Every row of A is a, so a^T m^p is shared by all rows.
    return _assemble(c_in, c_out, (a,) * s, lambda mp: (dot(a, mp),) * s, name)


def solve_B(a, c_in=None, c_out=None) -> ExactMatrix:
    """The B of assemble(a, c_in, c_out)."""
    return assemble(a, c_in, c_out).B


def eis_constraint(a, c_in=None, c_out=None) -> Fraction:
    """The scalar a^T d_{s+1} for the scheme assembled from a."""
    sch = assemble(a, c_in, c_out)
    d = analysis.residual_vector(sch, sch.s + 1)
    return dot(sch.A[0], d)


@dataclass(frozen=True)
class DerivationResult:
    a: ExactVector
    B: ExactMatrix
    achieved_order: int
    eis_residual: Fraction


def derive_scheme(a, c_in=None, c_out=None) -> DerivationResult:
    """Solve for B and classify the assembled scheme.

    achieved_order re-detects the truncation order rather than assuming s;
    special choices of a can exceed it.
    """
    sch = assemble(a, c_in, c_out)
    report = analysis.verify_conditions(sch)
    return DerivationResult(
        a=sch.A[0], B=sch.B, achieved_order=report.q, eis_residual=report.eis_residual
    )


# ----- 1-D root searches ---------------------------------------------------


@dataclass(frozen=True)
class SearchRoot:
    """A root of the EIS constraint along a search slice.

    Each root is the exact rational solution of one linear equation on the
    constraint's row, so exact is always True.
    """

    param: Fraction
    a: ExactVector
    exact: bool


def _eis_row(s: int, c_in, c_out):
    """Yield w_k = eis_constraint(e_k), k < s, so eis_constraint(a) = w . a.

    w is d_{s+1} of the design with A = I (see the module docstring).  The
    inputs are checked as assemble checks them.
    """
    c_in, c_out = _abscissae(s, c_in, c_out)
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(s)) for i in range(s))
    sch = _assemble(c_in, c_out, eye, lambda mp: mp, "eis row")
    yield from analysis.residual_vector(sch, s + 1)


def _pinned_root(w, fixed: dict, t_range) -> list[SearchRoot]:
    """The a with a^T 1 = 1, w . a = 0 and a_k = fixed[k], if t is in t_range.

    The two free components i < j are a_i = t and a_j = rest - t, rest =
    1 - sum(fixed.values()).  A w constant along that line, zero included,
    has no isolated root and yields [].  w is read only after the range
    check, so an empty range raises before any evaluation.
    """
    lo, hi = Fraction(t_range[0]), Fraction(t_range[1])
    if lo > hi:
        raise ValueError("empty search range")
    w = tuple(w)
    i, j = (k for k in range(len(w)) if k not in fixed)
    if w[i] == w[j]:
        return []
    rest = 1 - sum(fixed.values(), Fraction(0))
    pinned = dot([w[k] for k in fixed], fixed.values())
    t = (w[j] * rest + pinned) / (w[j] - w[i])
    if not lo <= t <= hi:
        return []
    a = [fixed.get(k) for k in range(len(w))]
    a[i], a[j] = t, rest - t
    return [SearchRoot(param=t, a=tuple(a), exact=True)]


def search_s2(c_in=None, c_out=None, a1_range=(-2, 2)) -> list[SearchRoot]:
    """Roots of a1 -> eis_constraint((a1, 1 - a1)) within a1_range."""
    return _pinned_root(_eis_row(2, c_in, c_out), {}, a1_range)


def search_s3_slice(
    fixed_index: int,
    fixed_value,
    t_range=(-2, 2),
    c_in=None,
    c_out=None,
) -> list[SearchRoot]:
    """Roots along a 1-D slice of the two-parameter s=3 family.

    Component fixed_index is pinned to fixed_value; of the two free
    components the lower-indexed one is the slice parameter t and the other
    takes 1 - fixed_value - t, keeping a^T 1 = 1.
    """
    if c_in is not None and len(c_in) != 3:
        raise ValueError("s=3 slice search requires three abscissae")
    if fixed_index not in (0, 1, 2):
        raise ValueError("fixed_index must be 0, 1, or 2")
    fixed = {fixed_index: Fraction(fixed_value)}
    return _pinned_root(_eis_row(3, c_in, c_out), fixed, t_range)
