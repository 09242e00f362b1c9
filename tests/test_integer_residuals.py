"""Property tests: the exact residuals and the order system, which the package
computes on integer numerators over one common denominator, agree with the
independent oracle that applies a scheme to exact polynomial data.

Applied to u(t) = t^p over one step from t = 0 with dt = 1, a scheme leaves
the residual p! d_p, row by row, with no scaling and no Taylor expansion.
"""

from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle_util import scheme_residual_on_polynomial
from blockstep.analysis import residual_vector, verify_conditions
from blockstep.derive import _assemble, assemble
from blockstep.exact import rank, solve_linear
from blockstep.scheme import make_scheme

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Mixed denominators: entries over 1..40 in one vector or row.
positive = st.fractions(min_value=F(1, 40), max_value=3, max_denominator=40)
entries = st.fractions(min_value=-5, max_value=5, max_denominator=40)


@st.composite
def abscissae(draw, min_s=1):
    """(c_in, c_out) for s = min_s..5: descending c_in ending at 0, and a
    descending c_out ahead of it with gaps of its own."""
    s = draw(st.integers(min_s, 5))
    gaps = draw(st.lists(positive, min_size=s - 1, max_size=s - 1))
    c_in = tuple(sum(gaps[k:], F(0)) for k in range(s))
    c_out = [c_in[-1] + draw(positive)]
    for k in range(s - 2, -1, -1):
        c_out.insert(0, max(c_out[0], c_in[k]) + draw(positive))
    return c_in, tuple(c_out)


def square(s):
    return st.lists(st.lists(entries, min_size=s, max_size=s), min_size=s, max_size=s)


@st.composite
def schemes(draw):
    """A scheme with general A and B (no row-sum or rank condition)."""
    c_in, c_out = draw(abscissae())
    s = len(c_in)
    return make_scheme("random", c_in, c_out, draw(square(s)), draw(square(s)))


def monomial(p):
    return [F(0)] * p + [F(1)]


def oracle_d(sch, p):
    return tuple(x / factorial(p) for x in scheme_residual_on_polynomial(sch, monomial(p), 0, 1))


@SETTINGS
@given(schemes(), st.data())
def test_residual_vector_matches_the_polynomial_oracle(sch, data):
    # Every order p = 0 .. 2s + 1, asked in a drawn order so the memo fills
    # in any sequence.
    for p in data.draw(st.permutations(range(2 * sch.s + 2))):
        assert residual_vector(sch, p) == oracle_d(sch, p), p


@SETTINGS
@given(abscissae(), st.data())
def test_assemble_zeroes_the_first_s_residuals(pair, data):
    c_in, c_out = pair
    s = len(c_in)
    head = data.draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    a = (*head, 1 - sum(head, F(0)))
    sch = assemble(a, c_in, c_out)
    assert sch.A == (a,) * s
    for p in range(1, s + 1):
        assert oracle_d(sch, p) == (0,) * s, p


def unit_row(draw, s):
    head = draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    return (*head, 1 - sum(head, F(0)))


def rational_B(A, c_in, c_out):
    """B from the unscaled order system sum_j b_ij c_j^(p-1) = (o_i^p - A_i . c^p) / p,
    p = 1..s, with naive Fraction sums on the right."""
    s = len(c_in)
    V = [[x ** (p - 1) for x in c_in] for p in range(1, s + 1)]
    R = [[(y**p - sum((a * x**p for a, x in zip(row, c_in)), F(0))) / p
          for row, y in zip(A, c_out)] for p in range(1, s + 1)]
    return tuple(zip(*solve_linear(V, R)))


@SETTINGS
@given(abscissae(min_s=2), st.sampled_from(["rank-one", "identity", "full"]), st.data())
def test_assemble_solves_the_order_conditions_for_any_A(pair, form, data):
    # The three forms of A the integer build serves: the shared row of
    # assemble, the identity of the constraint row, and a general A whose
    # rows have mixed denominators.
    c_in, c_out = pair
    s = len(c_in)
    if form == "rank-one":
        A = (unit_row(data.draw, s),) * s
    elif form == "identity":
        A = tuple(tuple(F(int(i == j)) for j in range(s)) for i in range(s))
    else:
        A = tuple(map(tuple, data.draw(square(s))))
    sch = _assemble(c_in, c_out, A, form)
    assert (sch.name, sch.c_in, sch.c_out, sch.A) == (form, c_in, c_out, A)
    assert sch.B == rational_B(A, c_in, c_out)
    for p in range(1, s + 1):
        assert oracle_d(sch, p) == (0,) * s, p


nonzero = entries.filter(bool)


@SETTINGS
@given(abscissae(min_s=2),
       st.sampled_from(["unit rank-one", "rank-one", "unit rows", "general"]),
       st.data())
def test_conditions_c1_to_c3_read_off_the_integer_rows(pair, form, data):
    # Every row of A and of B draws its own denominators, so the row scales
    # L_i of the integer table differ from row to row.  The witnesses must be
    # those of the rational definitions: rank(A), the row sums A 1, and a^T 1.
    c_in, c_out = pair
    s = len(c_in)
    if form == "unit rank-one":
        A = (unit_row(data.draw, s),) * s
    elif form == "rank-one":
        u = data.draw(st.lists(nonzero, min_size=s, max_size=s))
        v = data.draw(st.lists(nonzero, min_size=s, max_size=s))
        A = [[ui * vj for vj in v] for ui in u]
    elif form == "unit rows":
        A = [unit_row(data.draw, s) for _ in range(s)]
    else:
        # A nonzero leading 2 x 2 minor makes the rank at least 2.
        A = data.draw(square(s))
        if A[0][0] * A[1][1] == A[0][1] * A[1][0]:
            A[1][1] += 1
    sch = make_scheme(form, c_in, c_out, A, data.draw(square(s)))
    rep = verify_conditions(sch)
    c1, c2, c3 = (rep.conditions[k] for k in ("C1", "C2", "C3"))
    assert c1.witness == rank(sch.A)
    if "rank-one" in form:
        assert c1.witness == 1
    elif form == "general":
        assert c1.witness >= 2
    sums = tuple(sum(row, F(0)) for row in sch.A)
    assert c2.witness == sums
    assert all(type(x) is F for x in c2.witness)
    if c1.passed and c2.passed:
        assert c3.witness == sum(sch.A[0], F(0)) == 1
        assert rep.a == sch.A[0]
    else:
        assert (c3.passed, c3.witness, rep.a) == (None, None, None)
