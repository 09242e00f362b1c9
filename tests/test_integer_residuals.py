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
from blockstep.analysis import residual_vector
from blockstep.derive import _assemble, assemble
from blockstep.exact import dot, matvec
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


@SETTINGS
@given(abscissae(min_s=2), st.sampled_from(["rank-one", "identity", "full"]), st.data())
def test_assemble_solves_the_order_conditions_for_any_A(pair, form, data):
    # The three forms of A the moments callable serves: the shared row of
    # assemble, the identity of the constraint row, and a general A.
    c_in, c_out = pair
    s = len(c_in)
    if form == "rank-one":
        head = data.draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
        a = (*head, 1 - sum(head, F(0)))
        A = (a,) * s

        def moments(v):
            return (dot(a, v),) * s
    elif form == "identity":
        A = tuple(tuple(F(int(i == j)) for j in range(s)) for i in range(s))

        def moments(v):
            return v
    else:
        A = tuple(map(tuple, data.draw(square(s))))

        def moments(v):
            return matvec(A, v)
    sch = _assemble(c_in, c_out, A, moments, form)
    assert (sch.name, sch.c_in, sch.c_out, sch.A) == (form, c_in, c_out, A)
    for p in range(1, s + 1):
        assert oracle_d(sch, p) == (0,) * s, p
