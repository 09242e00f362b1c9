"""Property tests: the EIS constraint is affine on the hyperplane a^T 1 = 1.

Every row of d_{s+1} is kappa_i + lambda(a) with lambda linear and shared by
the rows, so eis_constraint(a) = sum_k a_k eis_constraint(e_k) exactly, and
the slice searches can solve for their root instead of searching for it.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from blockstep.analysis import verify_conditions
from blockstep.derive import assemble, eis_constraint, search_s2, search_s3_slice

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WIDE = (-(10**6), 10**6)

positive = st.fractions(min_value=F(1, 9), max_value=2, max_denominator=9)
entries = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@st.composite
def members(draw, sizes=(2, 3, 4)):
    """(c_in, c_out, a): descending c_in ending at 0, c_out = c_in + shift,
    and a on the hyperplane a^T 1 = 1."""
    s = draw(st.sampled_from(sizes))
    gaps = draw(st.lists(positive, min_size=s - 1, max_size=s - 1))
    c_in = tuple(sum(gaps[k:], F(0)) for k in range(s))
    shift = draw(positive)
    c_out = tuple(c + shift for c in c_in)
    head = draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    return c_in, c_out, tuple(head) + (1 - sum(head, F(0)),)


@SETTINGS
@given(members())
def test_eis_constraint_is_linear_on_the_hyperplane(member):
    c_in, c_out, a = member
    s = len(a)
    units = [tuple(F(int(i == k)) for i in range(s)) for k in range(s)]
    combined = sum(
        (a[k] * eis_constraint(units[k], c_in, c_out) for k in range(s)), F(0)
    )
    assert eis_constraint(a, c_in, c_out) == combined


@SETTINGS
@given(members(sizes=(2, 3)), st.integers(0, 2))
def test_search_roots_are_exact_error_inhibiting_members(member, fixed_index):
    c_in, c_out, a = member
    if len(a) == 2:
        roots = search_s2(c_in, c_out, WIDE)
    else:
        roots = search_s3_slice(fixed_index, a[fixed_index], WIDE, c_in, c_out)
    assert len(roots) <= 1
    for root in roots:
        assert root.exact
        assert eis_constraint(root.a, c_in, c_out) == 0
        assert verify_conditions(assemble(root.a, c_in, c_out)).all_pass
