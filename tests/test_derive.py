import hashlib
import random
from fractions import Fraction as F

import pytest

from blockstep.analysis import residual_table, residual_vector, verify_conditions
from blockstep.derive import (
    SearchRoot,
    _pinned_root,
    assemble,
    derive_scheme,
    eis_constraint,
    search_s2,
    search_s3_slice,
    solve_B,
)
from blockstep.scheme import builtin, make_scheme

S2_C_IN = (F(1, 2), F(0))
S3_C_IN = (F(2, 3), F(1, 3), F(0))


def test_solve_B_reproduces_the_two_step_tables():
    assert solve_B((F(-1, 6), F(7, 6)), S2_C_IN) == builtin("S2").B
    assert solve_B((F(7, 4), F(-3, 4)), (F(1), F(0))) == builtin("BUTCHER2").B


def test_solve_B_reproduces_a_three_step_table():
    a = builtin("S3A").A[0]
    assert solve_B(a, S3_C_IN) == builtin("S3A").B


def test_assemble_matches_builtins_exactly():
    for name in ("S2", "BUTCHER2"):
        ref = builtin(name)
        sch = assemble(ref.A[0], ref.c_in, ref.c_out, name=name)
        assert sch == ref
    for name in ("S3A", "S3B", "S3C"):
        ref = builtin(name)
        sch = assemble(ref.A[0], ref.c_in, name=name)
        assert sch == ref


def test_duplicate_abscissae_rejected():
    with pytest.raises(ValueError, match="singular moment matrix"):
        solve_B((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_row_sum_violation_rejected():
    with pytest.raises(ValueError, match="row sum violation"):
        solve_B((F(1, 2), F(1, 4)), S2_C_IN)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_B((F(1), F(0), F(0)), S2_C_IN)


def test_solved_B_always_cancels_orders_up_to_s():
    rng = random.Random(42)
    for s, c_in in ((2, S2_C_IN), (3, S3_C_IN)):
        for _ in range(25):
            a = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(s - 1)]
            a.append(1 - sum(a, F(0)))
            sch = assemble(a, c_in)
            for p in range(1, s + 1):
                assert residual_vector(sch, p) == tuple(F(0) for _ in range(s))


def test_derive_scheme_classifies_the_result():
    res = derive_scheme((F(-1, 6), F(7, 6)), S2_C_IN)
    assert res.B == builtin("S2").B
    assert res.achieved_order == 2
    assert res.eis_residual == 0

    res = derive_scheme((F(7, 4), F(-3, 4)), (F(1), F(0)))
    assert res.achieved_order == 2
    assert res.eis_residual == F(19, 24)


def test_eis_constraint_known_values():
    assert eis_constraint((F(-1, 6), F(7, 6)), S2_C_IN) == 0
    assert eis_constraint((F(7, 4), F(-3, 4)), (F(1), F(0))) == F(19, 24)
    assert eis_constraint((F(1), F(0)), S2_C_IN) != 0


def test_eis_constraint_agrees_with_full_verification():
    rng = random.Random(5)
    for s, c_in in ((2, S2_C_IN), (3, S3_C_IN)):
        for _ in range(15):
            a = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(s - 1)]
            a.append(1 - sum(a, F(0)))
            sch = assemble(a, c_in)
            rep = verify_conditions(sch)
            if rep.q == s:
                assert eis_constraint(a, c_in) == rep.eis_residual


def test_search_s2_recovers_the_error_inhibiting_member():
    roots = search_s2(S2_C_IN)
    assert len(roots) == 1
    (root,) = roots
    assert root.exact
    assert root.param == F(-1, 6)
    assert root.a == (F(-1, 6), F(7, 6))
    assert assemble(root.a, S2_C_IN, name="S2").B == builtin("S2").B


def test_search_s2_on_the_wider_abscissae():
    # the family through the non-inhibiting two-step scheme has its own
    # error-inhibiting member, and it is not that scheme
    roots = search_s2((F(1), F(0)))
    assert [r.param for r in roots] == [F(1, 6)]
    assert roots[0].exact
    assert eis_constraint((F(7, 4), F(-3, 4)), (F(1), F(0))) != 0


def test_search_s2_range_can_exclude_the_root():
    assert search_s2(S2_C_IN, a1_range=(0, 2)) == []


def test_search_s3_slices_recover_the_builtins():
    cases = [
        ("S3A", F(-499, 192), (-3, 3)),
        ("S3B", F(-983, 510), (-2, 2)),
        ("S3C", F(97, 24), (0, 5)),
    ]
    for name, expect_param, t_range in cases:
        ref = builtin(name)
        roots = search_s3_slice(0, ref.A[0][0], t_range=t_range)
        assert [r.param for r in roots] == [expect_param], name
        root = roots[0]
        assert root.exact
        assert root.a == ref.A[0]
        assert assemble(root.a, S3_C_IN, name=name) == ref


def test_search_roots_pass_all_conditions():
    found = search_s2(S2_C_IN) + search_s3_slice(
        0, builtin("S3A").A[0][0], t_range=(-3, 3)
    )
    assert len(found) == 2
    for root in found:
        c_in = S2_C_IN if len(root.a) == 2 else S3_C_IN
        rep = verify_conditions(assemble(root.a, c_in))
        assert rep.all_pass


def test_search_s3_slice_validates_inputs():
    with pytest.raises(ValueError, match="fixed_index"):
        search_s3_slice(3, F(1, 2))
    with pytest.raises(ValueError, match="three abscissae"):
        search_s3_slice(0, F(1, 2), c_in=(F(1, 2), F(0)))


# ----- one default and one check of the abscissae for every entry point -----


def _evenly_spaced(s):
    return tuple(F(s - 1 - j, s) for j in range(s))


# Each entry point at its block size s, as a function of (c_in, c_out).
ENTRY_POINTS = {
    "assemble": (3, lambda c_in, c_out: assemble((1, 0, 0), c_in, c_out)),
    "solve_B": (3, lambda c_in, c_out: solve_B((1, 0, 0), c_in, c_out)),
    "eis_constraint": (3, lambda c_in, c_out: eis_constraint((1, 0, 0), c_in, c_out)),
    "derive_scheme": (3, lambda c_in, c_out: derive_scheme((1, 0, 0), c_in, c_out)),
    "search_s2": (2, lambda c_in, c_out: search_s2(c_in, c_out)),
    "search_s3_slice": (3, lambda c_in, c_out: search_s3_slice(0, F(1, 3), (-2, 2), c_in, c_out)),
}

# Malformed (c_in, c_out) built from the evenly spaced c of size s.
MALFORMED = {
    "ascending-c_in": lambda c: (c[::-1], tuple(x + 1 for x in c)),
    "ascending-c_out": lambda c: (c, tuple(x + 1 for x in c[::-1])),
    "c_in-not-ending-at-0": lambda c: (tuple(x + F(1, 2) for x in c), tuple(x + 2 for x in c)),
    "c_out-not-above-c_in": lambda c: (c, c),
    "repeated-c_out": lambda c: (c, (2,) * len(c)),
    "length-mismatch": lambda c: (c, tuple(x + 1 for x in c)[1:]),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_abscissae_as_a_scheme_does(entry, case):
    s, call = ENTRY_POINTS[entry]
    c_in, c_out = MALFORMED[case](_evenly_spaced(s))
    zeros = [[0] * s] * s
    with pytest.raises(ValueError) as expected:
        make_scheme("malformed", c_in, c_out, zeros, zeros)
    with pytest.raises(ValueError) as raised:
        call(c_in, c_out)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_repeated_input_abscissa_is_named_a_singular_moment_matrix(entry):
    # A Scheme calls this c_in not descending; the derivation names the
    # system it cannot solve, before any other check of the abscissae.
    s, call = ENTRY_POINTS[entry]
    c_in = (F(1, 2), F(1, 2)) + (F(0),) * (s - 2)
    with pytest.raises(ValueError, match="^singular moment matrix$"):
        call(c_in, None)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_omitted_input_abscissae_are_evenly_spaced(s):
    a = tuple(F(k + 1, s * (s + 1) // 2) for k in range(s))
    c_in = _evenly_spaced(s)
    assert assemble(a) == assemble(a, c_in)
    assert solve_B(a) == solve_B(a, c_in)
    assert eis_constraint(a) == eis_constraint(a, c_in)
    assert derive_scheme(a) == derive_scheme(a, c_in)
    if s == 2:
        assert search_s2() == search_s2(c_in)
    if s == 3:
        assert search_s3_slice(0, F(1, 3)) == search_s3_slice(0, F(1, 3), c_in=c_in)


# ----- the root solve on synthetic constraint rows -------------------------


def _params(w, fixed, lo, hi):
    return [r.param for r in _pinned_root(w, fixed, (lo, hi))]


def test_pinned_root_solves_the_row_and_keeps_the_hyperplane():
    # w . (t, 1 - t) = 2t - 3(1 - t) vanishes at t = 3/5.
    (root,) = _pinned_root((F(2), F(-3)), {}, (0, 2))
    assert root == SearchRoot(param=F(3, 5), a=(F(3, 5), F(2, 5)), exact=True)
    # Pinning a_1 = 1/2 leaves a_0 = t, a_2 = 1/2 - t: t + 1 + (1/2 - t) * 4 = 0.
    (root,) = _pinned_root((F(1), F(2), F(4)), {1: F(1, 2)}, (-2, 2))
    assert root.a == (F(1), F(1, 2), F(-1, 2)) and sum(root.a) == 1
    assert _params((F(1), F(2), F(4), F(8)), {0: F(1), 3: F(0)}, -2, 2) == [F(1, 2)]


def test_pinned_root_of_a_constant_or_zero_row_is_empty():
    assert _params((F(4), F(4)), {}, 0, 1) == []
    assert _params((F(0), F(0)), {}, 0, 1) == []
    assert _params((F(5), F(4), F(5)), {1: F(3)}, -10, 10) == []


def test_pinned_root_outside_the_range_is_empty():
    assert _params((F(2), F(-3)), {}, 0, F(1, 2)) == []
    assert _params((F(2), F(-3)), {}, F(4, 5), 2) == []


def test_pinned_root_on_a_point_range():
    assert _params((F(1), F(-1)), {}, 1, 1) == []
    assert _params((F(1), F(-1)), {}, F(1, 2), F(1, 2)) == [F(1, 2)]


def test_pinned_root_rejects_an_empty_range_before_reading_the_row():
    def row():
        raise AssertionError("row read")
        yield

    with pytest.raises(ValueError, match="^empty search range$"):
        _pinned_root(row(), {}, (1, 0))


def _design_outputs(n=30, seed=21):
    """repr of the exact outputs for n seeded design candidates, s = 2, 3, 4 in
    turn: the search roots, then solve_B, verify_conditions and residual_table
    for each root (or, at s = 4, a seeded row a).  c_in descends to 0 with
    rational gaps and c_out is c_in shifted, drawn as the eis-design
    benchmark draws its abscissae."""
    rng = random.Random(seed)
    wide = (-(10**6), 10**6)
    out = []
    for k in range(n):
        s = 2 + k % 3
        c = [F(0)]
        for _ in range(s - 1):
            c.append(c[-1] + F(rng.randint(1, 4), rng.randint(1, 4)))
        c_in = tuple(reversed(c))
        shift = F(rng.randint(1, 3), rng.randint(1, 2))
        c_out = tuple(x + shift for x in c_in)
        if s == 2:
            roots = search_s2(c_in, c_out, wide)
        elif s == 3:
            fix = rng.randrange(3), F(rng.randint(-6, 6), rng.randint(1, 4))
            roots = search_s3_slice(*fix, wide, c_in=c_in, c_out=c_out)
        else:
            head = [F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(3)]
            roots = None
        out.append(repr(roots))
        for a in [r.a for r in roots] if roots is not None else [(*head, 1 - sum(head))]:
            sch = assemble(a, c_in, c_out)
            out.append(repr((solve_B(a, c_in, c_out), verify_conditions(sch),
                             residual_table(sch, s + 1))))
    return "\n".join(out)


def test_exact_design_outputs_are_pinned_bit_for_bit():
    # A Fraction is canonical, so any change to how the exact algebra is
    # computed must leave this digest, taken before such changes, as it is.
    digest = hashlib.sha1(_design_outputs().encode()).hexdigest()
    assert digest == "84f9b032629fdc22b86b7edb92b3c9dddceee97f"
