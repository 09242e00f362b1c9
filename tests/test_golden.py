"""Golden stdout of `blockstep converge` on both oracle branches.

P1 has a closed form, so its references and starting rows come from one
`exact` call; P2 (van der Pol) has none, so they come from one
doubling-verified RK4 sweep.  Any change to the printed table, slopes or
reference line on either branch fails here.
"""

import pytest

from blockstep.cli import main

LADDER = "1/8,1/16,1/32,1/64"

GOLDEN = {
    ("S2", "P1"): """\
S2 on P1, T=1, reference: exact
          dt       err[0]       err[1]       lte[0]       lte[1]
       0.125   2.2856e-04   4.1270e-04   1.9934e-02   2.9316e-03
      0.0625   3.2733e-05   5.5556e-05   5.6878e-03   8.2600e-04
     0.03125   4.4171e-06   7.2262e-06   1.5242e-03   2.1965e-04
    0.015625   5.7461e-07   9.2192e-07   3.9486e-04   5.6664e-05
global slopes: [2.880, 2.936]  max-norm: 2.936
lte slopes:    [1.887, 1.899]  max-norm: 1.887
""",
    ("S3A", "P2"): """\
S3A on P2, T=1, reference: rk4 (doubling-verified, n_steps up to 2048)
          dt       err[0]       err[1]       err[2]
       0.125   7.1169e-05   2.9041e-05   1.8649e-05
      0.0625   4.7361e-06   1.4136e-06   8.9587e-07
     0.03125   3.0733e-07   8.9802e-08   4.5304e-08
    0.015625   1.9555e-08   5.7479e-09   2.4624e-09
global slopes: [3.943, 4.088, 4.297]  max-norm: 3.943
""",
}


@pytest.mark.parametrize("scheme, prob", list(GOLDEN))
def test_converge_stdout_is_pinned(capsys, scheme, prob):
    code = main(["converge", "--scheme", scheme, "--problem", prob, "--dts", LADDER])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == GOLDEN[scheme, prob]
