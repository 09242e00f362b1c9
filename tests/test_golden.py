"""Golden stdout of the `blockstep` subcommands.

`converge` is pinned on both oracle branches.  P1 has a closed form, so its
references and starting rows come from one `exact` call; P2 (van der Pol)
has none, so they come from one doubling-verified RK4 reference, pinned both
where it passes at its first pair and where it escalates.  Any change to
the printed table, slopes or reference line on either branch fails here.
Every other subcommand is pinned on one or two representative calls;
`integrate` on P2 covers the RK4 bootstrap.  The three CSV outputs
(`converge --csv`, `integrate --out`, `stability --out`) are pinned byte for
byte, together with the stdout of the call that writes them; the `converge`
CSVs on P2 pin the RK4 reference values at full precision.
"""

import pytest

from blockstep.cli import main

LADDER = "1/8,1/16,1/32,1/64"

GOLDEN = {
    ("S2", "P1"): """\
S2 on P1, T=1, reference: exact
          dt       err[0]       err[1]       lte[0]       lte[1]    runmax[0]    runmax[1]
       0.125   2.2856e-04   4.1270e-04   1.9934e-02   2.9316e-03   2.4918e-03   4.6228e-04
      0.0625   3.2733e-05   5.5556e-05   5.6878e-03   8.2600e-04   3.5549e-04   6.4026e-05
     0.03125   4.4171e-06   7.2262e-06   1.5242e-03   2.1965e-04   4.7631e-05   8.5079e-06
    0.015625   5.7461e-07   9.2192e-07   3.9486e-04   5.6664e-05   6.1697e-06   1.0983e-06
global slopes: [2.880, 2.936]  max-norm: 2.936
lte slopes:    [1.887, 1.899]  max-norm: 1.887
run-max slopes: [2.887, 2.906]  max-norm: 2.887
""",
    ("S3A", "P2"): """\
S3A on P2, T=1, reference: rk4 (doubling-verified, n_steps up to 512)
          dt       err[0]       err[1]       err[2]
       0.125   7.1169e-05   2.9041e-05   1.8649e-05
      0.0625   4.7361e-06   1.4136e-06   8.9587e-07
     0.03125   3.0733e-07   8.9802e-08   4.5304e-08
    0.015625   1.9555e-08   5.7479e-09   2.4625e-09
global slopes: [3.943, 4.088, 4.297]  max-norm: 3.943
""",
}


@pytest.mark.parametrize("scheme, prob", list(GOLDEN))
def test_converge_stdout_is_pinned(capsys, scheme, prob):
    code = main(["converge", "--scheme", scheme, "--problem", prob, "--dts", LADDER])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == GOLDEN[scheme, prob]


CLI_GOLDEN = {
    ("list",): """\
name        s  q  EIS  abscissae
S2          2  2  yes  (1/2, 0) -> (3/2, 1)
BUTCHER2    2  2  no   (1, 0) -> (2, 1)
S3A         3  3  yes  (2/3, 1/3, 0) -> (5/3, 4/3, 1)
S3B         3  3  yes  (2/3, 1/3, 0) -> (5/3, 4/3, 1)
S3C         3  3  yes  (2/3, 1/3, 0) -> (5/3, 4/3, 1)
""",
    ("verify", "S3A"): """\
scheme S3A
C1 PASS rank=1
C2 PASS row_sums=(1, 1, 1)
C3 PASS trace=1
C4 PASS eis_residual=0
truncation order q=3, leading residual d_4 = (43699/373248, 12787/373248, 2227/373248)
error inhibiting: yes
""",
    ("verify", "BUTCHER2", "--json"): """\
{
  "scheme": "BUTCHER2",
  "conditions": {
    "C1": {
      "status": "PASS",
      "witness": 1
    },
    "C2": {
      "status": "PASS",
      "witness": "(1, 1)"
    },
    "C3": {
      "status": "PASS",
      "witness": "1"
    },
    "C4": {
      "status": "FAIL",
      "witness": "19/24"
    }
  },
  "q": 2,
  "leading": [
    "23/48",
    "1/16"
  ],
  "a": [
    "7/4",
    "-3/4"
  ],
  "eis_residual": "19/24",
  "error_inhibiting": false,
  "marches": true
}
""",
    ("truncation", "S3A", "--pmax", "6"): """\
d_1 = (0, 0, 0)
d_2 = (0, 0, 0)
d_3 = (0, 0, 0)
d_4 = (43699/373248, 12787/373248, 2227/373248)
d_5 = (197159/2799360, 5647/311040, 7207/2799360)
d_6 = (2489021/100776960, 554237/100776960, 12889/20155392)
truncation order q=3
""",
    ("derive", "--a=-1/6,7/6"): """\
a = (-1/6, 7/6)
c_in = (1/2, 0), c_out = (3/2, 1)
B =
  [ 55/24  -17/24]
  [ 25/24    1/24]
achieved truncation order q=2
eis_residual = 0
""",
    ("search",): """\
root 0: param=-1/6 (-0.16666666666666666, exact), a=(-1/6, 7/6), q=2, eis_residual=0
""",
    ("search", "--fix", "0=467/768", "--range=-3:3"): """\
root 0: param=-499/192 (-2.5989583333333335, exact), a=(467/768, -499/192, 2297/768), \
q=3, eis_residual=0
""",
    ("integrate", "--scheme", "S2", "--problem", "P1", "--dt", "1/8", "--T", "1"): """\
final base time t=1 after 8 steps of dt=0.125
  c_in=1/2: (0.48461992913045865)  |error|=2.286e-04
  c_in=0: (0.49958730031408682)  |error|=4.127e-04
""",
    ("integrate", "--scheme", "S3A", "--problem", "P2", "--dt", "1/8", "--T", "1"): """\
final base time t=1 after 8 steps of dt=0.125
  c_in=2/3: (1.0039915819478369, -1.6563271651647402)
  c_in=1/3: (1.0721407380888932, -1.6135475668115333)
  c_in=0: (1.1384588538535232, -1.5689426364014556)
""",
    # A decimal ladder whose doubles miss T = 0.3: reachable in rationals.
    ("converge", "--scheme", "S2", "--problem", "P3", "--dts", "0.1,0.05,0.025", "--T", "0.3"): """\
S2 on P3, T=0.3, reference: exact
          dt       err[0]       err[1]       lte[0]       lte[1]    runmax[0]    runmax[1]
         0.1   1.5288e-04   9.8361e-06   2.6371e-03   3.7946e-04   2.6371e-04   3.7946e-05
        0.05   1.9281e-05   1.9859e-06   6.7868e-04   9.7312e-05   3.3934e-05   4.8656e-06
       0.025   2.4164e-06   3.0087e-07   1.7216e-04   2.4640e-05   4.3040e-06   6.1600e-07
global slopes: [2.992, 2.515]  max-norm: 2.992
lte slopes:    [1.969, 1.972]  max-norm: 1.969
run-max slopes: [2.969, 2.972]  max-norm: 2.969
""",
    # At T = 8 the P2 reference escalates: the doubling check passes at 8192.
    ("converge", "--scheme", "S2", "--problem", "P2", "--T", "8", "--dts", "1/8,1/16,1/32"): """\
S2 on P2, T=8, reference: rk4 (doubling-verified, n_steps up to 8192)
          dt       err[0]       err[1]
       0.125   3.8694e-03   4.5929e-03
      0.0625   4.7115e-04   5.7006e-04
     0.03125   5.8268e-05   7.1201e-05
global slopes: [3.027, 3.006]  max-norm: 3.006
""",
    # No --dts: the default ladder, 1/8 ... 1/128.
    ("converge", "--scheme", "S3B", "--problem", "P4"): """\
S3B on P4, T=1, reference: exact
          dt       err[0]       err[1]       err[2]       lte[0]       lte[1]       lte[2]    runmax[0]    runmax[1]    runmax[2]
       0.125   4.2963e-05   2.9354e-05   1.9507e-05   1.2989e-03   3.7719e-04   6.2383e-05   2.3933e-04   9.1625e-05   3.1944e-05
      0.0625   7.8852e-08   3.2351e-07   3.7415e-07   1.6300e-04   4.7370e-05   7.8516e-06   1.2576e-05   4.3350e-06   1.2543e-06
     0.03125   7.0487e-08   1.7153e-08   6.1832e-10   2.0372e-05   5.9196e-06   9.8147e-07   7.0977e-07   2.2795e-07   5.5064e-08
    0.015625   6.1466e-09   2.0882e-09   7.3972e-10   2.5486e-06   7.4046e-07   1.2274e-07   4.2129e-08   1.2957e-08   2.7412e-09
   0.0078125   4.3399e-10   1.5996e-10   6.7309e-11   3.1863e-07   9.2569e-08   1.5343e-08   2.5649e-09   7.7060e-10   1.4995e-10
global slopes: [3.687, 4.225, 4.527]  max-norm: 3.912
lte slopes:    [2.999, 2.998, 2.998]  max-norm: 2.999
run-max slopes: [4.124, 4.210, 4.424]  max-norm: 4.124
""",
    ("stability", "--scheme", "S2", "--n", "3"): """\
re,im,rho
-3,-3,7.7642500455072776
-1,-3,5.8351537958232287
1,-3,6.0778220472727673
-3,0,5.3452078799117126
-1,0,1.6384919824742159
1,0,2.4484026266372378
-3,3,7.7642500455072776
-1,3,5.8351537958232287
1,3,6.0778220472727673
""",
}


@pytest.mark.parametrize("argv", list(CLI_GOLDEN), ids=" ".join)
def test_cli_stdout_is_pinned(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == CLI_GOLDEN[argv]


INTEGRATE_P1 = ("integrate", "--scheme", "S2", "--problem", "P1", "--dt", "1/8", "--T", "1")
INTEGRATE_P2 = ("integrate", "--scheme", "S3A", "--problem", "P2", "--dt", "1/8", "--T", "1")
STABILITY = ("stability", "--scheme", "S2", "--n", "3")
CONVERGE_P2_T8 = (
    "converge", "--scheme", "S2", "--problem", "P2", "--T", "8", "--dts", "1/8,1/16,1/32"
)

# argv without the output path: (stdout with {path} for it, file contents)
FILE_GOLDEN = {
    ("converge", "--scheme", "S2", "--problem", "P1", "--dts", LADDER, "--csv"): (
        GOLDEN["S2", "P1"] + "wrote {path}\n",
        """\
dt,global_err_comp_0,global_err_comp_1,lte_comp_0,lte_comp_1,runmax_comp_0,runmax_comp_1
0.125,0.00022855571802621322,0.00041269968591317596,0.019934134644572055,0.0029315647827772295,0.0024917668305715068,0.00046227730104930753
0.0625,3.2732773690702377e-05,5.5556288694802447e-05,0.0056878306878331841,0.00082599614685463507,0.00035548941798957401,6.4025903731557143e-05
0.03125,4.4170683116129261e-06,7.2262046104110134e-06,0.0015241838146557996,0.00021965214272867684,4.7630744207993736e-05,8.5079321732184354e-06
0.015625,5.7460935837250204e-07,9.2192112283173699e-07,0.00039486381547959581,5.6664185926535993e-05,6.1697471168686846e-06,1.0983298335265346e-06
""",
    ),
    # The P2 errors at full precision pin the RK4 reference values they are
    # measured against: passing at the first doubling pair, and escalating.
    ("converge", "--scheme", "S3A", "--problem", "P2", "--dts", LADDER, "--csv"): (
        GOLDEN["S3A", "P2"] + "wrote {path}\n",
        """\
dt,global_err_comp_0,global_err_comp_1,global_err_comp_2
0.125,7.116937877604812e-05,2.9040731487128824e-05,1.8649126660497117e-05
0.0625,4.7361063402195924e-06,1.4136153489996417e-06,8.9587397167356642e-07
0.03125,3.0733064537713517e-07,8.9801630132058108e-08,4.5304026086157023e-08
0.015625,1.9555224772815905e-08,5.7479470072507866e-09,2.4624533523365244e-09
""",
    ),
    (*CONVERGE_P2_T8, "--csv"): (
        CLI_GOLDEN[CONVERGE_P2_T8] + "wrote {path}\n",
        """\
dt,global_err_comp_0,global_err_comp_1
0.125,0.0038694103652496814,0.0045928950724869466
0.0625,0.00047115246143603073,0.00057006380141721991
0.03125,5.8267618277429989e-05,7.1200612038690991e-05
""",
    ),
    (*INTEGRATE_P1, "--out"): (
        "wrote {path}\n" + CLI_GOLDEN[INTEGRATE_P1],
        """\
t,component_0
0,1
0.125,0.88925533448673599
0.25,0.7996964132231843
0.375,0.72690798425167891
0.5,0.66621544053745685
0.625,0.61492233808356611
0.75,0.57097238758863689
0.875,0.53289637726023076
1,0.49958730031408682
""",
    ),
    (*INTEGRATE_P2, "--out"): (
        "wrote {path}\n" + CLI_GOLDEN[INTEGRATE_P2],
        """\
t,component_0,component_1
0,2,0
0.125,1.9845851458095074,-0.24477090672774254
0.25,1.9393259415481376,-0.47742036906196977
0.375,1.8658133491256235,-0.69627425934430209
0.5,1.7658496680120916,-0.90054943878156735
0.625,1.6412786686153849,-1.0900323299240853
0.75,1.4939487915152312,-1.2647145203470278
0.875,1.3257138164447082,-1.4244979101849911
1,1.1384588538535232,-1.5689426364014556
""",
    ),
    # the file holds what the same call prints without --out
    (*STABILITY, "--out"): ("wrote {path} (3x3 grid)\n", CLI_GOLDEN[STABILITY]),
}


@pytest.mark.parametrize("argv", list(FILE_GOLDEN), ids=" ".join)
def test_cli_files_are_pinned(tmp_path, capsys, argv):
    path = tmp_path / "out.csv"
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    stdout, contents = FILE_GOLDEN[argv]
    assert (code, captured.err) == (0, "")
    assert captured.out == stdout.format(path=path)
    assert path.read_bytes() == contents.encode()
