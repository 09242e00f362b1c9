"""Golden stdout of the `blockstep` subcommands.

`converge` is pinned on both oracle branches.  P1 has a closed form, so its
references and starting rows come from one `exact` call; P2 (van der Pol)
has none, so they come from one doubling-verified RK4 sweep.  Any change to
the printed table, slopes or reference line on either branch fails here.
Every other subcommand is pinned on one or two representative calls;
`integrate` on P2 covers the RK4 bootstrap.  The three CSV outputs
(`converge --csv`, `integrate --out`, `stability --out`) are pinned byte for
byte, together with the stdout of the call that writes them.
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
  "error_inhibiting": false
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

# argv without the output path: (stdout with {path} for it, file contents)
FILE_GOLDEN = {
    ("converge", "--scheme", "S2", "--problem", "P1", "--dts", LADDER, "--csv"): (
        GOLDEN["S2", "P1"] + "wrote {path}\n",
        """\
dt,global_err_comp_0,global_err_comp_1,lte_comp_0,lte_comp_1
0.125,0.00022855571802621322,0.00041269968591317596,0.019934134644570278,0.0029315647827758973
0.0625,3.2732773690702377e-05,5.5556288694802447e-05,0.0056878306878336282,0.00082599614685396894
0.03125,4.4170683116129261e-06,7.2262046104110134e-06,0.0015241838146549114,0.00021965214272756661
0.015625,5.7460935837250204e-07,9.2192112283173699e-07,0.00039486381547915173,5.6664185929200528e-05
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
