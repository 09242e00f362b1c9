"""Error-inhibiting explicit block one-step ODE schemes.

Encode, verify, derive, and run block one-step methods of the form
V_{n+1} = A V_n + dt * B * F(V_n) whose leading truncation error lies in the
zero-eigenspace of A, making the global error converge one order beyond the
local truncation error.  All coefficient algebra is exact rational; time
stepping and convergence studies run in double precision.
"""

__version__ = "0.1.0"

from .analysis import (
    VerificationReport,
    residual_table,
    residual_vector,
    spectral_radius,
    stability_scan,
    truncation_order,
    verify_conditions,
)
from .derive import (
    DerivationResult,
    SearchRoot,
    assemble,
    derive_scheme,
    eis_constraint,
    search_s2,
    search_s3_slice,
    solve_B,
)
from .exact import rat_str
from .harness import ConvergenceReport, converge, emit_csv, emit_plot_script, fit_slope
from .integrate import (
    Problem,
    Trajectory,
    bootstrap,
    integrate,
    make_dahlquist,
    make_p1,
    make_p4,
    make_problem,
    make_vdp,
    measure_lte,
    problem,
    rk4_reference,
    step,
)
from .scheme import BUILTIN_NAMES, Scheme, builtin, load, make_scheme, save

__all__ = [
    "BUILTIN_NAMES",
    "ConvergenceReport",
    "DerivationResult",
    "Problem",
    "Scheme",
    "SearchRoot",
    "Trajectory",
    "VerificationReport",
    "assemble",
    "bootstrap",
    "builtin",
    "converge",
    "derive_scheme",
    "eis_constraint",
    "emit_csv",
    "emit_plot_script",
    "fit_slope",
    "integrate",
    "load",
    "make_dahlquist",
    "make_p1",
    "make_p4",
    "make_problem",
    "make_scheme",
    "make_vdp",
    "measure_lte",
    "problem",
    "rat_str",
    "residual_table",
    "residual_vector",
    "rk4_reference",
    "save",
    "search_s2",
    "search_s3_slice",
    "solve_B",
    "spectral_radius",
    "stability_scan",
    "step",
    "truncation_order",
    "verify_conditions",
    "__version__",
]
