"""Error-inhibiting explicit block one-step ODE schemes.

Encode, verify, derive, and run block one-step methods of the form
V_{n+1} = A V_n + dt * B * F(V_n) whose leading truncation error lies in the
zero-eigenspace of A, making the global error converge one order beyond the
local truncation error.  All coefficient algebra is exact rational; time
stepping and convergence studies run in double precision.

Names are imported from the submodules (scheme, exact, analysis, derive,
integrate, harness, cli); this root defines only __version__.
"""

__version__ = "0.1.0"
