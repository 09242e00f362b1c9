"""The package root defines only __version__; names live in the submodules."""

import os
import subprocess
import sys
from pathlib import Path

import blockstep

SRC = str(Path(blockstep.__file__).resolve().parents[1])

PROBE = """
import sys
import blockstep
loaded = sorted(name for name in sys.modules if name.startswith("blockstep."))
import blockstep.integrate as m
print(type(m).__name__, loaded)
"""


def test_submodule_is_not_shadowed_and_root_loads_no_submodule():
    # A fresh interpreter: this test process has imported the submodules.
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "module []\n"
