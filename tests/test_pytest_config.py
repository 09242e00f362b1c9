"""The repository's pytest configuration reports a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_holds(n):
    assert n != n
"""


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # Warnings are errors, so a warning raised while hypothesis writes its
    # report would turn this failure into an INTERNALERROR (exit code 3).
    (tmp_path / "test_never_holds.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_never_holds.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
