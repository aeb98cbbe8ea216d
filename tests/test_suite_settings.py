"""The suite's pytest settings, as the repository's ini applies them."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """Hypothesis reports a failing property through libcst, which warns on
    import.  Under the ini's warnings-as-errors that warning must not turn
    the failure into an internal error (exit 3) that skips every later
    test: the run exits 1, with one failure and one pass."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "-p", "no:cacheprovider",
         "-q", "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
