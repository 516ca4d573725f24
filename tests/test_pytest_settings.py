"""The repository's pytest settings, run on a throwaway test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_fails_alone(tmp_path):
    """Under the repository's warning filters a failing ``@given`` test is one
    failure, and the tests after it still run.  Hypothesis's pytest plugin
    imports libcst, where it is installed, to write a patch for the failing
    example; that import warns with a DeprecationWarning, which must not
    become an internal error that ends the run."""
    test_file = tmp_path / "test_two.py"
    test_file.write_text(ONE_FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
