"""pyproject.toml makes every warning an error but one: the
``DeprecationWarning`` that hypothesis' pytest plugin raises while it
reports a falsifying example. As an error it would end the whole session
at the first failing @given test, and no later test would run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
    assert "FAILED test_two.py::test_fails" in result.stdout
