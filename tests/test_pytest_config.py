"""A failing hypothesis test fails on its own under the repo's pytest
config: it must not abort the whole run.  With ``filterwarnings =
["error"]``, a third-party ``DeprecationWarning`` raised while hypothesis's
plugin reports the failure once ended the run in ``INTERNALERROR``."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

SOURCE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_is_reported(tmp_path):
    path = tmp_path / "test_given.py"
    path.write_text(SOURCE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
