"""The start-up checks of `startup_checks.py`, each in a fresh interpreter
with site-packages disabled, as CI runs them."""

import subprocess
import sys

import pytest

from startup_checks import CHECKS, ROOT


@pytest.mark.parametrize("name", CHECKS)
def test_startup_check(name):
    run = subprocess.run([sys.executable, "-I", "-S", "tests/startup_checks.py", name],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
