import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalfib


@pytest.fixture
def run_optimized():
    """Run a code string under python -O against this checkout's
    modalfib, so that a check made with assert would vanish."""
    src = str(Path(modalfib.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code, timeout=None):
        return subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=timeout)
    return run
