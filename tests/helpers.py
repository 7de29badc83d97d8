"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_fresh(args, timeout=120):
    """Run ``python *args`` in a fresh interpreter that imports pnrkit from
    the source tree and can import the test modules.

    A run still going after ``timeout`` seconds is killed and raises
    subprocess.TimeoutExpired, so a hang fails the calling test instead of
    stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(TESTS), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
