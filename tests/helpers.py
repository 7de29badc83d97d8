"""Helpers shared by the test modules."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_fresh(args, timeout=120, stdout=subprocess.PIPE):
    """Run ``python *args`` in a fresh interpreter that imports pnrkit from
    the source tree and can import the test modules, capturing its stderr
    and, unless ``stdout`` names another file, its stdout.

    A run still going after ``timeout`` seconds is killed and raises
    subprocess.TimeoutExpired, so a hang fails the calling test instead of
    stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(TESTS), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )


def traced_peak(call, *args):
    """Return call(*args) and the peak of the memory Python allocated while
    it ran, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
