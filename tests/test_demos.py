"""Every demo script, and the README's library example, runs to completion
in a fresh interpreter."""

import re

import pytest
from helpers import TESTS, run_fresh

ROOT = TESTS.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_ok(args):
    proc = run_fresh(args, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    run_ok([str(demo)])


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    run_ok(["-c", example])
