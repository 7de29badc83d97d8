"""Import cost: the CLI starts without numpy, which only draws need."""

import os
import subprocess
import sys
from pathlib import Path

from pnrkit.cli import main
from pnrkit.model import Clip, PnrAnnotation
from pnrkit.sampling import (
    SamplerConfig,
    WindowingConfig,
    negative_windows,
    positive_window,
    tsn_sample,
    valid_negative_starts,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SIM_CONFIG = "n_clips = 25\nseed = 5\n"

# Runs in a fresh interpreter: checks that numpy is still unloaded after
# importing this module (and so the CLI and samplers), then runs simulate
# and the train-mode samplers.
NUMPY_FREE_RUN = """
import sys
from test_imports import main, sampler_calls
assert "numpy" not in sys.modules, "importing pnrkit loaded numpy"
config, out_dir = sys.argv[1:]
assert main(["simulate", "--config", config, "--out-dir", out_dir, "--quiet"]) == 0
print(repr(sampler_calls()))
"""


def sampler_calls():
    clip = Clip("c", 30.0, 240)
    ann = PnrAnnotation("c", 100, (40, 180))
    windows = WindowingConfig(num_windows=4, window_len=32, jitter=8)
    return (
        tsn_sample(clip, SamplerConfig(num_segments=8, mode="train-random", seed=3)),
        positive_window(ann, clip, windows, seed=4),
        tuple(int(s) for s in valid_negative_starts(ann, clip, windows)),
        negative_windows(ann, clip, windows, seed=5, count=6),
    )


def run_fresh(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(TESTS), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_does_not_load_numpy():
    proc = run_fresh(["-c", "import pnrkit.cli, sys; sys.exit('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr


def test_draws_work_without_numpy_preloaded(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text(SIM_CONFIG, encoding="utf-8")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = run_fresh(["-c", NUMPY_FREE_RUN, str(config), str(fresh)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(sampler_calls()) + "\n"
    assert main(["simulate", "--config", str(config), "--out-dir", str(here), "--quiet"]) == 0
    for name in ("annotations.jsonl", "scores_pnr.jsonl", "scores_oscc.jsonl"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes()
