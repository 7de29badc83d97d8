"""Import cost: each subcommand loads only the modules it runs, and
numpy loads only where the simulator and the samplers draw."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import pnrkit.cli
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
TRACER = TESTS.parent / "perfbench" / "tracer.py"

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


# Runs main(argv) in a fresh interpreter and prints its exit code and the
# modules it loaded that were not loaded at start-up.
LOADED_BY = """
import contextlib, io, json, sys
start = set(sys.modules)
from pnrkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps([rc, sorted(set(sys.modules) - start)]))
"""


def loaded_by(argv):
    proc = run_fresh(["-c", LOADED_BY, *argv])
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    assert rc == 0, argv
    return set(modules)


def library(modules):
    return {m.removeprefix("pnrkit.") for m in modules if m.startswith("pnrkit.")}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("loads")
    config = run / "sim.cfg"
    config.write_text(SIM_CONFIG, encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out-dir", str(run), "--quiet"]) == 0
    argv = ["localize", "--scores", str(run / "scores_pnr.jsonl"), "--annotations",
            str(run / "annotations.jsonl"), "--out", str(run / "preds.jsonl"), "--quiet"]
    assert main(argv) == 0
    return run


# subcommand label -> argv, with {run} standing for the files made by run_dir
SUBCOMMANDS = {
    "stats": "stats --annotations {run}/annotations.jsonl",
    "windows": "windows --frames 240 --n 16",
    "localize": "localize --scores {run}/scores_pnr.jsonl --annotations {run}/annotations.jsonl",
    "baseline": "baseline --mode center --annotations {run}/annotations.jsonl",
    "oracle": "oracle --n 16 --annotations {run}/annotations.jsonl",
    "fuse-pnr": "fuse --task pnr --scores {run}/scores_pnr.jsonl {run}/scores_pnr.jsonl "
    "--annotations {run}/annotations.jsonl --out {run}/fused_pnr.jsonl",
    "fuse-oscc": "fuse --task oscc --scores {run}/scores_oscc.jsonl {run}/scores_oscc.jsonl "
    "--out {run}/fused_oscc.jsonl",
    "evaluate-pnr": "evaluate --task pnr --preds {run}/preds.jsonl "
    "--annotations {run}/annotations.jsonl",
    "evaluate-oscc": "evaluate --task oscc --preds {run}/scores_oscc.jsonl "
    "--annotations {run}/annotations.jsonl",
    "simulate": "simulate --config {run}/sim.cfg --out-dir {run}/again --seed 6",
}


def subcommand(label, run_dir):
    return [word.format(run=run_dir) for word in SUBCOMMANDS[label].split()]


def test_help_loads_only_the_cli_and_errors():
    modules = loaded_by(["--help"])
    assert library(modules) == {"cli", "errors"}
    assert "dataclasses" not in modules


@pytest.mark.parametrize(
    "label, unused",
    [
        ("evaluate-pnr", {"fusion", "localization", "sampling", "sim"}),
        ("evaluate-oscc", {"fusion", "localization", "sampling", "sim"}),
        ("stats", {"fusion", "localization", "sampling", "sim"}),
        ("localize", {"fusion", "metrics", "sim"}),
    ],
)
def test_subcommand_skips_modules_it_does_not_run(run_dir, label, unused):
    modules = library(loaded_by(subcommand(label, run_dir)))
    assert "ingest" in modules
    assert not modules & unused


@pytest.mark.parametrize("label", list(SUBCOMMANDS))
def test_only_simulate_loads_numpy(run_dir, label):
    assert ("numpy" in loaded_by(subcommand(label, run_dir))) == (label == "simulate")


# Runs in a fresh interpreter: the package imports no module of its own
# until a name is read, then resolves every exported name.
EXPORTS = """
import sys
import pnrkit
assert [m for m in sys.modules if m.startswith("pnrkit.")] == [], "import pnrkit loaded a module"
listed = dir(pnrkit)
for name in pnrkit.__all__:
    value = getattr(pnrkit, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert name in listed, name
namespace = {}
exec("from pnrkit import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(pnrkit.__all__)
try:
    pnrkit.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'pnrkit' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("pnrkit.no_such_name resolved")
print(len(pnrkit.__all__))
"""


def test_package_exports_resolve_lazily():
    proc = run_fresh(["-c", EXPORTS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "68\n"


def test_cli_rejects_unknown_names():
    message = "module 'pnrkit.cli' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        pnrkit.cli.no_such_name


def tracer_wrapped():
    # perfbench/tracer.py replaces these pnrkit.cli attributes with timed
    # wrappers and reports a missing one as absent; its span names start
    # with the home module of the function they time
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    return [(span_name, attr) for span_name, attr, _ in tracer.WRAPPED]


def test_tracer_names_are_library_functions():
    for span_name, attr in tracer_wrapped():
        home = import_module("pnrkit." + span_name.split(".")[0])
        assert getattr(pnrkit.cli, attr) is getattr(home, attr), span_name


def test_handlers_call_what_the_tracer_wraps(run_dir, monkeypatch):
    # a handler that reached a library function by any other path than its
    # pnrkit.cli attribute would escape the tracer's wrapper
    through_cli, around_cli = Counter(), Counter()

    def counted(counter, attr, fn):
        def wrapper(*args, **kwargs):
            counter[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrapped = tracer_wrapped()
    for span_name, attr in wrapped:
        fn = getattr(pnrkit.cli, attr)
        monkeypatch.setattr(pnrkit.cli, attr, counted(through_cli, attr, fn))
        for other_path in (pnrkit, import_module("pnrkit." + span_name.split(".")[0])):
            monkeypatch.setattr(other_path, attr, counted(around_cli, attr, fn))
    for label in ("simulate", "localize", "oracle", "fuse-pnr", "fuse-oscc",
                  "evaluate-pnr", "evaluate-oscc"):
        assert main([*subcommand(label, run_dir), "--quiet"]) == 0
    assert around_cli == Counter()
    assert sorted(through_cli) == sorted(attr for _, attr in wrapped)
