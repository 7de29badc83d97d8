"""Import cost: each subcommand loads only the modules it runs, no
subcommand or sampler loads numpy, and no library module imports a name
it does not use."""

import ast
import importlib.util
import json
import typing
from collections import Counter
from importlib import import_module

import pytest
from helpers import SRC, TESTS, run_fresh

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

TRACER = TESTS.parent / "perfbench" / "tracer.py"

SIM_CONFIG = "n_clips = 25\nseed = 5\n"

# Runs in a fresh interpreter: checks that numpy is unloaded after
# importing this module (and so the CLI and samplers), and still unloaded
# after simulate and the train-mode samplers have run.
NUMPY_FREE_RUN = """
import sys
from test_imports import main, sampler_calls
assert "numpy" not in sys.modules, "importing pnrkit loaded numpy"
config, out_dir = sys.argv[1:]
assert main(["simulate", "--config", config, "--out-dir", out_dir, "--quiet"]) == 0
calls = sampler_calls()
assert "numpy" not in sys.modules, "a draw loaded numpy"
print(repr(calls))
"""


def sampler_calls():
    clip = Clip("c", 30.0, 240)
    ann = PnrAnnotation(100, (40, 180))
    windows = WindowingConfig(num_windows=4, window_len=32, jitter=8)
    return (
        tsn_sample(clip, SamplerConfig(num_segments=8, mode="train-random", seed=3)),
        positive_window(ann, clip, windows, seed=4),
        valid_negative_starts(ann, clip, windows),
        negative_windows(ann, clip, windows, seed=5, count=6),
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


@pytest.mark.parametrize("label", ["--help", *SUBCOMMANDS])
def test_no_stage_loads_dataclasses_or_inspect(run_dir, label):
    # records are plain tuple subclasses; dataclasses would pull in inspect,
    # ast, dis and tokenize at start-up
    argv = ["--help"] if label == "--help" else subcommand(label, run_dir)
    assert not loaded_by(argv) & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "label, runs, unused",
    [
        ("evaluate-pnr", {"ingest", "metrics"}, {"fusion", "localization", "sampling", "sim"}),
        ("evaluate-oscc", {"ingest", "metrics"}, {"fusion", "localization", "sampling", "sim"}),
        ("stats", {"ingest", "metrics"}, {"fusion", "localization", "sampling", "sim"}),
        ("localize", {"ingest", "localization"}, {"fusion", "metrics", "sampling", "sim"}),
        ("oracle", {"ingest", "localization"}, {"fusion", "metrics", "sim"}),
        ("baseline", {"ingest", "localization"}, {"fusion", "metrics", "sampling", "sim"}),
        ("windows", {"sampling"}, {"fusion", "ingest", "localization", "metrics", "sim"}),
        ("fuse-pnr", {"ingest", "fusion"}, {"localization", "metrics", "sampling", "sim"}),
        ("fuse-oscc", {"ingest", "fusion"}, {"localization", "metrics", "sampling", "sim"}),
        ("simulate", {"ingest", "sim"}, {"fusion", "localization", "metrics"}),
    ],
)
def test_subcommand_skips_modules_it_does_not_run(run_dir, label, runs, unused):
    modules = library(loaded_by(subcommand(label, run_dir)))
    assert runs <= modules
    assert not modules & unused


# Runs main(argv) in a fresh interpreter and prints its exit code and the
# formats whose line pattern it compiled, told apart by a key of each.
COMPILED_BY = """
import contextlib, io, json, re, sys
patterns, compile = [], re.compile

def spy(pattern, flags=0):
    patterns.append(pattern)
    return compile(pattern, flags)

re.compile = spy
from pnrkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
keys = {"num_frames": "annotations", "confidence": "scores", "prob": "probabilities",
        "time_sec": "predictions"}
print(json.dumps([rc, sorted({name for pattern in patterns for key, name in keys.items()
                              if isinstance(pattern, str) and f'"{key}": ' in pattern})]))
"""


@pytest.mark.parametrize(
    "label, formats",
    [
        ("--help", []),
        ("windows", []),
        ("simulate", []),
        ("stats", ["annotations"]),
        ("oracle", ["annotations"]),
        ("evaluate-oscc", ["annotations", "probabilities"]),
        ("evaluate-pnr", ["annotations", "predictions"]),
        ("localize", ["annotations", "scores"]),
        ("fuse-pnr", ["annotations", "scores"]),
        ("fuse-oscc", ["probabilities"]),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_a_stage_compiles_only_the_line_patterns_it_parses(run_dir, label, formats):
    # a pattern is compiled the first time its format is parsed, never on import
    argv = ["--help"] if label == "--help" else subcommand(label, run_dir)
    proc = run_fresh(["-c", COMPILED_BY, *argv])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, formats]


@pytest.mark.parametrize("label", list(SUBCOMMANDS))
def test_no_subcommand_loads_numpy(run_dir, label):
    assert "numpy" not in loaded_by(subcommand(label, run_dir))


def imported_names(tree):
    """Each name an import statement in tree binds, with its line; the
    ``from __future__`` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted((SRC / "pnrkit").glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # no linter runs on the package, so an import whose last use moved to
    # another module would stay behind, and every stage would still load it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize(
    "path", sorted(set((SRC / "pnrkit").glob("*.py")) - {SRC / "pnrkit" / "cli.py"}),
    ids=lambda p: p.name,
)
def test_no_import_runs_per_call(path):
    # an import statement in a function looks its module up on every call;
    # only cli defers one, so that --help loads no more than it needs
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        (inner.lineno, function.name)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(function)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_ingest_has_no_json_encoder():
    # each emitter writes a line with one f-string of checked fields; a
    # fallback to json's encoder would write, unnoticed, a value the parser
    # refuses (an int clip id, 1 for a label)
    tree = ast.parse((SRC / "pnrkit" / "ingest.py").read_text(encoding="utf-8"))
    encoders = {"dump", "dumps", "JSONEncoder"}
    uses = [
        (node.attr, node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in encoders
    ]
    assert uses + [(name, line) for name, line in imported_names(tree) if name in encoders] == []


WHOLE_READS = {"read", "read_text", "readlines"}


@pytest.mark.parametrize("path", sorted((SRC / "pnrkit").glob("*.py")), ids=lambda p: p.name)
def test_no_whole_file_reads(path):
    # every input is read line by line as it is parsed; a call to one of
    # these would hold a whole input text again
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in WHOLE_READS
    ]
    assert calls == []


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
    assert proc.stdout == "65\n"


def test_every_public_hint_resolves():
    # annotations are strings until read (PEP 563); each must name something
    # its module can reach, a record's __new__ too
    unresolved = []
    for name in pnrkit.__all__:
        value = getattr(pnrkit, name)
        for target in (value, *([value.__new__] if "__new__" in vars(value) else [])):
            try:
                typing.get_type_hints(target)
            except NameError as exc:
                unresolved.append((name, str(exc)))
    assert unresolved == []


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
