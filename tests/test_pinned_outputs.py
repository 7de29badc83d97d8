"""Every stage's output bytes, pinned.

The pipeline runs once through cli.main into a temporary directory: two
simulated scorers of 300 clips at seed 12, with demo 04's two geometries
(every Beta shape there is above 1, so the draws hold across Python
releases), then fuse, localize, evaluate, oracle, stats, baseline and
windows on what they wrote.  The sha256 of every file written and of every
run's standard output is pinned, as test_sim's PINNED_STREAM pins
simulate's files, so a change to any stage's bytes fails here.  A change
that alters an output on purpose updates its pin and names it in
CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from pnrkit.cli import main

# demo 04's two scorers, over the same 300 clips; the classifiers flip at
# different rates, so the fused probabilities are not either scorer's
SCORERS = {
    "a": "n_clips = 300\nseed = 12\nnum_windows = 32\nhit_alpha = 7.0\n",
    "b": "n_clips = 300\nseed = 12\nnum_windows = 16\nhit_beta = 3.0\noscc_flip_prob = 0.2\n",
}


def stage_runs(root):
    """Each run's name and argv, in pipeline order; a run reads only files written before it."""
    a, b = root / "a", root / "b"
    ann = str(a / "annotations.jsonl")
    runs = {
        f"simulate-{name}": ["simulate", "--config", str(root / f"{name}.cfg"),
                             "--out-dir", str(root / name)]
        for name in SCORERS
    }
    runs.update({
        "fuse-pnr": ["fuse", "--task", "pnr", "--scores", str(a / "scores_pnr.jsonl"),
                     str(b / "scores_pnr.jsonl"), "--annotations", ann,
                     "--out", str(root / "fused_pnr.jsonl")],
        "fuse-oscc": ["fuse", "--task", "oscc", "--scores", str(a / "scores_oscc.jsonl"),
                      str(b / "scores_oscc.jsonl"), "--out", str(root / "fused_oscc.jsonl")],
        "localize-a": ["localize", "--scores", str(a / "scores_pnr.jsonl"), "--annotations", ann],
        "localize-fused": ["localize", "--scores", str(root / "fused_pnr.jsonl"),
                           "--annotations", ann, "--fallback", "argmax-confidence",
                           "--out", str(root / "preds_fused.jsonl")],
        "evaluate-pnr": ["evaluate", "--task", "pnr", "--preds", str(root / "preds_fused.jsonl"),
                         "--annotations", ann, "--out", str(root / "report_pnr.json"),
                         "--plot-data", str(root / "plot_pnr.tsv")],
        "evaluate-oscc": ["evaluate", "--task", "oscc", "--preds", str(root / "fused_oscc.jsonl"),
                          "--annotations", ann, "--out", str(root / "report_oscc.json")],
        "oracle": ["oracle", "--annotations", ann, "--n", "16"],
        "stats": ["stats", "--annotations", ann, "--out", str(root / "stats.tsv")],
        "baseline-center": ["baseline", "--mode", "center", "--annotations", ann],
        "baseline-fraction": ["baseline", "--mode", "fraction", "--annotations", ann],
        "windows": ["windows", "--frames", "240", "--n", "16"],
    })
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """The sha256 of each file the pipeline wrote (by its path under the run's
    directory), of each run's standard output, and of oracle's notes."""
    root = tmp_path_factory.mktemp("pipeline")
    for name, text in SCORERS.items():
        (root / f"{name}.cfg").write_text(text, encoding="utf-8")
    inputs = {path for path in root.iterdir()}
    out = {}
    for name, argv in stage_runs(root).items():
        stdout, stderr = io.StringIO(), io.StringIO()
        # oracle's mean error is a note on standard error; every other note names a path
        quiet = [] if name == "oracle" else ["--quiet"]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv + quiet) == 0, stderr.getvalue()
        out[f"{name}.stdout"] = sha256(stdout.getvalue().encode("utf-8"))
        if name == "oracle":
            out["oracle.stderr"] = sha256(stderr.getvalue().encode("utf-8"))
    for path in sorted(root.rglob("*")):
        if path.is_file() and path not in inputs:
            out[path.relative_to(root).as_posix()] = sha256(path.read_bytes())
    return out


EMPTY = sha256(b"")

PINNED_OUTPUTS = {
    "a/annotations.jsonl": "294590854b45635c0cc308ff7ad07ad949e143e7bb3610e6a131d9c296b53e8f",
    "a/scores_oscc.jsonl": "3b14af6a2fc8fc4422f26431a80a8997948c492d4730207c8c2cea7919410c78",
    "a/scores_pnr.jsonl": "dde9e4917a49c26df3a338e54be9e9899d7566daa23da11555b127eef2cfa8c1",
    "b/annotations.jsonl": "294590854b45635c0cc308ff7ad07ad949e143e7bb3610e6a131d9c296b53e8f",
    "b/scores_oscc.jsonl": "4bc488a4b18cc7b28ff3760e9f1c92abacf9923632ec0255ac257262ac2159b3",
    "b/scores_pnr.jsonl": "0022e0fed07d5e385cefa0ce172a162714aaadb2b3940790b8a8f859edeb36f8",
    "baseline-center.stdout": "add9bb13e814db504a27e5f12692ae5c988c2fc44de66b8aa2eeddeeaa827325",
    "baseline-fraction.stdout": "0ca5264224a56a804c38ced128946a695aec9b7fdf0bcd02c0068b9de2f294d5",
    "evaluate-oscc.stdout": "a375513bee97c91a2643c7f3d4682daf467d8f2e2c453b403e60ec9331bf245d",
    "evaluate-pnr.stdout": "0f012d93a694274c7cb693cbfddd7f18131aa4c6eda8c70cb170240ba8d79094",
    "fuse-oscc.stdout": EMPTY,
    "fuse-pnr.stdout": EMPTY,
    "fused_oscc.jsonl": "370f22bcdc29cc41ffc7092b532d3290c18da57659df8c4511484c2cf0a3b2e2",
    "fused_pnr.jsonl": "3b00f30e8852b6d1bbee18589896011b8e72e11197810324ae3d13fc78a5282a",
    "localize-a.stdout": "6f51def2542e045bf491953852fd6581c3d9fcf5747244778802345ca3955e93",
    "localize-fused.stdout": EMPTY,
    "oracle.stderr": "e1035c42c4caaaaa769c2a8da8e68e57015fd4f86d975ec816af037638bbdca8",
    "oracle.stdout": "f10f9d6581da1b738040bcff64931bebe3207562550bb3a072388c2f0ee43d31",
    "plot_pnr.tsv": "93f369cf4f6597218f45d79111fc20a78864709e271c563ded05f1b810869c81",
    "preds_fused.jsonl": "ab16380697e055c7c92237ed3d75729eabd26e123d4c3718f18642d1c18c3d72",
    "report_oscc.json": "59fa2f142396ee7437f6d62e7561bae8bc27e4eeb3a2b6358d3295b3ef8cdcd4",
    "report_pnr.json": "3b87508547b39838a4cf93748227f93c085c355b129d8a1c885b9ca919ba5c05",
    "simulate-a.stdout": EMPTY,
    "simulate-b.stdout": EMPTY,
    "stats.stdout": "f8af04e97592b8b8c42d45a7d602eac3a3167c55515c42c4b8d3f4d4ca9c3ed3",
    "stats.tsv": "5ba973d5262322439b84f6291188df621a1f31caf651c273377fe48f06c43bcf",
    "windows.stdout": "6889b3aafe5686d13894e48a8a49d74312a2585b253129581483eda8342c66a6",
}


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED_OUTPUTS)


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_is_pinned(digests, name):
    assert digests[name] == PINNED_OUTPUTS[name]
