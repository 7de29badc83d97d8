"""Command-line pipelines: composition, determinism, diagnostics."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
from pathlib import Path

import pytest
from helpers import run_fresh, traced_peak
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pnrkit.cli
from pnrkit.cli import _load, build_parser, main
from pnrkit.errors import ConflictError, ParseError
from pnrkit.ingest import parse_annotations, parse_oscc_scores, parse_pnr_scores, parse_predictions
from pnrkit.model import SOURCES

FIXTURE = Path(__file__).parent / "data" / "annotations_3clips.jsonl"


def subcommand_parsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def with_option(option):
    return {
        name
        for name, parser in subcommand_parsers().items()
        if any(option in action.option_strings for action in parser._actions)
    }


@pytest.fixture()
def sim_dir(tmp_path):
    """A small simulated dataset shared by the pipeline tests."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_clips = 40\nseed = 17\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    return out


class TestSimulate:
    def test_emits_three_ingestible_files(self, sim_dir):
        ds = parse_annotations((sim_dir / "annotations.jsonl").read_text(encoding="utf-8"))
        assert len(ds) == 40
        scores = parse_pnr_scores((sim_dir / "scores_pnr.jsonl").read_text(encoding="utf-8"))
        assert set(scores) == set(ds.clips)
        probs = parse_oscc_scores((sim_dir / "scores_oscc.jsonl").read_text(encoding="utf-8"))
        assert set(probs) == set(ds.clips)

    def test_reruns_are_byte_identical(self, sim_dir, tmp_path):
        cfg = tmp_path / "sim.cfg"
        again = tmp_path / "again"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(again), "--quiet"]) == 0
        for name in ("annotations.jsonl", "scores_pnr.jsonl", "scores_oscc.jsonl"):
            assert (again / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_seed_flag_overrides_config(self, sim_dir, tmp_path):
        cfg = tmp_path / "sim.cfg"
        other = tmp_path / "other"
        assert main(
            ["simulate", "--config", str(cfg), "--out-dir", str(other), "--seed", "18", "--quiet"]
        ) == 0
        assert (other / "annotations.jsonl").read_bytes() != (
            sim_dir / "annotations.jsonl"
        ).read_bytes()

    def test_short_clips_feed_localize_and_fuse(self, tmp_path):
        # a 16-window sweep of a 33-frame clip repeats its two windows
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            "n_clips = 6\nseed = 3\nduration_min_sec = 1.1\nduration_max_sec = 1.1\n",
            encoding="utf-8",
        )
        run = tmp_path / "short"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(run), "--quiet"]) == 0
        scores, annotations = str(run / "scores_pnr.jsonl"), str(run / "annotations.jsonl")
        assert main(["localize", "--scores", scores, "--annotations", annotations,
                     "--out", str(tmp_path / "preds.jsonl"), "--quiet"]) == 0
        assert main(["fuse", "--task", "pnr", "--scores", scores, scores,
                     "--out", str(tmp_path / "fused.jsonl"), "--quiet"]) == 0

    def test_bad_config_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "sim.cfg" in err and "bogus" in err


    def test_out_is_refused(self, sim_dir, tmp_path, capsys):
        # simulate writes to --out-dir only; --out is not read as its abbreviation
        out_dir, out = tmp_path / "d", tmp_path / "x"
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", str(tmp_path / "sim.cfg"), "--out-dir", str(out_dir),
                  "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists() and not out_dir.exists()

    def test_peak_memory_stays_below_the_score_file(self, tmp_path):
        # the score file is written one clip at a time as it is formatted,
        # so its whole text and its row strings are never held at once
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_clips = 1000\nseed = 5\n", encoding="utf-8")
        rc, peak = traced_peak(
            main, ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        assert peak < 3 * (tmp_path / "scores_pnr.jsonl").stat().st_size

    def test_peak_memory_does_not_grow_with_windows_per_clip(self, tmp_path):
        # each clip's scores are drawn as the writer reaches them, so at 64
        # windows a clip the run holds a small part of its score file
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_clips = 2\n", encoding="utf-8")
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0  # loads the modules the stage runs
        cfg.write_text("n_clips = 1000\nseed = 5\nnum_windows = 64\n", encoding="utf-8")
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        assert peak < 0.5 * (tmp_path / "scores_pnr.jsonl").stat().st_size

    def test_checks_run_before_the_first_write(self, tmp_path, capsys):
        # every clip is checked against the window before any clip is drawn
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n_clips = 4\nduration_min_sec = 5.07\nduration_max_sec = 5.07\nwindow_len = 200\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnrkit: error: clip 'clip000000' has 152 frames, needs at least 200\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("config, flag", [("seed = -1\n", []), ("", ["--seed", "-5"])])
    def test_negative_seed_is_a_one_line_error(self, tmp_path, capsys, config, flag):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), *flag]) == 2
        seed = flag[-1] if flag else "-1"
        message = f"pnrkit: error: seed must be a non-negative integer, got {seed}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestLocalizeAndEvaluate:
    def test_pipeline_and_determinism(self, sim_dir, capsys):
        ann = str(sim_dir / "annotations.jsonl")
        preds_path = sim_dir / "preds.jsonl"
        argv = [
            "localize",
            "--scores", str(sim_dir / "scores_pnr.jsonl"),
            "--annotations", ann,
            "--out", str(preds_path),
            "--quiet",
        ]
        assert main(argv) == 0
        first = preds_path.read_bytes()
        assert main(argv) == 0
        assert preds_path.read_bytes() == first

        preds = parse_predictions(first.decode("utf-8"))
        assert len(preds) == 40

        assert main(["evaluate", "--task", "pnr", "--preds", str(preds_path),
                     "--annotations", ann, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "task: pnr" in out and "mae_sec:" in out

    def test_files_pnrkit_writes_never_reach_the_line_reader(self, sim_dir, monkeypatch):
        # each block of every file a stage writes is read on its format's pattern
        read_by_line = []
        monkeypatch.setattr(pnrkit.ingest, "_read_line", lambda *args: read_by_line.append(args))
        files = {name: str(sim_dir / f"{name}.jsonl") for name in
                 ("annotations", "scores_pnr", "scores_oscc", "preds", "fused", "fused_oscc")}
        common = ["--annotations", files["annotations"], "--quiet"]
        for argv in (
            ["localize", "--scores", files["scores_pnr"], "--out", files["preds"]],
            ["evaluate", "--task", "pnr", "--preds", files["preds"]],
            ["evaluate", "--task", "oscc", "--preds", files["scores_oscc"]],
            ["fuse", "--task", "pnr", "--scores", files["scores_pnr"], files["scores_pnr"],
             "--out", files["fused"]],
            ["fuse", "--task", "oscc", "--scores", files["scores_oscc"], files["scores_oscc"],
             "--out", files["fused_oscc"]],
            ["localize", "--scores", files["fused"], "--out", files["preds"]],
            ["evaluate", "--task", "oscc", "--preds", files["fused_oscc"]],
            ["oracle", "--n", "16"],
        ):
            assert main([*argv, *common]) == 0
        assert read_by_line == []

    def test_peak_memory_stays_below_twice_the_score_file(self, tmp_path):
        # the score file is read line by line as it is parsed, so its whole
        # text is never held beside the windows parsed from it
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_clips = 1000\nseed = 5\n", encoding="utf-8")
        run = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(run), "--quiet"]) == 0
        scores = run / "scores_pnr.jsonl"
        lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(5).shuffle(lines)
        scores.write_text("".join(lines), encoding="utf-8")
        argv = ["localize", "--scores", str(scores), "--annotations", str(run / "annotations.jsonl"),
                "--out", str(tmp_path / "preds.jsonl"), "--quiet"]
        assert main(argv) == 0  # loads the modules the stage runs
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        assert peak < 2 * scores.stat().st_size

    def test_selection_flags_change_predictions(self, sim_dir):
        ann = str(sim_dir / "annotations.jsonl")
        scores = str(sim_dir / "scores_pnr.jsonl")
        a, b = sim_dir / "a.jsonl", sim_dir / "b.jsonl"
        assert main(["localize", "--scores", scores, "--annotations", ann,
                     "--out", str(a), "--quiet"]) == 0
        assert main(["localize", "--scores", scores, "--annotations", ann,
                     "--threshold", "1.0", "--fallback", "argmax-confidence",
                     "--out", str(b), "--quiet"]) == 0
        preds_b = parse_predictions(b.read_text(encoding="utf-8"))
        assert all(p.source == "fallback-argmax" for p in preds_b.values())
        assert a.read_bytes() != b.read_bytes()

    def test_incomplete_predictions_fail_with_clip_id(self, sim_dir, capsys):
        ann = str(sim_dir / "annotations.jsonl")
        preds_path = sim_dir / "preds.jsonl"
        assert main(["localize", "--scores", str(sim_dir / "scores_pnr.jsonl"),
                     "--annotations", ann, "--out", str(preds_path), "--quiet"]) == 0
        lines = preds_path.read_text(encoding="utf-8").splitlines(keepends=True)
        short = sim_dir / "short.jsonl"
        short.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["evaluate", "--task", "pnr", "--preds", str(short),
                     "--annotations", ann]) == 2
        err = capsys.readouterr().err
        assert "clip000039" in err

    def test_scores_for_unknown_clip(self, sim_dir, capsys):
        bad = sim_dir / "bad_scores.jsonl"
        bad.write_text('{"clip_id": "ghost", "start": 0, "end": 32, "confidence": 0.9}\n',
                       encoding="utf-8")
        assert main(["localize", "--scores", str(bad),
                     "--annotations", str(sim_dir / "annotations.jsonl")]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_non_finite_prediction_rejected(self, sim_dir, capsys):
        bad = sim_dir / "nan_preds.jsonl"
        bad.write_text(
            '{"clip_id": "clip000000", "time_sec": NaN, "frame": 30, "source": "selected"}\n',
            encoding="utf-8",
        )
        assert main(["evaluate", "--task", "pnr", "--preds", str(bad),
                     "--annotations", str(sim_dir / "annotations.jsonl")]) == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "nan_preds.jsonl: line 1: 'time_sec' must be a finite number" in captured.err

    def test_duplicate_window_names_file_line_and_clip(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "scores_pnr.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        scores = tmp_path / "dup.jsonl"
        scores.write_text("".join(lines + lines[5:6]), encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert main(["localize", "--scores", str(scores), "--annotations",
                     str(sim_dir / "annotations.jsonl"), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{scores}: line {len(lines) + 1}: duplicate window" in err
        assert "for clip 'clip000000'" in err
        assert not out.exists()

    def test_oscc_evaluation(self, sim_dir, capsys):
        assert main(["evaluate", "--task", "oscc",
                     "--preds", str(sim_dir / "scores_oscc.jsonl"),
                     "--annotations", str(sim_dir / "annotations.jsonl"), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "task: oscc" in out and "accuracy:" in out

    def test_report_and_plot_files(self, sim_dir):
        ann = str(sim_dir / "annotations.jsonl")
        preds_path = sim_dir / "preds.jsonl"
        assert main(["localize", "--scores", str(sim_dir / "scores_pnr.jsonl"),
                     "--annotations", ann, "--out", str(preds_path), "--quiet"]) == 0
        report = sim_dir / "report.json"
        plot = sim_dir / "fig2.tsv"
        assert main(["evaluate", "--task", "pnr", "--preds", str(preds_path),
                     "--annotations", ann, "--out", str(report),
                     "--plot-data", str(plot), "--quiet"]) == 0
        assert report.read_text(encoding="utf-8").startswith('{"task": "pnr"')
        assert plot.read_text(encoding="utf-8").startswith("# bin_center\t")


class TestBaselineAndOracle:
    def test_baseline_center_values(self, tmp_path, capsys):
        assert main(["baseline", "--mode", "center",
                     "--annotations", str(FIXTURE), "--quiet"]) == 0
        preds = parse_predictions(capsys.readouterr().out)
        assert preds["kitchen-001"].frame == 120
        assert preds["kitchen-001"].time_sec == 4.0
        assert preds["kitchen-001"].source == "baseline-center"

    def test_baseline_fraction_values(self, capsys):
        assert main(["baseline", "--mode", "fraction", "--fraction", "0.43",
                     "--annotations", str(FIXTURE), "--quiet"]) == 0
        preds = parse_predictions(capsys.readouterr().out)
        assert preds["kitchen-001"].frame == 103
        assert preds["garden-003"].frame == 72

    def test_baseline_evaluates_cleanly(self, sim_dir):
        ann = str(sim_dir / "annotations.jsonl")
        base = sim_dir / "base.jsonl"
        assert main(["baseline", "--mode", "center", "--annotations", ann,
                     "--out", str(base), "--quiet"]) == 0
        assert main(["evaluate", "--task", "pnr", "--preds", str(base),
                     "--annotations", ann, "--quiet"]) == 0

    def test_oracle_output(self, capsys):
        assert main(["oracle", "--annotations", str(FIXTURE), "--n", "16"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "# clip_id\toracle_error_sec"
        assert len(lines) == 4
        assert "mean_oracle_error_sec:" in captured.err


STATS_TABLE_10 = """\
clips: 3
pnr-annotated: 3
oscc-annotated: 3
state-change frames per clip: mean 3.6667 min 3 max 4
bin         positives  negatives
[0.00,0.10)          0          2
[0.10,0.20)          0          0
[0.20,0.30)          0          1
[0.30,0.40)          0          0
[0.40,0.50)          3          0
[0.50,0.60)          0          2
[0.60,0.70)          0          0
[0.70,0.80)          0          1
[0.80,0.90)          0          1
[0.90,1.00)          0          1
"""
REPORT_TABLE_10 = """\
task: pnr
clips: 3
mae_sec: 0.558333
bin          count  mean_error_sec
[0.00,0.10)      0  -
[0.10,0.20)      0  -
[0.20,0.30)      0  -
[0.30,0.40)      0  -
[0.40,0.50)      3  0.558333
[0.50,0.60)      0  -
[0.60,0.70)      0  -
[0.70,0.80)      0  -
[0.80,0.90)      0  -
[0.90,1.00)      0  -
"""


class TestStdoutMatchesOut:
    """A stage writes the same bytes to standard output as to --out."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "--scores", "{scores}", "--annotations", "{ann}"],
            ["baseline", "--mode", "fraction", "--annotations", "{ann}"],
            ["oracle", "--n", "16", "--annotations", "{ann}"],
            ["windows", "--frames", "300", "--n", "16"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_same_bytes(self, sim_dir, capsys, argv):
        names = {"scores": sim_dir / "scores_pnr.jsonl", "ann": sim_dir / "annotations.jsonl"}
        argv = [arg.format_map(names) for arg in argv] + ["--quiet"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = sim_dir / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed and out.read_text(encoding="utf-8") == printed


# one annotated clip, 'a': 100 frames at 30 fps (3.33 s), state change at frame 40
CLIP_A = '{"clip_id": "a", "fps": 30.0, "num_frames": 100, "state_change": true, "pnr_frame": 40}\n'
GOOD_LINES = {
    "pnr": '{"clip_id": "a", "start": 0, "end": 40, "confidence": 0.9}',
    "oscc": '{"clip_id": "a", "prob": 0.6}',
    "preds": '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"}',
}
LOCALIZE = ["localize", "--scores", "{bad}", "--annotations", "{ann}", "--out", "{out}"]
FUSE = ["fuse", "--scores", "{good}", "{bad}", "--annotations", "{ann}", "--out", "{out}"]
EVALUATE = ["evaluate", "--preds", "{bad}", "--annotations", "{ann}", "--out", "{out}"]
# (stage, the format of its bad file, the line put at line 2 of it, the message)
CLIP_FAULTS = {
    "localize-unknown": (LOCALIZE, "pnr", '{"clip_id": "x", "start": 0, "end": 40, "confidence": 0.9}',
                         "unknown clip 'x'"),
    "localize-window": (LOCALIZE, "pnr", '{"clip_id": "a", "start": 80, "end": 400, "confidence": 0.9}',
                        "window [80, 400) exceeds clip 'a' of 100 frames"),
    "fuse-pnr-unknown": ([*FUSE, "--task", "pnr"], "pnr",
                         '{"clip_id": "x", "start": 0, "end": 40, "confidence": 0.9}',
                         "unknown clip 'x'"),
    "fuse-pnr-window": ([*FUSE, "--task", "pnr"], "pnr",
                        '{"clip_id": "a", "start": 80, "end": 101, "confidence": 0.9}',
                        "window [80, 101) exceeds clip 'a' of 100 frames"),
    "fuse-oscc-unknown": ([*FUSE, "--task", "oscc"], "oscc", '{"clip_id": "x", "prob": 0.6}',
                          "unknown clip 'x'"),
    "evaluate-pnr-unknown": ([*EVALUATE, "--task", "pnr"], "preds",
                             '{"clip_id": "x", "time_sec": 1.0, "frame": 30, "source": "selected"}',
                             "unknown clip 'x'"),
    "evaluate-pnr-frame": ([*EVALUATE, "--task", "pnr"], "preds",
                           '{"clip_id": "a", "time_sec": 1.0, "frame": 100, "source": "selected"}',
                           "clip 'a': prediction at frame 100, 1.0 s, is outside the clip's 100 "
                           "frames, 3.3333333333333335 s"),
    "evaluate-pnr-time": ([*EVALUATE, "--task", "pnr"], "preds",
                          '{"clip_id": "a", "time_sec": 3.4, "frame": 30, "source": "selected"}',
                          "clip 'a': prediction at frame 30, 3.4 s, is outside the clip's 100 "
                          "frames, 3.3333333333333335 s"),
    "evaluate-oscc-unknown": ([*EVALUATE, "--task", "oscc"], "oscc", '{"clip_id": "x", "prob": 0.6}',
                              "unknown clip 'x'"),
}


class TestClipChecks:
    """Every score and prediction is checked against its annotated clip at its line."""

    @pytest.mark.parametrize("argv, fmt, line, message", CLIP_FAULTS.values(), ids=list(CLIP_FAULTS))
    def test_a_record_that_does_not_fit_its_clip_names_file_line_and_clip(
        self, tmp_path, capsys, argv, fmt, line, message
    ):
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("ann", "good", "bad", "out")}
        paths["ann"].write_text(CLIP_A, encoding="utf-8")
        paths["good"].write_text(GOOD_LINES[fmt] + "\n", encoding="utf-8")
        paths["bad"].write_text(GOOD_LINES[fmt] + "\n" + line + "\n", encoding="utf-8")
        argv = [arg.format_map(paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {paths['bad']}: line 2: {message}\n"
        assert not paths["out"].exists()
        # without the bad line the same stage runs
        paths["bad"].write_text(GOOD_LINES[fmt] + "\n", encoding="utf-8")
        assert main(argv + ["--quiet"]) == 0

    def test_localize_writes_each_clip_before_it_selects_the_next(self, tmp_path, monkeypatch):
        ann, scores = tmp_path / "ann.jsonl", tmp_path / "scores.jsonl"
        ann.write_text(CLIP_A + CLIP_A.replace('"a"', '"b"'), encoding="utf-8")
        scores.write_text(GOOD_LINES["pnr"] + "\n" + GOOD_LINES["pnr"].replace('"a"', '"b"') + "\n",
                          encoding="utf-8")
        select_pnr, seen = pnrkit.cli.select_pnr, []

        def select_seeing_stdout(*args):
            seen.append(sys.stdout.getvalue())
            return select_pnr(*args)

        monkeypatch.setattr(pnrkit.cli, "select_pnr", select_seeing_stdout)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(["localize", "--scores", str(scores), "--annotations", str(ann)]) == 0
        first, second = sys.stdout.getvalue().splitlines(keepends=True)
        assert seen == ["", first]
        assert first.startswith('{"clip_id": "a"') and second.startswith('{"clip_id": "b"')

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_baseline_refuses_a_fraction_before_it_writes(self, tmp_path, capsys, out):
        target = tmp_path / "base.jsonl"
        argv = ["baseline", "--mode", "fraction", "--fraction", "2", "--annotations", str(FIXTURE)]
        assert main([*argv, "--out", str(target)] if out else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pnrkit: error: fraction must be in [0, 1], got 2.0\n"
        assert not target.exists()


# numbers at and past the ends of the floats and of the ints a float holds
EXTREME_INTS = st.one_of(
    st.integers(-2, 300), st.integers(), st.sampled_from([2**53 + 1, 2**1023, 2**1024, 10**400])
)
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 0.5, 0.7, 1.0, 1e300, 1.7e308, 1.7976931348623157e308]),
)
CLIP_IDS = st.sampled_from(["a", "b", "x"])  # x is never annotated
RECORDS = {
    "ann": st.fixed_dictionaries(
        {"clip_id": st.sampled_from(["a", "b"]), "fps": EXTREME_FLOATS, "num_frames": EXTREME_INTS},
        optional={"state_change": st.booleans(), "pnr_frame": EXTREME_INTS},
    ),
    "scores": st.fixed_dictionaries({"clip_id": CLIP_IDS, "start": EXTREME_INTS,
                                     "end": EXTREME_INTS, "confidence": EXTREME_FLOATS}),
    "probs": st.fixed_dictionaries({"clip_id": CLIP_IDS, "prob": EXTREME_FLOATS}),
    "preds": st.fixed_dictionaries({"clip_id": CLIP_IDS, "time_sec": EXTREME_FLOATS,
                                    "frame": EXTREME_INTS, "source": st.sampled_from(SOURCES)}),
}
# every stage that reads files, with small counts wherever an option sizes a list
FUZZED_STAGES = [
    ["stats", "--annotations", "{ann}", "--bins", "3", "--out", "{out}"],
    ["localize", "--scores", "{scores}", "--annotations", "{ann}"],
    ["localize", "--scores", "{scores}", "--annotations", "{ann}", "--fallback", "argmax-confidence"],
    ["baseline", "--mode", "center", "--annotations", "{ann}"],
    ["baseline", "--mode", "fraction", "--annotations", "{ann}"],
    ["oracle", "--n", "2", "--window", "4", "--annotations", "{ann}"],
    ["fuse", "--task", "pnr", "--scores", "{scores}", "{scores}", "--out", "{out}"],
    ["fuse", "--task", "pnr", "--scores", "{scores}", "{scores}", "--annotations", "{ann}",
     "--out", "{out}"],
    ["fuse", "--task", "oscc", "--scores", "{probs}", "{probs}", "--annotations", "{ann}",
     "--out", "{out}"],
    ["evaluate", "--task", "pnr", "--preds", "{preds}", "--annotations", "{ann}", "--bins", "3",
     "--out", "{out}", "--plot-data", "{plot}"],
    ["evaluate", "--task", "oscc", "--preds", "{probs}", "--annotations", "{ann}", "--out", "{out}"],
]


class TestFuzzedRecords:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(files=st.fixed_dictionaries(
        {name: st.lists(records, min_size=1, max_size=3) for name, records in RECORDS.items()}
    ))
    def test_every_stage_exits_0_or_2_and_writes_nothing_non_finite(self, tmp_path, files):
        paths = {name: tmp_path / f"{name}.jsonl" for name in (*RECORDS, "out", "plot")}
        for name, records in files.items():
            paths[name].write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        for argv in FUZZED_STAGES:
            for name in ("out", "plot"):
                paths[name].unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([arg.format_map(paths) for arg in argv])
            notes = err.getvalue().splitlines()
            errors = [line for line in notes if line.startswith("pnrkit: error:")]
            assert (rc, len(errors)) in ((0, 0), (2, 1)), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            # an error may name the non-finite value it refuses, and the plot TSV writes
            # an empty bin's mean as nan; nothing else may hold one
            shown = [out.getvalue(), *(line for line in notes if line not in errors)]
            if paths["out"].exists():
                shown.append(paths["out"].read_text(encoding="utf-8"))
            if paths["plot"].exists():
                rows = paths["plot"].read_text(encoding="utf-8").splitlines()
                shown += [row for row in rows if not row.endswith("\tnan\t0")]
            words = set(re.findall(r"[A-Za-z]+", "".join(shown)))
            assert not {"inf", "nan", "Infinity", "NaN"} & words, (argv, shown)


class TestWindowsAndStats:
    def test_windows_table(self, capsys):
        assert main(["windows", "--frames", "240", "--n", "2", "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# index\tstart\tend\tcenter_sec"
        assert lines[1] == "0\t0\t32\t0.516667"
        assert lines[2] == "1\t208\t240\t7.450000"

    def test_windows_too_short(self, capsys):
        assert main(["windows", "--frames", "16", "--n", "4"]) == 2
        assert "16 frames" in capsys.readouterr().err

    def test_windows_reject_infinite_fps(self, capsys):
        assert main(["windows", "--frames", "64", "--n", "3", "--fps", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pnrkit: error: fps must be finite, got inf\n"

    def test_frame_on_a_bin_edge_takes_that_bin(self, tmp_path):
        # frame 15 of a 23-frame clip sits at exactly 15/22, where bin 15
        # of 22 opens; 15 / 22 * 22 in floating point is just below 15
        annotations = tmp_path / "edge.jsonl"
        annotations.write_text(
            '{"clip_id": "e", "fps": 30.0, "num_frames": 23, "pnr_frame": 15}\n', encoding="utf-8"
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"clip_id": "e", "time_sec": 0.5, "frame": 15, "source": "selected"}\n',
            encoding="utf-8",
        )
        tsv, plot = tmp_path / "hist.tsv", tmp_path / "plot.tsv"
        common = ["--annotations", str(annotations), "--bins", "22", "--quiet"]
        assert main(["stats", *common, "--out", str(tsv)]) == 0
        assert main(["evaluate", "--task", "pnr", "--preds", str(preds), *common,
                     "--plot-data", str(plot)]) == 0
        hist = [line.split("\t") for line in tsv.read_text(encoding="utf-8").splitlines()[1:]]
        assert [int(positives) for _, positives, _ in hist] == [0] * 15 + [1] + [0] * 6
        errors = [line.split("\t") for line in plot.read_text(encoding="utf-8").splitlines()[1:]]
        assert [int(count) for _, _, count in errors] == [0] * 15 + [1] + [0] * 6

    @pytest.mark.parametrize("bins", [10, 320])
    def test_both_plot_files_print_one_bin_center(self, tmp_path, bins):
        # (lo + hi) / 2 and (k + 0.5) / bins first print apart at 320 bins
        plot_files = {"stats": tmp_path / "hist.tsv", "evaluate": tmp_path / "plot.tsv"}
        common = ["--annotations", str(FIXTURE), "--bins", str(bins), "--quiet"]
        assert main(["stats", *common, "--out", str(plot_files["stats"])]) == 0
        preds = tmp_path / "preds.jsonl"
        assert main(["baseline", "--mode", "center", *common[:2], "--out", str(preds)]) == 0
        assert main(["evaluate", "--task", "pnr", "--preds", str(preds), *common,
                     "--plot-data", str(plot_files["evaluate"])]) == 0
        centers = {
            name: [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
            for name, path in plot_files.items()
        }
        assert centers["stats"] == centers["evaluate"]
        assert centers["stats"] == [f"{(k + 0.5) / bins:.6f}" for k in range(bins)]

    def tables(self, tmp_path, capsys, bins):
        """The printed stats table and pnr report of the fixture at ``bins`` bins."""
        common = ["--annotations", str(FIXTURE), "--bins", str(bins), "--quiet"]
        assert main(["stats", *common]) == 0
        stats = capsys.readouterr().out
        preds = tmp_path / "preds.jsonl"
        assert main(["baseline", "--mode", "center", *common[:2], "--out", str(preds)]) == 0
        assert main(["evaluate", "--task", "pnr", "--preds", str(preds), *common]) == 0
        return stats, capsys.readouterr().out

    def test_tables_at_ten_bins(self, tmp_path, capsys):
        stats, report = self.tables(tmp_path, capsys, 10)
        assert stats == STATS_TABLE_10
        assert report == REPORT_TABLE_10

    @pytest.mark.parametrize("bins", [1, 7, 10, 100, 101, 320, 1000])
    def test_table_labels_tell_every_bin_apart(self, tmp_path, capsys, bins):
        for table in self.tables(tmp_path, capsys, bins):
            labels = [line.split()[0] for line in table.splitlines() if line.startswith("[")]
            assert len(set(labels)) == len(labels) == bins
            edges = [label[1:-1].split(",") for label in labels]
            assert [hi for _, hi in edges[:-1]] == [lo for lo, _ in edges[1:]]
            if bins <= 100:  # two decimals, as ever
                assert labels == [f"[{k / bins:.2f},{(k + 1) / bins:.2f})" for k in range(bins)]

    def test_stats_table_and_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "fig1.tsv"
        assert main(["stats", "--annotations", str(FIXTURE), "--out", str(tsv), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "clips: 3" in out
        assert "mean 3.6667" in out
        lines = tsv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# bin_center\tpositive_count\tnegative_count"
        assert lines[5] == "0.450000\t3\t0"


class TestFuse:
    def test_pnr_fusion_round_trips_through_localize(self, sim_dir, tmp_path):
        cfg2 = tmp_path / "sim2.cfg"
        cfg2.write_text("n_clips = 40\nseed = 17\nnum_windows = 32\n", encoding="utf-8")
        run2 = tmp_path / "run2"
        assert main(["simulate", "--config", str(cfg2), "--out-dir", str(run2), "--quiet"]) == 0
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--task", "pnr",
                     "--scores", str(sim_dir / "scores_pnr.jsonl"),
                     str(run2 / "scores_pnr.jsonl"),
                     "--annotations", str(sim_dir / "annotations.jsonl"),
                     "--out", str(fused), "--quiet"]) == 0
        series = parse_pnr_scores(fused.read_text(encoding="utf-8"))
        assert len(series) == 40
        # 16- and 32-window sweeps overlap at the two anchored ends
        assert all(len(s.windows) <= 48 for s in series.values())
        assert main(["localize", "--scores", str(fused),
                     "--annotations", str(sim_dir / "annotations.jsonl"),
                     "--out", str(tmp_path / "fused_preds.jsonl"), "--quiet"]) == 0

    def test_pnr_peak_memory_stays_below_the_inputs(self, tmp_path):
        # each clip is fused as the writer reaches it, so no fused series is
        # held beside the parsed inputs once written
        scores = []
        for n in (16, 32):
            cfg = tmp_path / f"sim{n}.cfg"
            cfg.write_text(f"n_clips = 1000\nseed = 5\nnum_windows = {n}\n", encoding="utf-8")
            run = tmp_path / f"run{n}"
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(run), "--quiet"]) == 0
            scores.append(run / "scores_pnr.jsonl")
        argv = ["fuse", "--task", "pnr", "--scores", *map(str, scores),
                "--out", str(tmp_path / "fused.jsonl"), "--quiet"]
        assert main(argv) == 0  # loads the modules the stage runs
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        assert peak < 1.8 * sum(path.stat().st_size for path in scores)

    def test_oscc_fusion_is_mean(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"clip_id": "x", "prob": 0.6}\n', encoding="utf-8")
        b.write_text('{"clip_id": "x", "prob": 0.8}\n', encoding="utf-8")
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--task", "oscc", "--scores", str(a), str(b),
                     "--out", str(fused), "--quiet"]) == 0
        assert parse_oscc_scores(fused.read_text(encoding="utf-8")) == {"x": 0.7}

    def test_oscc_files_must_cover_the_same_clips(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"clip_id": "x", "prob": 0.9}\n{"clip_id": "y", "prob": 0.2}\n',
                     encoding="utf-8")
        b.write_text('{"clip_id": "x", "prob": 0.1}\n', encoding="utf-8")
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--task", "oscc", "--scores", str(a), str(b),
                     "--out", str(fused), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(b) in err and ": y" in err
        assert not fused.exists()

    def test_pnr_files_must_cover_the_same_clips(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"clip_id": "x", "start": 0, "end": 32, "confidence": 0.5}\n',
                     encoding="utf-8")
        b.write_text('{"clip_id": "x", "start": 0, "end": 32, "confidence": 0.5}\n'
                     '{"clip_id": "y", "start": 0, "end": 32, "confidence": 0.5}\n',
                     encoding="utf-8")
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--task", "pnr", "--scores", str(a), str(b),
                     "--out", str(fused), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(a) in err and ": y" in err
        assert not fused.exists()

    def test_oscc_scores_for_unknown_clip(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text('{"clip_id": "kitchen-001", "prob": 0.6}\n{"clip_id": "ghost", "prob": 0.6}\n',
                     encoding="utf-8")
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--task", "oscc", "--scores", str(a), str(a),
                     "--annotations", str(FIXTURE), "--out", str(fused), "--quiet"]) == 2
        assert capsys.readouterr().err == f"pnrkit: error: {a}: line 2: unknown clip 'ghost'\n"
        assert not fused.exists()

    @pytest.mark.parametrize("task", ["oscc", "pnr"])
    def test_fuse_writes_stdout_without_out(self, sim_dir, tmp_path, capfdbinary, task):
        # as every other data stage: standard output gets the bytes --out would
        cfg = tmp_path / "sim2.cfg"
        cfg.write_text("n_clips = 40\nseed = 17\nnum_windows = 32\n", encoding="utf-8")
        run2 = tmp_path / "run2"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(run2), "--quiet"]) == 0
        name = f"scores_{task}.jsonl"
        fused = tmp_path / "fused.jsonl"
        argv = ["fuse", "--task", task, "--scores", str(sim_dir / name), str(run2 / name),
                "--annotations", str(sim_dir / "annotations.jsonl"), "--quiet"]
        assert main([*argv, "--out", str(fused)]) == 0
        assert capfdbinary.readouterr().out == b""
        assert main(argv) == 0
        assert capfdbinary.readouterr().out == fused.read_bytes() != b""

    @pytest.mark.parametrize("task", ["oscc", "pnr"])
    def test_fuse_needs_two_score_files(self, tmp_path, capsys, task):
        # refused before any file is read, so the absent file goes unreported
        fused = tmp_path / "fused.jsonl"
        absent = tmp_path / "absent.jsonl"
        assert main(["fuse", "--task", task, "--scores", str(absent), "--out", str(fused)]) == 2
        assert capsys.readouterr().err == (
            "pnrkit: error: fuse needs two or more --scores files, got 1\n"
        )
        assert not fused.exists()


# prediction lines for the FIXTURE clips, one per clip and one for a clip
# it does not hold; clip ids sort as garden-003, kitchen-001, workshop-002
PREDICTION_LINES = {
    "pnr": {
        clip_id: f'{{"clip_id": "{clip_id}", "time_sec": 1.0, "frame": 30, "source": "selected"}}\n'
        for clip_id in ("kitchen-001", "workshop-002", "garden-003", "ghost")
    },
    "oscc": {
        clip_id: f'{{"clip_id": "{clip_id}", "prob": 0.6}}\n'
        for clip_id in ("kitchen-001", "workshop-002", "garden-003", "ghost")
    },
}
GHOST_CLIP = '{"clip_id": "ghost", "fps": 30.0, "num_frames": 100}\n'
COVERAGE_FAULTS = {
    "partial": (
        ("kitchen-001",),
        "missing {what} prediction for annotated clip(s): garden-003, workshop-002",
    ),
    "empty": (
        (),
        "missing {what} prediction for annotated clip(s): garden-003, kitchen-001, workshop-002",
    ),
    "extra": (
        ("kitchen-001", "workshop-002", "garden-003", "ghost"),
        "{what} prediction for unannotated clip(s): ghost",
    ),
}


class TestDiagnostics:
    # options that only another mode of their subcommand reads
    EVALUATE_OSCC = ["evaluate", "--task", "oscc", "--preds", "{preds}"]
    UNREAD_OPTIONS = {
        "evaluate-oscc-bins": ([*EVALUATE_OSCC, "--bins", "7"], "--bins", "--task pnr"),
        "evaluate-oscc-plot-data": ([*EVALUATE_OSCC, "--plot-data", "{plot}"],
                                    "--plot-data", "--task pnr"),
        "baseline-center-fraction": (["baseline", "--mode", "center", "--fraction", "0.9"],
                                     "--fraction", "--mode fraction"),
    }

    @pytest.mark.parametrize(
        "argv, option, mode", UNREAD_OPTIONS.values(), ids=list(UNREAD_OPTIONS)
    )
    def test_an_option_its_mode_does_not_read_is_refused(
        self, tmp_path, capsys, argv, option, mode
    ):
        # without the option each run is valid and exits 0
        preds, plot = tmp_path / "preds.jsonl", tmp_path / "plot.tsv"
        preds.write_text("".join(PREDICTION_LINES["oscc"][clip_id] for clip_id in (
            "kitchen-001", "workshop-002", "garden-003")), encoding="utf-8")
        argv = [arg.format(preds=preds, plot=plot) for arg in argv]
        assert main([*argv, "--annotations", str(FIXTURE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {option} applies to {mode} only\n"
        assert not plot.exists()

    def test_an_early_closed_stdout_is_a_quiet_exit_1(self):
        # the reader has gone, as when `| head -1` has its line; that is no
        # fault of the input, so nothing is reported
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_fresh(["-m", "pnrkit.cli", "baseline", "--mode", "center",
                              "--annotations", str(FIXTURE)], stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    # a clip whose length, num_frames / fps, is no finite float
    CLIP_TIMES = {
        "tiny-fps": (["oracle", "--n", "4", "--annotations", "{ann}"],
                     '{"clip_id": "a", "fps": 1e-310, "num_frames": 100, "pnr_frame": 40}', "{ann}: line 1: "),
        "frame-count-past-the-floats": (
            ["oracle", "--n", "4", "--annotations", "{ann}"],
            '{"clip_id": "a", "fps": 30.0, "num_frames": 1' + "0" * 400 + ', "pnr_frame": 40}', "{ann}: line 1: "),
        "windows-tiny-fps": (["windows", "--frames", "100", "--n", "3", "--fps", "1e-310"], None, ""),
    }

    @pytest.mark.parametrize("argv, line, where", CLIP_TIMES.values(), ids=list(CLIP_TIMES))
    def test_a_clip_time_past_the_floats_is_refused(self, tmp_path, capsys, argv, line, where):
        ann = tmp_path / "ann.jsonl"
        if line is not None:
            ann.write_text(line + "\n", encoding="utf-8")
        assert main([arg.format(ann=ann) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {where.format(ann=ann)}"
            "duration num_frames / fps must be finite, got inf\n"
        )

    def test_a_clip_length_past_the_floats_is_refused_before_evaluate(self, tmp_path, capsys):
        # its last frame's time is the largest float, but its length rounds up past it
        ann, preds = tmp_path / "ann.jsonl", tmp_path / "preds.jsonl"
        ann.write_text(f'{{"clip_id": "a", "fps": 1.0, "num_frames": {2**1024 - 2**970}, '
                       '"pnr_frame": 40}\n', encoding="utf-8")
        preds.write_text('{"clip_id": "a", "time_sec": 40.0, "frame": 40, "source": "selected"}\n',
                         encoding="utf-8")
        argv = ["evaluate", "--task", "pnr", "--preds", str(preds), "--annotations", str(ann)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {ann}: line 1: duration num_frames / fps must be finite, got inf\n"
        )

    # predictions against the fixture's clips: kitchen-001 (240 frames, 8 s)
    # and workshop-002 (210 frames, 7 s); garden-003 is predicted as given
    OUTSIDE_CLIP = {
        "frame-at-the-frame-count": (
            {"workshop-002": (1.0, 210)},
            "line 2: clip 'workshop-002': prediction at frame 210, 1.0 s, is outside the clip's "
            "210 frames, 7.0 s",
        ),
        "time-past-the-end": (
            {"kitchen-001": (99.0, 30)},
            "line 1: clip 'kitchen-001': prediction at frame 30, 99.0 s, is outside the clip's "
            "240 frames, 8.0 s",
        ),
        "times-whose-sum-overflows": (
            {"kitchen-001": (1.7e308, 30), "workshop-002": (1.7e308, 30)},
            "line 1: clip 'kitchen-001': prediction at frame 30, 1.7e+308 s, is outside the "
            "clip's 240 frames, 8.0 s",
        ),
        "last-frame-at-the-end": ({"kitchen-001": (8.0, 239), "workshop-002": (7.0, 209)}, None),
    }

    @pytest.mark.parametrize("changed, message", OUTSIDE_CLIP.values(), ids=list(OUTSIDE_CLIP))
    def test_evaluate_refuses_a_prediction_outside_its_clip(self, tmp_path, capsys, changed, message):
        preds = tmp_path / "preds.jsonl"
        predicted = {"kitchen-001": (1.0, 30), "workshop-002": (1.0, 30), "garden-003": (1.0, 30),
                     **changed}
        preds.write_text("".join(
            json.dumps({"clip_id": clip_id, "time_sec": t, "frame": f, "source": "selected"}) + "\n"
            for clip_id, (t, f) in predicted.items()
        ), encoding="utf-8")
        argv = ["evaluate", "--task", "pnr", "--preds", str(preds), "--annotations", str(FIXTURE)]
        rc = main(argv)
        captured = capsys.readouterr()
        if message is None:
            assert (rc, captured.err) == (0, "")
        else:
            assert rc == 2
            assert captured.out == ""
            assert captured.err == f"pnrkit: error: {preds}: {message}\n"

    # clips about 1.79e308 s long, each predicted 1.7e308 s from its truth:
    # every prediction is inside its clip, but two errors sum past the floats
    @pytest.mark.parametrize("positions", [(0, 0), (0, 1_789_999_999)], ids=["one-bin", "two-bins"])
    @pytest.mark.parametrize("out", [False, True], ids=["table", "out"])
    def test_evaluate_refuses_errors_that_sum_past_the_floats(self, tmp_path, capsys, positions, out):
        ann, preds, report = tmp_path / "ann.jsonl", tmp_path / "preds.jsonl", tmp_path / "r.json"
        ann.write_text("".join(
            f'{{"clip_id": "{c}", "fps": 1e-299, "num_frames": 1790000000, "pnr_frame": {p}}}\n'
            for c, p in zip("ab", positions)
        ), encoding="utf-8")
        times = [1.7e308 if p == 0 else 0.0 for p in positions]
        preds.write_text("".join(
            f'{{"clip_id": "{c}", "time_sec": {t!r}, "frame": 1, "source": "selected"}}\n'
            for c, t in zip("ab", times)
        ), encoding="utf-8")
        argv = ["evaluate", "--task", "pnr", "--preds", str(preds), "--annotations", str(ann)]
        assert main([*argv, "--out", str(report)] if out else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {preds}: the localization errors sum past the largest float\n"
        )
        assert not report.exists()
        # the same file with one clip fewer is scored, and says nothing non-finite
        ann.write_text(ann.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        preds.write_text(preds.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        assert main([*argv, "--out", str(report)]) == 0
        shown = capsys.readouterr().out + report.read_text(encoding="utf-8")
        assert not {"inf", "nan", "Infinity", "NaN"} & set(re.findall(r"[A-Za-z]+", shown))

    @pytest.mark.parametrize("fault", COVERAGE_FAULTS.values(), ids=list(COVERAGE_FAULTS))
    @pytest.mark.parametrize("task, what", [("pnr", "localization"), ("oscc", "state-change")])
    def test_evaluate_coverage_names_the_preds_file(self, tmp_path, capsys, task, what, fault):
        clip_ids, message = fault
        preds, annotations = tmp_path / "preds.jsonl", tmp_path / "annotations.jsonl"
        preds.write_text(
            "".join(PREDICTION_LINES[task][clip_id] for clip_id in clip_ids), encoding="utf-8"
        )
        # the fixture's clips and an unlabeled one, which a prediction may name
        annotations.write_text(FIXTURE.read_text(encoding="utf-8") + GHOST_CLIP, encoding="utf-8")
        argv = ["evaluate", "--task", task, "--preds", str(preds), "--annotations", str(annotations)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {preds}: {message.format(what=what)}\n"

    @pytest.mark.parametrize(
        "task, what", [("oscc", "state-change"), ("pnr", "state-change frame")]
    )
    def test_evaluate_without_labels_names_the_annotation_file(self, tmp_path, capsys, task, what):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n', encoding="utf-8")
        empty = tmp_path / "preds.jsonl"
        empty.write_text("", encoding="utf-8")
        argv = ["evaluate", "--task", task, "--preds", str(empty), "--annotations", str(bare)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {bare}: no {what} annotations to evaluate\n"

    def test_stats_on_empty_annotations_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["stats", "--annotations", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {empty}: dataset has no clips\n"

    @pytest.mark.parametrize("text", ["", "\n", "\n  \n\n"], ids=["empty", "blank", "blanks"])
    def test_localize_on_scores_without_a_window_names_the_file(self, tmp_path, capsys, text):
        scores, preds = tmp_path / "scores.jsonl", tmp_path / "preds.jsonl"
        scores.write_text(text, encoding="utf-8")
        argv = ["localize", "--scores", str(scores), "--annotations", str(FIXTURE)]
        assert main([*argv, "--out", str(preds)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {scores}: no scored windows\n"
        assert not preds.exists()

    @pytest.mark.parametrize("task", ["pnr", "oscc"])
    def test_fuse_of_files_without_a_record_is_refused(self, tmp_path, capsys, task):
        empty, blank, fused = tmp_path / "empty.jsonl", tmp_path / "blank.jsonl", tmp_path / "f.jsonl"
        empty.write_text("", encoding="utf-8")
        blank.write_text("\n\n", encoding="utf-8")
        argv = ["fuse", "--task", task, "--scores", str(empty), str(blank), "--out", str(fused)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pnrkit: error: no scores to fuse\n"
        assert not fused.exists()

    def test_coverage_error_lists_five_clips_then_the_total(self, tmp_path, capsys):
        # seven labeled clips, and three unlabeled ones that are the only ones predicted
        annotations, preds = tmp_path / "annotations.jsonl", tmp_path / "preds.jsonl"
        annotations.write_text("".join(
            f'{{"clip_id": "{c}", "fps": 30.0, "num_frames": 100, "pnr_frame": 40}}\n'
            for c in "gfedcba"
        ) + "".join(f'{{"clip_id": "{c}", "fps": 30.0, "num_frames": 100}}\n' for c in "xyz"),
            encoding="utf-8")
        preds.write_text("".join(
            f'{{"clip_id": "{c}", "time_sec": 1.0, "frame": 30, "source": "selected"}}\n'
            for c in "xyz"
        ), encoding="utf-8")
        argv = ["evaluate", "--task", "pnr", "--preds", str(preds), "--annotations", str(annotations)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {preds}: missing localization prediction for annotated clip(s): "
            "a, b, c, d, e, ... (7 total)\n"
        )

    # the scores files each command reads, and the one a window outside its
    # clip is blamed on, at its line: the first, in --scores order, that holds one
    OUTSIDE_CLIP = {
        "localize": (["bad"], "bad"),
        "fuse": (["good", "bad", "worse"], "bad"),
    }

    @pytest.mark.parametrize("command", OUTSIDE_CLIP)
    def test_window_outside_clip_names_the_scores_file(self, command, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text('{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n', encoding="utf-8")
        windows = {"good": [(0, 40)], "bad": [(0, 40), (0, 400)], "worse": [(60, 500)]}
        for name, spans in windows.items():
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(
                    f'{{"clip_id": "a", "start": {s}, "end": {e}, "confidence": 0.9}}\n'
                    for s, e in spans
                ),
                encoding="utf-8",
            )
        names, blamed = self.OUTSIDE_CLIP[command]
        scores = [str(tmp_path / f"{name}.jsonl") for name in names]
        argv = [command, "--annotations", str(annotations), "--scores", *scores]
        if command == "fuse":
            argv += ["--task", "pnr", "--out", str(tmp_path / "fused.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {tmp_path / blamed}.jsonl: line 2: window [0, 400) exceeds clip 'a' "
            "of 100 frames\n"
        )
        assert not (tmp_path / "fused.jsonl").exists()

    # one window at the start of each clip, about 1.7e308 s from its last frame
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_oracle_refuses_errors_that_sum_past_the_floats(self, tmp_path, capsys, out):
        ann, tsv = tmp_path / "ann.jsonl", tmp_path / "oracle.tsv"
        line = ('{{"clip_id": "{}", "fps": 1e-300, "num_frames": 170000000, '
                '"pnr_frame": 169999999}}\n')
        ann.write_text(line.format("a") + line.format("b"), encoding="utf-8")
        argv = ["oracle", "--n", "1", "--annotations", str(ann)]
        assert main([*argv, "--out", str(tsv)] if out else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {ann}: the localization errors sum past the largest float\n"
        )
        assert not tsv.exists()
        # one of the clips alone is measured, and says nothing non-finite
        ann.write_text(line.format("a"), encoding="utf-8")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("mean_oracle_error_sec: 16999998349999998")
        shown = captured.out + captured.err
        assert not {"inf", "nan", "Infinity", "NaN"} & set(re.findall(r"[A-Za-z]+", shown))

    def test_oracle_short_clip_names_the_annotation_file(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            '{"clip_id": "a", "fps": 30.0, "num_frames": 20, "pnr_frame": 5}\n', encoding="utf-8"
        )
        assert main(["oracle", "--n", "4", "--annotations", str(annotations)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {annotations}: clip 'a' has 20 frames, needs at least 32\n"
        )

    @pytest.mark.parametrize("clip_id", ["a\nb", "c\td", "e\rf"], ids=ascii)
    def test_oracle_refuses_an_id_its_tsv_cannot_hold(self, tmp_path, capsys, clip_id):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            "".join(
                json.dumps({"clip_id": c, "fps": 30.0, "num_frames": 90, "pnr_frame": 5}) + "\n"
                for c in ("a", clip_id, "z")
            ),
            encoding="utf-8",
        )
        out = tmp_path / "oracle.tsv"
        argv = ["oracle", "--n", "4", "--window", "8", "--annotations", str(annotations)]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 2 * (
            f"pnrkit: error: {annotations}: clip id {clip_id!r} would split its TSV row\n"
        )

    def test_missing_file(self, capsys):
        assert main(["stats", "--annotations", "nope.jsonl"]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_format_violation_names_input_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n{"clip_id": "b"}\n',
            encoding="utf-8",
        )
        assert main(["stats", "--annotations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "line 2" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["stats", "--annotations", "{bad}"],
             '{"clip_id": "b", "fps": 30.0, "num_frames": BIG}'),
            (["localize", "--scores", "{bad}", "--annotations", "{ann}"],
             '{"clip_id": "b", "start": BIG, "end": 32, "confidence": 0.5}'),
            (["fuse", "--task", "oscc", "--scores", "{bad}", "{bad}", "--out", "{out}"],
             '{"clip_id": "b", "prob": BIG}'),
            (["evaluate", "--task", "pnr", "--preds", "{bad}", "--annotations", "{ann}"],
             '{"clip_id": "b", "time_sec": 1.0, "frame": BIG, "source": "selected"}'),
        ],
        ids=["annotations", "pnr_scores", "oscc_scores", "predictions"],
    )
    def test_over_long_integer_is_a_line_error(self, tmp_path, capsys, argv, line):
        # more digits than int() converts by default (sys.get_int_max_str_digits())
        bad, out, ann = tmp_path / "bad.jsonl", tmp_path / "out.jsonl", tmp_path / "ann.jsonl"
        ann.write_text("".join(f'{{"clip_id": "{c}", "fps": 30.0, "num_frames": 100}}\n'
                               for c in "ab"), encoding="utf-8")
        first = line.replace('"b"', '"a"').replace("BIG", "1")
        bad.write_text(first + "\n" + line.replace("BIG", "1" * 5000) + "\n", encoding="utf-8")
        argv = [arg.format(bad=bad, out=out, ann=ann) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {bad}: line 2: invalid JSON: Exceeds the limit (4300 digits) "
            "for integer string conversion: value has 5000 digits; "
            "use sys.set_int_max_str_digits() to increase the limit\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["stats", "--annotations", "{bad}"],
             '{{"clip_id": "c{i}", "fps": 30.0, "num_frames": 90}}'),
            (["localize", "--scores", "{bad}", "--annotations", "{ann}", "--out", "{out}"],
             '{{"clip_id": "c{i}", "start": 0, "end": 32, "confidence": 0.5}}'),
            (["evaluate", "--task", "pnr", "--preds", "{bad}", "--annotations", "{ann}"],
             '{{"clip_id": "c{i}", "time_sec": 1.0, "frame": 30, "source": "selected"}}'),
            (["evaluate", "--task", "oscc", "--preds", "{bad}", "--annotations", "{ann}"],
             '{{"clip_id": "c{i}", "prob": 0.5}}'),
            (["simulate", "--config", "{bad}", "--out-dir", "{out}"],
             "# note c{i}: a comment as long as a record line"),
        ],
        ids=["annotations", "pnr_scores", "predictions", "oscc_scores", "sim_config"],
    )
    def test_byte_that_is_not_utf8_is_a_line_error(self, tmp_path, capsys, argv, line):
        # past the first 8 KiB, which the file is decoded in; each line is good
        # apart from the 0xff byte put into line 351, and its clip is annotated
        bad, out, ann = tmp_path / "bad.jsonl", tmp_path / "out", tmp_path / "ann.jsonl"
        ann.write_text("".join(f'{{"clip_id": "c{i}", "fps": 30.0, "num_frames": 90}}\n'
                               for i in range(400)), encoding="utf-8")
        lines = [line.format(i=i) for i in range(400)]
        lines[350] = lines[350].replace("c350", "c\udcff350")
        bad.write_bytes("".join(x + "\n" for x in lines).encode("utf-8", "surrogateescape"))
        assert bad.read_bytes().index(b"\xff") > 8192
        argv = [arg.format(bad=bad, out=out, ann=ann) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrkit: error: {bad}: line 351: invalid UTF-8: 'utf-8' codec can't decode byte "
            f"0xff in position {lines[350].index(chr(0xDCFF))}: invalid start byte\n"
        )
        assert not out.exists()

    def test_repeated_key_is_a_line_error(self, tmp_path, capsys):
        # json would keep the last copy and score the clip as 0.1
        probs = tmp_path / "probs.jsonl"
        probs.write_text(
            '{"clip_id": "kitchen-001", "prob": 0.9, "prob": 0.1}\n', encoding="utf-8"
        )
        argv = ["evaluate", "--task", "oscc", "--preds", str(probs), "--annotations", str(FIXTURE)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {probs}: line 1: duplicate key 'prob'\n"

    def test_load_keeps_the_error_and_its_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n{"clip_id": "b"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            _load(str(bad), parse_annotations)
        assert info.value.line_no == 2
        assert str(info.value).startswith(f"{bad}: line 2: missing key(s)")
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text(
            '{"clip_id": "a", "prob": 0.6}\n{"clip_id": "b", "prob": 0.2}\n'
            '{"clip_id": "a", "prob": 0.3}\n',
            encoding="utf-8",
        )
        with pytest.raises(ConflictError) as info:
            _load(str(repeated), parse_oscc_scores)
        assert info.value.line_no == 3
        assert str(info.value) == f"{repeated}: line 3: duplicate probability for clip 'a'"

    def test_repeated_id_names_its_line(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(
            '{"clip_id": "a", "fps": 30.0, "num_frames": 100, "state_change": true}\n'
            '{"clip_id": "b", "fps": 30.0, "num_frames": 100, "state_change": false}\n',
            encoding="utf-8",
        )
        probs = tmp_path / "dup.jsonl"
        probs.write_text(
            '{"clip_id": "a", "prob": 0.6}\n{"clip_id": "b", "prob": 0.2}\n'
            '{"clip_id": "a", "prob": 0.3}\n',
            encoding="utf-8",
        )
        argv = ["evaluate", "--task", "oscc", "--preds", str(probs), "--annotations", str(annotations)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {probs}: line 3: duplicate probability for clip 'a'\n"

    def test_seed_is_a_simulate_flag(self, sim_dir):
        with pytest.raises(SystemExit) as info:
            main(["localize", "--scores", str(sim_dir / "scores_pnr.jsonl"),
                  "--annotations", str(sim_dir / "annotations.jsonl"), "--seed", "1"])
        assert info.value.code == 2
        assert with_option("--seed") == {"simulate"}

    def test_out_is_offered_where_it_writes(self):
        assert with_option("--out") == {
            "stats", "windows", "localize", "baseline", "oracle", "fuse", "evaluate"
        }

    @pytest.mark.parametrize(
        "command, text",
        [
            ("stats", "also write the histogram plot TSV here"),
            ("evaluate", "also write the report as one JSON line here"),
        ],
    )
    def test_out_help_says_what_it_writes(self, command, text):
        # both print their table to standard output whether or not --out is given
        parser = subcommand_parsers()[command]
        (out,) = [action for action in parser._actions if "--out" in action.option_strings]
        assert out.help == text

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "--scores", "a", "--annotations", "b", "--bogus", "1"],
            ["oracle", "--annotations", "a", "--n", "4", "--bogus"],
        ],
    )
    def test_unknown_option_shows_the_subcommand_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pnrkit {argv[0]} [-h]")
        unknown = " ".join(argv[argv.index("--bogus"):])
        assert err.endswith(f"pnrkit {argv[0]}: error: unrecognized arguments: {unknown}\n")

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_quiet_suppresses_notes(self, sim_dir, capsys):
        ann = str(sim_dir / "annotations.jsonl")
        assert main(["baseline", "--mode", "center", "--annotations", ann,
                     "--out", str(sim_dir / "q.jsonl"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["notes", "quiet"])
    def test_each_written_file_is_noted(self, sim_dir, capsys, quiet):
        ann, again = str(sim_dir / "annotations.jsonl"), sim_dir / "again"
        out = {name: str(sim_dir / name) for name in ("fig1.tsv", "p.jsonl", "r.json", "fig2.tsv")}
        runs = [
            (["stats", "--annotations", ann, "--out", out["fig1.tsv"]], [out["fig1.tsv"]], []),
            (["localize", "--scores", str(sim_dir / "scores_pnr.jsonl"), "--annotations", ann,
              "--out", out["p.jsonl"]], [out["p.jsonl"]], ["localized 40 clip(s)"]),
            (["evaluate", "--task", "pnr", "--preds", out["p.jsonl"], "--annotations", ann,
              "--out", out["r.json"], "--plot-data", out["fig2.tsv"]],
             [out["r.json"], out["fig2.tsv"]], []),
            (["simulate", "--config", str(sim_dir.parent / "sim.cfg"), "--out-dir", str(again)],
             [str(again / name) for name in
              ("annotations.jsonl", "scores_pnr.jsonl", "scores_oscc.jsonl")], []),
        ]
        for argv, written, notes in runs:
            assert main(argv + quiet) == 0
            expected = [f"wrote {path}" for path in written] + notes
            assert capsys.readouterr().err == ("" if quiet else "".join(n + "\n" for n in expected))
