"""Command-line pipelines: composition, determinism, diagnostics."""

import argparse
from pathlib import Path

import pytest

from pnrkit.cli import _load, build_parser, main
from pnrkit.errors import ConflictError, ParseError
from pnrkit.ingest import parse_annotations, parse_oscc_scores, parse_pnr_scores, parse_predictions

FIXTURE = Path(__file__).parent / "data" / "annotations_3clips.jsonl"


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
        assert capsys.readouterr().err == (
            f"pnrkit: error: {a}: scores for unknown clip 'ghost' (not in {FIXTURE})\n"
        )
        assert not fused.exists()

    def test_fuse_requires_out(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text('{"clip_id": "x", "prob": 0.6}\n', encoding="utf-8")
        assert main(["fuse", "--task", "oscc", "--scores", str(a)]) == 2
        assert "--out" in capsys.readouterr().err

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
    @pytest.mark.parametrize("fault", COVERAGE_FAULTS.values(), ids=list(COVERAGE_FAULTS))
    @pytest.mark.parametrize("task, what", [("pnr", "localization"), ("oscc", "state-change")])
    def test_evaluate_coverage_names_the_preds_file(self, tmp_path, capsys, task, what, fault):
        clip_ids, message = fault
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "".join(PREDICTION_LINES[task][clip_id] for clip_id in clip_ids), encoding="utf-8"
        )
        argv = ["evaluate", "--task", task, "--preds", str(preds), "--annotations", str(FIXTURE)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {preds}: {message.format(what=what)}\n"

    def test_stats_on_empty_annotations_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["stats", "--annotations", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrkit: error: {empty}: dataset has no clips\n"
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
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        with_seed = {
            name
            for name, parser in sub.choices.items()
            if any("--seed" in action.option_strings for action in parser._actions)
        }
        assert with_seed == {"simulate"}

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_quiet_suppresses_notes(self, sim_dir, capsys):
        ann = str(sim_dir / "annotations.jsonl")
        assert main(["baseline", "--mode", "center", "--annotations", ann,
                     "--out", str(sim_dir / "q.jsonl"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
