"""Position binning, dataset statistics, accuracy, localization error, and
per-position breakdown."""

import json
import math
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pnrkit.errors import BoundsError, CoverageError, DomainError, EmptyInputError
from pnrkit.ingest import build_dataset, parse_annotations
from pnrkit.metrics import (
    dataset_stats,
    error_plot_data,
    frame_bin,
    oscc_accuracy,
    per_position_error,
    pnr_mae,
    render_report,
    render_stats,
    report_to_json,
    stats_plot_data,
)
from pnrkit.model import Clip, PnrAnnotation, PnrPrediction

FIXTURE = Path(__file__).parent / "data" / "annotations_3clips.jsonl"


@pytest.fixture()
def fixture_text():
    return FIXTURE.read_text(encoding="utf-8")


def pnr_dataset(truths, num_frames=240, fps=30.0):
    """Clips c0, c1, ... with the given positive frames."""
    ids = [f"c{i}" for i in range(len(truths))]
    return build_dataset(
        [Clip(cid, fps, num_frames) for cid in ids],
        {cid: PnrAnnotation(t) for cid, t in zip(ids, truths)},
    )


def preds_at(times, source="selected", fps=30.0):
    return {
        f"c{i}": PnrPrediction(t, round(t * fps), source)
        for i, t in enumerate(times)
    }


class TestFrameBin:
    def test_matches_exact_fractions(self):
        # bin k holds the fractions from k / bins on, so its first frame in an
        # n-frame clip is the least frame with frame / (n - 1) >= k / bins
        for n in range(2, 301):
            for bins in range(1, 61):
                firsts = [math.ceil(Fraction(k * (n - 1), bins)) for k in range(bins)]
                expected = [bisect_right(firsts, frame) - 1 for frame in range(n)]
                assert [frame_bin(frame, n, bins) for frame in range(n)] == expected, (n, bins)

    def test_single_frame_clip(self):
        assert [frame_bin(0, 1, bins) for bins in (1, 2, 10)] == [0, 0, 0]

    def test_bin_edge(self):
        # 15 / 22 * 22 rounds to just below 15, which put the frame a bin low
        assert int(15 / 22 * 22) == 14
        assert frame_bin(15, 23, 22) == 15

    def test_errors(self):
        with pytest.raises(DomainError):
            frame_bin(0, 10, 0)
        with pytest.raises(BoundsError):
            frame_bin(10, 10, 4)
        with pytest.raises(BoundsError):
            frame_bin(-1, 10, 4)


class TestDatasetStats:
    def test_fixture_counts(self, fixture_text):
        stats = dataset_stats(parse_annotations(fixture_text), bins=10)
        assert stats.n_clips == 3
        assert stats.n_pnr_annotated == 3
        assert stats.n_oscc_annotated == 3
        # per-clip totals are 3, 4, 4 state-change frames
        assert stats.pnr_per_clip_mean == 11 / 3
        assert stats.pnr_per_clip_min == 3
        assert stats.pnr_per_clip_max == 4

    def test_fixture_histograms(self, fixture_text):
        stats = dataset_stats(parse_annotations(fixture_text), bins=10)
        assert stats.positive_hist == (0, 0, 0, 0, 3, 0, 0, 0, 0, 0)
        assert stats.negative_hist == (2, 0, 1, 0, 0, 2, 0, 1, 1, 1)
        assert sum(stats.negative_hist) == 8

    def test_no_pnr_annotations(self):
        stats = dataset_stats(build_dataset([Clip("a", 30.0, 100)]))
        assert stats.pnr_per_clip_mean is None
        assert stats.positive_hist == (0,) * 10

    def test_empty_dataset(self):
        with pytest.raises(EmptyInputError):
            dataset_stats(build_dataset([]))

    def test_rendering(self, fixture_text):
        stats = dataset_stats(parse_annotations(fixture_text), bins=10)
        table = render_stats(stats)
        assert "clips: 3" in table
        assert "mean 3.6667" in table
        tsv = stats_plot_data(stats)
        lines = tsv.splitlines()
        assert lines[0] == "# bin_center\tpositive_count\tnegative_count"
        assert len(lines) == 11
        assert lines[5] == "0.450000\t3\t0"


def labeled(labels):
    """Clips named by the keys of labels, each with its state-change label."""
    return build_dataset([Clip(c, 30.0, 100) for c in labels], {}, labels)


class TestOsccAccuracy:
    def test_two_of_three_correct(self):
        ds = build_dataset(
            [Clip(c, 30.0, 100) for c in "abc"],
            {},
            {"a": True, "b": False, "c": True},
        )
        report = oscc_accuracy({"a": True, "b": False, "c": False}, ds)
        assert report.task == "oscc"
        assert report.n_clips == 3
        assert report.headline == pytest.approx(2 / 3)

    def test_all_correct(self):
        ds = build_dataset(
            [Clip(c, 30.0, 100) for c in "ab"],
            {},
            {"a": True, "b": False},
        )
        assert oscc_accuracy({"a": True, "b": False}, ds).headline == 1.0

    def test_missing_prediction_lists_clip(self):
        ds = build_dataset(
            [Clip(c, 30.0, 100) for c in "ab"],
            {},
            {"a": True, "b": False},
        )
        with pytest.raises(CoverageError, match="b"):
            oscc_accuracy({"a": True}, ds)

    def test_extra_prediction_rejected(self):
        ds = build_dataset([Clip("a", 30.0, 100)], {}, {"a": True})
        with pytest.raises(CoverageError, match="zzz"):
            oscc_accuracy({"a": True, "zzz": False}, ds)

    def test_no_annotations(self):
        ds = build_dataset([Clip("a", 30.0, 100)])
        with pytest.raises(EmptyInputError):
            oscc_accuracy({}, ds)

    @pytest.mark.parametrize(
        "probs, accuracy",
        [
            ({"a": 0.7, "b": 0.2, "c": 0.5}, 1.0),  # 0.5 calls a change
            ({"a": 0.4999, "b": 0.5, "c": 1}, 1 / 3),
            ({"a": 1.0, "b": 0, "c": np.float32(0.5)}, 1.0),
            ({"a": True, "b": 0.1, "c": False}, 2 / 3),  # calls and probabilities mix
        ],
    )
    def test_probabilities_are_called_at_one_half(self, probs, accuracy):
        report = oscc_accuracy(probs, labeled({"a": True, "b": False, "c": True}))
        assert report.headline == pytest.approx(accuracy)
        assert type(report.headline) is float

    def test_probabilities_score_as_their_calls(self):
        ds = labeled({"a": True, "b": False})
        assert oscc_accuracy({"a": 0.7, "b": 0.2}, ds) == oscc_accuracy({"a": True, "b": False}, ds)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf, -math.inf])
    def test_value_outside_unit_interval_names_its_clip(self, bad):
        with pytest.raises(DomainError) as info:
            oscc_accuracy({"a": 0.9, "b": bad}, labeled({"a": True, "b": False}))
        assert str(info.value) == f"clip 'b': probability must be in [0, 1], got {bad}"


class TestPnrMae:
    def test_hand_computed_single_clip(self):
        ds = pnr_dataset([103])
        report = pnr_mae(preds_at([3.44]), ds)
        assert report.headline == pytest.approx(abs(3.44 - 103 / 30))
        assert report.headline == pytest.approx(0.0067, abs=5e-4)

    def test_perfect_predictions(self):
        ds = pnr_dataset([103, 88])
        preds = {
            "c0": PnrPrediction(103 / 30, 103, "selected"),
            "c1": PnrPrediction(88 / 30, 88, "selected"),
        }
        assert pnr_mae(preds, ds).headline == 0.0

    def test_mean_over_clips(self):
        ds = pnr_dataset([0, 0])
        report = pnr_mae(preds_at([1.0, 2.0]), ds)
        assert report.headline == pytest.approx(1.5)

    def test_coverage_both_directions(self):
        ds = pnr_dataset([103, 88])
        with pytest.raises(CoverageError, match="c1"):
            pnr_mae(preds_at([3.0]), ds)
        with pytest.raises(CoverageError, match="c2"):
            pnr_mae(preds_at([3.0, 3.0, 3.0]), ds)


class TestPerPositionError:
    def test_single_bin_populated(self):
        # every truth at fraction 0.45 of a 240-frame clip
        ds = pnr_dataset([fraction_frame for fraction_frame in [108, 108, 108]])
        report = per_position_error(preds_at([3.0, 3.5, 4.0]), ds, bins=10)
        counts = [b.count for b in report.per_bin]
        assert counts[4] == 3 and sum(counts) == 3
        empty = report.per_bin[0]
        assert empty.count == 0 and empty.mean_error_sec is None

    def test_bin_mean(self):
        ds = pnr_dataset([108, 108])
        truth = 108 / 30
        report = per_position_error(preds_at([truth + 0.2, truth - 0.4]), ds, bins=10)
        assert report.per_bin[4].mean_error_sec == pytest.approx(0.3)

    def test_counts_sum_to_n_clips(self):
        ds = pnr_dataset([0, 60, 120, 180, 239])
        report = per_position_error(preds_at([1.0] * 5), ds, bins=7)
        assert sum(b.count for b in report.per_bin) == report.n_clips == 5

    def test_weighted_mean_equals_headline_exactly(self):
        ds = pnr_dataset([0, 13, 60, 121, 180, 200, 239])
        report = per_position_error(
            preds_at([0.37, 1.11, 2.9, 4.44, 5.2, 6.01, 7.83]), ds, bins=10
        )
        weighted = (
            math.fsum(
                b.mean_error_sec * b.count for b in reversed(report.per_bin) if b.count
            )
            / report.n_clips
        )
        assert weighted == report.headline
        assert report.headline == pytest.approx(pnr_mae(preds_at(
            [0.37, 1.11, 2.9, 4.44, 5.2, 6.01, 7.83]
        ), ds).headline, rel=1e-12)

    def test_last_bin_closed(self):
        ds = pnr_dataset([239])  # fraction exactly 1.0
        report = per_position_error(preds_at([7.0]), ds, bins=10)
        assert report.per_bin[9].count == 1

    def test_bad_bins(self):
        ds = pnr_dataset([103])
        with pytest.raises(DomainError):
            per_position_error(preds_at([3.0]), ds, bins=0)


class TestReportOutput:
    def test_render_oscc(self):
        ds = build_dataset([Clip("a", 30.0, 100)], {}, {"a": True})
        table = render_report(oscc_accuracy({"a": True}, ds))
        assert "task: oscc" in table and "accuracy: 1.000000" in table

    def test_render_pnr_with_bins(self):
        ds = pnr_dataset([108])
        table = render_report(per_position_error(preds_at([3.6]), ds, bins=5))
        assert "task: pnr" in table
        assert "mae_sec:" in table
        assert table.count("[") == 5

    def test_json_round_trip(self):
        ds = pnr_dataset([108])
        report = per_position_error(preds_at([3.6]), ds, bins=5)
        record = json.loads(report_to_json(report))
        assert record["task"] == "pnr"
        assert record["n_clips"] == 1
        assert len(record["per_bin"]) == 5
        assert record["per_bin"][0]["mean_error_sec"] is None

    def test_json_bytes_with_bins(self):
        # the exact line, key order included, which json.loads would not see
        ds = pnr_dataset([108, 30, 200])
        report = per_position_error(preds_at([3.0, 1.5, 6.0]), ds, bins=4)
        assert report_to_json(report) == (
            '{"task": "pnr", "n_clips": 3, "headline": 0.588888888888889, "per_bin": ['
            '{"lo": 0.0, "hi": 0.25, "count": 1, "mean_error_sec": 0.5}, '
            '{"lo": 0.25, "hi": 0.5, "count": 1, "mean_error_sec": 0.6000000000000001}, '
            '{"lo": 0.5, "hi": 0.75, "count": 0, "mean_error_sec": null}, '
            '{"lo": 0.75, "hi": 1.0, "count": 1, "mean_error_sec": 0.666666666666667}]}\n'
        )

    def test_json_bytes_without_bins(self):
        ds = pnr_dataset([108, 30, 200])
        assert report_to_json(pnr_mae(preds_at([3.0, 1.5, 6.0]), ds)) == (
            '{"task": "pnr", "n_clips": 3, "headline": 0.588888888888889}\n'
        )
        ds = build_dataset([Clip("a", 30.0, 100), Clip("b", 30.0, 100)], {}, {"a": True, "b": False})
        report = oscc_accuracy({"a": True, "b": True}, ds)
        assert report_to_json(report) == '{"task": "oscc", "n_clips": 2, "headline": 0.5}\n'

    def test_plot_data(self):
        ds = pnr_dataset([108])
        report = per_position_error(preds_at([3.6]), ds, bins=5)
        lines = error_plot_data(report).splitlines()
        assert lines[0] == "# bin_center\tmean_error_sec\tcount"
        assert len(lines) == 6
        assert lines[1].endswith("\tnan\t0")

    def test_plot_data_requires_bins(self):
        ds = pnr_dataset([108])
        with pytest.raises(EmptyInputError):
            error_plot_data(pnr_mae(preds_at([3.6]), ds))
