"""Wire-format parsing, emission, dataset assembly, and statistics."""

import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnrkit.errors import ConflictError, DomainError, EmptyInputError, ParseError, ValidationError
from pnrkit.ingest import (
    bin_index,
    build_dataset,
    dataset_stats,
    emit_annotations,
    emit_oscc_scores,
    emit_pnr_scores,
    emit_predictions,
    parse_annotations,
    parse_oscc_scores,
    parse_pnr_scores,
    parse_predictions,
    render_stats,
    stats_plot_data,
    write_text_atomic,
)
from pnrkit.model import (
    SOURCES,
    Clip,
    OsccAnnotation,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ScoreSeries,
)

FIXTURE = Path(__file__).parent / "data" / "annotations_3clips.jsonl"


@pytest.fixture()
def fixture_text():
    return FIXTURE.read_text(encoding="utf-8")


class TestParseAnnotations:
    def test_fixture_contents(self, fixture_text):
        ds = parse_annotations(fixture_text)
        assert len(ds) == 3
        assert set(ds.clips) == {"kitchen-001", "workshop-002", "garden-003"}
        assert ds.clips["kitchen-001"].fps == 30.0
        assert ds.clips["garden-003"].num_frames == 168
        assert ds.pnr["kitchen-001"].positive_frame == 103
        assert ds.pnr["workshop-002"].negative_frames == (20, 120, 199)
        assert ds.oscc["kitchen-001"].state_change is True
        assert ds.oscc["workshop-002"].state_change is False

    def test_accepts_lines_iterable_and_blank_lines(self, fixture_text):
        lines = fixture_text.splitlines()
        lines.insert(1, "   ")
        assert len(parse_annotations(lines)) == 3

    def test_optional_fields_absent(self):
        ds = parse_annotations('{"clip_id": "a", "fps": 30.0, "num_frames": 100}')
        assert len(ds) == 1
        assert not ds.pnr and not ds.oscc

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_annotations('{"clip_id": "a", "fps": 30.0, "num_frames": 9, "extra": 1}')

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="missing key"):
            parse_annotations('{"clip_id": "a", "fps": 30.0}')

    def test_bad_json_reports_line_number(self):
        good = '{"clip_id": "a", "fps": 30.0, "num_frames": 9}'
        with pytest.raises(ParseError, match="line 2"):
            parse_annotations(good + "\n{broken")

    def test_typed_fields(self):
        with pytest.raises(ParseError, match="'fps' must be a number"):
            parse_annotations('{"clip_id": "a", "fps": "30", "num_frames": 9}')
        with pytest.raises(ParseError, match="'num_frames' must be an integer"):
            parse_annotations('{"clip_id": "a", "fps": 30.0, "num_frames": true}')
        with pytest.raises(ParseError, match="'state_change' must be a boolean"):
            parse_annotations('{"clip_id": "a", "fps": 30.0, "num_frames": 9, "state_change": 1}')
        with pytest.raises(ParseError, match="list of integers"):
            parse_annotations(
                '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, '
                '"other_pnr_frames": [2.5]}'
            )

    @pytest.mark.parametrize(
        "fps",
        ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
        ids=["inf", "-inf", "nan", "float-overflow", "int-overflow"],
    )
    def test_non_finite_fps_rejected(self, fps):
        good = '{"clip_id": "a", "fps": 30.0, "num_frames": 9}'
        bad = '{"clip_id": "b", "fps": %s, "num_frames": 9}' % fps
        with pytest.raises(ParseError, match="line 2: 'fps' must be a finite number"):
            parse_annotations(good + "\n" + bad)

    def test_other_frames_require_positive(self):
        with pytest.raises(ParseError, match="requires 'pnr_frame'"):
            parse_annotations(
                '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "other_pnr_frames": [2]}'
            )

    def test_annotated_frame_out_of_bounds(self):
        with pytest.raises(ParseError, match="outside"):
            parse_annotations('{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 9}')

    def test_duplicate_clip_id(self):
        line = '{"clip_id": "a", "fps": 30.0, "num_frames": 9}'
        with pytest.raises(ConflictError, match="duplicate"):
            parse_annotations(line + "\n" + line)

    def test_record_must_be_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_annotations("[1, 2]")


class TestEmitAnnotations:
    def test_round_trip_is_byte_identical(self, fixture_text):
        assert emit_annotations(parse_annotations(fixture_text)) == fixture_text

    def test_omits_absent_optionals(self):
        ds = build_dataset([Clip("a", 30.0, 100)])
        assert emit_annotations(ds) == '{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n'

    def test_omits_empty_negative_list(self):
        ds = build_dataset([Clip("a", 30.0, 100)], [PnrAnnotation("a", 7)])
        assert (
            emit_annotations(ds)
            == '{"clip_id": "a", "fps": 30.0, "num_frames": 100, "pnr_frame": 7}\n'
        )


class TestBuildDataset:
    def test_annotation_for_unknown_clip(self):
        with pytest.raises(ValidationError, match="unknown clip"):
            build_dataset([Clip("a", 30.0, 100)], [PnrAnnotation("b", 7)])
        with pytest.raises(ValidationError, match="unknown clip"):
            build_dataset([Clip("a", 30.0, 100)], [], [OsccAnnotation("b", True)])

    def test_duplicate_annotation(self):
        with pytest.raises(ConflictError):
            build_dataset(
                [Clip("a", 30.0, 100)], [PnrAnnotation("a", 7), PnrAnnotation("a", 8)]
            )

    def test_frame_beyond_clip(self):
        with pytest.raises(ValidationError, match="outside"):
            build_dataset([Clip("a", 30.0, 100)], [PnrAnnotation("a", 100)])
        with pytest.raises(ValidationError, match="outside"):
            build_dataset([Clip("a", 30.0, 100)], [PnrAnnotation("a", 7, (100,))])


class TestScoreFormats:
    def test_pnr_scores_grouped_and_sorted(self):
        text = (
            '{"clip_id": "a", "start": 12, "end": 44, "confidence": 0.5}\n'
            '{"clip_id": "b", "start": 0, "end": 32, "confidence": 0.9}\n'
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.25}\n'
        )
        series = parse_pnr_scores(text)
        assert set(series) == {"a", "b"}
        assert [sw.start for sw in series["a"].windows] == [0, 12]
        assert series["a"].windows[0].confidence == 0.25

    def test_pnr_scores_round_trip(self):
        text = (
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.25}\n'
            '{"clip_id": "a", "start": 12, "end": 44, "confidence": 0.5}\n'
        )
        assert emit_pnr_scores(parse_pnr_scores(text)) == text

    def test_pnr_score_validation(self):
        with pytest.raises(ParseError, match="confidence"):
            parse_pnr_scores('{"clip_id": "a", "start": 0, "end": 32, "confidence": 1.5}')
        with pytest.raises(ParseError, match="empty or inverted"):
            parse_pnr_scores('{"clip_id": "a", "start": 32, "end": 32, "confidence": 0.5}')
        with pytest.raises(ParseError, match="unknown key"):
            parse_pnr_scores(
                '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.5, "x": 1}'
            )

    def test_oscc_scores(self):
        text = '{"clip_id": "a", "prob": 0.6}\n{"clip_id": "b", "prob": 0.2}\n'
        probs = parse_oscc_scores(text)
        assert probs == {"a": 0.6, "b": 0.2}
        assert emit_oscc_scores(probs) == text
        with pytest.raises(ConflictError):
            parse_oscc_scores('{"clip_id": "a", "prob": 0.6}\n{"clip_id": "a", "prob": 0.2}')
        with pytest.raises(ParseError, match="in \\[0, 1\\]"):
            parse_oscc_scores('{"clip_id": "a", "prob": 1.2}')

    def test_predictions(self):
        preds = {
            "a": PnrPrediction("a", 3.45, 104, "selected"),
            "b": PnrPrediction("b", 4.0, 120, "baseline-center"),
        }
        text = emit_predictions(preds)
        assert parse_predictions(text) == preds
        with pytest.raises(ParseError, match="source"):
            parse_predictions(
                '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "guess"}'
            )
        line = '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"}'
        with pytest.raises(ConflictError):
            parse_predictions(line + "\n" + line)

    def test_non_finite_numbers_rejected(self):
        nan_line = '{"clip_id": "b", "time_sec": NaN, "frame": 30, "source": "selected"}'
        good = '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"}'
        with pytest.raises(ParseError, match="line 2: 'time_sec' must be a finite number"):
            parse_predictions(good + "\n" + nan_line)
        with pytest.raises(ParseError, match="line 1: 'confidence' must be a finite number"):
            parse_pnr_scores('{"clip_id": "a", "start": 0, "end": 32, "confidence": NaN}')
        with pytest.raises(ParseError, match="line 1: 'prob' must be a finite number"):
            parse_oscc_scores('{"clip_id": "a", "prob": -Infinity}')


# any non-empty text: the emitters escape quotes, control characters and
# line separators, so every id survives one record per line
clip_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
unit = st.floats(min_value=0.0, max_value=1.0)
finite_nonneg = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def score_series(draw, clip_id):
    geometry = draw(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(1, 512)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return ScoreSeries(
        clip_id,
        tuple(ScoredWindow(s, s + w, draw(unit)) for s, w in sorted(geometry)),
    )


@st.composite
def pnr_score_maps(draw):
    ids = draw(st.lists(clip_ids, min_size=1, max_size=5, unique=True))
    return {clip_id: draw(score_series(clip_id)) for clip_id in ids}


@st.composite
def prediction_maps(draw):
    ids = draw(st.lists(clip_ids, max_size=5, unique=True))
    return {
        clip_id: PnrPrediction(
            clip_id,
            draw(finite_nonneg),
            draw(st.integers(0, 10**6)),
            draw(st.sampled_from(SOURCES)),
        )
        for clip_id in ids
    }


@st.composite
def datasets(draw):
    ids = draw(st.lists(clip_ids, min_size=1, max_size=5, unique=True))
    clips, pnr, oscc = [], [], []
    for clip_id in ids:
        num_frames = draw(st.integers(1, 500))
        clips.append(
            Clip(clip_id, draw(st.floats(min_value=0.1, max_value=240.0)), num_frames)
        )
        if draw(st.booleans()):
            frames = draw(
                st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=4, unique=True)
            )
            pnr.append(PnrAnnotation(clip_id, frames[0], tuple(frames[1:])))
        if draw(st.booleans()):
            oscc.append(OsccAnnotation(clip_id, draw(st.booleans())))
    return build_dataset(clips, pnr, oscc)


class TestEmitParseRoundTrip:
    @given(pnr_score_maps())
    def test_pnr_scores(self, series_by_clip):
        assert parse_pnr_scores(emit_pnr_scores(series_by_clip)) == series_by_clip

    @given(st.dictionaries(clip_ids, unit, max_size=5))
    def test_oscc_scores(self, probs):
        assert parse_oscc_scores(emit_oscc_scores(probs)) == probs

    @given(prediction_maps())
    def test_predictions(self, preds):
        parsed = parse_predictions(emit_predictions(preds))
        assert parsed == preds
        # source is not part of prediction equality, so compare it too
        assert [p.source for p in parsed.values()] == [p.source for p in preds.values()]

    @given(datasets())
    def test_annotations(self, dataset):
        assert parse_annotations(emit_annotations(dataset)) == dataset


class TestBinIndex:
    @pytest.mark.parametrize(
        "fraction,expected",
        [(0.0, 0), (0.05, 0), (0.1, 1), (0.43, 4), (0.95, 9), (1.0, 9)],
    )
    def test_ten_bins(self, fraction, expected):
        assert bin_index(fraction, 10) == expected

    def test_single_bin(self):
        assert bin_index(0.0, 1) == 0
        assert bin_index(1.0, 1) == 0

    def test_errors(self):
        with pytest.raises(DomainError):
            bin_index(0.5, 0)
        with pytest.raises(DomainError):
            bin_index(1.0001, 10)


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


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.jsonl"
        write_text_atomic(target, "hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"
        write_text_atomic(target, "replaced\n")
        assert target.read_text(encoding="utf-8") == "replaced\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.jsonl"
        old = os.umask(umask)
        try:
            write_text_atomic(target, "hello\n")
            first = os.stat(target).st_mode & 0o777
            write_text_atomic(target, "replaced\n")
            second = os.stat(target).st_mode & 0o777
        finally:
            os.umask(old)
        assert first == second == mode

    def test_failure_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "out.jsonl"
        write_text_atomic(target, "original\n")

        def boom(src, dst):
            raise OSError("no rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_text_atomic(target, "next\n")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
