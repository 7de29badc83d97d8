"""Wire-format parsing, emission, dataset assembly, and atomic writes."""

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from pnrkit import ingest, model
from pnrkit.cli import _load, main
from pnrkit.errors import ConflictError, DomainError, ParseError, PnrKitError, ValidationError
from pnrkit.ingest import (
    build_dataset,
    emit_annotations,
    emit_oscc_scores,
    emit_pnr_scores,
    emit_predictions,
    parse_annotations,
    parse_oscc_scores,
    parse_pnr_scores,
    parse_predictions,
    write_text_atomic,
)
from pnrkit.model import (
    SOURCES,
    Clip,
    FrameWindow,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ScoreSeries,
)
from pnrkit.sim import parse_sim_config

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
        assert ds.oscc["kitchen-001"] is True
        assert ds.oscc["workshop-002"] is False

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
        text = "\n".join([line, line.replace('"a"', '"b"'), "", line, line])
        for stream in (text, io.StringIO(text)):
            with pytest.raises(ConflictError) as info:
                parse_annotations(stream)
            assert str(info.value) == "line 4: duplicate clip_id 'a'"

    def test_repeated_line_reports_its_own_fault_first(self):
        line = '{"clip_id": "a", "fps": 30.0, "num_frames": 9}'
        repeat = line.replace("9}", '9, "pnr_frame": 9}')
        with pytest.raises(ParseError, match="^line 2: clip 'a': annotated frame 9 outside"):
            parse_annotations(line + "\n" + repeat)

    def test_record_must_be_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_annotations("[1, 2]")


class TestEmitAnnotations:
    def test_round_trip_is_byte_identical(self, fixture_text):
        assert "".join(emit_annotations(parse_annotations(fixture_text))) == fixture_text

    def test_omits_absent_optionals(self):
        ds = build_dataset([Clip("a", 30.0, 100)])
        assert "".join(emit_annotations(ds)) == '{"clip_id": "a", "fps": 30.0, "num_frames": 100}\n'

    def test_omits_empty_negative_list(self):
        ds = build_dataset([Clip("a", 30.0, 100)], {"a": PnrAnnotation(7)})
        assert (
            "".join(emit_annotations(ds))
            == '{"clip_id": "a", "fps": 30.0, "num_frames": 100, "pnr_frame": 7}\n'
        )


class TestEmitOsccScores:
    @pytest.mark.parametrize(
        "prob, message",
        [(math.nan, "'prob' must be in [0, 1], got nan"),
         (2.5, "'prob' must be in [0, 1], got 2.5"),
         (-0.5, "'prob' must be in [0, 1], got -0.5"),
         (True, "'prob' must be a number, not True")],
        ids=["nan", "above-one", "below-zero", "bool"],
    )
    def test_refuses_what_the_parser_refuses(self, prob, message):
        with pytest.raises(DomainError) as info:
            "".join(emit_oscc_scores({"a": 0.5, "b": prob}.items()))
        assert str(info.value) == message
        with pytest.raises(ParseError):
            parse_oscc_scores(f'{{"clip_id": "b", "prob": {json.dumps(prob)}}}\n')

    def test_valid_bytes_are_unchanged(self):
        probs = {"a": 0.0, "b": 1, "c": 0.25, "d": 1.0, "e": 5e-324}
        text = "".join(emit_oscc_scores(probs.items()))
        assert text == "".join(json.dumps({"clip_id": c, "prob": p}) + "\n" for c, p in probs.items())
        assert parse_oscc_scores(text) == probs


class TestBuildDataset:
    def test_annotation_for_unknown_clip(self):
        with pytest.raises(ValidationError, match="^unknown clip 'b'$"):
            build_dataset([Clip("a", 30.0, 100)], {"b": PnrAnnotation(7)})
        with pytest.raises(ValidationError, match="^unknown clip 'b'$"):
            build_dataset([Clip("a", 30.0, 100)], {}, {"b": True})

    def test_frame_beyond_clip(self):
        with pytest.raises(ValidationError, match="outside"):
            build_dataset([Clip("a", 30.0, 100)], {"a": PnrAnnotation(100)})
        with pytest.raises(ValidationError, match="outside"):
            build_dataset([Clip("a", 30.0, 100)], {"a": PnrAnnotation(7, (100,))})


CLIPS = {"a": Clip("a", 30.0, 100)}  # 100 frames, 3.33 s
# (parser, a good line for clip a, a line for an unknown clip, a line outside clip a, its message)
CLIP_CHECKS = {
    "pnr_scores": (
        parse_pnr_scores, '{"clip_id": "a", "start": 60, "end": 100, "confidence": 0.5}',
        '{"clip_id": "x", "start": 0, "end": 40, "confidence": 0.5}',
        '{"clip_id": "a", "start": 60, "end": 101, "confidence": 0.5}',
        "window [60, 101) exceeds clip 'a' of 100 frames",
    ),
    "predictions-frame": (
        parse_predictions, '{"clip_id": "a", "time_sec": 3.3333333333333335, "frame": 99, '
        '"source": "selected"}',
        '{"clip_id": "x", "time_sec": 1.0, "frame": 30, "source": "selected"}',
        '{"clip_id": "a", "time_sec": 1.0, "frame": 100, "source": "selected"}',
        "clip 'a': prediction at frame 100, 1.0 s, is outside the clip's 100 frames, "
        "3.3333333333333335 s",
    ),
    "predictions-time": (
        parse_predictions, '{"clip_id": "a", "time_sec": 3.3333333333333335, "frame": 99, '
        '"source": "selected"}',
        '{"clip_id": "x", "time_sec": 1.0, "frame": 30, "source": "selected"}',
        '{"clip_id": "a", "time_sec": 3.3333333333333339, "frame": 30, "source": "selected"}',
        "clip 'a': prediction at frame 30, 3.333333333333334 s, is outside the clip's 100 "
        "frames, 3.3333333333333335 s",
    ),
    "oscc_scores": (parse_oscc_scores, '{"clip_id": "a", "prob": 0.5}',
                    '{"clip_id": "x", "prob": 0.5}', None, None),
}


class TestClipChecks:
    """Given the annotated clips, a parser checks each record against its clip at its line."""

    @pytest.mark.parametrize("parse, good, unknown, outside, message", CLIP_CHECKS.values(),
                             ids=list(CLIP_CHECKS))
    @pytest.mark.parametrize("at", [2, 100], ids=["first-block", "later-block"])
    def test_a_record_that_does_not_fit_names_its_line(
        self, parse, good, unknown, outside, message, at
    ):
        # good lines for clips a0, a1, ... with the faulty line at line `at`
        clips = {f"a{i}": Clip(f"a{i}", 30.0, 100) for i in range(120)}
        lines = [good.replace('"a"', f'"a{i}"') for i in range(120)]
        faults = [(unknown, "unknown clip 'x'")]
        if outside is not None:
            clip_id = f"a{at - 1}"
            faults.append((outside.replace('"a"', f'"{clip_id}"'), message.replace("'a'", f"'{clip_id}'")))
        for line, expected in faults:
            text = "\n".join(lines[: at - 1] + [line] + lines[at:]) + "\n"
            with pytest.raises(ParseError) as info:
                parse(text, clips)
            assert str(info.value) == f"line {at}: {expected}"
            assert info.value.line_no == at
            parse(text)  # without clips, no clip is checked
        assert len(parse("\n".join(lines) + "\n", clips)) == 120  # the edge of a clip fits

    def test_a_record_reports_its_own_fault_before_its_clip(self):
        with pytest.raises(ParseError, match=r"^line 1: confidence must be in \[0, 1\], got 2.0$"):
            parse_pnr_scores('{"clip_id": "x", "start": 0, "end": 400, "confidence": 2.0}\n', CLIPS)

    def test_a_repeat_before_a_fault_is_reported_first(self):
        text = "".join(f'{{"clip_id": "a", "start": 0, "end": {e}, "confidence": 0.5}}\n'
                       for e in (40, 50, 40, 200))
        with pytest.raises(ConflictError, match=r"^line 3: duplicate window \[0, 40\) for clip 'a'$"):
            parse_pnr_scores(text, CLIPS)


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
        assert "".join(emit_pnr_scores(parse_pnr_scores(text).items())) == text

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
        assert "".join(emit_oscc_scores(probs.items())) == text
        with pytest.raises(ConflictError):
            parse_oscc_scores('{"clip_id": "a", "prob": 0.6}\n{"clip_id": "a", "prob": 0.2}')
        with pytest.raises(ParseError, match="in \\[0, 1\\]"):
            parse_oscc_scores('{"clip_id": "a", "prob": 1.2}')

    def test_predictions(self):
        preds = {
            "a": PnrPrediction(3.45, 104, "selected"),
            "b": PnrPrediction(4.0, 120, "baseline-center"),
        }
        text = "".join(emit_predictions(preds.items()))
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
def score_series(draw):
    geometry = draw(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(1, 512)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return ScoreSeries(tuple(ScoredWindow(s, s + w, draw(unit)) for s, w in sorted(geometry)))


@st.composite
def pnr_score_maps(draw, ids=clip_ids):
    ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    return {clip_id: draw(score_series()) for clip_id in ids}


@st.composite
def prediction_maps(draw, ids=clip_ids):
    ids = draw(st.lists(ids, max_size=5, unique=True))
    return {
        clip_id: PnrPrediction(
            draw(finite_nonneg),
            draw(st.integers(0, 10**6)),
            draw(st.sampled_from(SOURCES)),
        )
        for clip_id in ids
    }


@st.composite
def datasets(draw, ids=clip_ids):
    ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    clips, pnr, oscc = [], {}, {}
    for clip_id in ids:
        num_frames = draw(st.integers(1, 500))
        clips.append(
            Clip(clip_id, draw(st.floats(min_value=0.1, max_value=240.0)), num_frames)
        )
        if draw(st.booleans()):
            frames = draw(
                st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=4, unique=True)
            )
            pnr[clip_id] = PnrAnnotation(frames[0], tuple(frames[1:]))
        if draw(st.booleans()):
            oscc[clip_id] = draw(st.booleans())
    return build_dataset(clips, pnr, oscc)


class TestEmitParseRoundTrip:
    @given(pnr_score_maps())
    def test_pnr_scores(self, series_by_clip):
        assert parse_pnr_scores("".join(emit_pnr_scores(series_by_clip.items()))) == series_by_clip

    @given(st.dictionaries(clip_ids, unit, max_size=5))
    def test_oscc_scores(self, probs):
        assert parse_oscc_scores("".join(emit_oscc_scores(probs.items()))) == probs

    @given(prediction_maps())
    def test_predictions(self, preds):
        parsed = parse_predictions("".join(emit_predictions(preds.items())))
        assert parsed == preds
        # source is part of prediction equality; compare it on its own too
        assert [p.source for p in parsed.values()] == [p.source for p in preds.values()]

    @given(datasets())
    def test_annotations(self, dataset):
        assert parse_annotations("".join(emit_annotations(dataset))) == dataset


# ids that json must escape, and every confidence type a window may hold
awkward_ids = st.one_of(
    clip_ids,
    st.sampled_from(['say "hi"', "back\\slash", "tab\there", "\x00\x1f\x7f", "a\u2028b", "é中"]),
)
confidences = st.one_of(unit, st.integers(0, 1), unit.map(np.float64))


def table_lines(fmt, records):
    """Each record as one json.dumps of its format's keys, in the table's
    order, with the values of the record; a None leaves an optional key out."""
    checks, _, optional = fmt
    return "".join(
        json.dumps({k: v for k, v in zip(checks, values, strict=True)
                    if v is not None or k not in optional}) + "\n"
        for values in records
    )


@st.composite
def awkward_datasets(draw):
    """Clips with awkward ids and int, float or numpy fps, each with or
    without a label and an annotation, which may have no other frames."""
    ids = draw(st.lists(awkward_ids, max_size=5, unique=True))
    rates = st.floats(0.1, 240.0)
    fps = st.one_of(st.integers(1, 240), rates, rates.map(np.float64))
    clips, pnr, oscc = [], {}, {}
    for clip_id in ids:
        clips.append(Clip(clip_id, draw(fps), num_frames := draw(st.integers(1, 500))))
        if (label := draw(st.one_of(st.none(), st.booleans()))) is not None:
            oscc[clip_id] = label
        if draw(st.booleans()):
            frames = draw(
                st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=4, unique=True)
            )
            pnr[clip_id] = PnrAnnotation(frames[0], tuple(frames[1:]))
    return build_dataset(clips, pnr, oscc)


class TestEmitMatchesJsonDumps:
    """Every emitter writes the bytes of one json.dumps call per record,
    its keys in the order of its format's table."""

    @staticmethod
    def reference(series_by_clip):
        return table_lines(ingest._SCORE, (
            (clip_id, *window) for clip_id, series in series_by_clip.items()
            for window in series.windows
        ))

    @given(
        st.dictionaries(
            awkward_ids,
            st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 512), confidences), max_size=6),
            max_size=5,
        )
    )
    def test_any_series(self, raw):
        series_by_clip = {
            clip_id: ScoreSeries(tuple(ScoredWindow(s, s + w, c) for s, w, c in windows))
            for clip_id, windows in raw.items()
        }
        assert "".join(emit_pnr_scores(series_by_clip.items())) == self.reference(series_by_clip)

    @given(
        prediction_maps(awkward_ids),
        st.lists(st.one_of(st.integers(0, 10**6), st.floats(0, 1e308).map(np.float64)), max_size=5),
    )
    def test_any_predictions(self, preds, times):
        # some times ints or numpy floats, as a library caller may give
        for (clip_id, p), t in zip(list(preds.items()), times):
            preds[clip_id] = p._replace(time_sec=t)
        assert "".join(emit_predictions(preds.items())) == table_lines(
            ingest._PREDICTION, ((clip_id, *p) for clip_id, p in preds.items())
        )

    @given(awkward_datasets())
    def test_any_annotations(self, dataset):
        def values(clip_id, clip):
            ann = dataset.pnr.get(clip_id)  # no other frames leave their key out
            frames = (ann.positive_frame, list(ann.negative_frames) or None) if ann else (None, None)
            return clip_id, clip.fps, clip.num_frames, dataset.oscc.get(clip_id), *frames

        assert "".join(emit_annotations(dataset)) == table_lines(
            ingest._ANNOTATION, (values(*item) for item in dataset.clips.items())
        )

    @given(st.dictionaries(awkward_ids, confidences, max_size=5))
    def test_any_probabilities(self, probs):
        # floats, ints and numpy floats, as a library caller may give
        assert "".join(emit_oscc_scores(probs.items())) == table_lines(ingest._PROB, probs.items())

    def test_annotation_keys_left_out(self):
        ds = build_dataset(
            [Clip('say "q"', 30, 9), Clip("b", np.float64(24.0), 9), Clip("c", 2.5, 9)],
            {'say "q"': PnrAnnotation(4), "b": PnrAnnotation(1, (7, 3))},
            {"b": False, "c": True},
        )
        assert "".join(emit_annotations(ds)) == (
            '{"clip_id": "say \\"q\\"", "fps": 30, "num_frames": 9, "pnr_frame": 4}\n'
            '{"clip_id": "b", "fps": 24.0, "num_frames": 9, "state_change": false, "pnr_frame": 1, '
            '"other_pnr_frames": [7, 3]}\n'
            '{"clip_id": "c", "fps": 2.5, "num_frames": 9, "state_change": true}\n'
        )

    def test_int_and_numpy_confidences(self):
        clip_id = 'say "q"\u2028'
        series = ScoreSeries((ScoredWindow(0, 4, 1), ScoredWindow(4, 8, np.float64(0.1))))
        assert "".join(emit_pnr_scores({clip_id: series}.items())) == (
            '{"clip_id": "say \\"q\\"\\u2028", "start": 0, "end": 4, "confidence": 1}\n'
            '{"clip_id": "say \\"q\\"\\u2028", "start": 4, "end": 8, "confidence": 0.1}\n'
        )


# numpy float32 values, as a scorer's head gives them, which the records take
unit32 = st.floats(0.0, 1.0, width=32).map(np.float32)


class TestFloat32Numbers:
    """A float32 in a number field is written as its float's repr, so it
    parses back to a float equal to float(v)."""

    @staticmethod
    def same(parsed, values):
        return [*map(type, parsed)] == [float] * len(values) and parsed == [*map(float, values)]

    @given(st.lists(unit32, min_size=1, max_size=5))
    def test_confidences(self, values):
        series = ScoreSeries(tuple(ScoredWindow(k, k + 4, c) for k, c in enumerate(values)))
        parsed = parse_pnr_scores("".join(emit_pnr_scores([("a", series)])))
        assert self.same([w.confidence for w in parsed["a"].windows], values)

    @given(unit32)
    def test_probabilities(self, value):
        parsed = parse_oscc_scores("".join(emit_oscc_scores([("a", value)])))
        assert self.same([parsed["a"]], [value])

    @given(st.floats(0.0, 1e6, width=32).map(np.float32))
    def test_prediction_times(self, value):
        parsed = parse_predictions("".join(emit_predictions([("a", PnrPrediction(value, 3))])))
        assert self.same([parsed["a"].time_sec], [value])

    @given(st.floats(0.125, 240.0, width=32).map(np.float32), st.booleans())
    def test_fps(self, value, label):
        ds = build_dataset([Clip("a", value, 9)], {"a": PnrAnnotation(4)}, {"a": label})
        parsed = parse_annotations("".join(emit_annotations(ds)))
        assert self.same([parsed.clips["a"].fps], [value])
        assert parsed.oscc == {"a": label}  # the label stays a bool


def any_int(low, high):
    """An int in [low, high] as Python or one of numpy's int types holds it."""
    return st.tuples(st.integers(low, high), st.sampled_from([int, np.int64, np.int32])).map(
        lambda value_type: value_type[1](value_type[0])
    )


def any_number(low, high):
    """A number in [low, high]: a float, an int, a numpy float64, or a numpy
    float32 drawn as one."""
    floats = st.floats(low, high)
    return st.one_of(
        floats, st.integers(math.ceil(low), math.floor(high)), floats.map(np.float64),
        st.floats(low, high, width=32).map(np.float32),
    )


@st.composite
def built_datasets(draw):
    """Clips with awkward ids and any fps, each with or without a label and
    an annotation, every int field an int or a numpy int."""
    clips, pnr, oscc = [], {}, {}
    for clip_id in draw(st.lists(awkward_ids, max_size=4, unique=True)):
        clips.append(Clip(clip_id, draw(any_number(0.125, 240.0)), n := draw(any_int(1, 500))))
        if draw(st.booleans()):
            frames = draw(st.lists(any_int(0, int(n) - 1), min_size=1, max_size=4, unique_by=int))
            pnr[clip_id] = PnrAnnotation(frames[0], frames[1:])
        if draw(st.booleans()):
            oscc[clip_id] = draw(st.booleans())
    return build_dataset(clips, pnr, oscc)


@st.composite
def built_series(draw):
    """A series sorted by start, its bounds ints or numpy ints, its
    confidences any number."""
    starts = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=6, unique=True))
    return ScoreSeries(tuple(
        ScoredWindow(draw(st.sampled_from([int, np.int64]))(s), draw(any_int(s + 1, s + 512)),
                     draw(any_number(0.0, 1.0)))
        for s in sorted(starts)
    ))


# each pair format's emitter and parser, and maps of values its records accept
BUILT = {
    "pnr_scores": (emit_pnr_scores, parse_pnr_scores,
                   st.dictionaries(awkward_ids, built_series(), max_size=4)),
    "oscc_scores": (emit_oscc_scores, parse_oscc_scores,
                    st.dictionaries(awkward_ids, any_number(0.0, 1.0), max_size=4)),
    "predictions": (emit_predictions, parse_predictions, st.dictionaries(
        awkward_ids,
        st.builds(PnrPrediction, any_number(0.0, 1e6), any_int(0, 10**6), st.sampled_from(SOURCES)),
        max_size=4,
    )),
}
# one int field of each record type and how a record is built with value in it
INT_FIELDS = {
    "num_frames": lambda v: Clip("a", 30.0, v),
    "positive_frame": lambda v: PnrAnnotation(v),
    "negative_frames": lambda v: PnrAnnotation(0, (v,)),
    "window start": lambda v: FrameWindow(v, 10**7),
    "window end": lambda v: ScoredWindow(0, v, 0.5),
    "frame": lambda v: PnrPrediction(1.0, v),
}


class TestWhatIsBuiltRoundTrips:
    """Whatever a constructor or build_dataset accepts, numpy's ints and
    float32 included, parses back from its emitted lines as the same values;
    what a parser would refuse is refused when the value is built."""

    @given(built_datasets())
    def test_annotations(self, dataset):
        assert parse_annotations("".join(emit_annotations(dataset))) == dataset

    @pytest.mark.parametrize("emit, parse, maps", BUILT.values(), ids=list(BUILT))
    @given(data=st.data())
    def test_pair_formats(self, emit, parse, maps, data):
        built = data.draw(maps)
        assert parse("".join(emit(built.items()))) == built

    @pytest.mark.parametrize("name", list(INT_FIELDS))
    @given(value=st.one_of(st.floats(1.0, 10**6), st.integers(1, 10**6).map(float)))
    def test_a_float_in_an_int_field_is_refused(self, name, value):
        with pytest.raises(DomainError) as info:
            INT_FIELDS[name](value)
        assert str(info.value) == f"{name} must be an integer, got {value}"

    @given(st.one_of(st.integers(), st.floats(), st.binary(min_size=1), st.none(),
                     st.tuples(st.text(min_size=1))))
    def test_a_non_str_id_is_refused(self, clip_id):
        with pytest.raises(ValidationError, match="^clip_id must be a non-empty string$"):
            Clip(clip_id, 30.0, 9)
        for emit, value, _ in PAIR_EMITTERS.values():  # given to an emitter, no line is written
            with pytest.raises(TypeError):
                next(emit([(clip_id, value)]))

    @given(st.one_of(st.integers(), st.floats(), st.none(), st.text(),
                     st.sampled_from([np.True_, np.False_])))
    def test_a_non_bool_label_is_refused(self, label):
        clips = [Clip("a", 30.0, 9), Clip("b", 30.0, 9)]
        with pytest.raises(ValidationError) as info:
            build_dataset(clips, {}, {"a": True, "b": label})
        assert str(info.value) == f"clip 'b': state-change label {label!r} is not a bool"


# one value per pair emitter, and the text it writes for clip "a"
PAIR_EMITTERS = {
    "pnr_scores": (emit_pnr_scores, ScoreSeries((ScoredWindow(0, 4, 0.5), ScoredWindow(2, 6, 1))),
                   '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5}\n'
                   '{"clip_id": "a", "start": 2, "end": 6, "confidence": 1}\n'),
    "oscc_scores": (emit_oscc_scores, 0.25, '{"clip_id": "a", "prob": 0.25}\n'),
    "predictions": (emit_predictions, PnrPrediction(1.5, 45, "fallback-prior"),
                    '{"clip_id": "a", "time_sec": 1.5, "frame": 45, "source": "fallback-prior"}\n'),
}


class TestEmittersStream:
    """An emitter yields one clip's text at a time, and draws a (clip id,
    value) pair only once the text of the clip before it is handed on."""

    @pytest.mark.parametrize("emit, value, text_a", PAIR_EMITTERS.values(), ids=list(PAIR_EMITTERS))
    def test_a_pair_is_drawn_after_the_clip_before_is_yielded(self, emit, value, text_a):
        drawn = []

        def pairs():
            for clip_id in "abc":
                drawn.append(clip_id)
                yield clip_id, value

        pieces = emit(pairs())
        assert drawn == []
        for k, piece in enumerate(pieces):
            assert drawn == list("abc"[: k + 1])
            assert piece == text_a.replace('"a"', f'"{"abc"[k]}"')
        assert drawn == list("abc")

    def test_annotations_yield_one_clip_at_a_time(self):
        ds = build_dataset([Clip("a", 30.0, 9), Clip("b", 24.0, 9)], {"b": PnrAnnotation(1)})
        assert [*emit_annotations(ds)] == [
            '{"clip_id": "a", "fps": 30.0, "num_frames": 9}\n',
            '{"clip_id": "b", "fps": 24.0, "num_frames": 9, "pnr_frame": 1}\n',
        ]

    def test_a_bad_probability_stops_the_stream_at_its_clip(self):
        pieces = emit_oscc_scores([("a", 0.5), ("b", 1.5), ("c", 0.5)])
        assert next(pieces) == '{"clip_id": "a", "prob": 0.5}\n'
        with pytest.raises(DomainError, match=r"'prob' must be in \[0, 1\], got 1.5"):
            next(pieces)


@st.composite
def scored_clips(draw, n_files):
    """Annotations for a few clips and n_files score maps over all of them."""
    # short clips and few confidence levels make tied and same-center windows common
    clips = [Clip(f"c{i}", 30.0, draw(st.integers(4, 40))) for i in range(draw(st.integers(1, 3)))]
    score_maps = []
    for _ in range(n_files):
        series_by_clip = {}
        for clip in clips:
            n = clip.num_frames
            geometry = st.tuples(st.integers(0, n - 1), st.integers(1, n)).map(
                lambda sw, n=n: (sw[0], min(sw[0] + sw[1], n))
            )
            windows = draw(st.lists(geometry, min_size=1, max_size=6, unique=True))
            series_by_clip[clip.clip_id] = ScoreSeries(
                tuple(ScoredWindow(s, e, draw(st.sampled_from([0.5, 0.8, 0.9]))) for s, e in sorted(windows))
            )
        score_maps.append(series_by_clip)
    return build_dataset(clips), score_maps


@st.composite
def labeled_clips(draw):
    """A dataset where some clips lack one label or both, with one
    prediction map and two probability maps covering the labeled clips."""
    clips, pnr, oscc = [], {}, {}
    for i in range(draw(st.integers(1, 8))):
        clip = Clip(f"c{i}", draw(st.sampled_from([24.0, 30.0])), draw(st.integers(4, 200)))
        clips.append(clip)
        # the first clip carries both labels, so no evaluation is empty
        if i == 0 or draw(st.booleans()):
            frames = draw(
                st.lists(st.integers(0, clip.num_frames - 1), min_size=1, max_size=4, unique=True)
            )
            pnr[clip.clip_id] = PnrAnnotation(frames[0], tuple(frames[1:]))
        if i == 0 or draw(st.booleans()):
            oscc[clip.clip_id] = draw(st.booleans())
    # errors of unlike size, so a sum that depended on line order would show;
    # each prediction lies inside its clip, as evaluate requires
    preds = {
        clip.clip_id: PnrPrediction(
            draw(st.floats(0.0, clip.num_frames / clip.fps)),
            draw(st.integers(0, clip.num_frames - 1)),
            draw(st.sampled_from(SOURCES)),
        )
        for clip in clips
        if clip.clip_id in pnr
    }
    probs = [{clip_id: draw(unit) for clip_id in oscc} for _ in range(2)]
    return build_dataset(clips, pnr, oscc), preds, probs


class TestLineOrder:
    """Shuffling the lines of an input file never changes what the CLI writes."""

    # each example runs the CLI four times, so shrinking a failure would
    # take minutes; the unshrunk example is reported as drawn
    @settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def test_localize_and_fuse(self, data):
        dataset, score_maps = data.draw(scored_clips(2))
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            annotations = work / "annotations.jsonl"
            annotations.write_text("".join(emit_annotations(dataset)), encoding="utf-8")

            def outputs(tag, arrange):
                scores = []
                for k, series_by_clip in enumerate(score_maps):
                    path = work / f"{tag}-scores{k}.jsonl"
                    text = "".join(emit_pnr_scores(series_by_clip.items()))
                    lines = text.splitlines(keepends=True)
                    path.write_text("".join(arrange(lines)), encoding="utf-8")
                    scores.append(str(path))
                preds, fused = work / f"{tag}-preds.jsonl", work / f"{tag}-fused.jsonl"
                common = ["--annotations", str(annotations), "--quiet", "--out"]
                assert main(["localize", "--scores", scores[0], *common, str(preds)]) == 0
                assert main(["fuse", "--task", "pnr", "--scores", *scores, *common, str(fused)]) == 0
                return preds.read_bytes(), fused.read_bytes()

            in_order = outputs("sorted", list)
            shuffled = outputs("shuffled", lambda lines: data.draw(st.permutations(lines)))
        assert shuffled == in_order

    @settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def test_evaluate_stats_and_oracle(self, data):
        dataset, preds, probs = data.draw(labeled_clips())
        texts = {
            "annotations": "".join(emit_annotations(dataset)),
            "preds": "".join(emit_predictions(preds.items())),
            "probs0": "".join(emit_oscc_scores(probs[0].items())),
            "probs1": "".join(emit_oscc_scores(probs[1].items())),
        }
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)

            def outputs(tag, arrange):
                inputs = {name: work / f"{tag}-{name}.jsonl" for name in texts}
                for name, text in texts.items():
                    lines = text.splitlines(keepends=True)
                    inputs[name].write_text("".join(arrange(lines)), encoding="utf-8")
                written = {name: work / f"{tag}-{name}.out" for name in ("report", "plot", "fused", "hist")}
                common = ["--annotations", str(inputs["annotations"]), "--quiet"]
                runs = [
                    ["evaluate", "--task", "pnr", "--preds", str(inputs["preds"]), "--bins", "2", *common,
                     "--out", str(written["report"]), "--plot-data", str(written["plot"])],
                    ["evaluate", "--task", "oscc", "--preds", str(inputs["probs0"]), *common],
                    ["fuse", "--task", "oscc", "--scores", str(inputs["probs0"]), str(inputs["probs1"]),
                     *common, "--out", str(written["fused"])],
                    ["stats", *common, "--out", str(written["hist"])],
                    ["oracle", *common, "--n", "3", "--window", "4"],
                ]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    for argv in runs:
                        assert main(argv) == 0
                return stdout.getvalue(), {name: path.read_bytes() for name, path in written.items()}

            in_order = outputs("sorted", list)
            shuffled = outputs("shuffled", lambda lines: data.draw(st.permutations(lines)))
        assert shuffled == in_order


class TestDuplicateWindows:
    def test_second_line_names_clip_and_line(self):
        text = (
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.9}\n'
            '{"clip_id": "b", "start": 0, "end": 32, "confidence": 0.5}\n'
            "\n"
            '{"clip_id": "a", "start": 12, "end": 44, "confidence": 0.5}\n'
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.1}\n'
        )
        for stream in (text, text.splitlines(), iter(text.splitlines(keepends=True))):
            with pytest.raises(ConflictError) as info:
                parse_pnr_scores(stream)
            assert str(info.value) == "line 5: duplicate window [0, 32) for clip 'a'"

    @pytest.mark.parametrize("separators", [None, (",", ":")], ids=["emitted", "compact"])
    def test_repeat_is_reported_before_a_later_bad_line(self, separators):
        records = [
            {"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5},
            {"clip_id": "a", "start": 0, "end": 4, "confidence": 0.25},
            {"clip_id": "a", "start": 4, "end": 8, "confidence": 2},
        ]
        text = "".join(json.dumps(r, separators=separators) + "\n" for r in records)
        for stream in (text, text.splitlines()):
            with pytest.raises(ConflictError) as info:
                parse_pnr_scores(stream)
            assert str(info.value) == "line 2: duplicate window [0, 4) for clip 'a'"
            assert info.value.line_no == 2
        # a bad line with no repeat before it is reported as itself
        with pytest.raises(ParseError, match=r"^line 2: confidence must be in \[0, 1\], got 2.0$"):
            parse_pnr_scores([text.splitlines()[0], text.splitlines()[2]])

    def test_first_repeated_line_is_reported(self):
        # as for a repeated clip id in the other formats: the first line
        # that repeats, whichever clip or window it repeats
        lines = [
            '{"clip_id": "a", "start": 8, "end": 40, "confidence": 0.5}',
            '{"clip_id": "b", "start": 0, "end": 32, "confidence": 0.5}',
            '{"clip_id": "b", "start": 0, "end": 32, "confidence": 0.5}',
            '{"clip_id": "a", "start": 8, "end": 40, "confidence": 0.5}',
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.5}',
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.5}',
        ]
        with pytest.raises(ConflictError) as info:
            parse_pnr_scores(lines)
        assert str(info.value) == "line 3: duplicate window [0, 32) for clip 'b'"

    def test_third_copy_reports_the_second(self):
        line = '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.5}\n'
        with pytest.raises(ConflictError, match="^line 2: "):
            parse_pnr_scores(line * 3)

    def test_same_start_or_other_clip_is_not_a_duplicate(self):
        text = (
            '{"clip_id": "a", "start": 0, "end": 32, "confidence": 0.9}\n'
            '{"clip_id": "a", "start": 0, "end": 16, "confidence": 0.5}\n'
            '{"clip_id": "b", "start": 0, "end": 32, "confidence": 0.1}\n'
        )
        series = parse_pnr_scores(text)
        assert [(sw.start, sw.end) for sw in series["a"].windows] == [(0, 16), (0, 32)]
        assert len(series["b"].windows) == 1


# One good record per format; each case below sits on line 3, after the
# good record and a blank line.
PARSERS = {
    "annotations": parse_annotations,
    "pnr_scores": parse_pnr_scores,
    "oscc_scores": parse_oscc_scores,
    "predictions": parse_predictions,
}
FIRST_LINE = {
    "annotations": '{"clip_id": "z", "fps": 30.0, "num_frames": 9}',
    "pnr_scores": '{"clip_id": "z", "start": 0, "end": 4, "confidence": 0.5}',
    "oscc_scores": '{"clip_id": "z", "prob": 0.5}',
    "predictions": '{"clip_id": "z", "time_sec": 1.0, "frame": 30, "source": "selected"}',
}
GOOD_LINE = {fmt: line.replace('"z"', '"a"') for fmt, line in FIRST_LINE.items()}
BIG = "1" + "0" * 400

# Every malformed line with the exact error and line number the parsers
# gave before they decoded each line once and type-checked it in one
# test; a faster record path must leave this table as it is.
MALFORMED = [
    # (format, case, line_no, line, message)
    ('annotations', 'bom', 3, '\ufeff{"clip_id": "a", "fps": 30.0, "num_frames": 9}',
     'line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)'),
    ('annotations', 'formfeed-inside', 3, '{"clip_id": "a",\x0c"fps": 30.0, "num_frames": 9}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('annotations', 'nbsp-inside', 3, '{"clip_id": "a",\xa0"fps": 30.0, "num_frames": 9}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('annotations', 'broken', 3, '{broken',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('annotations', 'extra-data', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9} {"clip_id": "a", "fps": 30.0, "num_frames": 9}',
     'line 3: invalid JSON: Extra data'),
    ('annotations', 'trailing-comma', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, }',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('annotations', 'array', 3, '[1, 2]',
     'line 3: record must be a JSON object'),
    ('annotations', 'int-scalar', 3, '3',
     'line 3: record must be a JSON object'),
    ('annotations', 'string-scalar', 3, '"x"',
     'line 3: record must be a JSON object'),
    ('annotations', 'null', 3, 'null',
     'line 3: record must be a JSON object'),
    ('annotations', 'missing-key', 3, '{"clip_id": "a", "fps": 30.0}',
     'line 3: missing key(s): num_frames'),
    ('annotations', 'missing-all', 3, '{}',
     'line 3: missing key(s): clip_id, fps, num_frames'),
    ('annotations', 'extra-key', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "x": 1}',
     'line 3: unknown key(s): x'),
    ('annotations', 'empty-clip-id', 3, '{"clip_id": "", "fps": 30.0, "num_frames": 9}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('annotations', 'int-clip-id', 3, '{"clip_id": 5, "fps": 30.0, "num_frames": 9}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('annotations', 'fps-true', 3, '{"clip_id": "a", "fps": true, "num_frames": 9}',
     "line 3: 'fps' must be a number"),
    ('annotations', 'fps-string', 3, '{"clip_id": "a", "fps": "0.5", "num_frames": 9}',
     "line 3: 'fps' must be a number"),
    ('annotations', 'fps-nan', 3, '{"clip_id": "a", "fps": NaN, "num_frames": 9}',
     "line 3: 'fps' must be a finite number"),
    ('annotations', 'fps-inf', 3, '{"clip_id": "a", "fps": Infinity, "num_frames": 9}',
     "line 3: 'fps' must be a finite number"),
    ('annotations', 'fps--inf', 3, '{"clip_id": "a", "fps": -Infinity, "num_frames": 9}',
     "line 3: 'fps' must be a finite number"),
    ('annotations', 'fps-float-overflow', 3, '{"clip_id": "a", "fps": 1e400, "num_frames": 9}',
     "line 3: 'fps' must be a finite number"),
    ('annotations', 'fps-int-overflow', 3, '{"clip_id": "a", "fps": ' + BIG + ', "num_frames": 9}',
     "line 3: 'fps' must be a finite number"),
    ('annotations', 'fps-null', 3, '{"clip_id": "a", "fps": null, "num_frames": 9}',
     "line 3: 'fps' must be a number"),
    ('annotations', 'num_frames-true', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": true}',
     "line 3: 'num_frames' must be an integer"),
    ('annotations', 'num_frames-float', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 1.0}',
     "line 3: 'num_frames' must be an integer"),
    ('annotations', 'num_frames-string', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": "1"}',
     "line 3: 'num_frames' must be an integer"),
    ('annotations', 'num_frames-negative', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": -1}',
     'line 3: num_frames must be >= 1, got -1'),
    ('pnr_scores', 'bom', 3, '\ufeff{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5}',
     'line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)'),
    ('pnr_scores', 'formfeed-inside', 3, '{"clip_id": "a",\x0c"start": 0, "end": 4, "confidence": 0.5}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('pnr_scores', 'nbsp-inside', 3, '{"clip_id": "a",\xa0"start": 0, "end": 4, "confidence": 0.5}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('pnr_scores', 'broken', 3, '{broken',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('pnr_scores', 'extra-data', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5} {"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5}',
     'line 3: invalid JSON: Extra data'),
    ('pnr_scores', 'trailing-comma', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5, }',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('pnr_scores', 'array', 3, '[1, 2]',
     'line 3: record must be a JSON object'),
    ('pnr_scores', 'int-scalar', 3, '3',
     'line 3: record must be a JSON object'),
    ('pnr_scores', 'string-scalar', 3, '"x"',
     'line 3: record must be a JSON object'),
    ('pnr_scores', 'null', 3, 'null',
     'line 3: record must be a JSON object'),
    ('pnr_scores', 'missing-key', 3, '{"clip_id": "a", "start": 0, "end": 4}',
     'line 3: missing key(s): confidence'),
    ('pnr_scores', 'missing-all', 3, '{}',
     'line 3: missing key(s): clip_id, start, end, confidence'),
    ('pnr_scores', 'extra-key', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5, "x": 1}',
     'line 3: unknown key(s): x'),
    ('pnr_scores', 'empty-clip-id', 3, '{"clip_id": "", "start": 0, "end": 4, "confidence": 0.5}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('pnr_scores', 'int-clip-id', 3, '{"clip_id": 5, "start": 0, "end": 4, "confidence": 0.5}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('pnr_scores', 'confidence-true', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": true}',
     "line 3: 'confidence' must be a number"),
    ('pnr_scores', 'confidence-string', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": "0.5"}',
     "line 3: 'confidence' must be a number"),
    ('pnr_scores', 'confidence-nan', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": NaN}',
     "line 3: 'confidence' must be a finite number"),
    ('pnr_scores', 'confidence-inf', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": Infinity}',
     "line 3: 'confidence' must be a finite number"),
    ('pnr_scores', 'confidence--inf', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": -Infinity}',
     "line 3: 'confidence' must be a finite number"),
    ('pnr_scores', 'confidence-float-overflow', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 1e400}',
     "line 3: 'confidence' must be a finite number"),
    ('pnr_scores', 'confidence-int-overflow', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": ' + BIG + '}',
     "line 3: 'confidence' must be a finite number"),
    ('pnr_scores', 'confidence-null', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": null}',
     "line 3: 'confidence' must be a number"),
    ('pnr_scores', 'start-true', 3, '{"clip_id": "a", "start": true, "end": 4, "confidence": 0.5}',
     "line 3: 'start' must be an integer"),
    ('pnr_scores', 'start-float', 3, '{"clip_id": "a", "start": 1.0, "end": 4, "confidence": 0.5}',
     "line 3: 'start' must be an integer"),
    ('pnr_scores', 'start-string', 3, '{"clip_id": "a", "start": "1", "end": 4, "confidence": 0.5}',
     "line 3: 'start' must be an integer"),
    ('pnr_scores', 'start-negative', 3, '{"clip_id": "a", "start": -1, "end": 4, "confidence": 0.5}',
     'line 3: window start must be >= 0, got -1'),
    ('oscc_scores', 'bom', 3, '\ufeff{"clip_id": "a", "prob": 0.5}',
     'line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)'),
    ('oscc_scores', 'formfeed-inside', 3, '{"clip_id": "a",\x0c"prob": 0.5}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('oscc_scores', 'nbsp-inside', 3, '{"clip_id": "a",\xa0"prob": 0.5}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('oscc_scores', 'broken', 3, '{broken',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('oscc_scores', 'extra-data', 3, '{"clip_id": "a", "prob": 0.5} {"clip_id": "a", "prob": 0.5}',
     'line 3: invalid JSON: Extra data'),
    ('oscc_scores', 'trailing-comma', 3, '{"clip_id": "a", "prob": 0.5, }',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('oscc_scores', 'array', 3, '[1, 2]',
     'line 3: record must be a JSON object'),
    ('oscc_scores', 'int-scalar', 3, '3',
     'line 3: record must be a JSON object'),
    ('oscc_scores', 'string-scalar', 3, '"x"',
     'line 3: record must be a JSON object'),
    ('oscc_scores', 'null', 3, 'null',
     'line 3: record must be a JSON object'),
    ('oscc_scores', 'missing-key', 3, '{"clip_id": "a"}',
     'line 3: missing key(s): prob'),
    ('oscc_scores', 'missing-all', 3, '{}',
     'line 3: missing key(s): clip_id, prob'),
    ('oscc_scores', 'extra-key', 3, '{"clip_id": "a", "prob": 0.5, "x": 1}',
     'line 3: unknown key(s): x'),
    ('oscc_scores', 'empty-clip-id', 3, '{"clip_id": "", "prob": 0.5}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('oscc_scores', 'int-clip-id', 3, '{"clip_id": 5, "prob": 0.5}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('oscc_scores', 'prob-true', 3, '{"clip_id": "a", "prob": true}',
     "line 3: 'prob' must be a number"),
    ('oscc_scores', 'prob-string', 3, '{"clip_id": "a", "prob": "0.5"}',
     "line 3: 'prob' must be a number"),
    ('oscc_scores', 'prob-nan', 3, '{"clip_id": "a", "prob": NaN}',
     "line 3: 'prob' must be a finite number"),
    ('oscc_scores', 'prob-inf', 3, '{"clip_id": "a", "prob": Infinity}',
     "line 3: 'prob' must be a finite number"),
    ('oscc_scores', 'prob--inf', 3, '{"clip_id": "a", "prob": -Infinity}',
     "line 3: 'prob' must be a finite number"),
    ('oscc_scores', 'prob-float-overflow', 3, '{"clip_id": "a", "prob": 1e400}',
     "line 3: 'prob' must be a finite number"),
    ('oscc_scores', 'prob-int-overflow', 3, '{"clip_id": "a", "prob": ' + BIG + '}',
     "line 3: 'prob' must be a finite number"),
    ('oscc_scores', 'prob-null', 3, '{"clip_id": "a", "prob": null}',
     "line 3: 'prob' must be a number"),
    ('predictions', 'bom', 3, '\ufeff{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"}',
     'line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)'),
    ('predictions', 'formfeed-inside', 3, '{"clip_id": "a",\x0c"time_sec": 1.0, "frame": 30, "source": "selected"}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('predictions', 'nbsp-inside', 3, '{"clip_id": "a",\xa0"time_sec": 1.0, "frame": 30, "source": "selected"}',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('predictions', 'broken', 3, '{broken',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('predictions', 'extra-data', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"} {"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected"}',
     'line 3: invalid JSON: Extra data'),
    ('predictions', 'trailing-comma', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected", }',
     'line 3: invalid JSON: Expecting property name enclosed in double quotes'),
    ('predictions', 'array', 3, '[1, 2]',
     'line 3: record must be a JSON object'),
    ('predictions', 'int-scalar', 3, '3',
     'line 3: record must be a JSON object'),
    ('predictions', 'string-scalar', 3, '"x"',
     'line 3: record must be a JSON object'),
    ('predictions', 'null', 3, 'null',
     'line 3: record must be a JSON object'),
    ('predictions', 'missing-key', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30}',
     'line 3: missing key(s): source'),
    ('predictions', 'missing-all', 3, '{}',
     'line 3: missing key(s): clip_id, time_sec, frame, source'),
    ('predictions', 'extra-key', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected", "x": 1}',
     'line 3: unknown key(s): x'),
    ('predictions', 'empty-clip-id', 3, '{"clip_id": "", "time_sec": 1.0, "frame": 30, "source": "selected"}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('predictions', 'int-clip-id', 3, '{"clip_id": 5, "time_sec": 1.0, "frame": 30, "source": "selected"}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('predictions', 'time_sec-true', 3, '{"clip_id": "a", "time_sec": true, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a number"),
    ('predictions', 'time_sec-string', 3, '{"clip_id": "a", "time_sec": "0.5", "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a number"),
    ('predictions', 'time_sec-nan', 3, '{"clip_id": "a", "time_sec": NaN, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a finite number"),
    ('predictions', 'time_sec-inf', 3, '{"clip_id": "a", "time_sec": Infinity, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a finite number"),
    ('predictions', 'time_sec--inf', 3, '{"clip_id": "a", "time_sec": -Infinity, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a finite number"),
    ('predictions', 'time_sec-float-overflow', 3, '{"clip_id": "a", "time_sec": 1e400, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a finite number"),
    ('predictions', 'time_sec-int-overflow', 3, '{"clip_id": "a", "time_sec": ' + BIG + ', "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a finite number"),
    ('predictions', 'time_sec-null', 3, '{"clip_id": "a", "time_sec": null, "frame": 30, "source": "selected"}',
     "line 3: 'time_sec' must be a number"),
    ('predictions', 'frame-true', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": true, "source": "selected"}',
     "line 3: 'frame' must be an integer"),
    ('predictions', 'frame-float', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 1.0, "source": "selected"}',
     "line 3: 'frame' must be an integer"),
    ('predictions', 'frame-string', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": "1", "source": "selected"}',
     "line 3: 'frame' must be an integer"),
    ('predictions', 'frame-negative', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": -1, "source": "selected"}',
     'line 3: frame must be >= 0, got -1'),
    ('pnr_scores', 'inverted', 3, '{"clip_id": "a", "start": 8, "end": 4, "confidence": 0.5}',
     'line 3: window [8, 4) is empty or inverted'),
    ('pnr_scores', 'empty-window', 3, '{"clip_id": "a", "start": 4, "end": 4, "confidence": 0.5}',
     'line 3: window [4, 4) is empty or inverted'),
    ('pnr_scores', 'end-true', 3, '{"clip_id": "a", "start": 0, "end": true, "confidence": 0.5}',
     "line 3: 'end' must be an integer"),
    ('pnr_scores', 'confidence-above-one', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 1.5}',
     'line 3: confidence must be in [0, 1], got 1.5'),
    ('pnr_scores', 'confidence-below-zero', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": -0.25}',
     'line 3: confidence must be in [0, 1], got -0.25'),
    ('pnr_scores', 'int-confidence-above-one', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 2}',
     'line 3: confidence must be in [0, 1], got 2.0'),
    ('annotations', 'zero-frames', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 0}',
     'line 3: num_frames must be >= 1, got 0'),
    ('annotations', 'zero-fps', 3, '{"clip_id": "a", "fps": 0.0, "num_frames": 9}',
     'line 3: fps must be positive, got 0.0'),
    ('annotations', 'state-change-int', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "state_change": 1}',
     "line 3: 'state_change' must be a boolean"),
    ('annotations', 'others-without-pnr', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "other_pnr_frames": [2]}',
     "line 3: 'other_pnr_frames' requires 'pnr_frame'"),
    ('annotations', 'others-not-ints', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [2.5]}',
     "line 3: 'other_pnr_frames' must be a list of integers"),
    ('annotations', 'others-true', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [true]}',
     "line 3: 'other_pnr_frames' must be a list of integers"),
    ('annotations', 'pnr-frame-negative', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": -1}',
     'line 3: positive_frame must be >= 0, got -1'),
    ('annotations', 'pnr-frame-repeated', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [1]}',
     "line 3: positive frame 1 repeated in negative_frames"),
    ('annotations', 'pnr-frame-outside', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 9}',
     "line 3: clip 'a': annotated frame 9 outside 9-frame clip"),
    ('annotations', 'other-frame-outside', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [4, 12]}',
     "line 3: clip 'a': annotated frame 12 outside 9-frame clip"),
    ('oscc_scores', 'prob-above-one', 3, '{"clip_id": "a", "prob": 1.5}',
     "line 3: 'prob' must be in [0, 1], got 1.5"),
    ('predictions', 'unknown-source', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "guess"}',
     "line 3: unknown prediction source 'guess'"),
    ('predictions', 'source-int', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": 1}',
     "line 3: 'source' must be a non-empty string"),
    ('predictions', 'negative-time', 3, '{"clip_id": "a", "time_sec": -1.0, "frame": 30, "source": "selected"}',
     'line 3: time_sec must be >= 0, got -1.0'),
]


# Faults the table above let through: a key repeated in one record, which
# json would read last-wins.
REPEATED_KEYS = [
    # (format, case, line_no, line, message)
    ('annotations', 'repeated-key', 3, '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "fps": 25.0}',
     "line 3: duplicate key 'fps'"),
    ('pnr_scores', 'repeated-key', 3, '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5, "clip_id": "b"}',
     "line 3: duplicate key 'clip_id'"),
    ('oscc_scores', 'repeated-key', 3, '{"clip_id": "a", "prob": 0.9, "prob": 0.1}',
     "line 3: duplicate key 'prob'"),
    ('predictions', 'repeated-key', 3, '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "selected", "frame": 31}',
     "line 3: duplicate key 'frame'"),
]


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


# A repeated clip id (a repeated window for window scores) in every format,
# with the line it is reported at: the second copy's, also when a third
# copy follows.
DUPLICATE_MESSAGES = {
    "annotations": "duplicate clip_id 'a'",
    "pnr_scores": "duplicate window [0, 4) for clip 'a'",
    "oscc_scores": "duplicate probability for clip 'a'",
    "predictions": "duplicate prediction for clip 'a'",
}
DUPLICATES = [
    # (format, case, line_no, document, message)
    row
    for fmt, message in DUPLICATE_MESSAGES.items()
    for row in (
        (fmt, "repeat", 4, _lines(GOOD_LINE[fmt], FIRST_LINE[fmt], "", GOOD_LINE[fmt]),
         f"line 4: {message}"),
        (fmt, "third-copy", 3, _lines(FIRST_LINE[fmt], GOOD_LINE[fmt], GOOD_LINE[fmt], GOOD_LINE[fmt]),
         f"line 3: {message}"),
    )
]


# Lines with two faults, each reported at the first in the order every
# record is checked: its key set, then each key's type in written order,
# then the value rules (model constructors, 'other_pnr_frames' requires
# 'pnr_frame', frame in clip, repeated id).  Clip "z" repeats line 1's.
TWO_FAULTS = [
    # (format, case, line, message)
    ('annotations', 'type-after-clip-domain', '{"clip_id": "a", "fps": -1, "num_frames": 9, "state_change": "x"}',
     "line 3: 'state_change' must be a boolean"),
    ('annotations', 'pnr-type-after-frames-domain', '{"clip_id": "a", "fps": 30.0, "num_frames": 0, "pnr_frame": "1"}',
     "line 3: 'pnr_frame' must be an integer"),
    ('annotations', 'others-type-before-requires', '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "other_pnr_frames": [2.5]}',
     "line 3: 'other_pnr_frames' must be a list of integers"),
    ('annotations', 'missing-before-unknown', '{"clip_id": 5, "fps": 30.0, "x": 1}',
     'line 3: missing key(s): num_frames'),
    ('annotations', 'unknown-before-type', '{"clip_id": 5, "fps": 30.0, "num_frames": 9, "x": 1}',
     'line 3: unknown key(s): x'),
    ('annotations', 'types-in-written-order', '{"num_frames": true, "fps": "30", "clip_id": "a"}',
     "line 3: 'fps' must be a number"),
    ('annotations', 'clip-before-requires', '{"clip_id": "a", "fps": 0.0, "num_frames": 9, "other_pnr_frames": [2]}',
     'line 3: fps must be positive, got 0.0'),
    ('annotations', 'in-clip-before-repeat', '{"clip_id": "z", "fps": 30.0, "num_frames": 9, "pnr_frame": 9}',
     "line 3: clip 'z': annotated frame 9 outside 9-frame clip"),
    ('pnr_scores', 'missing-before-unknown', '{"start": 0, "x": 1}',
     'line 3: missing key(s): clip_id, end, confidence'),
    ('pnr_scores', 'unknown-before-type', '{"clip_id": 5, "start": 0, "end": 4, "confidence": 0.5, "x": 1}',
     'line 3: unknown key(s): x'),
    ('pnr_scores', 'type-before-window', '{"clip_id": "a", "start": 8, "end": 4, "confidence": "x"}',
     "line 3: 'confidence' must be a number"),
    ('pnr_scores', 'types-in-written-order', '{"confidence": 0.5, "end": true, "start": "0", "clip_id": "a"}',
     "line 3: 'start' must be an integer"),
    ('pnr_scores', 'window-before-repeat', '{"clip_id": "z", "start": 0, "end": 4, "confidence": 1.5}',
     'line 3: confidence must be in [0, 1], got 1.5'),
    ('oscc_scores', 'unknown-before-type', '{"clip_id": "", "prob": 0.5, "x": 1}',
     'line 3: unknown key(s): x'),
    ('oscc_scores', 'type-before-range', '{"clip_id": "", "prob": 1.5}',
     "line 3: 'clip_id' must be a non-empty string"),
    ('oscc_scores', 'range-before-repeat', '{"clip_id": "z", "prob": 1.5}',
     "line 3: 'prob' must be in [0, 1], got 1.5"),
    ('predictions', 'missing-before-unknown', '{"clip_id": "a", "frame": "1", "y": 1}',
     'line 3: missing key(s): time_sec, source'),
    ('predictions', 'type-before-prediction', '{"clip_id": "a", "time_sec": -1.0, "frame": 1.0, "source": "guess"}',
     "line 3: 'frame' must be an integer"),
    ('predictions', 'prediction-before-repeat', '{"clip_id": "z", "time_sec": -1.0, "frame": 30, "source": "selected"}',
     'line 3: time_sec must be >= 0, got -1.0'),
]


# characters at which str.splitlines() breaks a line but a file does not
SPLITLINES_ONLY_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _document(fmt, line):
    return FIRST_LINE[fmt] + "\n\n" + line + "\n"


class TestStrictLines:
    @pytest.mark.parametrize(
        "fmt,case,line_no,line,message", MALFORMED + REPEATED_KEYS,
        ids=[f"{row[0]}-{row[1]}" for row in MALFORMED + REPEATED_KEYS],
    )
    # a file object yields lines that keep their line endings
    @pytest.mark.parametrize("source", [str, io.StringIO], ids=["text", "file"])
    def test_malformed_line(self, source, fmt, case, line_no, line, message):
        with pytest.raises(ParseError) as info:
            PARSERS[fmt](source(_document(fmt, line)))
        assert str(info.value) == message
        assert info.value.line_no == line_no

    @pytest.mark.parametrize(
        "fmt,case,line_no,document,message", DUPLICATES,
        ids=[f"{row[0]}-{row[1]}" for row in DUPLICATES],
    )
    @pytest.mark.parametrize("source", [str, io.StringIO], ids=["text", "file"])
    def test_repeated_id(self, source, fmt, case, line_no, document, message):
        with pytest.raises(ConflictError) as info:
            PARSERS[fmt](source(document))
        assert type(info.value) is ConflictError
        assert str(info.value) == message
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"line {line_no}: ")

    @pytest.mark.parametrize(
        "fmt,case,line,message", TWO_FAULTS, ids=[f"{row[0]}-{row[1]}" for row in TWO_FAULTS]
    )
    def test_two_faults_report_the_first_checked(self, fmt, case, line, message):
        with pytest.raises(ParseError) as info:
            PARSERS[fmt](_document(fmt, line))
        assert str(info.value) == message

    @pytest.mark.parametrize("fmt", PARSERS)
    @pytest.mark.parametrize(
        "before,after",
        [("   ", ""), ("", "  "), ("\t", "\t"), ("\x0c", "\x0c"), ("\xa0", "\xa0"), (" \x0c", "\xa0 ")],
        ids=["leading-spaces", "trailing-spaces", "tabs", "form-feeds", "no-break-spaces", "mixed"],
    )
    def test_edge_whitespace_is_stripped(self, fmt, before, after):
        parse = PARSERS[fmt]
        expected = parse(_document(fmt, GOOD_LINE[fmt]))
        padded = FIRST_LINE[fmt] + "\n \x0c\xa0\t\n" + before + GOOD_LINE[fmt] + after + "\n"
        assert parse(padded) == expected
        # a file object yields lines that keep their line endings
        assert parse(io.StringIO(padded)) == expected

    @pytest.mark.parametrize("fmt", PARSERS)
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_file_lines_are_decoded_once(self, fmt, ending, monkeypatch):
        parse = PARSERS[fmt]
        text = FIRST_LINE[fmt] + ending + GOOD_LINE[fmt] + ending
        expected = parse(text)

        def second_decode(*args, **kwargs):
            raise AssertionError("a well-formed line was decoded twice")

        monkeypatch.setattr(json, "loads", second_decode)
        assert parse(text) == expected
        assert parse(io.StringIO(text)) == expected
        assert parse(text.splitlines(keepends=True)) == expected

    @pytest.mark.parametrize("fmt", PARSERS)
    @pytest.mark.parametrize("sep", SPLITLINES_ONLY_BREAKS, ids=ascii)
    def test_text_and_file_split_lines_alike(self, fmt, sep):
        # str.splitlines() also breaks at these; a file object breaks at "\n" only
        parse = PARSERS[fmt]

        def outcome(stream):
            try:
                return parse(stream)
            except PnrKitError as exc:
                return type(exc), str(exc), exc.line_no

        in_id = _document(fmt, GOOD_LINE[fmt].replace('"a"', f'"a{sep}"'))
        trailing = FIRST_LINE[fmt] + sep + "\nnot json\n"
        for text in (in_id, trailing):
            # an iterable of lines is read as the text it joins to, so lines
            # without endings, and an element holding a "\n", read alike too
            lines = text.split("\n")
            inner = [lines[0] + "\n" + lines[1] + "\n", *lines[2:]]
            for stream in (io.StringIO(text), lines, inner):
                assert outcome(stream) == outcome(text)
        assert outcome(trailing) == (ParseError, "line 2: invalid JSON: Expecting value", 2)
        if sep in "\u2028\u2029\x85":  # JSON strings may hold these raw
            result = outcome(in_id)
            assert f"a{sep}" in (result.clips if fmt == "annotations" else result)

    def test_number_may_be_an_int(self):
        line = GOOD_LINE["pnr_scores"].replace("0.5", "1")
        (window,) = parse_pnr_scores(line)["a"].windows
        assert window.confidence == 1.0 and type(window.confidence) is float
        assert parse_oscc_scores('{"clip_id": "a", "prob": 0}') == {"a": 0.0}


class TestJoinedDecodeTrap:
    """One json.loads of the joined lines is no substitute for the line reader:
    these files decode to as many objects as they have lines."""

    CASES = {
        "annotations": (
            parse_annotations,
            '{"clip_id": "a", "fps": 30.0, "num_frames": 9}, {"clip_id": "b", "fps": 30.0, "num_frames": 9}\n'
            '{"clip_id": "c", "fps": 30.0, "num_frames": 9, "pnr_frame": 0, "other_pnr_frames": [1\n'
            "2]}\n",
        ),
        "pnr_scores": (
            parse_pnr_scores,
            '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.5}, {"clip_id": "b", "start": 0, "end": 4, "confidence": 0.5}\n'
            '{"clip_id": "c", "start": 0, "end": 4\n'
            '"confidence": 0.5}\n',
        ),
    }

    @pytest.mark.parametrize("fmt", CASES)
    def test_refused_at_line_one(self, fmt):
        parse, text = self.CASES[fmt]
        lines = text.splitlines()
        assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)
        for stream in (text, io.StringIO(text)):
            with pytest.raises(ParseError) as info:
                parse(stream)
            assert str(info.value) == "line 1: invalid JSON: Extra data"
            assert info.value.line_no == 1


# Canonical records of each format, as (key, JSON text) pairs in the
# emitters' key order, and the perturbations that take a line off that form
# or test the values the block reader converts itself.
fast_ids = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'),
                   min_size=1, max_size=6)
ID_TOKENS = [json.dumps("é中"), '"é中"', '"ß\\u00df"', json.dumps('q"'), '"a\\/b"', '""', "7"]
INT_TOKENS = ["0", "1", "99", "-1", "1.0", "1E1", "true", "1" * 5000]
# "-0" is an int to the decoder, so a number key reads it as 0.0, not -0.0
FLOAT_TOKENS = ["0", "1", "-0", "-0.0", "1E5", "5E-1", "0.5e0", "1e999", "-1e999", "NaN", "-0.5",
                "1" * 5000]
TOKENS = {"clip_id": ID_TOKENS, "confidence": FLOAT_TOKENS, "fps": FLOAT_TOKENS,
          "prob": FLOAT_TOKENS, "time_sec": FLOAT_TOKENS,
          "source": ['"guess"', '""', "7", '"fallback-prior"', '"selected"'],
          "state_change": ["1", "null"], "other_pnr_frames": ["[99]", "[1, 1]", "[0.0]", "5", "[]"]}


@st.composite
def score_fields(draw):
    start = draw(st.integers(0, 40))
    return [
        ("clip_id", json.dumps(draw(st.sampled_from(["a", "b", "c"])))),
        ("start", str(start)),
        ("end", str(start + draw(st.integers(1, 6)))),
        ("confidence", repr(draw(unit))),
    ]


@st.composite
def annotation_fields(draw):
    num_frames = draw(st.integers(1, 30))
    fields = [
        ("clip_id", json.dumps(draw(fast_ids))),
        ("fps", repr(draw(st.floats(min_value=0.5, max_value=120.0)))),
        ("num_frames", str(num_frames)),
    ]
    if draw(st.booleans()):
        fields.append(("state_change", draw(st.sampled_from(["true", "false"]))))
    if draw(st.booleans()):
        frames = draw(st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=3, unique=True))
        fields.append(("pnr_frame", str(frames[0])))
        if len(frames) > 1 or draw(st.booleans()):
            fields.append(("other_pnr_frames", json.dumps(frames[1:])))
    return fields


@st.composite
def prob_fields(draw):
    return [("clip_id", json.dumps(draw(fast_ids))), ("prob", repr(draw(unit)))]


@st.composite
def prediction_fields(draw):
    return [
        ("clip_id", json.dumps(draw(fast_ids))),
        ("time_sec", repr(draw(finite_nonneg))),
        ("frame", str(draw(st.integers(0, 10**6)))),
        ("source", json.dumps(draw(st.sampled_from(SOURCES)))),
    ]


# each format's records, and how many leading fields tell two records apart
FIELDS = {
    "annotations": (annotation_fields(), 1),
    "pnr_scores": (score_fields(), 3),
    "oscc_scores": (prob_fields(), 1),
    "predictions": (prediction_fields(), 1),
}


@st.composite
def perturbed_documents(draw, fields, key_fields):
    # records are distinct in their key fields; repeats come from the copy below
    records = draw(st.lists(fields, max_size=6, unique_by=lambda rec: tuple(rec[:key_fields])))
    # half the documents keep the emitters' layout, so a value the fast path
    # converts and checks itself is compared with the line reader's
    layout = draw(st.booleans())
    lines = []
    for record in records:
        if draw(st.integers(0, 4)) == 0:
            i = draw(st.integers(0, len(record) - 1))
            key = record[i][0]
            record[i] = (key, draw(st.sampled_from(TOKENS.get(key, INT_TOKENS))))
        item_sep, key_sep, pad = ", ", ": ", ("", "")
        if layout:
            if draw(st.integers(0, 9)) == 0:
                record = draw(st.permutations(record))
            item_sep, key_sep = draw(st.sampled_from([(", ", ": ")] * 8 + [(",", ":"), ("  ,\t", " :  ")]))
            pad = draw(st.sampled_from([("", "")] * 8 + [(" ", ""), ("", "\t ")]))
        line = "{" + item_sep.join(f'"{key}"{key_sep}{value}' for key, value in record) + "}"
        lines.append(pad[0] + line + pad[1])
    if lines and draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if layout and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    ending = "\r\n" if layout and draw(st.integers(0, 4)) == 0 else "\n"
    text = ending.join(lines) + (ending if draw(st.integers(0, 3)) else "")
    return ("﻿" if layout and draw(st.integers(0, 9)) == 0 else "") + text


def _outcome(parse, stream):
    try:
        result = parse(stream)
    except PnrKitError as exc:
        return type(exc), str(exc), exc.line_no
    # the repr tells -0.0 from 0.0, and shows the insertion order: the order
    # of the clips' first lines
    return result, repr(result)


def _line_reader_outcome(parse, stream):
    """parse's outcome with line patterns that match no line, so the line
    reader reads every line."""
    with mock.patch.object(ingest, "_pattern", lambda fmt: (lambda text: [], [])):
        return _outcome(parse, stream)


def _on_pattern(fmt, line):
    """Whether line is wholly on the pattern the parser of fmt reads blocks
    with, which takes each line after its "\n"."""
    return ingest._pattern(TABLES[fmt])[0].__self__.fullmatch("\n" + line) is not None


# records each emitter writes, with ids the line patterns take as they are
EMITTED = {
    "annotations": lambda: datasets(fast_ids).map(lambda ds: "".join(emit_annotations(ds))),
    "pnr_scores": lambda: pnr_score_maps(fast_ids).map(
        lambda m: "".join(emit_pnr_scores(m.items()))),
    "oscc_scores": lambda: st.dictionaries(fast_ids, unit, max_size=5).map(
        lambda m: "".join(emit_oscc_scores(m.items()))),
    "predictions": lambda: prediction_maps(fast_ids).map(
        lambda m: "".join(emit_predictions(m.items()))),
}

# lines in the emitters' layout whose values only the block reader's own
# conversions and the record constructors can refuse or must get right;
# clip "z" repeats the first line's
EDGES = [
    ("annotations", '{"clip_id": "a", "fps": 1e999, "num_frames": 9}'),
    ("annotations", '{"clip_id": "a", "fps": -1e999, "num_frames": 9}'),
    ("annotations", '{"clip_id": "a", "fps": 0.0, "num_frames": 9}'),
    ("annotations", '{"clip_id": "a", "fps": -0.0, "num_frames": 9}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 0}'),
    ("annotations", '{"clip_id": "a", "fps": 1e-310, "num_frames": 100}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 1' + "0" * 400 + "}"),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9' + "9" * 5000 + "}"),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 9}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "other_pnr_frames": [1]}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [1]}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [2, 2]}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "pnr_frame": 1, "other_pnr_frames": [9' + "9" * 5000 + "]}"),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "state_change": false, "other_pnr_frames": [3]}'),
    ("annotations", '{"clip_id": "a", "fps": 30.0, "num_frames": 9, "state_change": true, "pnr_frame": 0, "other_pnr_frames": [8, 4]}'),
    ("annotations", '{"clip_id": "z", "fps": 25.0, "num_frames": 9}'),
    ("oscc_scores", '{"clip_id": "a", "prob": 1.5}'),
    ("oscc_scores", '{"clip_id": "a", "prob": -0.0}'),
    ("oscc_scores", '{"clip_id": "a", "prob": 1e999}'),
    ("oscc_scores", '{"clip_id": "a", "prob": -1e999}'),
    ("oscc_scores", '{"clip_id": "a", "prob": 1E-5}'),
    ("oscc_scores", '{"clip_id": "a", "prob": 0.٥}'),
    ("oscc_scores", '{"clip_id": "z", "prob": 0.25}'),
    ("predictions", '{"clip_id": "a", "time_sec": -1.0, "frame": 30, "source": "selected"}'),
    ("predictions", '{"clip_id": "a", "time_sec": 1e999, "frame": 30, "source": "selected"}'),
    ("predictions", '{"clip_id": "a", "time_sec": -0.0, "frame": 0, "source": "baseline-center"}'),
    ("predictions", '{"clip_id": "a", "time_sec": 1.0, "frame": 9' + "9" * 5000 + ', "source": "selected"}'),
    ("predictions", '{"clip_id": "a", "time_sec": 1.0, "frame": 1١, "source": "selected"}'),
    ("predictions", '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "guess"}'),
    ("predictions", '{"clip_id": "z", "time_sec": 1.0, "frame": 30, "source": "selected"}'),
    ("pnr_scores", '{"clip_id": "a", "start": 4, "end": 4, "confidence": 0.5}'),
    ("pnr_scores", '{"clip_id": "a", "start": 0, "end": 4, "confidence": -0.0}'),
    ("pnr_scores", '{"clip_id": "a", "start": 0, "end": 4, "confidence": 1e999}'),
    ("pnr_scores", '{"clip_id": "z", "start": 0, "end": 4, "confidence": 0.25}'),
]


class TestFastPath:
    """Text in the form the emitters write is read a block of lines at a time
    by its format's line pattern; it must give exactly the value or error the
    line reader alone gives, whatever the block size."""

    @settings(max_examples=300)
    @given(perturbed_documents(score_fields(), key_fields=3))
    def test_scores_text_and_lines_agree(self, text):
        expected = _line_reader_outcome(parse_pnr_scores, text)
        assert _outcome(parse_pnr_scores, text) == expected
        assert _outcome(parse_pnr_scores, text.splitlines(keepends=True)) == expected

    @given(perturbed_documents(annotation_fields(), key_fields=1))
    def test_annotations_text_and_lines_agree(self, text):
        expected = _line_reader_outcome(parse_annotations, text)
        assert _outcome(parse_annotations, text) == expected
        assert _outcome(parse_annotations, text.splitlines(keepends=True)) == expected

    @pytest.mark.parametrize("fmt", PARSERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_block_size_reads_as_the_line_reader(self, fmt, data):
        fields, key_fields = FIELDS[fmt]
        text = data.draw(perturbed_documents(fields, key_fields), label="text")
        parse = PARSERS[fmt]
        expected = _line_reader_outcome(parse, text)
        with mock.patch.object(ingest, "_BLOCK", data.draw(st.integers(2, 3), label="block")):
            assert _outcome(parse, text) == expected
            assert _outcome(parse, text.splitlines(keepends=True)) == expected
            assert _outcome(parse, io.StringIO(text)) == expected

    @pytest.mark.parametrize("fmt,line", EDGES, ids=[f"{fmt}-{i}" for i, (fmt, _) in enumerate(EDGES)])
    def test_edges_at_each_place_in_a_block(self, fmt, line):
        # six lines in blocks of three: the edge line is put first, in the
        # middle and last of the first block and of the second
        fillers = [GOOD_LINE[fmt].replace('"a"', f'"k{i}"') for i in range(4)]
        for place in range(6):
            lines = [FIRST_LINE[fmt], *fillers]
            lines.insert(place, line)
            text = _lines(*lines)
            for doc in (text, text[:-1], text.replace("\n", "\r\n")):
                expected = _line_reader_outcome(PARSERS[fmt], doc)
                with mock.patch.object(ingest, "_BLOCK", 3):
                    assert _outcome(PARSERS[fmt], doc) == expected
                    assert _outcome(PARSERS[fmt], io.StringIO(doc)) == expected

    # lines in the emitters' layout whose values only the fast path's own
    # conversions and the window constructor can refuse or must get right
    CANONICAL_EDGES = [
        '{"clip_id": "a", "start": 4, "end": 4, "confidence": 0.5}',
        '{"clip_id": "a", "start": 5, "end": 4, "confidence": 0.5}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": 1E5}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": -0.5}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": 1e999}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": -0.0}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": 5E-1}',
        '{"clip_id": "a", "start": 0, "end": 9' + "9" * 5000 + ', "confidence": 0.5}',
        # digits that int() and float() read but JSON does not allow
        '{"clip_id": "a", "start": 1١, "end": 40, "confidence": 0.5}',
        '{"clip_id": "a", "start": 0, "end": 4, "confidence": 0.٥}',
        '{"clip_id": "z", "start": 0, "end": 4, "confidence": 0.25}',
    ]

    @pytest.mark.parametrize("line", CANONICAL_EDGES)
    @pytest.mark.parametrize("last", [True, False], ids=["last", "first"])
    def test_own_checks_match_the_line_reader(self, line, last):
        fmt = "pnr_scores"
        lines = [FIRST_LINE[fmt], line] if last else [line, GOOD_LINE[fmt]]
        text = _lines(*lines)
        expected = _line_reader_outcome(parse_pnr_scores, text)
        assert _outcome(parse_pnr_scores, text) == expected
        assert _outcome(parse_pnr_scores, text[:-1]) == expected

    @staticmethod
    def _no_line_reader(monkeypatch):
        def line_reader(*args, **kwargs):
            raise AssertionError("canonical text left the fast path")

        monkeypatch.setattr(ingest, "_read_line", line_reader)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(series_by_clip=pnr_score_maps(fast_ids))
    def test_emitted_text_stays_on_it(self, monkeypatch, series_by_clip):
        scores = "".join(emit_pnr_scores(series_by_clip.items()))
        with monkeypatch.context() as patch:
            self._no_line_reader(patch)
            assert parse_pnr_scores(scores) == series_by_clip
            # as does the same text without its final line ending, or with CRLF
            assert parse_pnr_scores(scores[:-1]) == series_by_clip
            assert parse_pnr_scores(scores.replace("\n", "\r\n")) == series_by_clip
            # and its lines, with or without their endings, or drawn from a file
            assert parse_pnr_scores(scores.splitlines(keepends=True)) == series_by_clip
            assert parse_pnr_scores(scores.splitlines()) == series_by_clip
            assert parse_pnr_scores(io.StringIO(scores)) == series_by_clip

    @pytest.mark.parametrize("fmt", PARSERS)
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_emitter_stays_on_it(self, monkeypatch, fmt, data):
        # an empty text is one blank line, which only the line reader reads
        text = data.draw(EMITTED[fmt]().filter(bool), label="text")
        for line in text.splitlines():
            assert _on_pattern(fmt, line)
        expected = _outcome(PARSERS[fmt], text)
        assert not isinstance(expected[0], type)  # no error
        with monkeypatch.context() as patch:
            self._no_line_reader(patch)
            patch.setattr(ingest, "_BLOCK", data.draw(st.integers(2, 3), label="block"))
            for doc in (text, text.replace("\n", "\r\n"), text.splitlines()):
                assert _outcome(PARSERS[fmt], doc) == expected
            assert _outcome(PARSERS[fmt], io.StringIO(text)) == expected

    def test_json_dumps_lines_stay_on_it(self, monkeypatch):
        score_lines = [
            {"clip_id": "k-1", "start": 16, "end": 48, "confidence": 0.125},
            {"clip_id": "k-1", "start": 0, "end": 32, "confidence": 1e-05},
            {"clip_id": "w/2", "start": 0, "end": 32, "confidence": 1.0},
        ]
        scores = "".join(json.dumps(rec) + "\n" for rec in score_lines)
        expected = parse_pnr_scores(scores.splitlines(keepends=True))
        self._no_line_reader(monkeypatch)
        assert parse_pnr_scores(scores) == expected
        assert [w.start for w in expected["k-1"].windows] == [0, 16]

    def test_finite_values_that_sum_past_the_floats_stay_on_it(self, monkeypatch):
        text = _lines(
            '{"clip_id": "a", "time_sec": 6e+307, "frame": 1, "source": "selected"}',
            '{"clip_id": "b", "time_sec": 1.2e+308, "frame": 2, "source": "selected"}',
        )
        self._no_line_reader(monkeypatch)
        assert parse_predictions(text) == {
            "a": PnrPrediction(6e307, 1), "b": PnrPrediction(1.2e308, 2)
        }

    def test_a_block_off_it_goes_whole_to_the_line_reader(self, monkeypatch):
        # blocks of three: the middle block holds one line off the pattern
        # (no spaces) and goes whole to the line reader; the others stay on it
        lines = [_score_line(i) for i in range(9)]
        lines[4] = lines[4].replace(" ", "")
        text = _lines(*lines)
        expected = parse_pnr_scores(text.splitlines(keepends=True))
        read = []
        line_reader = ingest._read_line

        def spy(raw, line_no, record):
            read.append((line_no, raw))
            line_reader(raw, line_no, record)

        monkeypatch.setattr(ingest, "_read_line", spy)
        monkeypatch.setattr(ingest, "_BLOCK", 3)
        for doc in (text, text.splitlines(keepends=True), io.StringIO(text)):
            read.clear()
            assert parse_pnr_scores(doc) == expected
            assert read == [(4, lines[3]), (5, lines[4]), (6, lines[5])]
        assert sum(len(s.windows) for s in expected.values()) == 9


def _score_line(i, clip_id=None):
    clip_id = f"k{i % 40}" if clip_id is None else clip_id
    return f'{{"clip_id": "{clip_id}", "start": {i}, "end": {i + 4}, "confidence": 0.5}}'


class TestBlockRecords:
    """A parser takes a block of lines in one call of its record, on the
    block's columns, and keeps all of them or none; a block it refuses is
    read again a line at a time, so each error names its own line."""

    BAD_WINDOWS = [
        '{"clip_id": "k1", "start": 9, "end": 9, "confidence": 0.5}',
        '{"clip_id": "k1", "start": 9, "end": 4, "confidence": 0.5}',
        '{"clip_id": "k1", "start": 900, "end": 904, "confidence": 1.5}',
    ]

    @pytest.mark.parametrize("bad", BAD_WINDOWS)
    @pytest.mark.parametrize("row", [0, 31, 63], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("block", [0, 1], ids=["block-1", "block-2"])
    def test_bad_window_at_each_row_of_a_full_block(self, bad, row, block):
        assert ingest._BLOCK == 64
        lines = [_score_line(i) for i in range(128)]
        lines[64 * block + row] = bad
        text = _lines(*lines)
        expected = _line_reader_outcome(parse_pnr_scores, text)
        assert expected[0] is ParseError and expected[2] == 64 * block + row + 1
        for stream in (text, io.StringIO(text), text.splitlines()):
            assert _outcome(parse_pnr_scores, stream) == expected

    # a line on its format's pattern that its record refuses
    REFUSED = {
        "annotations": '{"clip_id": "a", "fps": 0.0, "num_frames": 9}',
        "pnr_scores": '{"clip_id": "a", "start": 4, "end": 4, "confidence": 0.5}',
        "oscc_scores": '{"clip_id": "a", "prob": 1.5}',
        "predictions": '{"clip_id": "a", "time_sec": 1.0, "frame": 30, "source": "guess"}',
    }

    @pytest.mark.parametrize("fmt", PARSERS)
    def test_a_refused_row_of_a_full_block_names_its_line(self, fmt):
        # line 40 holds a value its record refuses, or repeats line 1
        lines = [GOOD_LINE[fmt].replace('"a"', f'"k{i}"') for i in range(64)]
        assert all(_on_pattern(fmt, line) for line in (*lines, self.REFUSED[fmt]))
        for line_40 in (self.REFUSED[fmt], lines[0]):
            doc = _lines(*lines[:39], line_40, *lines[40:])
            expected = _line_reader_outcome(PARSERS[fmt], doc)
            assert isinstance(expected[0], type) and expected[2] == 40
            assert _outcome(PARSERS[fmt], doc) == expected
            assert _outcome(PARSERS[fmt], io.StringIO(doc)) == expected

    @pytest.mark.parametrize("repeat_row, bad_row", [(9, 40), (0, 63), (62, 63), (40, 9)])
    def test_an_earlier_repeat_is_reported_before_a_bad_line(self, repeat_row, bad_row):
        lines = [_score_line(i) for i in range(64)]
        lines[repeat_row] = _score_line(70, clip_id="k2")
        if repeat_row > 0:
            lines[0] = _score_line(70, clip_id="k2")
        lines[bad_row] = self.BAD_WINDOWS[2]
        text = _lines(*lines)
        expected = _line_reader_outcome(parse_pnr_scores, text)
        assert _outcome(parse_pnr_scores, text) == expected
        if repeat_row < bad_row and repeat_row > 0:
            assert expected == (
                ConflictError, f"line {repeat_row + 1}: duplicate window [70, 74) for clip 'k2'",
                repeat_row + 1,
            )
        else:
            assert expected[0] is ParseError and expected[2] == bad_row + 1

    def test_a_repeat_in_an_earlier_block_is_reported_first(self):
        lines = [_score_line(i) for i in range(192)]
        lines[70] = lines[3]
        lines[150] = self.BAD_WINDOWS[0]
        expected = (ConflictError, "line 71: duplicate window [3, 7) for clip 'k3'", 71)
        assert _line_reader_outcome(parse_pnr_scores, _lines(*lines)) == expected
        assert _outcome(parse_pnr_scores, _lines(*lines)) == expected

    # 640 canonical lines of each format, as its emitter writes them
    CANONICAL = {
        "pnr_scores": lambda: _lines(*(_score_line(i) for i in range(640))),
        "annotations": lambda: "".join(emit_annotations(build_dataset(
            [Clip(f"k{i}", 30.0, 300 + i) for i in range(640)],
            {f"k{i}": PnrAnnotation(i % 299, tuple(range(300, 300 + i % 4)))
             for i in range(640) if i % 5},
            {f"k{i}": i % 2 == 0 for i in range(640) if i % 7},
        ))),
        "predictions": lambda: "".join(emit_predictions(
            (f"k{i}", PnrPrediction(i / 30, i, SOURCES[i % 5])) for i in range(640))),
        "oscc_scores": lambda: "".join(emit_oscc_scores((f"k{i}", i / 640) for i in range(640))),
    }

    def test_python_calls_per_block_not_per_line(self, tmp_path):
        # lines on the pattern cost the parser's own functions and the model's
        # a few calls a block (its walker, record and the column builds of the
        # record types), from a str or from an open file, and none a line
        for fmt, canonical in self.CANONICAL.items():
            text, parse = canonical(), PARSERS[fmt]
            assert len(text.splitlines()) == 640
            assert all(_on_pattern(fmt, line) for line in text.splitlines())
            path = tmp_path / f"{fmt}.jsonl"
            path.write_text(text, encoding="utf-8")
            expected = parse(text)  # the pattern is compiled on first use
            for source in ("text", "file"):
                calls = []

                def profile(frame, event, arg):
                    if event == "call" and frame.f_code.co_filename in (ingest.__file__, model.__file__):
                        calls.append(frame.f_code.co_name)

                with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                    stream = text if source == "text" else handle
                    sys.setprofile(profile)
                    try:
                        found = parse(stream)
                    finally:
                        sys.setprofile(None)
                assert found == expected
                # every line's record: a window each, or a clip each
                windows = [len(v.windows) for v in found.values()] if fmt == "pnr_scores" else []
                assert (sum(windows) if windows else len(found)) == 640
                blocks = 640 // ingest._BLOCK
                assert calls.count("record") == blocks, (fmt, source)
                assert len(calls) <= 8 * blocks + 8, (fmt, source, len(calls))


class TestOpenFileWalker:
    """An open text file hands its parser one line an item, so a block of
    items is read as their join; with any line endings, blank lines, a byte
    that is not UTF-8, a last line with no ending and any block size, a file
    gives the value or the error, at its line, that the line reader gives."""

    @staticmethod
    def outcome(parse, path, newline, line_reader=False):
        def load(_):
            if newline is None:  # as the CLI opens its inputs
                return _load(str(path), parse)
            with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
                return parse(handle)

        found = (_line_reader_outcome if line_reader else _outcome)(load, None)
        if isinstance(found[0], type):  # _load puts the file's path in front of a message
            found = found[0], found[1].removeprefix(f"{path}: "), found[2]
        return found

    @pytest.mark.parametrize("fmt", PARSERS)
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    @pytest.mark.parametrize("bad_at", [None, 2, 9], ids=["utf8", "bad-line-3", "bad-line-10"])
    @pytest.mark.parametrize("last", ["ended", "bare"])
    def test_reads_as_the_line_reader(self, fmt, ending, bad_at, last, tmp_path, monkeypatch):
        lines = [GOOD_LINE[fmt].replace('"a"', f'"k{i}"') for i in range(9)]
        lines[4:4] = ["", "   "]
        if bad_at is not None:  # a byte that is not UTF-8, as a lone surrogate decodes it
            lines[bad_at] = lines[bad_at].replace('"k', '"k\udcff', 1)
        endings = ["\n", "\r\n", "\r"] * 4 if ending == "mixed" else [ending] * 11
        raw = "".join(map(str.__add__, lines, endings))
        path = tmp_path / "input.jsonl"
        path.write_bytes((raw if last == "ended" else raw.removesuffix(endings[-1])).encode(
            "utf-8", "surrogateescape"))
        parse = PARSERS[fmt]
        # newline="" and "\r" keep each "\r", so a file's items are not its lines
        for newline in (None, "", "\r"):
            expected = self.outcome(parse, path, newline, line_reader=True)
            if newline is None:
                assert (expected[0] is ParseError) == (bad_at is not None)
            for block in (2, 3):
                monkeypatch.setattr(ingest, "_BLOCK", block)
                assert self.outcome(parse, path, newline) == expected, (newline, block)
            monkeypatch.undo()


TABLES = {
    "annotations": ingest._ANNOTATION,
    "pnr_scores": ingest._SCORE,
    "oscc_scores": ingest._PROB,
    "predictions": ingest._PREDICTION,
}


class TestFormatTables:
    """Each format's keys are written once, in its table in ingest; the
    emitters write them in the table's order."""

    @staticmethod
    def assert_table_order(fmt, pieces, every_key=False):
        checks, required, optional = TABLES[fmt]
        assert list(checks) == [*required, *optional]
        for line in "".join(pieces).splitlines():
            keys = list(json.loads(line))
            assert keys == [key for key in checks if key in keys]
            assert set(required) <= set(keys)
            if every_key:
                assert keys == list(checks)

    def test_every_key_in_written_order(self):
        ds = build_dataset([Clip("a", 30.0, 9)], {"a": PnrAnnotation(1, (4, 2))}, {"a": False})
        self.assert_table_order("annotations", emit_annotations(ds), every_key=True)
        series = ScoreSeries((ScoredWindow(0, 4, 0.5), ScoredWindow(2, 6, 1)))
        self.assert_table_order("pnr_scores", emit_pnr_scores([("a", series)]), every_key=True)
        self.assert_table_order("oscc_scores", emit_oscc_scores({"a": 0.5}.items()), every_key=True)
        preds = {"a": PnrPrediction(1.0, 30, "fallback-prior")}
        self.assert_table_order("predictions", emit_predictions(preds.items()), every_key=True)

    @given(datasets(), pnr_score_maps(), st.dictionaries(clip_ids, unit), prediction_maps())
    def test_any_records(self, dataset, series_by_clip, probs, preds):
        self.assert_table_order("annotations", emit_annotations(dataset))
        self.assert_table_order("pnr_scores", emit_pnr_scores(series_by_clip.items()))
        self.assert_table_order("oscc_scores", emit_oscc_scores(probs.items()), every_key=True)
        self.assert_table_order("predictions", emit_predictions(preds.items()), every_key=True)

    @given(pnr_score_maps(fast_ids))
    def test_pnr_emitter_lines_match_the_score_pattern(self, series_by_clip):
        lines = "".join(emit_pnr_scores(series_by_clip.items())).splitlines()
        assert len(lines) == sum(len(series.windows) for series in series_by_clip.values())
        for line in lines:
            assert _on_pattern("pnr_scores", line)


# Documents of a few hundred lines with a run of blank lines in them; the
# clips of the window scores come in no order.
SOURCE_RECORDS = {
    "annotations": lambda i: f'{{"clip_id": "c{i:04d}", "fps": 30.0, "num_frames": 90}}',
    "pnr_scores": lambda i: (
        f'{{"clip_id": "c{i % 40:04d}", "start": {i // 40 * 2}, "end": {i // 40 * 2 + 8}, '
        f'"confidence": {i % 7 / 8}}}'
    ),
    "oscc_scores": lambda i: f'{{"clip_id": "c{i:04d}", "prob": {i % 5 / 4}}}',
    "predictions": lambda i: (
        f'{{"clip_id": "c{i:04d}", "time_sec": 1.0, "frame": 30, "source": "selected"}}'
    ),
    "sim_config": lambda i: f"# note {i}, as long as a record line or longer",
}
SOURCE_PARSERS = {**PARSERS, "sim_config": parse_sim_config}


def _source_documents(fmt):
    """A good document, one with a bad line 401, and one that repeats an
    id (a window, a key) on line 301 before a bad line 501."""
    lines = [SOURCE_RECORDS[fmt](i) for i in range(600)]
    if fmt == "pnr_scores":
        random.Random(3).shuffle(lines)
    lines[253:257] = ["", "  ", "", ""]
    if fmt == "sim_config":
        lines[100], lines[200] = "seed = 4", "n_clips = 7  # a comment"
    bad_line = "bogus = 1" if fmt == "sim_config" else "not json"
    bad = lines.copy()
    bad[400] = bad_line
    repeat = lines.copy()
    repeat[300], repeat[500] = repeat[100], bad_line
    return {name: "".join(line + "\n" for line in doc)
            for name, doc in (("good", lines), ("bad", bad), ("repeat", repeat))}


@contextlib.contextmanager
def _pipe(text):
    """A file object reading text from an os.pipe, fed by a thread."""
    read_fd, write_fd = os.pipe()

    def feed():
        # a parser that stops at a fault closes the pipe with bytes unread
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as sink:
            sink.write(text.encode("utf-8"))

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        with os.fdopen(read_fd, encoding="utf-8") as source:
            yield source
    finally:
        feeder.join()


class TestEverySourceReadsAlike:
    """A str, lines with or without their endings, a one-shot iterator, a
    StringIO, a file the CLI opens and a pipe give one result or one error."""

    SOURCES = {
        "lines": lambda text: text.splitlines(keepends=True),
        "bare-lines": lambda text: text.split("\n"),
        "iterator": lambda text: iter(text.splitlines(keepends=True)),
        "stringio": io.StringIO,
    }

    @staticmethod
    def outcomes(parse, text, tmp_path):
        path = tmp_path / "input.jsonl"
        path.write_text(text, encoding="utf-8")
        found = {"text": _outcome(parse, text)}
        for name, source in TestEverySourceReadsAlike.SOURCES.items():
            found[name] = _outcome(parse, source(text))
        loaded = _outcome(lambda _: _load(str(path), parse), None)
        if loaded[0] in (ParseError, ConflictError):
            kind, message, line_no = loaded
            loaded = kind, message.removeprefix(f"{path}: "), line_no
        found["file"] = loaded
        with _pipe(text) as source:
            found["pipe"] = _outcome(parse, source)
        return found

    @pytest.mark.parametrize("fmt", SOURCE_PARSERS)
    @pytest.mark.parametrize("doc", ["good", "bad", "repeat"])
    def test_one_outcome(self, fmt, doc, tmp_path):
        parse = SOURCE_PARSERS[fmt]
        found = self.outcomes(parse, _source_documents(fmt)[doc], tmp_path)
        expected = found.pop("text")
        assert found == dict.fromkeys(found, expected)
        if doc == "bad":
            assert expected[0] is ParseError and expected[2] == 401
        elif doc == "repeat":
            repeated = ParseError if fmt == "sim_config" else ConflictError
            assert expected[0] is repeated and expected[2] == 301
        else:
            assert not isinstance(expected[0], type)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_a_file_may_end_its_lines_in_cr(self, ending, tmp_path):
        # the CLI opens its inputs with universal newlines, as it always has
        text = _source_documents("pnr_scores")["good"]
        path = tmp_path / "input.jsonl"
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        assert _load(str(path), parse_pnr_scores) == parse_pnr_scores(text)

    def test_good_windows_come_sorted(self):
        series = parse_pnr_scores(_source_documents("pnr_scores")["good"])
        assert len(series) == 40 and sum(len(s.windows) for s in series.values()) == 596
        for s in series.values():
            assert list(s.windows) == sorted(s.windows)


def _spoil(line, char):
    """line with char put into its clip id, or into its comment."""
    return line.replace('"c', '"c' + char, 1) if '"c' in line else line.replace("# ", "# " + char, 1)


class TestNotUtf8:
    """A byte that is not UTF-8 is a ParseError at its own line, after any
    fault on a line before it."""

    @staticmethod
    def bad_file(tmp_path, fmt, bad_at, fault_at=None):
        lines = [SOURCE_RECORDS[fmt](i) for i in range(300)]
        if fault_at is not None:
            lines[fault_at - 1] = "bogus = 1" if fmt == "sim_config" else "not json"
        # the CLI's open() decodes 8 KiB at a time; the bad byte lies past the first
        lines[bad_at - 1] = _spoil(lines[bad_at - 1], "\udcff")
        path = tmp_path / "bad.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
        assert path.read_bytes().index(b"\xff") > 8192
        return path

    @staticmethod
    def readers(path):
        """parse applied to the file at path as the CLI opens it, and to its
        text as a str and as a list of lines."""
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        return [
            lambda parse: _load(str(path), parse),
            lambda parse: parse(text),
            lambda parse: parse(text.splitlines(keepends=True)),
        ]

    @pytest.mark.parametrize("fmt", SOURCE_PARSERS)
    @pytest.mark.parametrize("fault_at", [3, 250], ids=["earlier-chunk", "same-chunk"])
    def test_an_earlier_fault_comes_first(self, fmt, fault_at, tmp_path):
        path = self.bad_file(tmp_path, fmt, 251, fault_at)
        for read in self.readers(path):
            with pytest.raises(ParseError) as info:
                read(SOURCE_PARSERS[fmt])
            assert info.value.line_no == fault_at

    def test_a_repeated_window_comes_first(self, tmp_path):
        path = self.bad_file(tmp_path, "pnr_scores", 251)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n") + 1] + data)  # line 2 repeats line 1
        for read in self.readers(path):
            with pytest.raises(ConflictError) as info:
                read(parse_pnr_scores)
            assert info.value.line_no == 2

    @pytest.mark.parametrize("fmt", SOURCE_PARSERS)
    @pytest.mark.parametrize("char", ["\udcff", "\ud800"], ids=["escaped-byte", "lone-surrogate"])
    def test_text_with_a_surrogate_is_refused_too(self, fmt, char):
        lines = [SOURCE_RECORDS[fmt](i) for i in range(4)]
        lines[2] = _spoil(lines[2], char)
        text = "".join(line + "\n" for line in lines)
        for stream in (text, text.splitlines()):
            with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8: 'utf-8' codec can't") as info:
                SOURCE_PARSERS[fmt](stream)
            assert info.value.line_no == 3


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

    def test_writes_each_piece_of_an_iterable(self, tmp_path):
        target = tmp_path / "out.jsonl"
        write_text_atomic(target, (f"{i}\n" for i in range(3)))
        assert target.read_text(encoding="utf-8") == "0\n1\n2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_pieces_that_raise_leave_target_untouched(self, tmp_path):
        target = tmp_path / "out.jsonl"
        write_text_atomic(target, "original\n")

        def pieces():
            yield "next\n"
            raise ValueError("formatting failed")

        with pytest.raises(ValueError):
            write_text_atomic(target, pieces())
        assert target.read_text(encoding="utf-8") == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

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
