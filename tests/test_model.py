"""Core type and fraction-coordinate behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnrkit.errors import BoundsError, DomainError, ParseError, ValidationError
from pnrkit.ingest import build_dataset, parse_annotations
from pnrkit.localization import oracle_error
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ensure_annotation_in_clip,
    ensure_window_in_clip,
    frame_to_fraction,
    fraction_to_frame,
    round_half_up,
    window_center_fraction,
    window_center_frame,
    window_center_time,
)
from pnrkit.sampling import (
    WindowingConfig,
    negative_windows,
    positive_window,
    valid_negative_starts,
)
from pnrkit.sim import SimConfig


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (-0.5, 0), (-1.5, -1), (-0.6, -1)],
    )
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


class TestFractionCoordinate:
    def test_frame_to_fraction_reference_point(self):
        # frame 103 of a 240-frame clip sits just under the 0.43 mark
        assert frame_to_fraction(103, 240) == pytest.approx(103 / 239)
        assert 0.430 < frame_to_fraction(103, 240) < 0.431

    def test_endpoints(self):
        assert frame_to_fraction(0, 240) == 0.0
        assert frame_to_fraction(239, 240) == 1.0

    def test_single_frame_clip(self):
        assert frame_to_fraction(0, 1) == 0.0
        assert fraction_to_frame(0.0, 1) == 0
        assert fraction_to_frame(1.0, 1) == 0
        assert fraction_to_frame(0.43, 1) == 0

    def test_fraction_to_frame_reference_point(self):
        assert fraction_to_frame(0.43, 240) == 103

    def test_fraction_to_frame_rounds_half_up(self):
        # 0.5 * 239 = 119.5 lands exactly between frames 119 and 120
        assert fraction_to_frame(0.5, 240) == 120

    def test_fraction_endpoints(self):
        assert fraction_to_frame(0.0, 240) == 0
        assert fraction_to_frame(1.0, 240) == 239

    def test_out_of_range(self):
        with pytest.raises(BoundsError):
            frame_to_fraction(240, 240)
        with pytest.raises(BoundsError):
            frame_to_fraction(-1, 240)
        with pytest.raises(DomainError):
            fraction_to_frame(1.5, 240)
        with pytest.raises(DomainError):
            fraction_to_frame(-0.1, 240)
        with pytest.raises(DomainError):
            frame_to_fraction(0, 0)
        with pytest.raises(DomainError):
            fraction_to_frame(0.5, 0)

    @given(st.integers(min_value=1, max_value=5000), st.data())
    def test_round_trip_is_exact(self, num_frames, data):
        frame = data.draw(st.integers(min_value=0, max_value=num_frames - 1))
        assert fraction_to_frame(frame_to_fraction(frame, num_frames), num_frames) == frame

    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_fraction_to_frame_monotone(self, num_frames, f1, f2):
        lo, hi = sorted((f1, f2))
        assert fraction_to_frame(lo, num_frames) <= fraction_to_frame(hi, num_frames)

    @given(st.integers(min_value=1, max_value=5000), st.floats(min_value=0.0, max_value=1.0))
    def test_fraction_to_frame_in_bounds(self, num_frames, fraction):
        assert 0 <= fraction_to_frame(fraction, num_frames) < num_frames


class TestWindowCenters:
    def test_first_window_center(self):
        win = FrameWindow(0, 32)
        assert window_center_frame(win) == 15.5
        assert window_center_time(win, 30.0) == pytest.approx(31 / 60)

    def test_last_window_center(self):
        win = FrameWindow(208, 240)
        assert window_center_time(win, 30.0) == 7.45

    def test_single_frame_window(self):
        win = FrameWindow(0, 1)
        assert window_center_frame(win) == 0.0
        assert window_center_time(win, 30.0) == 0.0

    def test_center_fraction(self):
        # window [104, 136) of a 240-frame clip is centered at fraction 0.5
        assert window_center_fraction(FrameWindow(104, 136), 240) == 0.5
        assert window_center_fraction(FrameWindow(0, 1), 1) == 0.0

    def test_bad_fps(self):
        with pytest.raises(DomainError):
            window_center_time(FrameWindow(0, 32), 0.0)

    @pytest.mark.parametrize(
        "fps,message",
        [
            (0.0, "fps must be positive, got 0.0"),
            (-30.0, "fps must be positive, got -30.0"),
            (float("nan"), "fps must be positive, got nan"),
            (float("-inf"), "fps must be positive, got -inf"),
            (float("inf"), "fps must be finite, got inf"),
        ],
    )
    def test_fps_must_be_positive_and_finite(self, fps, message):
        for make in (
            lambda: Clip("c", fps, 240),
            lambda: window_center_time(FrameWindow(0, 32), fps),
            lambda: SimConfig(fps=fps),
        ):
            with pytest.raises(DomainError) as info:
                make()
            assert str(info.value) == message


class TestTypeValidation:
    def test_clip(self):
        clip = Clip("c", 30.0, 240)
        assert clip.duration_sec == 8.0
        with pytest.raises(DomainError):
            Clip("c", 0.0, 240)
        with pytest.raises(DomainError):
            Clip("c", 30.0, 0)
        with pytest.raises(ValidationError):
            Clip("", 30.0, 240)

    def test_window(self):
        win = FrameWindow(3, 7)
        assert len(win) == 4
        assert win.contains(3) and win.contains(6)
        assert not win.contains(7) and not win.contains(2)
        with pytest.raises(DomainError):
            FrameWindow(-1, 7)
        with pytest.raises(DomainError):
            FrameWindow(5, 5)
        with pytest.raises(DomainError):
            FrameWindow(5, 4)

    def test_scored_window(self):
        ScoredWindow(0, 4, 0.0)
        ScoredWindow(0, 4, 1.0)
        with pytest.raises(DomainError):
            ScoredWindow(0, 4, 1.1)
        with pytest.raises(DomainError):
            ScoredWindow(0, 4, -0.1)

    def test_pnr_annotation(self):
        ann = PnrAnnotation("c", 103, (55, 180))
        assert ann.all_frames == (103, 55, 180)
        with pytest.raises(ValidationError):
            PnrAnnotation("c", 103, (103,))
        with pytest.raises(ValidationError):
            PnrAnnotation("c", 103, (55, 55))
        with pytest.raises(DomainError):
            PnrAnnotation("c", -1)
        with pytest.raises(DomainError):
            PnrAnnotation("c", 5, (-2,))

    def test_prediction(self):
        PnrPrediction(3.45, 103, "selected")
        with pytest.raises(ValidationError):
            PnrPrediction(3.45, 103, "guess")
        with pytest.raises(DomainError):
            PnrPrediction(-0.1, 103, "selected")
        with pytest.raises(DomainError):
            PnrPrediction(0.1, -1, "selected")

    def test_ensure_window_in_clip(self):
        clip = Clip("c", 30.0, 240)
        ensure_window_in_clip(FrameWindow(208, 240), clip)
        with pytest.raises(BoundsError):
            ensure_window_in_clip(FrameWindow(209, 241), clip)


WINDOWS = WindowingConfig(num_windows=4, window_len=32)
ANNOTATION_USERS = {
    "ensure_annotation_in_clip": ensure_annotation_in_clip,
    "build_dataset": lambda ann, clip: build_dataset([clip], [ann]),
    "positive_window": lambda ann, clip: positive_window(ann, clip, WINDOWS, seed=0),
    "negative_windows": lambda ann, clip: negative_windows(ann, clip, WINDOWS, seed=0, count=2),
    "oracle_error": lambda ann, clip: oracle_error(ann, clip, WINDOWS),
}

# the users that take the clip apart from the annotation; build_dataset
# looks the clip up by the annotation's id, so it cannot be handed another
CLIP_ID_USERS = {
    **{name: use for name, use in ANNOTATION_USERS.items() if name != "build_dataset"},
    "valid_negative_starts": lambda ann, clip: valid_negative_starts(ann, clip, WINDOWS),
}


class TestAnnotationInClip:
    """Every user of an annotation rejects a frame outside its clip alike."""

    @pytest.mark.parametrize("use", CLIP_ID_USERS.values(), ids=list(CLIP_ID_USERS))
    @pytest.mark.parametrize(
        "annotation", [PnrAnnotation("a", 5), PnrAnnotation("a", 150)], ids=["inside", "outside"]
    )
    def test_annotation_for_another_clip(self, use, annotation):
        # the id is checked before the frames
        with pytest.raises(ValidationError) as info:
            use(annotation, Clip("b", 30.0, 100))
        assert type(info.value) is ValidationError
        assert str(info.value) == "annotation is for clip 'a', not 'b'"

    @pytest.mark.parametrize("use", ANNOTATION_USERS.values(), ids=list(ANNOTATION_USERS))
    @pytest.mark.parametrize(
        "annotation",
        [PnrAnnotation("c", 100), PnrAnnotation("c", 7, (40, 100))],
        ids=["pnr-frame", "other-frame"],
    )
    def test_frame_outside_clip(self, use, annotation):
        with pytest.raises(BoundsError) as info:
            use(annotation, Clip("c", 30.0, 100))
        assert str(info.value) == "clip 'c': annotated frame 100 outside 100-frame clip"

    @pytest.mark.parametrize("use", ANNOTATION_USERS.values(), ids=list(ANNOTATION_USERS))
    def test_last_frame_is_inside(self, use):
        use(PnrAnnotation("c", 99, (7,)), Clip("c", 30.0, 100))

    @pytest.mark.parametrize(
        "line",
        [
            '{"clip_id": "c", "fps": 30.0, "num_frames": 100, "pnr_frame": 100}',
            '{"clip_id": "c", "fps": 30.0, "num_frames": 100, "pnr_frame": 7, '
            '"other_pnr_frames": [40, 100]}',
        ],
        ids=["pnr-frame", "other-frame"],
    )
    def test_parsed_frame_outside_clip_names_its_line(self, line):
        # the reader turns every model error on a line into a ParseError
        with pytest.raises(ParseError) as info:
            parse_annotations(line)
        assert str(info.value) == "line 1: clip 'c': annotated frame 100 outside 100-frame clip"
        assert info.value.line_no == 1
