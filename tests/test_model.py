"""Core type and fraction-coordinate behavior."""

import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnrkit import model
from pnrkit.errors import BoundsError, DomainError, ParseError, ValidationError
from pnrkit.ingest import build_dataset, emit_predictions, parse_annotations, parse_predictions
from pnrkit.localization import SelectionConfig, oracle_error
from pnrkit.metrics import (
    BinError, MetricsReport, dataset_stats, frame_bin, per_position_error, pnr_mae,
)
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    PnrPrediction,
    Record,
    ScoredWindow,
    ScoreSeries,
    ensure_annotation_in_clip,
    ensure_positive,
    ensure_prediction_in_clip,
    ensure_range,
    ensure_windows_in_clip,
    fraction_to_frame,
    round_half_up,
    window_center_fraction,
    window_center_frame,
    window_center_time,
)
from pnrkit.sampling import (
    SamplerConfig,
    WindowingConfig,
    negative_windows,
    positive_window,
    valid_negative_starts,
)
from pnrkit.sim import ScorerNoiseModel, SimConfig, SimSettings


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (-0.5, 0), (-1.5, -1), (-0.6, -1)],
    )
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


def frame_fraction(frame, num_frames):
    """The fraction of a frame, written out: frame / (n - 1), and 0.0 in a
    single-frame clip."""
    return frame / (num_frames - 1) if num_frames > 1 else 0.0


class TestFractionCoordinate:
    # a one-frame window is centered on its frame, so window_center_fraction
    # gives the fraction of that frame
    def test_frame_fraction_reference_point(self):
        # frame 103 of a 240-frame clip sits just under the 0.43 mark
        fraction = frame_fraction(103, 240)
        assert fraction == 103 / 239
        assert 0.430 < fraction < 0.431
        assert window_center_fraction(FrameWindow(103, 104), 240) == fraction
        assert fraction_to_frame(fraction, 240) == 103

    def test_endpoints(self):
        assert frame_fraction(0, 240) == 0.0
        assert frame_fraction(239, 240) == 1.0
        assert window_center_fraction(FrameWindow(0, 1), 240) == 0.0
        assert window_center_fraction(FrameWindow(239, 240), 240) == 1.0

    def test_single_frame_clip(self):
        assert frame_fraction(0, 1) == 0.0
        assert window_center_fraction(FrameWindow(0, 1), 1) == 0.0
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
        with pytest.raises(DomainError):
            fraction_to_frame(1.5, 240)
        with pytest.raises(DomainError):
            fraction_to_frame(-0.1, 240)
        with pytest.raises(DomainError):
            window_center_fraction(FrameWindow(0, 1), 0)
        with pytest.raises(DomainError):
            fraction_to_frame(0.5, 0)

    @given(st.integers(min_value=1, max_value=5000), st.data())
    def test_round_trip_is_exact(self, num_frames, data):
        frame = data.draw(st.integers(min_value=0, max_value=num_frames - 1))
        fraction = frame_fraction(frame, num_frames)
        assert fraction_to_frame(fraction, num_frames) == frame
        assert window_center_fraction(FrameWindow(frame, frame + 1), num_frames) == fraction

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
        assert (clip.clip_id, clip.fps, clip.num_frames) == ("c", 30.0, 240)
        with pytest.raises(DomainError):
            Clip("c", 0.0, 240)
        with pytest.raises(DomainError):
            Clip("c", 30.0, 0)
        with pytest.raises(ValidationError):
            Clip("", 30.0, 240)

    def test_clip_length_must_be_a_float(self):
        # the largest float is 2**1024 - 2**971; an int half way past it rounds to 2**1024
        with pytest.raises(DomainError, match=r"^duration num_frames / fps must be finite"):
            Clip("c", 1.0, 2**1024 - 2**970)
        with pytest.raises(DomainError, match="duration"):
            Clip("c", 1e-300, 10**9)
        assert Clip("c", 1.0, 2**1024 - 2**971).num_frames / 1.0 == sys.float_info.max

    @pytest.mark.parametrize("clip_id", [5, b"c", None, ("c",)])
    def test_clip_id_must_be_a_str(self, clip_id):
        # an emitter would write 5 as "clip_id": 5, which no parser reads back
        with pytest.raises(ValidationError, match="^clip_id must be a non-empty string$"):
            Clip(clip_id, 30.0, 240)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Clip("c", 30.0, 9.5), "num_frames must be an integer, got 9.5"),
            (lambda: Clip("c", 30.0, 9.0), "num_frames must be an integer, got 9.0"),
            (lambda: Clip("c", 30.0, Fraction(9)), "num_frames must be an integer, got 9"),
            (lambda: FrameWindow(0.5, 3), "window start must be an integer, got 0.5"),
            (lambda: FrameWindow(0, 3.0), "window end must be an integer, got 3.0"),
            (lambda: ScoredWindow(0.5, 3, 0.2), "window start must be an integer, got 0.5"),
            (lambda: PnrAnnotation(5.5), "positive_frame must be an integer, got 5.5"),
            (lambda: PnrAnnotation(5, (2.0,)), "negative_frames must be an integer, got 2.0"),
            (lambda: PnrPrediction(1.0, 2.5), "frame must be an integer, got 2.5"),
            # settings: a float window length would be written as "start": 0.0
            (lambda: WindowingConfig(4, 32.0), "window_len must be an integer, got 32.0"),
            (lambda: WindowingConfig(2.5), "num_windows must be an integer, got 2.5"),
            (lambda: WindowingConfig(4, 32, 1.5), "jitter must be an integer, got 1.5"),
            (lambda: SimConfig(n_clips=2.5), "n_clips must be an integer, got 2.5"),
            (lambda: SamplerConfig(2.5), "num_segments must be an integer, got 2.5"),
            (lambda: negative_windows(PnrAnnotation(5), Clip("c", 30.0, 240),
                                      WindowingConfig(4), 0, count=2.5),
             "count must be an integer, got 2.5"),
            (lambda: dataset_stats(_dataset(), 2.5), "bins must be an integer, got 2.5"),
            (lambda: per_position_error({"c": PnrPrediction(3.4, 103)}, _dataset(), 4.0),
             "bins must be an integer, got 4.0"),
            (lambda: frame_bin(3, 10, 2.0), "bins must be an integer, got 2.0"),
        ],
    )
    def test_integer_fields_refuse_a_float(self, make, message):
        # a float, even 9.0, is written with its point, which no int key reads back
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message

    def test_integer_fields_take_numpy_ints(self):
        assert Clip("c", 30.0, np.int64(9)).num_frames == 9
        assert FrameWindow(np.int32(0), np.uint16(3)) == (0, 3)
        assert ScoredWindow(np.int64(1), np.int64(4), 0.5) == (1, 4, 0.5)
        assert PnrAnnotation(np.int64(5), (np.int16(2),)).all_frames == (5, 2)
        assert PnrPrediction(1.0, np.int64(30)).frame == 30

    def test_window(self):
        win = FrameWindow(3, 7)
        assert win.end - win.start == 4
        assert [f for f in range(10) if win.start <= f < win.end] == [3, 4, 5, 6]
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
        ann = PnrAnnotation(103, (55, 180))
        assert ann.all_frames == (103, 55, 180)
        with pytest.raises(ValidationError, match="^positive frame 103 repeated in neg"):
            PnrAnnotation(103, (103,))
        with pytest.raises(ValidationError, match="^duplicate negative frames$"):
            PnrAnnotation(103, (55, 55))
        with pytest.raises(DomainError):
            PnrAnnotation(-1)
        with pytest.raises(DomainError):
            PnrAnnotation(5, (-2,))

    def test_pnr_annotation_copies_its_negative_frames(self):
        # a list passed in is stored as a tuple, so the caller's later
        # changes cannot undo the checks or make the record unhashable
        frames = [1, 2]
        ann = PnrAnnotation(5, frames)
        assert type(ann.negative_frames) is tuple
        frames.append(5)
        assert ann.all_frames == (5, 1, 2)
        assert hash(ann) == hash((5, (1, 2)))
        with pytest.raises(AttributeError):
            ann.negative_frames.append(5)
        # a one-shot iterator is read once, for the checks and the record alike
        assert PnrAnnotation(5, iter([1, 2])).negative_frames == (1, 2)
        with pytest.raises(ValidationError, match="^duplicate negative frames$"):
            PnrAnnotation(5, iter([1, 1]))

    @pytest.mark.parametrize("bad", [(0.5, 3, 0.2), (0, 3, 0.2), FrameWindow(0, 3)],
                             ids=["float-start", "plain-tuple", "frame-window"])
    def test_score_series_holds_scored_windows_only(self, bad):
        # the emitter writes any three items as a score line, which need not parse back
        with pytest.raises(ValidationError) as info:
            ScoreSeries((ScoredWindow(0, 4, 0.5), bad))
        assert str(info.value) == f"a series holds ScoredWindow records, got {bad!r}"

    def test_score_series_copies_its_windows(self):
        windows = [ScoredWindow(0, 4, 0.5)]
        series = ScoreSeries(windows)
        windows.append(ScoredWindow(2, 6, 0.5))
        assert series.windows == (ScoredWindow(0, 4, 0.5),)

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
        ensure_windows_in_clip([FrameWindow(208, 240)], clip)
        with pytest.raises(BoundsError):
            ensure_windows_in_clip([FrameWindow(209, 241)], clip)
        # the first window past the end is the one named
        windows = [FrameWindow(0, 32), FrameWindow(209, 241), FrameWindow(300, 310)]
        with pytest.raises(BoundsError) as info:
            ensure_windows_in_clip(windows, clip)
        assert str(info.value) == "window [209, 241) exceeds clip 'c' of 240 frames"


def _dataset():
    clip = Clip("c", 30.0, 240)
    return build_dataset([clip], {"c": PnrAnnotation(103, (55,))}, {"c": True})


# one instance of every record type
RECORDS = [
    Clip("c", 30.0, 240),
    PnrAnnotation(103, (55, 180)),
    FrameWindow(2, 9),
    ScoredWindow(2, 9, 0.75),
    ScoreSeries((ScoredWindow(0, 32, 0.5), ScoredWindow(8, 40, 0.25))),
    PnrPrediction(3.45, 103, "fallback-prior"),
    _dataset(),
    dataset_stats(_dataset(), bins=4),
    SamplerConfig(num_segments=8, mode="train-random", seed=3),
    WindowingConfig(num_windows=16, window_len=24, jitter=4),
    SelectionConfig(threshold=0.5, prior_fraction=0.4, fallback="argmax-confidence"),
    BinError(0.0, 0.25, 2, 0.5),
    MetricsReport("pnr", 2, 0.5, (BinError(0.0, 0.5, 2, 0.5), BinError(0.5, 1.0, 0, None))),
    SimConfig(n_clips=3, seed=7),
    ScorerNoiseModel(hit_alpha=5.0, oscc_flip_prob=0.2),
    SimSettings(SimConfig(n_clips=3), ScorerNoiseModel(), WindowingConfig(num_windows=16)),
]
RECORD_IDS = [type(record).__name__ for record in RECORDS]
# record type -> a field and a valid new value for it
REPLACEMENTS = {
    "Clip": ("num_frames", 300),
    "PnrAnnotation": ("negative_frames", ()),
    "FrameWindow": ("end", 12),
    "ScoredWindow": ("confidence", 0.5),
    "ScoreSeries": ("windows", ()),
    "PnrPrediction": ("source", "selected"),
    "Dataset": ("oscc", {}),
    "DatasetStats": ("n_clips", 5),
    "SamplerConfig": ("seed", 4),
    "WindowingConfig": ("jitter", 0),
    "SelectionConfig": ("threshold", 0.9),
    "BinError": ("count", 3),
    "MetricsReport": ("per_bin", None),
    "SimConfig": ("seed", 8),
    "ScorerNoiseModel": ("miss_beta", 3.0),
    "SimSettings": ("windows", WindowingConfig(num_windows=8)),
}
_R = dict(zip(RECORD_IDS, RECORDS))
# a change the record's own checks refuse, with the constructor's message
REFUSED = [
    (_R["Clip"], {"clip_id": ""}, ValidationError, "clip_id must be a non-empty string"),
    (_R["Clip"], {"fps": 0.0}, DomainError, "fps must be positive, got 0.0"),
    (_R["PnrAnnotation"], {"negative_frames": (55, 55)}, ValidationError,
     "duplicate negative frames"),
    (_R["PnrAnnotation"], {"positive_frame": 55}, ValidationError,
     "positive frame 55 repeated in negative_frames"),
    (_R["FrameWindow"], {"end": 2}, DomainError, "window [2, 2) is empty or inverted"),
    (_R["ScoredWindow"], {"confidence": 1.5}, DomainError, "confidence must be in [0, 1], got 1.5"),
    (_R["PnrPrediction"], {"source": "guess"}, ValidationError,
     "unknown prediction source 'guess'"),
    (_R["SamplerConfig"], {"mode": "random"}, ValidationError,
     "mode must be one of ('train-random', 'test-uniform'), got 'random'"),
    (_R["WindowingConfig"], {"jitter": -1}, DomainError, "jitter must be >= 0, got -1"),
    (_R["SelectionConfig"], {"fallback": "none"}, ValidationError,
     "fallback must be one of ('prior-point', 'argmax-confidence'), got 'none'"),
    (_R["SimConfig"], {"duration_max_sec": 4.0}, DomainError,
     "duration_max_sec must be >= 5.0, got 4.0"),
    (_R["ScorerNoiseModel"], {"miss_beta": 0.0}, DomainError, "miss_beta must be positive, got 0.0"),
]


def record_types():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("pnrkit."):
                found.add(sub)
                todo.append(sub)
    return found


class TestRecordContract:
    """Every record is a checked immutable tuple of its fields; windows are
    (start, end) and (start, end, confidence)."""

    def test_every_record_type_is_listed(self):
        assert {type(record) for record in RECORDS} == record_types()
        assert len(RECORDS) == len(record_types()) == 16

    def test_equality_is_tuple_equality(self):
        assert FrameWindow(0, 4) == (0, 4)
        assert ScoredWindow(0, 4, 0.5) == (0, 4, 0.5)
        assert ScoredWindow(0, 4, 1) == ScoredWindow(0, 4, 1.0)
        # a scored window is one field longer, so never equals a bare window
        assert FrameWindow(0, 4) != ScoredWindow(0, 4, 0.5)
        assert FrameWindow(0, 4) != (0, 5)
        # every field takes part, a prediction's source too, and the type does not
        assert PnrPrediction(1.0, 30, "selected") != PnrPrediction(1.0, 30, "fallback-prior")
        assert PnrPrediction(1.0, 30) == (1.0, 30, "selected")
        assert Clip("c", 30.0, 240) == ("c", 30.0, 240)
        assert SelectionConfig() == (0.7, 0.43, "prior-point")
        assert BinError(0.0, 0.5, 1, None) == (0.0, 0.5, 1, None)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_hash_is_the_tuple_one(self, record):
        try:
            expected = hash(tuple(record))
        except TypeError:  # a Dataset holds dicts
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_fields_read_their_slots(self, record):
        values = tuple(record)
        assert len(values) == len(record._fields)
        assert tuple(getattr(record, name) for name in record._fields) == values == record[:]
        assert type(record)(*values) == record
        assert type(record)(**dict(zip(record._fields, values))) == record

    def test_hash_and_order_are_the_tuple_ones(self):
        assert hash(FrameWindow(0, 4)) == hash((0, 4))
        assert hash(ScoredWindow(0, 4, 0.5)) == hash((0, 4, 0.5))
        assert len({FrameWindow(0, 4), (0, 4), FrameWindow(0, 4)}) == 1
        windows = [ScoredWindow(4, 8, 0.1), ScoredWindow(0, 8, 0.2), ScoredWindow(0, 4, 0.9)]
        assert sorted(windows) == [(0, 4, 0.9), (0, 8, 0.2), (4, 8, 0.1)]

    def test_fields_and_len(self):
        sw = ScoredWindow(3, 7, 0.25)
        assert (sw.start, sw.end, sw.confidence) == (3, 7, 0.25) == tuple(sw) == sw[:]
        assert isinstance(sw, FrameWindow) and isinstance(sw, tuple)
        # len is the number of fields, not the frame count
        assert len(sw) == 3 and len(FrameWindow(3, 7)) == 2 and len(FrameWindow(0, 1)) == 2
        assert sw.start <= 3 < sw.end and not sw.start <= 7 < sw.end

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_immutable(self, record):
        for name in (*record._fields, "start", "end", "confidence", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        with pytest.raises(TypeError):
            record[0] = 1
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_copy_and_pickle_round_trip(self, record):
        copies = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is type(record)
            assert twin == record and len(twin) == len(record)
            assert tuple(map(type, twin)) == tuple(map(type, record))

    def test_read_without_len(self):
        # a window past sys.maxsize frames reads like any other: len is its
        # field count, so tuple(), list() and * take two or three slots
        huge = ScoredWindow(1, sys.maxsize + 2, 0.5)
        bare = FrameWindow(0, sys.maxsize + 1)
        assert len(huge) == 3 and len(bare) == 2
        assert tuple(huge) == (1, sys.maxsize + 2, 0.5) and list(bare) == [0, sys.maxsize + 1]
        assert [*huge] == list(huge) == [1, sys.maxsize + 2, 0.5]
        assert tuple(ScoredWindow(0, sys.maxsize + 1, 0.5)) == (0, sys.maxsize + 1, 0.5)
        start, end, confidence = huge
        assert (start, end, confidence) == (huge.start, huge.end, huge.confidence)
        assert (huge[0], huge[1], huge[2]) == huge[:] == (1, sys.maxsize + 2, 0.5)
        assert huge.start <= sys.maxsize < huge.end and not huge.start <= 0 < huge.end
        twins = [copy.copy(huge)] + [
            pickle.loads(pickle.dumps(huge, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert all(type(twin) is ScoredWindow and twin == huge for twin in twins)
        assert repr(huge) == f"ScoredWindow(start=1, end={sys.maxsize + 2}, confidence=0.5)"

    def test_repr(self):
        assert repr(FrameWindow(0, 4)) == "FrameWindow(start=0, end=4)"
        assert repr(ScoredWindow(0, 4, 0.5)) == "ScoredWindow(start=0, end=4, confidence=0.5)"
        assert repr(Clip("c", 30.0, 240)) == "Clip(clip_id='c', fps=30.0, num_frames=240)"
        assert repr(PnrPrediction(1.0, 30)) == (
            "PnrPrediction(time_sec=1.0, frame=30, source='selected')"
        )

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_repr_names_every_field_and_reads_back(self, record):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        assert repr(record) == f"{type(record).__name__}({shown})"
        assert eval(repr(record), {cls.__name__: cls for cls in record_types()}) == record

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_replace_changes_only_the_named_field(self, record):
        same = record._replace()
        assert type(same) is type(record) and same == record
        name, value = REPLACEMENTS[type(record).__name__]
        twin = record._replace(**{name: value})
        assert type(twin) is type(record) and getattr(twin, name) == value != getattr(record, name)
        assert [v for n, v in zip(twin._fields, twin) if n != name] == [
            v for n, v in zip(record._fields, record) if n != name
        ]
        with pytest.raises(TypeError):
            record._replace(no_such_field=1)

    @pytest.mark.parametrize(
        "record, changes, error, message",
        REFUSED,
        ids=[f"{type(record).__name__}.{next(iter(changes))}" for record, changes, *_ in REFUSED],
    )
    def test_replace_runs_the_checks_again(self, record, changes, error, message):
        with pytest.raises(error) as info:
            record._replace(**changes)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: FrameWindow(-1, 7), "window start must be >= 0, got -1"),
            (lambda: FrameWindow(5, 5), "window [5, 5) is empty or inverted"),
            (lambda: FrameWindow(5, 4), "window [5, 4) is empty or inverted"),
            (lambda: FrameWindow(0, math.inf), "window end must be finite, got inf"),
            (lambda: ScoredWindow(-1, 4, 0.5), "window start must be >= 0, got -1"),
            (lambda: ScoredWindow(4, 4, 2.0), "window [4, 4) is empty or inverted"),
            (lambda: ScoredWindow(0, math.inf, 0.5), "window end must be finite, got inf"),
            # an int past the floats has no float center
            (lambda: FrameWindow(0, 2**1024), f"window end must be finite, got {2**1024}"),
            (lambda: ScoredWindow(0, 10**400, 0.5), f"window end must be finite, got {10**400}"),
            (lambda: ScoredWindow(0, 4, 1.1), "confidence must be in [0, 1], got 1.1"),
            (lambda: ScoredWindow(0, 4, -0.1), "confidence must be in [0, 1], got -0.1"),
            (lambda: ScoredWindow(0, 4, math.inf), "confidence must be in [0, 1], got inf"),
        ],
    )
    def test_constructor_messages(self, make, message):
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message

    def test_the_largest_float_end_has_a_center(self):
        end = int(sys.float_info.max)
        assert window_center_frame(FrameWindow(end - 3, end)) == sys.float_info.max
        assert window_center_frame(ScoredWindow(0, end, 0.5)) == sys.float_info.max / 2

    def test_fields_are_required(self):
        with pytest.raises(TypeError):
            FrameWindow(0)
        with pytest.raises(TypeError):
            ScoredWindow(0, 4)


WINDOWS = WindowingConfig(num_windows=4, window_len=32)
ANNOTATION_USERS = {
    "ensure_annotation_in_clip": ensure_annotation_in_clip,
    "build_dataset": lambda ann, clip: build_dataset([clip], {clip.clip_id: ann}),
    "positive_window": lambda ann, clip: positive_window(ann, clip, WINDOWS, seed=0),
    "valid_negative_starts": lambda ann, clip: valid_negative_starts(ann, clip, WINDOWS),
    "negative_windows": lambda ann, clip: negative_windows(ann, clip, WINDOWS, seed=0, count=2),
    "oracle_error": lambda ann, clip: oracle_error(ann, clip, WINDOWS),
}


class TestAnnotationInClip:
    """Every user of an annotation rejects a frame outside its clip alike."""

    @pytest.mark.parametrize("use", ANNOTATION_USERS.values(), ids=list(ANNOTATION_USERS))
    @pytest.mark.parametrize(
        "annotation",
        [PnrAnnotation(100), PnrAnnotation(7, (40, 100))],
        ids=["pnr-frame", "other-frame"],
    )
    def test_frame_outside_clip(self, use, annotation):
        with pytest.raises(BoundsError) as info:
            use(annotation, Clip("c", 30.0, 100))
        assert str(info.value) == "clip 'c': annotated frame 100 outside 100-frame clip"

    @pytest.mark.parametrize("use", ANNOTATION_USERS.values(), ids=list(ANNOTATION_USERS))
    def test_last_frame_is_inside(self, use):
        use(PnrAnnotation(99, (7,)), Clip("c", 30.0, 100))

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


PREDICTION_USERS = {
    "ensure_prediction_in_clip": ensure_prediction_in_clip,
    "pnr_mae": lambda pred, clip: pnr_mae({"c": pred}, build_dataset([clip], {"c": PnrAnnotation(5)})),
    "parse_predictions": lambda pred, clip: parse_predictions(
        "".join(emit_predictions({"c": pred}.items())), {"c": clip}),
}


class TestPredictionInClip:
    """Every user of a prediction rejects one outside its clip alike."""

    @pytest.mark.parametrize("use", PREDICTION_USERS.values(), ids=list(PREDICTION_USERS))
    @pytest.mark.parametrize(
        "prediction, shown",
        [(PnrPrediction(1.0, 100), "frame 100, 1.0 s"), (PnrPrediction(3.34, 30), "frame 30, 3.34 s")],
        ids=["frame", "time"],
    )
    def test_outside_clip(self, use, prediction, shown):
        with pytest.raises((BoundsError, ParseError)) as info:
            use(prediction, Clip("c", 30.0, 100))
        assert str(info.value).endswith(
            f"clip 'c': prediction at {shown}, is outside the clip's 100 frames, 3.3333333333333335 s"
        )

    @pytest.mark.parametrize("use", PREDICTION_USERS.values(), ids=list(PREDICTION_USERS))
    def test_last_frame_and_end_are_inside(self, use):
        use(PnrPrediction(100 / 30, 99), Clip("c", 30.0, 100))


def test_only_clip_carries_its_id():
    # every other per-clip value sits in a map keyed by clip id
    records = {
        name: set(obj._fields)
        for name, obj in vars(model).items()
        if isinstance(obj, type) and issubclass(obj, model.Record) and obj is not model.Record
    }
    assert {"Clip", "PnrAnnotation", "PnrPrediction", "ScoreSeries"} <= set(records)
    assert [name for name, fields in records.items() if "clip_id" in fields] == ["Clip"]


class TestBoundRule:
    @pytest.mark.parametrize(
        "value, low, high, message",
        [
            (-1, 0, math.inf, "x must be >= 0, got -1"),
            (math.nan, 1, math.inf, "x must be >= 1, got nan"),
            (-math.inf, 0, math.inf, "x must be >= 0, got -inf"),
            (math.inf, 0, math.inf, "x must be finite, got inf"),
            (1.5, 0, 1, "x must be in [0, 1], got 1.5"),
            (math.nan, 0, 1, "x must be in [0, 1], got nan"),
            (math.inf, 0, 1, "x must be in [0, 1], got inf"),
            (True, 0, 1, "x must be a number, not True"),
            (False, 0, math.inf, "x must be a number, not False"),
        ],
    )
    def test_range_messages(self, value, low, high, message):
        with pytest.raises(DomainError) as info:
            ensure_range("x", value, low, high)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, high", [(0, 1), (1, 1), (0.5, 1), (10**400, math.inf)])
    def test_range_accepts(self, value, high):
        ensure_range("x", value, 0, high)

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.0, "x must be positive, got 0.0"),
            (math.nan, "x must be positive, got nan"),
            (-math.inf, "x must be positive, got -inf"),
            (math.inf, "x must be finite, got inf"),
            (True, "x must be a number, not True"),
        ],
    )
    def test_positive_messages(self, value, message):
        with pytest.raises(DomainError) as info:
            ensure_positive("x", value)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: FrameWindow(math.nan, 7), "window start must be >= 0, got nan"),
            (lambda: FrameWindow(-math.inf, 7), "window start must be >= 0, got -inf"),
            (lambda: FrameWindow(0, math.nan), "window [0, nan) is empty or inverted"),
            (lambda: FrameWindow(0, math.inf), "window end must be finite, got inf"),
            (lambda: ScoredWindow(0, 4, math.nan), "confidence must be in [0, 1], got nan"),
            (
                lambda: window_center_fraction(FrameWindow(0, 4), math.nan),
                "num_frames must be >= 1, got nan",
            ),
        ],
    )
    def test_per_window_checks_refuse_nan(self, make, message):
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message


# one valid instance of each type that takes numbers; every int or float
# field of it is checked, so a new field is covered here without an edit
VALID = [
    SamplerConfig(num_segments=8),
    WindowingConfig(num_windows=16),
    SelectionConfig(),
    SimConfig(),
    ScorerNoiseModel(),
    Clip("c", 30.0, 240),
    PnrPrediction(1.0, 30),
]
NUMERIC_FIELDS = [
    (valid, name)
    for valid in VALID
    for name in valid._fields
    # the seed is checked where it seeds a stream, by sampling._rng
    if type(valid).__new__.__annotations__[name] in ("int", "float") and name != "seed"
]


def test_numeric_fields_are_found():
    names = {name for _, name in NUMERIC_FIELDS}
    assert {"duration_min_sec", "duration_max_sec", "fps", "num_frames", "time_sec"} <= names
    assert len(NUMERIC_FIELDS) == 23


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "valid, name",
    NUMERIC_FIELDS,
    ids=[f"{type(valid).__name__}.{name}" for valid, name in NUMERIC_FIELDS],
)
def test_every_numeric_field_refuses_non_finite(valid, name, value):
    with pytest.raises(DomainError):
        valid._replace(**{name: value})


# the records the wire formats carry, and every number each holds
WIRE_RECORDS = [
    Clip("c", 30.0, 240),
    PnrAnnotation(3, (5,)),
    FrameWindow(0, 4),
    ScoredWindow(0, 4, 0.5),
    PnrPrediction(1.0, 30),
]
RECORD_FIELDS = [
    (valid, name)
    for valid in WIRE_RECORDS
    for name in valid._fields
    if name not in ("clip_id", "source")
]
# the windows name their bounds "window start" and "window end"
BOOL_MESSAGE_NAMES = {"start": "window start", "end": "window end"}


def test_record_fields_are_found():
    assert len(RECORD_FIELDS) == 11


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "valid, name",
    RECORD_FIELDS + NUMERIC_FIELDS,
    ids=[f"{type(valid).__name__}.{name}" for valid, name in RECORD_FIELDS + NUMERIC_FIELDS],
)
def test_every_numeric_field_refuses_a_bool(valid, name, value):
    # True == 1 passes every bound, but an emitter would write it as true
    # (or True), which no number key of a wire format reads back
    with pytest.raises(DomainError) as info:
        valid._replace(**{name: (value,) if name == "negative_frames" else value})
    assert str(info.value) == f"{BOOL_MESSAGE_NAMES.get(name, name)} must be a number, not {value}"
