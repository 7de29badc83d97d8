"""Selection rule, baselines, and the oracle bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrkit.errors import BoundsError, DomainError, EmptyInputError, ValidationError
from pnrkit.localization import (
    SelectionConfig,
    baseline_center,
    baseline_fraction,
    oracle_error,
    score_dense_windows,
    select_pnr,
)
from pnrkit.model import (
    Clip,
    PnrAnnotation,
    ScoredWindow,
    ScoreSeries,
    window_center_frame,
)
from pnrkit.sampling import WindowingConfig, dense_windows


def series_of(clip_id, triples):
    return ScoreSeries(
        clip_id,
        tuple(ScoredWindow(s, e, c) for s, e, c in triples),
    )


def reference_select(series, clip, config):
    """Independent re-statement of the selection rule, via explicit sort."""
    n = clip.num_frames

    def frac(sw):
        center = sw.start + (len(sw) - 1) / 2
        return 0.0 if n == 1 else center / (n - 1)

    candidates = sorted(
        (sw for sw in series.windows if sw.confidence > config.threshold),
        key=lambda sw: (abs(frac(sw) - config.prior_fraction), sw.start, sw.end),
    )
    if candidates:
        chosen = candidates[0]
        center = chosen.start + (len(chosen) - 1) / 2
        return center / clip.fps
    if config.fallback == "prior-point":
        return math.floor(config.prior_fraction * (n - 1) + 0.5) / clip.fps
    best = sorted(
        series.windows, key=lambda sw: (-sw.confidence, sw.start, sw.end)
    )[0]
    return (best.start + (len(best) - 1) / 2) / clip.fps


class TestSelectPnr:
    def test_nearest_prior_wins_over_higher_confidence(self):
        clip = Clip("c", 30.0, 240)
        # centers at fractions 0.50 and 0.30; both clear the filter
        series = series_of("c", [((104), 136, 0.8), (56, 88, 0.9)])
        pred = select_pnr(series, clip)
        assert pred.frame == 120
        assert pred.time_sec == pytest.approx(119.5 / 30)
        assert pred.source == "selected"

    def test_threshold_is_strict(self):
        clip = Clip("c", 30.0, 240)
        series = series_of("c", [(104, 136, 0.7), (56, 88, 0.6)])
        pred = select_pnr(series, clip)
        assert pred.source == "fallback-prior"

    def test_prior_point_fallback_value(self):
        clip = Clip("c", 30.0, 240)
        series = series_of("c", [(0, 32, 0.1)])
        pred = select_pnr(series, clip)
        assert pred.frame == 103
        assert pred.time_sec == pytest.approx(103 / 30)

    def test_argmax_fallback(self):
        clip = Clip("c", 30.0, 240)
        config = SelectionConfig(fallback="argmax-confidence")
        series = series_of("c", [(0, 32, 0.3), (104, 136, 0.5), (208, 240, 0.2)])
        pred = select_pnr(series, clip, config)
        assert pred.source == "fallback-argmax"
        assert pred.frame == 120

    def test_argmax_tie_prefers_earlier(self):
        clip = Clip("c", 30.0, 240)
        config = SelectionConfig(fallback="argmax-confidence")
        series = series_of("c", [(104, 136, 0.5), (0, 32, 0.5)])
        assert select_pnr(series, clip, config).frame == 16

    def test_single_candidate(self):
        clip = Clip("c", 30.0, 240)
        series = series_of("c", [(0, 32, 0.9), (104, 136, 0.2)])
        pred = select_pnr(series, clip)
        assert pred.source == "selected"
        assert pred.frame == 16

    def test_equidistant_tie_prefers_earlier(self):
        clip = Clip("c", 30.0, 101)
        config = SelectionConfig(prior_fraction=0.5)
        # centers at frames 40.5 and 59.5, both 0.095 from the prior
        series = series_of("c", [(50, 70, 0.9), (31, 51, 0.9)])
        assert select_pnr(series, clip, config).frame == 41

    def test_order_independence(self):
        clip = Clip("c", 30.0, 240)
        triples = [(0, 32, 0.75), (56, 88, 0.9), (104, 136, 0.8), (150, 182, 0.2)]
        rng = random.Random(4)
        baseline = select_pnr(series_of("c", triples), clip)
        for _ in range(10):
            rng.shuffle(triples)
            assert select_pnr(series_of("c", triples), clip) == baseline

    def test_errors(self):
        clip = Clip("c", 30.0, 240)
        with pytest.raises(EmptyInputError):
            select_pnr(ScoreSeries("c", ()), clip)
        with pytest.raises(BoundsError):
            select_pnr(series_of("c", [(220, 252, 0.9)]), clip)
        with pytest.raises(ValidationError):
            select_pnr(series_of("other", [(0, 32, 0.9)]), Clip("c", 30.0, 240))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SelectionConfig(threshold=1.5)
        with pytest.raises(DomainError):
            SelectionConfig(prior_fraction=-0.1)
        with pytest.raises(ValidationError):
            SelectionConfig(fallback="middle")

    @given(
        st.integers(min_value=2, max_value=400),
        st.data(),
        st.sampled_from(["prior-point", "argmax-confidence"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_agrees_with_reference(self, n, data, fallback, threshold, prior):
        clip = Clip("c", 30.0, n)
        k = data.draw(st.integers(min_value=1, max_value=8))
        triples = []
        for _ in range(k):
            start = data.draw(st.integers(min_value=0, max_value=n - 1))
            end = data.draw(st.integers(min_value=start + 1, max_value=n))
            conf = data.draw(st.floats(min_value=0.0, max_value=1.0))
            triples.append((start, end, conf))
        config = SelectionConfig(threshold=threshold, prior_fraction=prior, fallback=fallback)
        series = series_of("c", triples)
        assert select_pnr(series, clip, config).time_sec == reference_select(
            series, clip, config
        )


class TestBaselines:
    def test_center(self):
        pred = baseline_center(Clip("c", 30.0, 240))
        assert pred.frame == 120
        assert pred.time_sec == 4.0
        assert pred.source == "baseline-center"

    def test_center_single_frame(self):
        pred = baseline_center(Clip("c", 30.0, 1))
        assert pred.frame == 0 and pred.time_sec == 0.0

    def test_fraction(self):
        pred = baseline_fraction(Clip("c", 30.0, 240), 0.43)
        assert pred.frame == 103
        assert pred.time_sec == pytest.approx(103 / 30)
        assert pred.source == "baseline-fraction"

    def test_fraction_out_of_range(self):
        with pytest.raises(DomainError):
            baseline_fraction(Clip("c", 30.0, 240), 1.2)


class TestOracleError:
    def test_two_window_reference(self):
        err = oracle_error(
            PnrAnnotation("c", 120), Clip("c", 30.0, 240), WindowingConfig(num_windows=2)
        )
        assert err == pytest.approx(3.45)

    def test_error_measured_from_nearest_center(self):
        # N=2 centers sit at frames 15.5 and 223.5; truth at 16 is half a
        # frame from the first
        err = oracle_error(
            PnrAnnotation("c", 16), Clip("c", 30.0, 240), WindowingConfig(num_windows=2)
        )
        assert err == pytest.approx(0.5 / 30)

    def test_enumerated_means_over_all_positions(self):
        # exact enumeration over every frame of a 240-frame, 32-frame-window
        # clip: mean best error is 163/1200 s for N=16 and 17/200 s for N=32
        clip = Clip("c", 30.0, 240)
        for count, expected in ((16, 163 / 1200), (32, 17 / 200)):
            cfg = WindowingConfig(num_windows=count)
            mean = math.fsum(
                oracle_error(PnrAnnotation("c", p), clip, cfg) for p in range(240)
            ) / 240
            assert mean == pytest.approx(expected, rel=1e-12)

    def test_ratio_on_this_geometry(self):
        # edge clamping keeps the 16 vs 32 ratio below the interior value 2
        assert (163 / 1200) / (17 / 200) == pytest.approx(163 / 102)

    def test_brute_force_agreement(self):
        clip = Clip("c", 30.0, 311)
        cfg = WindowingConfig(num_windows=7)
        centers = [window_center_frame(w) / clip.fps for w in dense_windows(clip, cfg)]
        for p in range(0, 311, 13):
            expected = min(abs(c - p / clip.fps) for c in centers)
            got = oracle_error(PnrAnnotation("c", p), clip, cfg)
            assert got == pytest.approx(expected)

    def test_errors(self):
        with pytest.raises(ValidationError):
            oracle_error(
                PnrAnnotation("other", 120), Clip("c", 30.0, 240), WindowingConfig(num_windows=2)
            )
        with pytest.raises(ValidationError):
            oracle_error(
                PnrAnnotation("c", 500), Clip("c", 30.0, 240), WindowingConfig(num_windows=2)
            )


class TestScoreDenseWindows:
    def test_pairs_in_order(self):
        clip = Clip("c", 30.0, 240)
        series = score_dense_windows(clip, WindowingConfig(num_windows=2), [0.25, 0.75])
        assert [(sw.start, sw.confidence) for sw in series.windows] == [
            (0, 0.25),
            (208, 0.75),
        ]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            score_dense_windows(Clip("c", 30.0, 240), WindowingConfig(num_windows=2), [0.5])
