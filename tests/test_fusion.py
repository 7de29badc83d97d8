"""Score fusion across scorers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrkit.errors import BoundsError, DomainError, EmptyInputError, ValidationError
from pnrkit.fusion import fuse_oscc, fuse_pnr
from pnrkit.localization import select_pnr
from pnrkit.model import Clip, ScoredWindow, ScoreSeries, window_center_frame
from pnrkit.sampling import WindowingConfig, dense_windows


def series_of(clip_id, triples):
    return ScoreSeries(
        clip_id,
        tuple(ScoredWindow(s, e, c) for s, e, c in triples),
    )


@st.composite
def window_series(draw, clip_id="c", num_frames=300):
    """One scorer's output: fixed-length windows with distinct starts."""
    w = draw(st.sampled_from([16, 32, 64]))
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_frames - w),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return ScoreSeries(
        clip_id,
        tuple(
            ScoredWindow(s, s + w, draw(st.floats(min_value=0.0, max_value=1.0)))
            for s in sorted(starts)
        ),
    )


def reference_fuse_pnr(series_list):
    """Fusion by full scan: every union point looks at every window.

    Each series contributes the window minimizing (|center distance|,
    center, start, end); min() keeps the first of equal keys, so a
    repeated window contributes its first confidence in input order.
    """
    union = {}
    for series in series_list:
        for sw in series.windows:
            union.setdefault((sw.start, sw.end), sw)
    points = sorted(union.values(), key=lambda w: (window_center_frame(w), w.start, w.end))
    fused = []
    for point in points:
        center = window_center_frame(point)
        contributions = [
            min(
                series.windows,
                key=lambda sw: (
                    abs(window_center_frame(sw) - center),
                    window_center_frame(sw),
                    sw.start,
                    sw.end,
                ),
            ).confidence
            for series in series_list
        ]
        mean = math.fsum(contributions) / len(contributions)
        mean = min(max(mean, min(contributions)), max(contributions))
        fused.append(ScoredWindow(point.start, point.end, mean))
    return ScoreSeries(series_list[0].clip_id, tuple(fused))


@st.composite
def mixed_series(draw, clip_id="c", num_frames=48):
    """One scorer's output in input order: mixed window lengths on a short
    clip, so different lengths often share a center, plus repeated
    (start, end) windows with their own confidences."""
    confidences = st.floats(min_value=0.0, max_value=1.0)
    triples = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        w = draw(st.sampled_from([1, 2, 3, 4, 8, 15, 16, 32]))
        s = draw(st.integers(min_value=0, max_value=num_frames - w))
        triples.append((s, s + w, draw(confidences)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        s, e, _ = draw(st.sampled_from(triples))
        triples.insert(draw(st.integers(min_value=0, max_value=len(triples))), (s, e, draw(confidences)))
    return series_of(clip_id, triples)


class TestFuseOscc:
    def test_mean_is_exact(self):
        assert fuse_oscc([0.6, 0.8]) == 0.7

    def test_below_threshold_example(self):
        assert fuse_oscc([0.4, 0.4]) == 0.4
        assert fuse_oscc([0.4, 0.4]) < 0.5

    def test_single_model_identity(self):
        assert fuse_oscc([0.3]) == 0.3

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            fuse_oscc([])
        with pytest.raises(DomainError):
            fuse_oscc([0.5, 1.2])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_mean_bounds_and_commutativity(self, probs):
        fused = fuse_oscc(probs)
        assert min(probs) <= fused <= max(probs)
        shuffled = list(probs)
        random.Random(0).shuffle(shuffled)
        assert fuse_oscc(shuffled) == fused


class TestFusePnr:
    def test_single_series_identity(self):
        series = series_of("c", [(0, 32, 0.9), (12, 44, 0.4)])
        assert fuse_pnr([series]) == series

    def test_identical_geometry_averages(self):
        a = series_of("c", [(0, 32, 0.2), (12, 44, 0.6)])
        b = series_of("c", [(0, 32, 0.4), (12, 44, 1.0)])
        fused = fuse_pnr([a, b])
        assert [sw.start for sw in fused.windows] == [0, 12]
        assert fused.windows[0].confidence == pytest.approx((0.2 + 0.4) / 2)
        assert fused.windows[1].confidence == pytest.approx((0.6 + 1.0) / 2)

    def test_nearest_center_alignment(self):
        # A scores a window centered at 1.0 s; B scores 1.2 s and 3.0 s.
        # At A's point, B contributes its 1.2 s confidence.
        fps = 30.0
        a = series_of("c", [(15, 46, 0.9)])  # center frame 30 -> 1.0 s
        b = series_of("c", [(21, 52, 0.5), (75, 106, 0.8)])  # centers 1.2 s, 3.0 s
        fused = fuse_pnr([a, b])
        by_geometry = {(sw.start, sw.end): sw.confidence for sw in fused.windows}
        assert by_geometry[(15, 46)] == pytest.approx(0.7)
        # at B's 1.2 s point, A can only contribute its single window
        assert by_geometry[(21, 52)] == pytest.approx((0.5 + 0.9) / 2)
        assert by_geometry[(75, 106)] == pytest.approx((0.8 + 0.9) / 2)

    def test_duplicate_geometry_deduplicated(self):
        a = series_of("c", [(0, 32, 0.2)])
        b = series_of("c", [(0, 32, 0.8)])
        fused = fuse_pnr([a, b])
        assert len(fused.windows) == 1
        assert fused.windows[0].confidence == 0.5

    def test_points_sorted_by_center(self):
        a = series_of("c", [(50, 82, 0.5)])
        b = series_of("c", [(0, 32, 0.5), (60, 92, 0.5)])
        fused = fuse_pnr([a, b])
        starts = [sw.start for sw in fused.windows]
        assert starts == sorted(starts)

    def test_bounds_checked_against_clip(self):
        series = series_of("c", [(200, 232, 0.5)])
        with pytest.raises(BoundsError):
            fuse_pnr([series], Clip("c", 30.0, 210))
        fuse_pnr([series], Clip("c", 30.0, 240))

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            fuse_pnr([])
        with pytest.raises(EmptyInputError):
            fuse_pnr([ScoreSeries("c", ())])
        with pytest.raises(ValidationError):
            fuse_pnr([series_of("a", [(0, 32, 0.5)]), series_of("b", [(0, 32, 0.5)])])
        with pytest.raises(ValidationError):
            fuse_pnr([series_of("a", [(0, 32, 0.5)])], Clip("b", 30.0, 240))

    @given(st.lists(window_series(), min_size=1, max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_commutativity_exact(self, series_list, rng):
        fused = fuse_pnr(series_list)
        shuffled = list(series_list)
        rng.shuffle(shuffled)
        assert fuse_pnr(shuffled) == fused

    @given(st.lists(window_series(), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_fused_confidence_within_contribution_bounds(self, series_list):
        fused = fuse_pnr(series_list)
        lo = min(sw.confidence for s in series_list for sw in s.windows)
        hi = max(sw.confidence for s in series_list for sw in s.windows)
        for sw in fused.windows:
            assert lo <= sw.confidence <= hi

    @given(window_series())
    @settings(max_examples=150)
    def test_identity_and_end_to_end(self, series):
        clip = Clip("c", 30.0, 300)
        fused = fuse_pnr([series], clip)
        assert {(sw.start, sw.end): sw.confidence for sw in fused.windows} == {
            (sw.start, sw.end): sw.confidence for sw in series.windows
        }
        assert select_pnr(fused, clip) == select_pnr(series, clip)

    @given(window_series())
    def test_self_fusion_changes_nothing(self, series):
        fused = fuse_pnr([series, series])
        assert {(sw.start, sw.end): sw.confidence for sw in fused.windows} == {
            (sw.start, sw.end): sw.confidence for sw in series.windows
        }


class TestNearestCenterLookup:
    """fuse_pnr's binary search picks exactly the full-scan window."""

    @given(st.lists(mixed_series(), min_size=1, max_size=4))
    @settings(max_examples=400)
    def test_matches_full_scan(self, series_list):
        assert fuse_pnr(series_list) == reference_fuse_pnr(series_list)

    @given(
        st.integers(min_value=32, max_value=400),
        st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_matches_full_scan_on_dense_sweeps(self, num_frames, counts, rng):
        # sweeps denser than one frame per window repeat windows
        clip = Clip("c", 30.0, num_frames)
        series_list = [
            ScoreSeries(
                "c",
                tuple(
                    ScoredWindow(w.start, w.end, rng.random())
                    for w in dense_windows(clip, WindowingConfig(num_windows=n))
                ),
            )
            for n in counts
        ]
        assert fuse_pnr(series_list, clip) == reference_fuse_pnr(series_list)

    def test_single_window_series_contributes_everywhere(self):
        a = series_of("c", [(100, 132, 0.25)])
        b = series_of("c", [(0, 32, 0.75), (200, 232, 0.75)])
        fused = fuse_pnr([a, b])
        assert [sw.confidence for sw in fused.windows] == [0.5, 0.5, 0.5]

    def test_repeated_window_first_in_input_order_wins(self):
        a = series_of("c", [(0, 32, 0.9), (40, 72, 0.3), (0, 32, 0.1)])
        b = series_of("c", [(0, 32, 0.5)])
        fused = fuse_pnr([a, b])
        assert (fused.windows[0].start, fused.windows[0].end) == (0, 32)
        assert fused.windows[0].confidence == 0.7

    def test_equidistant_centers_tie_to_lower_center(self):
        a = series_of("c", [(20, 30, 0.8), (10, 20, 0.2)])  # centers 24.5, 14.5
        b = series_of("c", [(15, 24, 0.6)])  # center 19.0, 4.5 from both
        by_geometry = {
            (sw.start, sw.end): sw.confidence for sw in fuse_pnr([a, b]).windows
        }
        assert by_geometry[(15, 24)] == 0.4

    def test_shared_center_ties_to_lower_start(self):
        # both windows are centered on frame 14.5; the longer one starts first
        a = series_of("c", [(12, 18, 0.75), (10, 20, 0.25)])
        b = series_of("c", [(12, 18, 0.75)])
        by_geometry = {
            (sw.start, sw.end): sw.confidence for sw in fuse_pnr([a, b]).windows
        }
        assert by_geometry == {(10, 20): 0.5, (12, 18): 0.5}
