"""Segment sampling and window sampling behavior."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrkit.errors import ClipTooShortError, DomainError, NegativeSpaceEmpty, ValidationError
from pnrkit.model import Clip, PnrAnnotation, round_half_up
from pnrkit.sampling import (
    SamplerConfig,
    WindowingConfig,
    dense_windows,
    negative_windows,
    positive_window,
    tsn_sample,
    valid_negative_starts,
)


def clip_of(num_frames, fps=30.0):
    return Clip("c", fps, num_frames)


class TestConfigs:
    def test_sampler_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(num_segments=0)
        with pytest.raises(ValidationError):
            SamplerConfig(num_segments=8, mode="eval")

    def test_windowing_config_validation(self):
        with pytest.raises(DomainError):
            WindowingConfig(num_windows=0)
        with pytest.raises(DomainError):
            WindowingConfig(num_windows=4, window_len=0)
        with pytest.raises(DomainError):
            WindowingConfig(num_windows=4, jitter=-1)


class TestTsnSample:
    def test_reference_centers(self):
        picks = tsn_sample(clip_of(240), SamplerConfig(num_segments=8))
        assert picks == (14, 44, 74, 104, 134, 164, 194, 224)

    def test_more_segments_than_frames(self):
        # empty segments fall back to the previous frame, clamped at 0
        picks = tsn_sample(clip_of(2), SamplerConfig(num_segments=4))
        assert picks == (0, 0, 0, 1)
        assert tsn_sample(clip_of(1), SamplerConfig(num_segments=3)) == (0, 0, 0)

    def test_train_mode_deterministic_per_seed(self):
        cfg = SamplerConfig(num_segments=8, mode="train-random", seed=5)
        assert tsn_sample(clip_of(240), cfg) == tsn_sample(clip_of(240), cfg)
        other = SamplerConfig(num_segments=8, mode="train-random", seed=6)
        assert tsn_sample(clip_of(240), cfg) != tsn_sample(clip_of(240), other)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(["train-random", "test-uniform"]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_picks_always_valid(self, n, m, mode, seed):
        picks = tsn_sample(clip_of(n), SamplerConfig(num_segments=m, mode=mode, seed=seed))
        assert len(picks) == m
        assert all(0 <= p < n for p in picks)
        assert all(a <= b for a, b in zip(picks, picks[1:]))

    @given(st.integers(min_value=8, max_value=500), st.integers(min_value=1, max_value=8))
    def test_test_mode_pick_inside_own_segment(self, n, m):
        picks = tsn_sample(clip_of(n), SamplerConfig(num_segments=m))
        for k, p in enumerate(picks):
            lo, hi = k * n // m, (k + 1) * n // m
            assert lo <= p < hi


class TestDenseWindows:
    def test_reference_sweep(self):
        wins = dense_windows(clip_of(240), WindowingConfig(num_windows=32))
        starts = [w.start for w in wins]
        assert len(starts) == 32
        assert starts[:6] == [0, 7, 13, 20, 27, 34]
        assert starts[-1] == 208
        assert all(w.end - w.start == 32 for w in wins)

    def test_two_windows_hit_both_ends(self):
        wins = dense_windows(clip_of(240), WindowingConfig(num_windows=2))
        assert [(w.start, w.end) for w in wins] == [(0, 32), (208, 240)]

    def test_single_window(self):
        wins = dense_windows(clip_of(240), WindowingConfig(num_windows=1))
        assert [(w.start, w.end) for w in wins] == [(0, 32)]

    def test_clip_exactly_one_window_long(self):
        wins = dense_windows(clip_of(32), WindowingConfig(num_windows=5))
        assert all((w.start, w.end) == (0, 32) for w in wins)

    def test_too_short(self):
        with pytest.raises(ClipTooShortError):
            dense_windows(clip_of(31), WindowingConfig(num_windows=4))

    def test_integer_starts_match_float_rounding_on_small_clips(self):
        # the starts are computed in integers; where floats are exact
        # enough they are the float round_half_up(k * span / (N - 1))
        for count in range(2, 80):
            config = WindowingConfig(num_windows=count, window_len=1)
            for span in range(400):
                starts = [win.start for win in dense_windows(clip_of(span + 1), config)]
                assert starts == [round_half_up(k * span / (count - 1)) for k in range(count)]

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=2, max_value=128),
    )
    def test_matches_exact_rational_rounding(self, n, w, count):
        if n < w:
            return
        wins = dense_windows(clip_of(n), WindowingConfig(num_windows=count, window_len=w))
        expected = [
            math.floor(Fraction(k * (n - w), count - 1) + Fraction(1, 2))
            for k in range(count)
        ]
        assert [win.start for win in wins] == expected

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=200)
    def test_sweep_invariants(self, n, w, count):
        if n < w:
            return
        wins = dense_windows(clip_of(n), WindowingConfig(num_windows=count, window_len=w))
        starts = [win.start for win in wins]
        assert len(wins) == count
        assert starts[0] == 0
        assert all(0 <= s <= n - w for s in starts)
        assert all(a <= b for a, b in zip(starts, starts[1:]))
        if count >= 2:
            assert starts[-1] == n - w
            if count * w >= n:
                # no gaps: consecutive starts never drift more than w apart
                covered = set()
                for win in wins:
                    covered.update(range(win.start, win.end))
                assert covered == set(range(n))


class TestPositiveWindow:
    def test_centered_without_jitter(self):
        cfg = WindowingConfig(num_windows=16, jitter=0)
        win = positive_window(PnrAnnotation(120), clip_of(240), cfg, seed=0)
        assert (win.start, win.end) == (104, 136)

    def test_clamped_at_clip_start(self):
        cfg = WindowingConfig(num_windows=16, jitter=0)
        win = positive_window(PnrAnnotation(3), clip_of(240), cfg, seed=0)
        assert (win.start, win.end) == (0, 32)

    def test_clamped_at_clip_end(self):
        cfg = WindowingConfig(num_windows=16, jitter=0)
        win = positive_window(PnrAnnotation(237), clip_of(240), cfg, seed=0)
        assert (win.start, win.end) == (208, 240)

    def test_deterministic_per_seed(self):
        cfg = WindowingConfig(num_windows=16, jitter=8)
        ann = PnrAnnotation(120)
        assert positive_window(ann, clip_of(240), cfg, seed=3) == positive_window(
            ann, clip_of(240), cfg, seed=3
        )

    def test_too_short(self):
        with pytest.raises(ClipTooShortError):
            positive_window(PnrAnnotation(3), clip_of(16), WindowingConfig(num_windows=4), 0)

    def test_positive_outside_clip(self):
        with pytest.raises(ValidationError):
            positive_window(PnrAnnotation(500), clip_of(240), WindowingConfig(num_windows=4), 0)

    @given(
        st.integers(min_value=32, max_value=2000),
        st.data(),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_always_contains_positive_and_fits(self, n, data, jitter, seed):
        p = data.draw(st.integers(min_value=0, max_value=n - 1))
        cfg = WindowingConfig(num_windows=16, jitter=jitter)
        win = positive_window(PnrAnnotation(p), clip_of(n), cfg, seed)
        assert win.end - win.start == 32
        assert win.start <= p < win.end
        assert 0 <= win.start and win.end <= n


class TestNegativeWindows:
    def test_valid_start_set_around_one_frame(self):
        # windows of 32 frames containing frame 100 start in [69, 100]
        valid = valid_negative_starts(
            PnrAnnotation(100), clip_of(240), WindowingConfig(num_windows=16)
        )
        assert list(valid) == list(range(0, 69)) + list(range(101, 209))

    def test_draws_avoid_all_annotated_frames(self):
        ann = PnrAnnotation(100, (30, 200))
        cfg = WindowingConfig(num_windows=16)
        wins = negative_windows(ann, clip_of(240), cfg, seed=11, count=64)
        assert len(wins) == 64
        for win in wins:
            assert win.end - win.start == 32 and win.end <= 240
            for frame in ann.all_frames:
                assert not win.start <= frame < win.end

    def test_empty_negative_space(self):
        # a single-window clip with any annotation leaves nowhere to sample
        with pytest.raises(NegativeSpaceEmpty):
            negative_windows(PnrAnnotation(10), clip_of(32), WindowingConfig(num_windows=4), 0, 4)

    def test_zero_count(self):
        wins = negative_windows(
            PnrAnnotation(100), clip_of(240), WindowingConfig(num_windows=4), 0, 0
        )
        assert wins == ()

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            negative_windows(
                PnrAnnotation(100), clip_of(240), WindowingConfig(num_windows=4), 0, -1
            )

    def test_deterministic_per_seed(self):
        ann = PnrAnnotation(100)
        cfg = WindowingConfig(num_windows=4)
        a = negative_windows(ann, clip_of(240), cfg, seed=9, count=16)
        b = negative_windows(ann, clip_of(240), cfg, seed=9, count=16)
        assert a == b

    @given(
        st.integers(min_value=1, max_value=48),
        st.data(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_exclusion_property(self, w, data, seed):
        n = data.draw(st.one_of(st.just(w), st.integers(min_value=w, max_value=1000)))
        # frames in the last w - 1 frames are those whose windows the last
        # start, n - w, clips
        frames = st.one_of(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=min(n - w + 1, n - 1), max_value=n - 1),
        )
        p = data.draw(frames)
        others = [f for f in data.draw(st.lists(frames, max_size=4, unique=True)) if f != p]
        ann = PnrAnnotation(p, tuple(others))
        cfg = WindowingConfig(num_windows=16, window_len=w)
        assert list(valid_negative_starts(ann, clip_of(n), cfg)) == [
            s for s in range(n - w + 1)
            if not any(s <= f < s + w for f in ann.all_frames)
        ]
        try:
            wins = negative_windows(ann, clip_of(n), cfg, seed, count=8)
        except NegativeSpaceEmpty:
            # verify the claim: every possible start must hit some frame
            starts = valid_negative_starts(ann, clip_of(n), cfg)
            assert len(starts) == 0
            return
        for win in wins:
            assert all(not win.start <= f < win.end for f in ann.all_frames)


class TestSeeds:
    ANN = PnrAnnotation(100, (40, 180))
    CFG = WindowingConfig(num_windows=4, window_len=32, jitter=8)

    # fixed-seed draws, pinned so that a change to the draws, in pnrkit or
    # in a Python release's random module, fails here instead of drifting
    def test_train_mode_draws_are_pinned(self):
        cfg = SamplerConfig(num_segments=8, mode="train-random", seed=3)
        assert tsn_sample(clip_of(240), cfg) == (27, 44, 78, 98, 142, 157, 181, 233)
        starts = [positive_window(self.ANN, clip_of(240), self.CFG, seed).start for seed in range(4)]
        assert starts == [87, 91, 86, 90]
        wins = negative_windows(self.ANN, clip_of(240), self.CFG, seed=5, count=6)
        assert [win.start for win in wins] == [103, 184, 122, 207, 7, 57]

    def test_valid_starts_are_plain_ints(self):
        starts = valid_negative_starts(self.ANN, clip_of(240), self.CFG)
        assert all(type(s) is int for s in starts)
        ranges = (range(0, 9), range(41, 69), range(101, 149), range(181, 209))
        assert starts == tuple(s for r in ranges for s in r)

    # True is an int to isinstance, but it would seed the stream of the text "True"
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, False])
    def test_bad_seed_rejected_even_without_a_draw(self, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        train = SamplerConfig(num_segments=8, mode="train-random", seed=seed)
        still = WindowingConfig(num_windows=4, jitter=0)
        with pytest.raises(DomainError, match=re.escape(message)):
            tsn_sample(clip_of(240), train)
        for cfg in (self.CFG, still):
            with pytest.raises(DomainError, match=re.escape(message)):
                positive_window(self.ANN, clip_of(240), cfg, seed)
        for count in (6, 0):
            with pytest.raises(DomainError, match=re.escape(message)):
                negative_windows(self.ANN, clip_of(240), self.CFG, seed, count)
