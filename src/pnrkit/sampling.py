"""Frame and window samplers.

Two families live here.  Segment sampling picks M representative frame
indices per clip for whole-clip classification.  Window sampling
produces fixed-length half-open frame windows [start, start + w) for
localization: a dense evenly spaced sweep for inference, and
positive/negative draws around annotated state-change frames for
training.

Every draw comes from a ``random.Random`` stream keyed by the caller's
seed, so one seed always gives the same frames and windows.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from pnrkit.errors import DomainError, NegativeSpaceEmpty, ValidationError
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    Record,
    _check_fits,
    _sweep_start,
    ensure_annotation_in_clip,
    ensure_range,
)

SAMPLER_MODES = ("train-random", "test-uniform")


class SamplerConfig(Record):
    """Segment sampler settings: M segments, mode, and RNG seed."""

    __slots__ = ()

    def __new__(cls, num_segments: int, mode: str = "test-uniform", seed: int = 0):
        ensure_range("num_segments", num_segments, 1)
        if mode not in SAMPLER_MODES:
            raise ValidationError(f"mode must be one of {SAMPLER_MODES}, got {mode!r}")
        return tuple.__new__(cls, (num_segments, mode, seed))


class WindowingConfig(Record):
    """Window sweep settings: N windows of w frames, train jitter j."""

    __slots__ = ()

    def __new__(cls, num_windows: int, window_len: int = 32, jitter: int = 8):
        ensure_range("num_windows", num_windows, 1)
        ensure_range("window_len", window_len, 1)
        ensure_range("jitter", jitter, 0)
        return tuple.__new__(cls, (num_windows, window_len, jitter))


def _rng(seed: int, *key: int) -> random.Random:
    """The stream of a seed, or of (seed, *key) for a substream of it."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:  # True is an int
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    # a str seeds through sha512, so neighbouring keys give unrelated streams
    return random.Random(" ".join(map(str, (seed, *key))))


def _segment_bounds(num_frames: int, num_segments: int) -> list[tuple[int, int]]:
    return [
        (k * num_frames // num_segments, (k + 1) * num_frames // num_segments)
        for k in range(num_segments)
    ]


def tsn_sample(clip: Clip, config: SamplerConfig) -> tuple[int, ...]:
    """Pick one frame index per segment of an M-way clip split.

    Segment k spans [floor(k n / M), floor((k+1) n / M)).  Test mode
    takes the segment center floor((lo + hi - 1) / 2); train mode draws
    uniformly inside the segment, seeded per config.  A segment left
    empty by M > n falls back to max(lo - 1, 0), so output length is
    always M and indices are always valid and non-decreasing.
    """
    n = clip.num_frames
    bounds = _segment_bounds(n, config.num_segments)
    if config.mode == "train-random":
        rng = _rng(config.seed)
        picks = [rng.randrange(lo, hi) if hi > lo else max(lo - 1, 0) for lo, hi in bounds]
    else:
        picks = [(lo + hi - 1) // 2 if hi > lo else max(lo - 1, 0) for lo, hi in bounds]
    return tuple(picks)


def _sweep_starts(clip: Clip, config: WindowingConfig) -> list[int]:
    n, w, count = clip.num_frames, config.window_len, config.num_windows
    _check_fits(clip, w)
    return [_sweep_start(k, count, n - w) for k in range(count)]


def _held_starts(frames: Iterable[int], starts: Sequence[int], window_len: int) -> set[int]:
    """Those of the ascending starts whose window of window_len frames
    holds any of frames, found by two binary searches a frame, so the
    cost does not grow with the window length."""
    # a window [s, s + w) holds frame f iff s in [f - w + 1, f]
    held: set[int] = set()
    for f in frames:
        lo, hi = bisect_left(starts, f - window_len + 1), bisect_right(starts, f)
        held.update(starts[lo:hi])
    return held


def dense_windows(clip: Clip, config: WindowingConfig) -> tuple[FrameWindow, ...]:
    """Sweep N windows of w frames evenly across the clip.

    Starts are round(k (n - w) / (N - 1)) with .5 rounding up, so the
    first window is anchored at 0 and the last at n - w.  N = 1 yields
    just [0, w).  When n - w < N - 1 some windows repeat.  Raises
    ClipTooShortError when n < w.
    """
    w = config.window_len
    return tuple(FrameWindow(s, s + w) for s in _sweep_starts(clip, config))


def positive_window(
    annotation: PnrAnnotation, clip: Clip, config: WindowingConfig, seed: int
) -> FrameWindow:
    """Draw one training window guaranteed to contain the positive frame.

    The window starts at positive - w // 2 plus a uniform jitter in
    [-j, +j], then is clamped to [max(0, positive - w + 1),
    min(n - w, positive)] so it stays in bounds and keeps containment.
    """
    rng = _rng(seed)
    n, w = clip.num_frames, config.window_len
    _check_fits(clip, w)
    ensure_annotation_in_clip(annotation, clip)
    p = annotation.positive_frame
    start = p - w // 2
    if config.jitter > 0:
        start += rng.randint(-config.jitter, config.jitter)
    start = max(start, p - w + 1, 0)
    start = min(start, p, n - w)
    return FrameWindow(start, start + w)


def valid_negative_starts(
    annotation: PnrAnnotation, clip: Clip, config: WindowingConfig
) -> tuple[int, ...]:
    """All window starts whose window avoids every annotated frame, ascending."""
    n, w = clip.num_frames, config.window_len
    _check_fits(clip, w)
    ensure_annotation_in_clip(annotation, clip)
    starts = range(n - w + 1)
    held = _held_starts(annotation.all_frames, starts, w)
    return tuple(s for s in starts if s not in held)


def negative_windows(
    annotation: PnrAnnotation,
    clip: Clip,
    config: WindowingConfig,
    seed: int,
    count: int,
) -> tuple[FrameWindow, ...]:
    """Draw training windows that contain no annotated frame at all.

    Starts are drawn uniformly with replacement from the valid set, so
    windows may repeat.  Raises NegativeSpaceEmpty when annotations
    leave no valid start.
    """
    ensure_range("count", count, 0)
    rng = _rng(seed)
    valid = valid_negative_starts(annotation, clip, config)
    if not valid:
        raise NegativeSpaceEmpty(
            f"clip {clip.clip_id!r}: no {config.window_len}-frame window avoids "
            f"all {len(annotation.all_frames)} annotated frames"
        )
    if count == 0:
        return ()
    w = config.window_len
    return tuple(FrameWindow(s, s + w) for s in rng.choices(valid, k=count))
