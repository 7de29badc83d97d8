"""Turning scored windows into a single state-change instant per clip.

The selection rule filters a clip's scored windows to those with
confidence strictly above a threshold, then keeps the candidate whose
center fraction lies nearest a positional prior.  When the filter
removes everything, a configurable fallback answers instead: either the
prior mapped to a frame, or the highest-confidence window.  Center and
fixed-fraction baselines plus a best-case window-center bound live here
too.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import sub

import pnrkit  # its lazy export resolves the WindowingConfig hint, loading sampling only then
from pnrkit.errors import FALLBACKS, EmptyInputError, ValidationError
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    PnrPrediction,
    Record,
    ScoreSeries,
    _check_fits,
    _sweep_start,
    ensure_annotation_in_clip,
    ensure_range,
    ensure_windows_in_clip,
    fraction_to_frame,
    round_half_up,
    window_center_fraction,
    window_center_frame,
)


class SelectionConfig(Record):
    """Selection rule settings: threshold, prior fraction, fallback."""

    __slots__ = ()

    def __new__(
        cls, threshold: float = 0.7, prior_fraction: float = 0.43, fallback: str = "prior-point"
    ):
        ensure_range("threshold", threshold, 0, 1)
        ensure_range("prior_fraction", prior_fraction, 0, 1)
        if fallback not in FALLBACKS:
            raise ValidationError(f"fallback must be one of {FALLBACKS}, got {fallback!r}")
        return tuple.__new__(cls, (threshold, prior_fraction, fallback))


def _window_prediction(window: FrameWindow, fps: float, source: str) -> PnrPrediction:
    center = window_center_frame(window)
    return PnrPrediction(center / fps, round_half_up(center), source)


def _point_prediction(frame: int, fps: float, source: str) -> PnrPrediction:
    return PnrPrediction(frame / fps, frame, source)


def select_pnr(
    series: ScoreSeries, clip: Clip, config: SelectionConfig = SelectionConfig()
) -> PnrPrediction:
    """Pick one state-change instant from a clip's scored windows.

    Keeps windows with confidence strictly above the threshold, then
    predicts the center of the candidate whose center fraction is
    nearest the prior (ties broken toward the earlier window).  With no
    candidate, the fallback answers: "prior-point" maps the prior
    fraction to a frame, "argmax-confidence" takes the center of the
    highest-confidence window (ties toward the earlier window).  The
    result never depends on the order windows arrive in.
    """
    if not series.windows:
        raise EmptyInputError(f"clip {clip.clip_id!r}: no scored windows")
    ensure_windows_in_clip(series.windows, clip)

    # windows are (start, end, confidence) tuples; these run per window,
    # so they index instead of reading the named fields
    threshold = config.threshold
    candidates = [sw for sw in series.windows if sw[2] > threshold]
    if candidates:
        fractions = map(window_center_fraction, candidates, repeat(clip.num_frames))
        distances = map(abs, map(sub, fractions, repeat(config.prior_fraction)))
        # nearest the prior, then the earliest: a window sorts as (start, end, ...)
        _, chosen = min(zip(distances, candidates))
        return _window_prediction(chosen, clip.fps, "selected")

    if config.fallback == "prior-point":
        frame = fraction_to_frame(config.prior_fraction, clip.num_frames)
        return _point_prediction(frame, clip.fps, "fallback-prior")

    chosen = min(
        series.windows,
        key=lambda sw: (-sw.confidence, sw.start, sw.end),
    )
    return _window_prediction(chosen, clip.fps, "fallback-argmax")


def baseline_center(clip: Clip) -> PnrPrediction:
    """Always predict the middle of the clip (fraction 0.5)."""
    frame = fraction_to_frame(0.5, clip.num_frames)
    return _point_prediction(frame, clip.fps, "baseline-center")


def baseline_fraction(clip: Clip, fraction: float) -> PnrPrediction:
    """Always predict a fixed fraction of the clip."""
    frame = fraction_to_frame(fraction, clip.num_frames)
    return _point_prediction(frame, clip.fps, "baseline-fraction")


def oracle_error(
    annotation: PnrAnnotation, clip: Clip, config: pnrkit.WindowingConfig
) -> float:
    """Best achievable center error over the clip's dense window sweep.

    Returns min over the N dense windows of |center time - truth time|,
    the floor for any selector restricted to those window centers.
    """
    ensure_annotation_in_clip(annotation, clip)
    (n, w, _), p, span = config, annotation.positive_frame, clip.num_frames - config.window_len
    _check_fits(clip, w)
    # k: the first start whose center is at or past the truth frame p, so >= p - (w - 1) // 2
    k = bisect_left(range(n), p - (w - 1) // 2, key=lambda j: _sweep_start(j, n, span))
    # a later start's center time is never earlier, also in floats, so the starts
    # k - 1 and k, kept in the sweep, are nearer the truth than any other
    starts = _sweep_start(max(k - 1, 0), n, span), _sweep_start(min(k, n - 1), n, span)
    return min(abs(window_center_frame((s, s + w)) / clip.fps - p / clip.fps) for s in starts)
