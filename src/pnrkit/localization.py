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

from dataclasses import dataclass

from pnrkit.errors import FALLBACKS, DomainError, EmptyInputError, ValidationError
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ScoreSeries,
    ensure_annotation_in_clip,
    ensure_window_in_clip,
    fraction_to_frame,
    round_half_up,
    window_center_fraction,
    window_center_frame,
)
from pnrkit.sampling import WindowingConfig, dense_windows


@dataclass(frozen=True)
class SelectionConfig:
    """Selection rule settings: threshold, prior fraction, fallback."""

    threshold: float = 0.7
    prior_fraction: float = 0.43
    fallback: str = "prior-point"

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold must be in [0, 1], got {self.threshold}")
        if not 0.0 <= self.prior_fraction <= 1.0:
            raise DomainError(
                f"prior_fraction must be in [0, 1], got {self.prior_fraction}"
            )
        if self.fallback not in FALLBACKS:
            raise ValidationError(
                f"fallback must be one of {FALLBACKS}, got {self.fallback!r}"
            )


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
    for sw in series.windows:
        ensure_window_in_clip(sw, clip)

    candidates = [sw for sw in series.windows if sw.confidence > config.threshold]
    if candidates:
        chosen = min(
            candidates,
            key=lambda sw: (
                abs(window_center_fraction(sw, clip.num_frames) - config.prior_fraction),
                sw.start,
                sw.end,
            ),
        )
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
    annotation: PnrAnnotation, clip: Clip, config: WindowingConfig
) -> float:
    """Best achievable center error over the clip's dense window sweep.

    Returns min over the N dense windows of |center time - truth time|,
    the floor for any selector restricted to those window centers.
    """
    ensure_annotation_in_clip(annotation, clip)
    truth = annotation.positive_frame / clip.fps
    return min(
        abs(window_center_frame(win) / clip.fps - truth)
        for win in dense_windows(clip, config)
    )


def score_dense_windows(
    clip: Clip, config: WindowingConfig, confidences: list[float]
) -> ScoreSeries:
    """Pair a dense sweep with externally produced confidences."""
    windows = dense_windows(clip, config)
    if len(confidences) != len(windows):
        raise ValidationError(
            f"clip {clip.clip_id!r}: {len(confidences)} confidences for "
            f"{len(windows)} windows"
        )
    return ScoreSeries(
        tuple(ScoredWindow(win.start, win.end, c) for win, c in zip(windows, confidences))
    )
