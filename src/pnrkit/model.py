"""Core clip, annotation, and window types plus the fraction coordinate.

Positions inside a clip are expressed two ways: as integer frame indices
in [0, num_frames) and as fractions of the clip in [0, 1].  The fraction
of frame i in an n-frame clip is i / (n - 1), so frame 0 maps to 0.0 and
the last frame maps to 1.0.  Windows are half-open frame ranges
[start, end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from pnrkit.errors import BoundsError, DomainError, ValidationError

PredictionSource = str

SOURCES = (
    "selected",
    "fallback-prior",
    "fallback-argmax",
    "baseline-center",
    "baseline-fraction",
)


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 rounding up."""
    return int(math.floor(x + 0.5))


def ensure_fps(fps: float) -> None:
    """Raise DomainError unless fps is positive and finite."""
    if not fps > 0:
        raise DomainError(f"fps must be positive, got {fps}")
    if fps == math.inf:
        raise DomainError(f"fps must be finite, got {fps}")


@dataclass(frozen=True)
class Clip:
    """A video clip identified by id, frame rate, and frame count."""

    clip_id: str
    fps: float
    num_frames: int

    def __post_init__(self):
        if not self.clip_id:
            raise ValidationError("clip_id must be a non-empty string")
        ensure_fps(self.fps)
        if self.num_frames < 1:
            raise DomainError(f"num_frames must be >= 1, got {self.num_frames}")

    @property
    def duration_sec(self) -> float:
        return self.num_frames / self.fps


@dataclass(frozen=True)
class PnrAnnotation:
    """Ground-truth state-change frames for one clip.

    ``positive_frame`` is the frame scored by localization.  Additional
    state-change frames, when present, are excluded from negative window
    sampling but are never evaluation targets.
    """

    clip_id: str
    positive_frame: int
    negative_frames: tuple[int, ...] = ()

    def __post_init__(self):
        if self.positive_frame < 0:
            raise DomainError(f"positive_frame must be >= 0, got {self.positive_frame}")
        if any(f < 0 for f in self.negative_frames):
            raise DomainError("negative_frames must all be >= 0")
        if self.positive_frame in self.negative_frames:
            raise ValidationError(
                f"clip {self.clip_id!r}: positive frame {self.positive_frame} "
                "repeated in negative_frames"
            )
        if len(set(self.negative_frames)) != len(self.negative_frames):
            raise ValidationError(f"clip {self.clip_id!r}: duplicate negative frames")

    @property
    def all_frames(self) -> tuple[int, ...]:
        """Every annotated state-change frame, positive first."""
        return (self.positive_frame, *self.negative_frames)


@dataclass(frozen=True, slots=True)
class FrameWindow:
    """A half-open frame range [start, end) within one clip.

    The window does not name its clip: the clip is the key its series
    is stored under, or the sampler call it comes from.
    """

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise DomainError(f"window start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise DomainError(f"window [{self.start}, {self.end}) is empty or inverted")

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, frame: int) -> bool:
        return self.start <= frame < self.end


@dataclass(frozen=True, slots=True)
class ScoredWindow(FrameWindow):
    """A window with a scorer confidence in [0, 1]."""

    confidence: float

    def __post_init__(self):
        # slots=True builds a new class, which zero-argument super() misses
        FrameWindow.__post_init__(self)
        if not 0.0 <= self.confidence <= 1.0:
            raise DomainError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class ScoreSeries:
    """All scored windows one scorer produced for one clip.

    The series does not name its clip: series live in maps keyed by
    clip id, like every other per-clip value.
    """

    windows: tuple[ScoredWindow, ...] = ()


@dataclass(frozen=True)
class PnrPrediction:
    """A single predicted state-change instant for one clip."""

    time_sec: float
    frame: int
    source: PredictionSource = field(compare=False, default="selected")

    def __post_init__(self):
        if self.time_sec < 0:
            raise DomainError(f"time_sec must be >= 0, got {self.time_sec}")
        if self.frame < 0:
            raise DomainError(f"frame must be >= 0, got {self.frame}")
        if self.source not in SOURCES:
            raise ValidationError(f"unknown prediction source {self.source!r}")


def frame_to_fraction(frame: int, num_frames: int) -> float:
    """Map a frame index to its fractional position in the clip.

    A single-frame clip puts its only frame at fraction 0.0.
    """
    if num_frames < 1:
        raise DomainError(f"num_frames must be >= 1, got {num_frames}")
    if not 0 <= frame < num_frames:
        raise BoundsError(f"frame {frame} outside clip of {num_frames} frames")
    if num_frames == 1:
        return 0.0
    return frame / (num_frames - 1)


def fraction_to_frame(fraction: float, num_frames: int) -> int:
    """Map a fraction in [0, 1] to the nearest frame index (.5 rounds up)."""
    if num_frames < 1:
        raise DomainError(f"num_frames must be >= 1, got {num_frames}")
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must be in [0, 1], got {fraction}")
    return round_half_up(fraction * (num_frames - 1))


def ensure_window_in_clip(window: FrameWindow, clip: Clip) -> None:
    if window.end > clip.num_frames:
        raise BoundsError(
            f"window [{window.start}, {window.end}) exceeds clip "
            f"{clip.clip_id!r} of {clip.num_frames} frames"
        )


def ensure_annotation_in_clip(annotation: PnrAnnotation, clip: Clip) -> None:
    """The annotation is for this clip and every annotated frame lies inside it."""
    if annotation.clip_id != clip.clip_id:
        raise ValidationError(f"annotation is for clip {annotation.clip_id!r}, not {clip.clip_id!r}")
    for frame in annotation.all_frames:
        if frame >= clip.num_frames:
            raise BoundsError(
                f"clip {annotation.clip_id!r}: annotated frame {frame} outside "
                f"{clip.num_frames}-frame clip"
            )


def window_center_frame(window: FrameWindow) -> float:
    """Center of a window in frame units: start + (len - 1) / 2."""
    return window.start + (len(window) - 1) / 2


def window_center_time(window: FrameWindow, fps: float) -> float:
    """Center of a window in seconds."""
    ensure_fps(fps)
    return window_center_frame(window) / fps


def window_center_fraction(window: FrameWindow, num_frames: int) -> float:
    """Fractional position of a window center within an n-frame clip."""
    if num_frames < 1:
        raise DomainError(f"num_frames must be >= 1, got {num_frames}")
    if num_frames == 1:
        return 0.0
    return window_center_frame(window) / (num_frames - 1)
