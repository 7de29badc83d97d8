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
from operator import itemgetter

from pnrkit.errors import BoundsError, DomainError, ValidationError

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


def ensure_range(name: str, value: float, low: float, high: float = math.inf) -> None:
    """Raise DomainError unless value is finite and in [low, high]; NaN fails."""
    if not low <= value <= high:
        if high == math.inf:
            raise DomainError(f"{name} must be >= {low}, got {value}")
        raise DomainError(f"{name} must be in [{low}, {high}], got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {value}")


def ensure_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is positive and finite."""
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Clip:
    """A video clip identified by id, frame rate, and frame count."""

    clip_id: str
    fps: float
    num_frames: int

    def __post_init__(self):
        if not self.clip_id:
            raise ValidationError("clip_id must be a non-empty string")
        ensure_positive("fps", self.fps)
        ensure_range("num_frames", self.num_frames, 1)

    @property
    def duration_sec(self) -> float:
        return self.num_frames / self.fps


@dataclass(frozen=True)
class PnrAnnotation:
    """Ground-truth state-change frames for one clip.

    The annotation does not name its clip: annotations live in maps
    keyed by clip id, like every other per-clip value.

    ``positive_frame`` is the frame scored by localization.  Additional
    state-change frames, when present, are excluded from negative window
    sampling but are never evaluation targets.
    """

    positive_frame: int
    negative_frames: tuple[int, ...] = ()

    def __post_init__(self):
        ensure_range("positive_frame", self.positive_frame, 0)
        for frame in self.negative_frames:
            ensure_range("negative_frames", frame, 0)
        if self.positive_frame in self.negative_frames:
            raise ValidationError(
                f"positive frame {self.positive_frame} repeated in negative_frames"
            )
        if len(set(self.negative_frames)) != len(self.negative_frames):
            raise ValidationError("duplicate negative frames")

    @property
    def all_frames(self) -> tuple[int, ...]:
        """Every annotated state-change frame, positive first."""
        return (self.positive_frame, *self.negative_frames)


class FrameWindow(tuple):
    """A half-open frame range [start, end) within one clip.

    The window does not name its clip: the clip is the key its series
    is stored under, or the sampler call it comes from.  It is the
    immutable tuple ``(start, end)``, so it equals, hashes, sorts and
    unpacks as that tuple; its frame count is ``end - start``.
    """

    __slots__ = ()
    _fields = ("start", "end")

    def __new__(cls, start: int, end: int):
        if not 0 <= start < end < math.inf:
            _refuse_window(start, end)
        return tuple.__new__(cls, (start, end))

    start = property(itemgetter(0), doc="First frame of the window.")
    end = property(itemgetter(1), doc="Frame just past the window.")

    def __getnewargs__(self) -> tuple:
        # tuple's own passes the fields as one tuple, which __new__ refuses
        return self[:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def contains(self, frame: int) -> bool:
        return self[0] <= frame < self[1]


class ScoredWindow(FrameWindow):
    """A window with a scorer confidence in [0, 1]: the tuple
    ``(start, end, confidence)``."""

    __slots__ = ()
    _fields = ("start", "end", "confidence")

    def __new__(cls, start: int, end: int, confidence: float):
        if not (0 <= start < end < math.inf and 0.0 <= confidence <= 1.0):
            _refuse_window(start, end)
            raise DomainError(f"confidence must be in [0, 1], got {confidence}")
        return tuple.__new__(cls, (start, end, confidence))

    confidence = property(itemgetter(2), doc="The scorer's confidence.")


def _refuse_window(start: int, end: int) -> None:
    # the constructors test all bounds in one chained comparison, which NaN
    # fails; this names the first that fails, and returns if none does
    if not start >= 0:
        raise DomainError(f"window start must be >= 0, got {start}")
    if not end > start:
        raise DomainError(f"window [{start}, {end}) is empty or inverted")
    if end == math.inf:
        raise DomainError(f"window end must be finite, got {end}")


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
    source: str = field(compare=False, default="selected")

    def __post_init__(self):
        ensure_range("time_sec", self.time_sec, 0)
        ensure_range("frame", self.frame, 0)
        if self.source not in SOURCES:
            raise ValidationError(f"unknown prediction source {self.source!r}")


def frame_to_fraction(frame: int, num_frames: int) -> float:
    """Map a frame index to its fractional position in the clip.

    A single-frame clip puts its only frame at fraction 0.0.
    """
    ensure_range("num_frames", num_frames, 1)
    if not 0 <= frame < num_frames:
        raise BoundsError(f"frame {frame} outside clip of {num_frames} frames")
    if num_frames == 1:
        return 0.0
    return frame / (num_frames - 1)


def fraction_to_frame(fraction: float, num_frames: int) -> int:
    """Map a fraction in [0, 1] to the nearest frame index (.5 rounds up)."""
    ensure_range("num_frames", num_frames, 1)
    ensure_range("fraction", fraction, 0, 1)
    return round_half_up(fraction * (num_frames - 1))


def ensure_window_in_clip(window: FrameWindow, clip: Clip) -> None:
    if window[1] > clip.num_frames:
        raise BoundsError(
            f"window [{window[0]}, {window[1]}) exceeds clip "
            f"{clip.clip_id!r} of {clip.num_frames} frames"
        )


def ensure_annotation_in_clip(annotation: PnrAnnotation, clip: Clip) -> None:
    """Every annotated frame lies inside the clip."""
    for frame in annotation.all_frames:
        if frame >= clip.num_frames:
            raise BoundsError(
                f"clip {clip.clip_id!r}: annotated frame {frame} outside "
                f"{clip.num_frames}-frame clip"
            )


def window_center_frame(window: FrameWindow) -> float:
    """Center of a window in frame units: start + (end - start - 1) / 2."""
    start = window[0]
    return start + (window[1] - start - 1) / 2


def window_center_time(window: FrameWindow, fps: float) -> float:
    """Center of a window in seconds."""
    ensure_positive("fps", fps)
    return window_center_frame(window) / fps


def window_center_fraction(window: FrameWindow, num_frames: int) -> float:
    """Fractional position of a window center within an n-frame clip."""
    # inline, as in FrameWindow: selection calls this once per candidate
    if not num_frames >= 1:
        raise DomainError(f"num_frames must be >= 1, got {num_frames}")
    if num_frames == 1:
        return 0.0
    return window_center_frame(window) / (num_frames - 1)
