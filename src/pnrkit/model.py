"""Core clip, annotation, and window types plus the fraction coordinate.

Every record type, here and in the other modules, is a ``Record``: an
immutable tuple of its fields, checked in ``__new__``, with the fields
named as read-only attributes.

Positions inside a clip are expressed two ways: as integer frame indices
in [0, num_frames) and as fractions of the clip in [0, 1].  The fraction
of frame i in an n-frame clip is i / (n - 1), so frame 0 maps to 0.0 and
the last frame maps to 1.0.  Windows are half-open frame ranges
[start, end).
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, itemgetter, lt, truediv
from typing import Iterable

from pnrkit.errors import BoundsError, ClipTooShortError, DomainError, ValidationError

SOURCES = (
    "selected",
    "fallback-prior",
    "fallback-argmax",
    "baseline-center",
    "baseline-fraction",
)
_LARGEST = int(math.nextafter(math.inf, 0))  # the largest float, an int to compare ints fast


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 rounding up."""
    return int(math.floor(x + 0.5))


def ensure_range(
    name: str, value: float, low: float, high: float = math.inf, integer: bool = False
) -> None:
    """Raise DomainError unless value is finite and in [low, high]; NaN and a bool fail."""
    if not low <= value <= high or isinstance(value, bool):
        _refuse_bool(name, value)
        if high == math.inf:
            raise DomainError(f"{name} must be >= {low}, got {value}")
        raise DomainError(f"{name} must be in [{low}, {high}], got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {value}")
    if integer and not hasattr(value, "__index__"):  # 9.0 is written "9.0", which int keys refuse
        raise DomainError(f"{name} must be an integer, got {value}")


def ensure_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is positive and finite; a bool fails."""
    if not value > 0 or isinstance(value, bool):
        _refuse_bool(name, value)
        raise DomainError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite, got {value}")


def _refuse_bool(name: str, value: object) -> None:
    # True passes as 1, but is written as true, which no number key reads back
    if isinstance(value, bool):
        raise DomainError(f"{name} must be a number, not {value}")


class Record(tuple):
    """An immutable record: the tuple of its fields, checked when built.

    A record type declares ``__slots__ = ()`` and a ``__new__`` that checks
    its fields and returns ``tuple.__new__(cls, fields)``.  The parameter
    names of that ``__new__`` are its ``_fields``, each a read-only
    attribute over its slot.  A record equals, hashes, sorts and unpacks
    as the plain tuple of its fields; ``len`` is the field count.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))

    def __getnewargs__(self) -> tuple:
        # tuple's own passes the fields as one tuple, which __new__ refuses
        return self[:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes):
        """A copy with the named fields changed, checked again by ``__new__``."""
        return type(self)(**dict(zip(self._fields, self), **changes))

    @classmethod
    def _from_columns(cls, *columns) -> list:
        """The records of columns of their fields, made by tuple.__new__ if the type's _fit
        passes them all (a parser's, which hold no bool), else each by ``__new__``."""
        if not columns[0] or cls._fit(*columns):
            return [*map(tuple.__new__, repeat(cls), zip(*columns))]
        return [*map(cls, *columns)]


class Clip(Record):
    """A video clip identified by id, frame rate, and frame count."""

    __slots__ = ()
    _fit = staticmethod(lambda clip_ids, fps, num_frames: (  # every one passes __new__
        all(clip_ids) and 0 < min(fps) <= max(fps) < math.inf
        and 1 <= min(num_frames) <= max(num_frames) <= _LARGEST
        and max(map(truediv, num_frames, fps)) < math.inf))

    def __new__(cls, clip_id: str, fps: float, num_frames: int):
        if not isinstance(clip_id, str) or not clip_id:
            raise ValidationError("clip_id must be a non-empty string")
        ensure_positive("fps", fps)
        ensure_range("num_frames", num_frames, 1, integer=True)
        try:  # a time in the clip is at most its length, so that must be a float
            duration = num_frames / fps
        except OverflowError:  # an int too large for a float
            duration = math.inf
        ensure_range("duration num_frames / fps", duration, 0)
        return tuple.__new__(cls, (clip_id, fps, num_frames))


class PnrAnnotation(Record):
    """Ground-truth state-change frames for one clip.

    The annotation does not name its clip: annotations live in maps
    keyed by clip id, like every other per-clip value.

    ``positive_frame`` is the frame scored by localization.  Additional
    state-change frames, when present, are excluded from negative window
    sampling but are never evaluation targets.
    """

    __slots__ = ()
    # every one passes __new__: its all_frames are >= 0, and no set of them is smaller
    _fit = staticmethod(lambda positives, negatives: (
        min(map(min, frames := [*map(add, zip(positives), negatives)])) >= 0
        and sum(map(len, map(set, frames))) == sum(map(len, frames))))

    def __new__(cls, positive_frame: int, negative_frames: tuple[int, ...] = ()):
        negative_frames = tuple(negative_frames)  # the caller's list stays the caller's
        ensure_range("positive_frame", positive_frame, 0, integer=True)
        for frame in negative_frames:
            ensure_range("negative_frames", frame, 0, integer=True)
        if positive_frame in negative_frames:
            raise ValidationError(f"positive frame {positive_frame} repeated in negative_frames")
        if len(set(negative_frames)) != len(negative_frames):
            raise ValidationError("duplicate negative frames")
        return tuple.__new__(cls, (positive_frame, negative_frames))

    @property
    def all_frames(self) -> tuple[int, ...]:
        """Every annotated state-change frame, positive first."""
        return (self.positive_frame, *self.negative_frames)


class FrameWindow(Record):
    """A half-open frame range [start, end) within one clip.

    The window does not name its clip: the clip is the key its series
    is stored under, or the sampler call it comes from.  It is the
    tuple ``(start, end)``; its frame count is ``end - start``.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        _check_window(start, end)
        return tuple.__new__(cls, (start, end))


class ScoredWindow(FrameWindow):
    """A window with a scorer confidence in [0, 1]: the tuple
    ``(start, end, confidence)``."""

    __slots__ = ()
    _fit = staticmethod(lambda starts, ends, confidences: (  # every one passes __new__
        min(starts) >= 0 and all(map(lt, starts, ends)) and max(ends) <= _LARGEST
        and 0 <= min(confidences) <= max(confidences) <= 1))

    def __new__(cls, start: int, end: int, confidence: float):
        _check_window(start, end, confidence)
        return tuple.__new__(cls, (start, end, confidence))


def _check_window(start: int, end: int, confidence: float = 0.0) -> None:
    # names a window's first fault; NaN fails every test, a bool (0 or 1) is refused
    _refuse_bool("window start", start)
    _refuse_bool("window end", end)
    if not start >= 0:
        raise DomainError(f"window start must be >= 0, got {start}")
    if not end > start:
        raise DomainError(f"window [{start}, {end}) is empty or inverted")
    if not end <= _LARGEST:  # an int past the floats, whose center no float holds
        raise DomainError(f"window end must be finite, got {end}")
    for name, value in ("window start", start), ("window end", end):
        if not hasattr(value, "__index__"):
            raise DomainError(f"{name} must be an integer, got {value}")
    ensure_range("confidence", confidence, 0, 1)


class ScoreSeries(Record):
    """All scored windows one scorer produced for one clip.

    The series does not name its clip: series live in maps keyed by
    clip id, like every other per-clip value.  It holds ScoredWindow
    records only, so each window the emitter writes parses back.
    """

    __slots__ = ()

    def __new__(cls, windows: Iterable[ScoredWindow] = ()):
        windows = tuple(windows)  # the caller's list stays the caller's
        if not {*map(type, windows)} <= {ScoredWindow}:
            bad = next(w for w in windows if type(w) is not ScoredWindow)
            raise ValidationError(f"a series holds ScoredWindow records, got {bad!r}")
        return tuple.__new__(cls, (windows,))


class PnrPrediction(Record):
    """A single predicted state-change instant for one clip."""

    __slots__ = ()
    _fit = staticmethod(lambda times, frames, sources: (  # every one passes __new__
        0 <= min(times) <= max(times) < math.inf and min(frames) >= 0 and {*sources} <= {*SOURCES}))

    def __new__(cls, time_sec: float, frame: int, source: str = "selected"):
        ensure_range("time_sec", time_sec, 0)
        ensure_range("frame", frame, 0, integer=True)
        if source not in SOURCES:
            raise ValidationError(f"unknown prediction source {source!r}")
        return tuple.__new__(cls, (time_sec, frame, source))


def fraction_to_frame(fraction: float, num_frames: int) -> int:
    """Map a fraction in [0, 1] to the nearest frame index (.5 rounds up)."""
    ensure_range("num_frames", num_frames, 1)
    ensure_range("fraction", fraction, 0, 1)
    return round_half_up(fraction * (num_frames - 1))


def ensure_windows_in_clip(windows: Iterable[FrameWindow], clip: Clip) -> None:
    """Every window ends inside the clip; the first that does not is named."""
    num_frames = clip.num_frames  # read once: this runs once per window
    for window in windows:
        if window[1] > num_frames:
            raise BoundsError(
                f"window [{window[0]}, {window[1]}) exceeds clip "
                f"{clip.clip_id!r} of {num_frames} frames"
            )


def ensure_prediction_in_clip(prediction: PnrPrediction, clip: Clip) -> None:
    """The predicted frame lies inside the clip, and its time at most the clip's length."""
    (time_sec, frame, _), (clip_id, fps, num_frames) = prediction, clip
    if frame >= num_frames or time_sec > num_frames / fps:
        raise BoundsError(
            f"clip {clip_id!r}: prediction at frame {frame}, {time_sec} s, is outside the "
            f"clip's {num_frames} frames, {num_frames / fps} s"
        )


def ensure_annotation_in_clip(annotation: PnrAnnotation, clip: Clip) -> None:
    """Every annotated frame lies inside the clip."""
    num_frames = clip.num_frames
    for frame in annotation.all_frames:
        if frame >= num_frames:
            raise BoundsError(
                f"clip {clip.clip_id!r}: annotated frame {frame} outside {num_frames}-frame clip"
            )


def _check_fits(clip: Clip, window_len: int) -> None:
    if clip.num_frames < window_len:
        raise ClipTooShortError(
            f"clip {clip.clip_id!r} has {clip.num_frames} frames, needs at least {window_len}"
        )


def _sweep_start(k: int, count: int, span: int) -> int:
    """round_half_up(k span / (count - 1)) in integers, so none passes span; 0 if count is 1."""
    return (2 * k * span + count - 1) // (2 * count - 2 or 1)


def _mean_error(errors: Iterable[float], count: int) -> float:
    """fsum(errors) / count; a sum past the largest float is refused."""
    try:  # no partial sum of errors >= 0 passes their total; a term may be inf
        if (total := math.fsum(errors)) < math.inf:
            return total / count
    except OverflowError:
        pass
    raise BoundsError("the localization errors sum past the largest float")


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
    # inline: selection calls this once per candidate
    if not num_frames >= 1:
        raise DomainError(f"num_frames must be >= 1, got {num_frames}")
    if num_frames == 1:
        return 0.0
    return window_center_frame(window) / (num_frames - 1)
