"""Frame and window samplers.

Two families live here.  Segment sampling picks M representative frame
indices per clip for whole-clip classification.  Window sampling
produces fixed-length half-open frame windows [start, start + w) for
localization: a dense evenly spaced sweep for inference, and
positive/negative draws around annotated state-change frames for
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from pnrkit.errors import ClipTooShortError, DomainError, NegativeSpaceEmpty, ValidationError
from pnrkit.model import Clip, FrameWindow, PnrAnnotation, round_half_up

# numpy is imported inside the functions that draw or build arrays, so
# importing this module (and the CLI) does not load it
if TYPE_CHECKING:
    import numpy as np

SAMPLER_MODES = ("train-random", "test-uniform")


@dataclass(frozen=True)
class SamplerConfig:
    """Segment sampler settings: M segments, mode, and RNG seed."""

    num_segments: int
    mode: str = "test-uniform"
    seed: int = 0

    def __post_init__(self):
        if self.num_segments < 1:
            raise DomainError(f"num_segments must be >= 1, got {self.num_segments}")
        if self.mode not in SAMPLER_MODES:
            raise ValidationError(f"mode must be one of {SAMPLER_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class WindowingConfig:
    """Window sweep settings: N windows of w frames, train jitter j."""

    num_windows: int
    window_len: int = 32
    jitter: int = 8

    def __post_init__(self):
        if self.num_windows < 1:
            raise DomainError(f"num_windows must be >= 1, got {self.num_windows}")
        if self.window_len < 1:
            raise DomainError(f"window_len must be >= 1, got {self.window_len}")
        if self.jitter < 0:
            raise DomainError(f"jitter must be >= 0, got {self.jitter}")


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
        import numpy as np

        rng = np.random.default_rng(config.seed)
        picks = [
            int(rng.integers(lo, hi)) if hi > lo else max(lo - 1, 0) for lo, hi in bounds
        ]
    else:
        picks = [(lo + hi - 1) // 2 if hi > lo else max(lo - 1, 0) for lo, hi in bounds]
    return tuple(picks)


def dense_windows(clip: Clip, config: WindowingConfig) -> tuple[FrameWindow, ...]:
    """Sweep N windows of w frames evenly across the clip.

    Starts are round(k (n - w) / (N - 1)) with .5 rounding up, so the
    first window is anchored at 0 and the last at n - w.  N = 1 yields
    just [0, w).  Raises ClipTooShortError when n < w.
    """
    n, w, count = clip.num_frames, config.window_len, config.num_windows
    if n < w:
        raise ClipTooShortError(
            f"clip {clip.clip_id!r} has {n} frames, needs at least {w}"
        )
    if count == 1:
        starts = [0]
    else:
        span = n - w
        starts = [round_half_up(k * span / (count - 1)) for k in range(count)]
    return tuple(FrameWindow(s, s + w) for s in starts)


def positive_window(
    annotation: PnrAnnotation, clip: Clip, config: WindowingConfig, seed: int
) -> FrameWindow:
    """Draw one training window guaranteed to contain the positive frame.

    The window starts at positive - w // 2 plus a uniform jitter in
    [-j, +j], then is clamped to [max(0, positive - w + 1),
    min(n - w, positive)] so it stays in bounds and keeps containment.
    """
    n, w = clip.num_frames, config.window_len
    if n < w:
        raise ClipTooShortError(
            f"clip {clip.clip_id!r} has {n} frames, needs at least {w}"
        )
    p = annotation.positive_frame
    if p >= n:
        raise ValidationError(
            f"clip {clip.clip_id!r}: positive frame {p} outside {n}-frame clip"
        )
    start = p - w // 2
    if config.jitter > 0:
        import numpy as np

        rng = np.random.default_rng(seed)
        start += int(rng.integers(-config.jitter, config.jitter + 1))
    start = max(start, p - w + 1, 0)
    start = min(start, p, n - w)
    return FrameWindow(start, start + w)


def valid_negative_starts(
    annotation: PnrAnnotation, clip: Clip, config: WindowingConfig
) -> np.ndarray:
    """All window starts whose window avoids every annotated frame."""
    import numpy as np

    n, w = clip.num_frames, config.window_len
    if n < w:
        raise ClipTooShortError(
            f"clip {clip.clip_id!r} has {n} frames, needs at least {w}"
        )
    ok = np.ones(n - w + 1, dtype=bool)
    for frame in annotation.all_frames:
        if frame >= n:
            raise ValidationError(
                f"clip {clip.clip_id!r}: annotated frame {frame} outside {n}-frame clip"
            )
        # a window [s, s + w) contains frame iff s in [frame - w + 1, frame]
        ok[max(frame - w + 1, 0) : min(frame, n - w) + 1] = False
    return np.flatnonzero(ok)


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
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    valid = valid_negative_starts(annotation, clip, config)
    if valid.size == 0:
        raise NegativeSpaceEmpty(
            f"clip {clip.clip_id!r}: no {config.window_len}-frame window avoids "
            f"all {len(annotation.all_frames)} annotated frames"
        )
    if count == 0:
        return ()
    import numpy as np

    rng = np.random.default_rng(seed)
    picks = valid[rng.integers(0, valid.size, size=count)]
    w = config.window_len
    return tuple(FrameWindow(int(s), int(s) + w) for s in picks)
