"""Seeded inputs for the localize-eval and fuse-16x32 workloads.

The generator follows the data model pnrkit documents for its simulator:
clips of 5-8 s at 30 fps, the positive state-change frame at a
truncated-normal fraction around 0.43, Poisson(2.48) extra state-change
frames, the dense sweep ``round_half_up(k (n - w) / (N - 1))`` of 32-frame
windows, and Beta(9, 2) confidences for windows that contain an annotated
frame against Beta(2, 9) for the rest.  It draws from its own numpy
stream, so a change to ``pnrkit.sim``'s draws leaves these inputs
byte-identical.  The program under test only ever sees the files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

FPS = 30.0
WINDOW_LEN = 32
DURATION_SEC = (5.0, 8.0)
POSITIVE_MEAN = 0.43
POSITIVE_SD = 0.12
EXTRA_LAMBDA = 2.48
HIT_BETA = (9.0, 2.0)
MISS_BETA = (2.0, 9.0)
OSCC_FLIP_PROB = 0.1

# A window is (start, end, confidence); a series is one scorer's windows
# for one clip, in sweep order.
Window = tuple[int, int, float]


@dataclass(frozen=True)
class ClipTruth:
    clip_id: str
    num_frames: int
    positive: int
    others: tuple[int, ...]
    state_change: bool


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def dense_starts(num_frames: int, count: int, window_len: int = WINDOW_LEN) -> list[int]:
    if count == 1:
        return [0]
    span = num_frames - window_len
    return [round_half_up(k * span / (count - 1)) for k in range(count)]


def gen_clips(rng: np.random.Generator, n_clips: int) -> list[ClipTruth]:
    durations = rng.uniform(*DURATION_SEC, n_clips)
    fractions = rng.normal(POSITIVE_MEAN, POSITIVE_SD, n_clips)
    outside = (fractions < 0.0) | (fractions > 1.0)
    while outside.any():
        fractions[outside] = rng.normal(POSITIVE_MEAN, POSITIVE_SD, int(outside.sum()))
        outside = (fractions < 0.0) | (fractions > 1.0)
    extra_counts = rng.poisson(EXTRA_LAMBDA, n_clips).tolist()
    labels = (rng.random(n_clips) < 0.5).tolist()
    durations, fractions = durations.tolist(), fractions.tolist()

    clips = []
    for i in range(n_clips):
        num_frames = round_half_up(durations[i] * FPS)
        positive = round_half_up(fractions[i] * (num_frames - 1))
        taken = {positive}
        others: list[int] = []
        while len(others) < extra_counts[i]:
            frame = round_half_up(float(rng.uniform()) * (num_frames - 1))
            if frame not in taken:
                taken.add(frame)
                others.append(frame)
        clips.append(
            ClipTruth(f"clip{i:06d}", num_frames, positive, tuple(others), labels[i])
        )
    return clips


def gen_series(
    rng: np.random.Generator, clips: list[ClipTruth], num_windows: int
) -> dict[str, list[Window]]:
    """One scorer's dense-sweep confidences for every clip."""
    geometry = []
    hits = []
    for clip in clips:
        frames = (clip.positive, *clip.others)
        for start in dense_starts(clip.num_frames, num_windows):
            end = start + WINDOW_LEN
            geometry.append((clip.clip_id, start, end))
            hits.append(any(start <= f < end for f in frames))
    hit = np.array(hits)
    conf = np.empty(len(hits))
    conf[hit] = rng.beta(*HIT_BETA, int(hit.sum()))
    conf[~hit] = rng.beta(*MISS_BETA, int((~hit).sum()))
    series: dict[str, list[Window]] = {clip.clip_id: [] for clip in clips}
    for (clip_id, start, end), c in zip(geometry, conf.tolist()):
        series[clip_id].append((start, end, c))
    return series


def gen_oscc(rng: np.random.Generator, clips: list[ClipTruth]) -> dict[str, float]:
    """One classifier's state-change probability per clip."""
    flips = rng.random(len(clips)) < OSCC_FLIP_PROB
    halves = rng.uniform(0.0, 0.5, len(clips)).tolist()
    return {
        clip.clip_id: 0.5 + half if clip.state_change != flip else half
        for clip, flip, half in zip(clips, flips.tolist(), halves)
    }


def annotation_lines(clips: list[ClipTruth]) -> list[str]:
    lines = []
    for clip in clips:
        rec: dict = {
            "clip_id": clip.clip_id,
            "fps": FPS,
            "num_frames": clip.num_frames,
            "state_change": clip.state_change,
            "pnr_frame": clip.positive,
        }
        if clip.others:
            rec["other_pnr_frames"] = list(clip.others)
        lines.append(json.dumps(rec))
    return lines


def score_lines(series: dict[str, list[Window]]) -> list[str]:
    return [
        f'{{"clip_id": "{clip_id}", "start": {s}, "end": {e}, "confidence": {c!r}}}'
        for clip_id, windows in series.items()
        for s, e, c in windows
    ]


def oscc_lines(probs: dict[str, float]) -> list[str]:
    return [f'{{"clip_id": "{clip_id}", "prob": {p!r}}}' for clip_id, p in probs.items()]


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))
