"""Score-level fusion across heterogeneous scorers.

Classification probabilities fuse by arithmetic mean.  Window series
fuse on the union of the input window geometries: each series
contributes, at every union point, the confidence of its own window
whose center lies nearest that point's center, and the fused confidence
is the mean of the contributions.  When all series share one geometry
and no series holds two windows with the same center, this reduces to
plain per-window averaging.  Windows of one series that share a center
all contribute the confidence of the first in (start, end) order, so a
longer window can be fused with a shorter one's score.  Fusion is
score-level only; downstream selection runs on the fused series
unchanged.
"""

from __future__ import annotations

import math
from operator import truediv
from typing import Sequence

from pnrkit.errors import EmptyInputError
from pnrkit.model import (
    Clip,
    ScoredWindow,
    ScoreSeries,
    ensure_range,
    ensure_windows_in_clip,
    window_center_frame,
)


def _means(rows: Sequence[Sequence[float]]) -> list[float]:
    # each row's mean, in column passes; fsum makes a mean independent of
    # argument order, and the clamp repairs the final rounding, which can
    # drift one ulp outside the row's range (e.g. three equal values)
    means = map(truediv, map(math.fsum, rows), map(len, rows))
    return [*map(min, map(max, means, map(min, rows)), map(max, rows))]


def fuse_oscc(probs: Sequence[float]) -> float:
    """Arithmetic mean of state-change probabilities (>= 0.5 means change)."""
    if len(probs) == 0:
        raise EmptyInputError("no probabilities to fuse")
    for p in probs:
        ensure_range("probability", p, 0, 1)
    return _means([probs])[0]


def _center_lookup(series: ScoreSeries) -> tuple[list[float], list[float]]:
    """Distinct window centers, ascending, each with the confidence of
    its first window in (center, start, end) order, then input order."""
    centers: list[float] = []
    confidences: list[float] = []
    windows = series.windows
    keyed = sorted((window_center_frame(sw), sw[0], sw[1], i) for i, sw in enumerate(windows))
    for center, _, _, i in keyed:
        if not centers or centers[-1] != center:
            centers.append(center)
            confidences.append(windows[i][2])
    return centers, confidences


def _nearest_confidences(
    centers: list[float], confidences: list[float], point_centers: list[float]
) -> list[float]:
    """The confidence of the nearest center to each of the ascending
    point_centers; a tie goes to the lower center."""
    # one forward merge: the nearest center never moves down as the
    # point moves up, so each step tries only the next center
    j, last = 0, len(centers) - 1
    nearest = []
    for pc in point_centers:
        while j < last and centers[j + 1] - pc < pc - centers[j]:
            j += 1
        nearest.append(confidences[j])
    return nearest


def fuse_pnr(series_list: Sequence[ScoreSeries], clip: Clip | None = None) -> ScoreSeries:
    """Fuse window series from several scorers for one clip.

    Evaluation points are the union of all input windows, deduplicated
    by (start, end) and sorted by center.  Each series contributes the
    confidence of its own window with the nearest center (ties go to the
    lower center, then the lower (start, end), then the earlier window
    in input order); contributions average into the fused confidence.
    The lookup is one forward merge of the sorted points with each
    series' sorted centers, so past the sorts, fusing P points from W
    windows costs O(P + W) per series.  Passing the clip additionally
    bounds-checks every window.  The result does not depend on the order
    of the series.
    """
    if len(series_list) == 0:
        raise EmptyInputError("no series to fuse")
    for series in series_list:
        if not series.windows:
            raise EmptyInputError("a series has no windows")
        if clip is not None:
            ensure_windows_in_clip(series.windows, clip)

    # union of the input geometries, one point per distinct (start, end)
    points = sorted(
        {
            (window_center_frame(sw), sw[0], sw[1])
            for series in series_list
            for sw in series.windows
        }
    )
    point_centers, starts, ends = zip(*points)
    columns = [
        _nearest_confidences(*_center_lookup(series), point_centers) for series in series_list
    ]
    rows = [*zip(*columns)]  # each point's contributions, one from each series
    return ScoreSeries(tuple(ScoredWindow._from_columns(starts, ends, _means(rows))))
