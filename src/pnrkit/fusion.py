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
from bisect import bisect_left
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


def _mean(values: Sequence[float]) -> float:
    # fsum makes the result independent of argument order; the clamp
    # repairs the final rounding, which can drift one ulp outside the
    # value range (e.g. three equal values)
    mean = math.fsum(values) / len(values)
    return min(max(mean, min(values)), max(values))


def fuse_oscc(probs: Sequence[float]) -> float:
    """Arithmetic mean of state-change probabilities (>= 0.5 means change)."""
    if len(probs) == 0:
        raise EmptyInputError("no probabilities to fuse")
    for p in probs:
        ensure_range("probability", p, 0, 1)
    return _mean(probs)


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


def _nearest_confidence(
    centers: list[float], confidences: list[float], point_center: float
) -> float:
    # nearest center by binary search; a tie goes to the lower center
    i = bisect_left(centers, point_center)
    if i == len(centers) or (
        i > 0 and point_center - centers[i - 1] <= centers[i] - point_center
    ):
        i -= 1
    return confidences[i]


def fuse_pnr(series_list: Sequence[ScoreSeries], clip: Clip | None = None) -> ScoreSeries:
    """Fuse window series from several scorers for one clip.

    Evaluation points are the union of all input windows, deduplicated
    by (start, end) and sorted by center.  Each series contributes the
    confidence of its own window with the nearest center (ties go to the
    lower center, then the lower (start, end), then the earlier window
    in input order); contributions average into the fused confidence.
    The lookup is a binary search over each series' sorted centers, so
    fusing P points from W windows costs O((P + W) log W).  Passing the
    clip additionally bounds-checks every window.  The result does not
    depend on the order of the series.
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
    lookups = [_center_lookup(series) for series in series_list]
    fused = []
    for center, start, end in points:
        contributions = [_nearest_confidence(*lookup, center) for lookup in lookups]
        fused.append(ScoredWindow(start, end, _mean(contributions)))
    return ScoreSeries(tuple(fused))
