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
from itertools import compress, repeat
from operator import lt, ne, truediv
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


def _means(columns: Sequence[Sequence[float]]) -> list[float]:
    # each row's mean across k columns; fsum makes it independent of column
    # order. The clamp to the row's [lo, hi] runs only when k is not a power
    # of two: then the rounding can drift one ulp out (three equal values),
    # but k * lo and k * hi are exact for k = 2^n, and rounding is monotone
    k = len(columns)
    means = [*map(truediv, map(math.fsum, zip(*columns)), repeat(k))]
    if k & (k - 1):
        means = [*map(min, map(max, means, map(min, *columns)), map(max, *columns))]
    return means


def fuse_oscc(probs: Sequence[float]) -> float:
    """Arithmetic mean of state-change probabilities; ``oscc_accuracy`` makes the call."""
    if len(probs) == 0:
        raise EmptyInputError("no probabilities to fuse")
    for p in probs:
        ensure_range("probability", p, 0, 1)
    return _means([*zip(probs)])[0]


def _center_lookup(
    windows: Sequence[ScoredWindow], centers: list[float]
) -> tuple[list[float], list[float]]:
    """Distinct window centers, ascending, each with the confidence of
    its first window in (center, start, end) order, then input order."""
    if all(map(lt, centers, centers[1:])):  # as parsed, for one window length
        return centers, [sw[2] for sw in windows]
    starts, ends, confidences = zip(*windows)
    keyed, *_, order = zip(*sorted(zip(centers, starts, ends, range(len(centers)))))
    first = [True, *map(ne, keyed[1:], keyed)]
    return [*compress(keyed, first)], [*map(confidences.__getitem__, compress(order, first))]


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
    Each window's center is computed once.  The lookup is one forward
    merge of the sorted points with each series' sorted centers, so past
    the sorts, fusing P points from W windows costs O(P + W) per series;
    a series whose centers already ascend, as parsed, is not sorted.
    Passing the clip additionally bounds-checks every window.  The result
    does not depend on the order of the series.
    """
    if len(series_list) == 0:
        raise EmptyInputError("no series to fuse")
    for series in series_list:
        if not series.windows:
            raise EmptyInputError("a series has no windows")
        if clip is not None:
            ensure_windows_in_clip(series.windows, clip)

    centers = [[*map(window_center_frame, series.windows)] for series in series_list]
    # union of the input geometries, one point per distinct (start, end)
    points = sorted(
        {
            (center, sw[0], sw[1])
            for series, cs in zip(series_list, centers)
            for center, sw in zip(cs, series.windows)
        }
    )
    point_centers, starts, ends = zip(*points)
    columns = [
        _nearest_confidences(*_center_lookup(series.windows, c), point_centers)
        for series, c in zip(series_list, centers)
    ]
    return ScoreSeries(tuple(ScoredWindow._from_columns(starts, ends, _means(columns))))
