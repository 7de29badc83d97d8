"""Accuracy, localization error, and position binning with both binned
tables: the dataset's position histograms and the per-position errors.

Coverage is strict in both directions: every annotated clip must carry
a prediction and every prediction must refer to an annotated clip.
Silently skipping clips inflates metrics, so mismatches raise instead.
"""

from __future__ import annotations

import json
from typing import Mapping

from pnrkit.errors import BoundsError, CoverageError, DomainError, EmptyInputError
from pnrkit.ingest import Dataset
from pnrkit.model import PnrPrediction, Record, _mean_error, ensure_prediction_in_clip, ensure_range


def frame_bin(frame: int, num_frames: int, bins: int) -> int:
    """Histogram bin of frame / (n - 1): bin k covers [k/bins, (k+1)/bins),
    and the last bin also takes 1.0.  Integer arithmetic keeps a frame on
    a bin edge out of the bin below."""
    ensure_range("bins", bins, 1, integer=True)
    if not 0 <= frame < num_frames:
        raise BoundsError(f"frame {frame} outside clip of {num_frames} frames")
    return min(frame * bins // max(num_frames - 1, 1), bins - 1)


def bin_center(k: int, bins: int) -> float:
    """Center of bin k of ``frame_bin``'s bins: the one rule of both plot TSVs."""
    return (k + 0.5) / bins


def bin_label(lo: float, hi: float, bins: int) -> str:
    """``[lo,hi)`` with as many decimals as tell ``bins`` bins apart, at
    least two: the one label rule of both printed tables."""
    places = max(2, len(str(bins - 1)))
    return f"[{lo:.{places}f},{hi:.{places}f})"


class DatasetStats(Record):
    """Summary counts and position histograms for one dataset."""

    __slots__ = ()

    def __new__(
        cls,
        n_clips: int,
        n_pnr_annotated: int,
        n_oscc_annotated: int,
        pnr_per_clip_mean: float | None,
        pnr_per_clip_min: int | None,
        pnr_per_clip_max: int | None,
        bins: int,
        positive_hist: tuple[int, ...],
        negative_hist: tuple[int, ...],
    ):
        return tuple.__new__(cls, (
            n_clips, n_pnr_annotated, n_oscc_annotated, pnr_per_clip_mean, pnr_per_clip_min,
            pnr_per_clip_max, bins, positive_hist, negative_hist,
        ))


def dataset_stats(dataset: Dataset, bins: int = 10) -> DatasetStats:
    """Count annotations and histogram their fractional positions."""
    ensure_range("bins", bins, 1, integer=True)
    if not dataset.clips:
        raise EmptyInputError("dataset has no clips")
    positive_hist, negative_hist = [0] * bins, [0] * bins
    counts: list[int] = []
    for clip_id, ann in dataset.pnr.items():
        n = dataset.clips[clip_id].num_frames
        counts.append(len(ann.all_frames))
        positive_hist[frame_bin(ann.positive_frame, n, bins)] += 1
        for frame in ann.negative_frames:
            negative_hist[frame_bin(frame, n, bins)] += 1
    return DatasetStats(
        n_clips=len(dataset.clips),
        n_pnr_annotated=len(dataset.pnr),
        n_oscc_annotated=len(dataset.oscc),
        pnr_per_clip_mean=sum(counts) / len(counts) if counts else None,
        pnr_per_clip_min=min(counts) if counts else None,
        pnr_per_clip_max=max(counts) if counts else None,
        bins=bins,
        positive_hist=tuple(positive_hist),
        negative_hist=tuple(negative_hist),
    )


def render_stats(stats: DatasetStats) -> str:
    """Human-readable stats summary."""
    lines = [
        f"clips: {stats.n_clips}",
        f"pnr-annotated: {stats.n_pnr_annotated}",
        f"oscc-annotated: {stats.n_oscc_annotated}",
    ]
    if stats.pnr_per_clip_mean is None:
        lines.append("state-change frames per clip: none")
    else:
        lines.append(
            "state-change frames per clip: "
            f"mean {stats.pnr_per_clip_mean:.4f} "
            f"min {stats.pnr_per_clip_min} max {stats.pnr_per_clip_max}"
        )
    lines.append("bin         positives  negatives")
    for k in range(stats.bins):
        label = bin_label(k / stats.bins, (k + 1) / stats.bins, stats.bins)
        lines.append(f"{label}  {stats.positive_hist[k]:>9d}  {stats.negative_hist[k]:>9d}")
    return "\n".join(lines) + "\n"


def stats_plot_data(stats: DatasetStats) -> str:
    """Histogram TSV: bin center, positive count, negative count."""
    rows = ["# bin_center\tpositive_count\tnegative_count"]
    for k in range(stats.bins):
        center = bin_center(k, stats.bins)
        rows.append(f"{center:.6f}\t{stats.positive_hist[k]}\t{stats.negative_hist[k]}")
    return "\n".join(rows) + "\n"


class BinError(Record):
    """Mean absolute error of the clips whose truth falls in one bin."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, count: int, mean_error_sec: float | None):
        return tuple.__new__(cls, (lo, hi, count, mean_error_sec))


class MetricsReport(Record):
    """One evaluation result: task, clip count, headline, optional bins.

    The headline is accuracy for the classification task and mean
    absolute error in seconds for localization.
    """

    __slots__ = ()

    def __new__(
        cls, task: str, n_clips: int, headline: float, per_bin: tuple[BinError, ...] | None = None
    ):
        return tuple.__new__(cls, (task, n_clips, headline, per_bin))


def _check_coverage(predicted: set[str], annotated: set[str], what: str) -> None:
    missing = annotated - predicted
    if missing:
        raise CoverageError(
            f"missing {what} prediction for annotated clip(s)", tuple(sorted(missing))
        )
    extra = predicted - annotated
    if extra:
        raise CoverageError(f"{what} prediction for unannotated clip(s)", tuple(sorted(extra)))


def oscc_accuracy(probs: Mapping[str, float], ds: Dataset) -> MetricsReport:
    """Share of clips called right; a probability >= 0.5 calls a change, a bool is its own call."""
    _check_coverage(set(probs), set(ds.oscc), "state-change")
    if not ds.oscc:
        raise EmptyInputError("no state-change annotations to evaluate")
    for clip_id in ds.oscc:
        if not 0 <= (p := probs[clip_id]) <= 1:  # NaN too
            raise DomainError(f"clip {clip_id!r}: probability must be in [0, 1], got {p}")
    correct = sum(1 for clip_id, label in ds.oscc.items() if (probs[clip_id] >= 0.5) == label)
    return MetricsReport(task="oscc", n_clips=len(ds.oscc), headline=correct / len(ds.oscc))


def _clip_errors(preds: Mapping[str, PnrPrediction], ds: Dataset) -> dict[str, float]:
    _check_coverage(set(preds), set(ds.pnr), "localization")
    if not ds.pnr:
        raise EmptyInputError("no state-change frame annotations to evaluate")
    errors = {}
    for clip_id, ann in ds.pnr.items():
        clip, pred = ds.clips[clip_id], preds[clip_id]
        ensure_prediction_in_clip(pred, clip)
        errors[clip_id] = abs(pred.time_sec - ann.positive_frame / clip.fps)
    return errors


def pnr_mae(preds: Mapping[str, PnrPrediction], ds: Dataset) -> MetricsReport:
    """Mean absolute localization error in seconds."""
    errors = _clip_errors(preds, ds)
    return MetricsReport(
        task="pnr",
        n_clips=len(errors),
        headline=_mean_error(errors.values(), len(errors)),
    )


def per_position_error(
    preds: Mapping[str, PnrPrediction], ds: Dataset, bins: int = 10
) -> MetricsReport:
    """Localization error broken down by ground-truth clip position.

    Clips group by the fractional position of their true state-change
    frame, using the same bin rule as the position histogram.  The
    report's headline is aggregated from the bin means with counts as
    weights, so the weighted-mean identity holds exactly.
    """
    ensure_range("bins", bins, 1, integer=True)
    errors = _clip_errors(preds, ds)
    grouped: list[list[float]] = [[] for _ in range(bins)]
    for clip_id, err in errors.items():
        n = ds.clips[clip_id].num_frames
        grouped[frame_bin(ds.pnr[clip_id].positive_frame, n, bins)].append(err)

    per_bin = tuple(
        BinError(
            lo=k / bins,
            hi=(k + 1) / bins,
            count=len(grouped[k]),
            mean_error_sec=_mean_error(grouped[k], len(grouped[k])) if grouped[k] else None,
        )
        for k in range(bins)
    )
    headline = _mean_error((b.mean_error_sec * b.count for b in per_bin if b.count), len(errors))
    return MetricsReport(task="pnr", n_clips=len(errors), headline=headline, per_bin=per_bin)


def render_report(report: MetricsReport) -> str:
    """Plain-text table form of a report."""
    name = "accuracy" if report.task == "oscc" else "mae_sec"
    lines = [
        f"task: {report.task}",
        f"clips: {report.n_clips}",
        f"{name}: {report.headline:.6f}",
    ]
    if report.per_bin is not None:
        lines.append("bin          count  mean_error_sec")
        for b in report.per_bin:
            mean = f"{b.mean_error_sec:.6f}" if b.mean_error_sec is not None else "-"
            label = bin_label(b.lo, b.hi, len(report.per_bin))
            lines.append(f"{label}  {b.count:>5d}  {mean}")
    return "\n".join(lines) + "\n"


def report_to_json(report: MetricsReport) -> str:
    """Machine-readable single-record form of a report."""
    record = dict(zip(report._fields, report))
    if report.per_bin is None:
        del record["per_bin"]
    else:
        record["per_bin"] = [dict(zip(b._fields, b)) for b in report.per_bin]
    return json.dumps(record) + "\n"


def error_plot_data(report: MetricsReport) -> str:
    """Per-bin TSV: bin center, mean error in seconds, count."""
    if report.per_bin is None:
        raise EmptyInputError("report carries no per-bin data")
    rows = ["# bin_center\tmean_error_sec\tcount"]
    for k, b in enumerate(report.per_bin):
        mean = f"{b.mean_error_sec:.6f}" if b.mean_error_sec is not None else "nan"
        rows.append(f"{bin_center(k, len(report.per_bin)):.6f}\t{mean}\t{b.count}")
    return "\n".join(rows) + "\n"
