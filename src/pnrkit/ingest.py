"""Line-oriented wire formats and the in-memory dataset.

Every on-disk artifact is JSON Lines with one record per line.  Parsers
are strict: unknown keys, wrong types, out-of-range values, and
duplicate clip ids are errors, reported with 1-based line numbers.
Emitters write records with a fixed key order and no extra whitespace
beyond the JSON defaults, so identical inputs produce identical bytes.

Formats:

* annotations: ``{"clip_id", "fps", "num_frames"}`` plus optional
  ``"state_change"`` (bool), ``"pnr_frame"`` (int), and
  ``"other_pnr_frames"`` (list of int).
* state-change window scores: ``{"clip_id", "start", "end", "confidence"}``.
* state-change probabilities: ``{"clip_id", "prob"}``.
* predictions: ``{"clip_id", "time_sec", "frame", "source"}``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from pnrkit.errors import (
    ConflictError,
    DomainError,
    EmptyInputError,
    ParseError,
    ValidationError,
)
from pnrkit.model import (
    SOURCES,
    Clip,
    OsccAnnotation,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ScoreSeries,
    frame_to_fraction,
)


@dataclass(frozen=True)
class Dataset:
    """Clips plus whatever annotations they carry.

    Keys of ``pnr`` and ``oscc`` are subsets of ``clips``.  Treat all
    three mappings as read-only; they are built once and shared.
    """

    clips: dict[str, Clip]
    pnr: dict[str, PnrAnnotation]
    oscc: dict[str, OsccAnnotation]

    def __len__(self) -> int:
        return len(self.clips)


def build_dataset(
    clips: Iterable[Clip],
    pnr: Iterable[PnrAnnotation] = (),
    oscc: Iterable[OsccAnnotation] = (),
) -> Dataset:
    """Assemble and cross-validate a Dataset from parts."""
    clip_map: dict[str, Clip] = {}
    for clip in clips:
        if clip.clip_id in clip_map:
            raise ConflictError(f"duplicate clip_id {clip.clip_id!r}")
        clip_map[clip.clip_id] = clip

    pnr_map: dict[str, PnrAnnotation] = {}
    for ann in pnr:
        clip = clip_map.get(ann.clip_id)
        if clip is None:
            raise ValidationError(f"state-change annotation for unknown clip {ann.clip_id!r}")
        if ann.clip_id in pnr_map:
            raise ConflictError(f"duplicate state-change annotation for {ann.clip_id!r}")
        for frame in ann.all_frames:
            if frame >= clip.num_frames:
                raise ValidationError(
                    f"clip {ann.clip_id!r}: annotated frame {frame} outside "
                    f"{clip.num_frames}-frame clip"
                )
        pnr_map[ann.clip_id] = ann

    oscc_map: dict[str, OsccAnnotation] = {}
    for label in oscc:
        if label.clip_id not in clip_map:
            raise ValidationError(f"state-change label for unknown clip {label.clip_id!r}")
        if label.clip_id in oscc_map:
            raise ConflictError(f"duplicate state-change label for {label.clip_id!r}")
        oscc_map[label.clip_id] = label

    return Dataset(clips=clip_map, pnr=pnr_map, oscc=oscc_map)


def _iter_records(stream: str | Iterable[str]) -> Iterator[tuple[int, dict]]:
    lines = stream.splitlines() if isinstance(stream, str) else stream
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from None
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object", line_no)
        yield line_no, obj


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], line_no: int) -> None:
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise ParseError(f"missing key(s): {', '.join(missing)}", line_no)
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown key(s): {', '.join(sorted(unknown))}", line_no)


def _as_str(obj: dict, key: str, line_no: int) -> str:
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ParseError(f"{key!r} must be a non-empty string", line_no)
    return v


def _as_int(obj: dict, key: str, line_no: int) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{key!r} must be an integer", line_no)
    return v


def _as_number(obj: dict, key: str, line_no: int) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{key!r} must be a number", line_no)
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    # json accepts NaN and Infinity, and integers too large for a float
    if not math.isfinite(x):
        raise ParseError(f"{key!r} must be a finite number", line_no)
    return x


def _as_bool(obj: dict, key: str, line_no: int) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise ParseError(f"{key!r} must be a boolean", line_no)
    return v


_ANNOTATION_REQUIRED = ("clip_id", "fps", "num_frames")
_ANNOTATION_OPTIONAL = ("state_change", "pnr_frame", "other_pnr_frames")


def parse_annotations(stream: str | Iterable[str]) -> Dataset:
    """Parse an annotation file into a validated Dataset."""
    clips: list[Clip] = []
    pnr: list[PnrAnnotation] = []
    oscc: list[OsccAnnotation] = []
    for line_no, obj in _iter_records(stream):
        _check_keys(obj, _ANNOTATION_REQUIRED, _ANNOTATION_OPTIONAL, line_no)
        clip_id = _as_str(obj, "clip_id", line_no)
        fps = _as_number(obj, "fps", line_no)
        num_frames = _as_int(obj, "num_frames", line_no)
        try:
            clips.append(Clip(clip_id=clip_id, fps=fps, num_frames=num_frames))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from None

        if "state_change" in obj:
            oscc.append(OsccAnnotation(clip_id, _as_bool(obj, "state_change", line_no)))

        if "other_pnr_frames" in obj and "pnr_frame" not in obj:
            raise ParseError("'other_pnr_frames' requires 'pnr_frame'", line_no)
        if "pnr_frame" in obj:
            positive = _as_int(obj, "pnr_frame", line_no)
            others: tuple[int, ...] = ()
            if "other_pnr_frames" in obj:
                raw = obj["other_pnr_frames"]
                if not isinstance(raw, list) or any(
                    isinstance(f, bool) or not isinstance(f, int) for f in raw
                ):
                    raise ParseError("'other_pnr_frames' must be a list of integers", line_no)
                others = tuple(raw)
            try:
                pnr.append(PnrAnnotation(clip_id, positive, others))
            except ValidationError as exc:
                raise ParseError(str(exc), line_no) from None

    try:
        return build_dataset(clips, pnr, oscc)
    except ConflictError:
        raise
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def emit_annotations(dataset: Dataset) -> str:
    """Serialize a Dataset back to annotation lines, clip order preserved."""
    rows = []
    for clip_id, clip in dataset.clips.items():
        rec: dict = {"clip_id": clip_id, "fps": clip.fps, "num_frames": clip.num_frames}
        label = dataset.oscc.get(clip_id)
        if label is not None:
            rec["state_change"] = label.state_change
        ann = dataset.pnr.get(clip_id)
        if ann is not None:
            rec["pnr_frame"] = ann.positive_frame
            if ann.negative_frames:
                rec["other_pnr_frames"] = list(ann.negative_frames)
        rows.append(json.dumps(rec))
    return "".join(row + "\n" for row in rows)


_SCORE_KEYS = ("clip_id", "start", "end", "confidence")


def parse_pnr_scores(stream: str | Iterable[str]) -> dict[str, ScoreSeries]:
    """Parse window scores into one series per clip, sorted by start."""
    grouped: dict[str, list[ScoredWindow]] = {}
    for line_no, obj in _iter_records(stream):
        _check_keys(obj, _SCORE_KEYS, (), line_no)
        clip_id = _as_str(obj, "clip_id", line_no)
        start = _as_int(obj, "start", line_no)
        end = _as_int(obj, "end", line_no)
        confidence = _as_number(obj, "confidence", line_no)
        try:
            sw = ScoredWindow(start, end, confidence)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from None
        grouped.setdefault(clip_id, []).append(sw)
    return {
        clip_id: ScoreSeries(
            clip_id, tuple(sorted(sws, key=lambda sw: (sw.start, sw.end)))
        )
        for clip_id, sws in grouped.items()
    }


def emit_pnr_scores(series_by_clip: Mapping[str, ScoreSeries]) -> str:
    rows = []
    for clip_id, series in series_by_clip.items():
        for sw in series.windows:
            rows.append(
                json.dumps(
                    {
                        "clip_id": clip_id,
                        "start": sw.start,
                        "end": sw.end,
                        "confidence": sw.confidence,
                    }
                )
            )
    return "".join(row + "\n" for row in rows)


_PROB_KEYS = ("clip_id", "prob")


def parse_oscc_scores(stream: str | Iterable[str]) -> dict[str, float]:
    """Parse per-clip state-change probabilities."""
    probs: dict[str, float] = {}
    for line_no, obj in _iter_records(stream):
        _check_keys(obj, _PROB_KEYS, (), line_no)
        clip_id = _as_str(obj, "clip_id", line_no)
        prob = _as_number(obj, "prob", line_no)
        if not 0.0 <= prob <= 1.0:
            raise ParseError(f"'prob' must be in [0, 1], got {prob}", line_no)
        if clip_id in probs:
            raise ConflictError(f"duplicate probability for clip {clip_id!r}")
        probs[clip_id] = prob
    return probs


def emit_oscc_scores(probs: Mapping[str, float]) -> str:
    return "".join(
        json.dumps({"clip_id": clip_id, "prob": prob}) + "\n"
        for clip_id, prob in probs.items()
    )


_PREDICTION_KEYS = ("clip_id", "time_sec", "frame", "source")


def parse_predictions(stream: str | Iterable[str]) -> dict[str, PnrPrediction]:
    """Parse localization predictions, one per clip."""
    preds: dict[str, PnrPrediction] = {}
    for line_no, obj in _iter_records(stream):
        _check_keys(obj, _PREDICTION_KEYS, (), line_no)
        clip_id = _as_str(obj, "clip_id", line_no)
        time_sec = _as_number(obj, "time_sec", line_no)
        frame = _as_int(obj, "frame", line_no)
        source = _as_str(obj, "source", line_no)
        if source not in SOURCES:
            raise ParseError(f"unknown prediction source {source!r}", line_no)
        try:
            pred = PnrPrediction(clip_id, time_sec, frame, source)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from None
        if clip_id in preds:
            raise ConflictError(f"duplicate prediction for clip {clip_id!r}")
        preds[clip_id] = pred
    return preds


def emit_predictions(preds: Mapping[str, PnrPrediction]) -> str:
    return "".join(
        json.dumps(
            {
                "clip_id": p.clip_id,
                "time_sec": p.time_sec,
                "frame": p.frame,
                "source": p.source,
            }
        )
        + "\n"
        for p in preds.values()
    )


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write text to path via a temp file so partial output never lands.

    The file gets mode 0o666 less the umask, like any file the process
    opens for writing.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".pnrkit-{os.urandom(8).hex()}.part")
    # O_EXCL refuses an existing name, so the temp file is always our own
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def bin_index(fraction: float, bins: int) -> int:
    """Histogram bin for a fraction: bin k covers [k/bins, (k+1)/bins).

    The last bin is closed on the right so fraction 1.0 lands in it.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must be in [0, 1], got {fraction}")
    return min(int(fraction * bins), bins - 1)


@dataclass(frozen=True)
class DatasetStats:
    """Summary counts and position histograms for one dataset."""

    n_clips: int
    n_pnr_annotated: int
    n_oscc_annotated: int
    pnr_per_clip_mean: float | None
    pnr_per_clip_min: int | None
    pnr_per_clip_max: int | None
    bins: int
    positive_hist: tuple[int, ...]
    negative_hist: tuple[int, ...]


def dataset_stats(dataset: Dataset, bins: int = 10) -> DatasetStats:
    """Count annotations and histogram their fractional positions."""
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    if not dataset.clips:
        raise EmptyInputError("dataset has no clips")
    positive_hist = [0] * bins
    negative_hist = [0] * bins
    counts: list[int] = []
    for clip_id, ann in dataset.pnr.items():
        n = dataset.clips[clip_id].num_frames
        counts.append(len(ann.all_frames))
        positive_hist[bin_index(frame_to_fraction(ann.positive_frame, n), bins)] += 1
        for frame in ann.negative_frames:
            negative_hist[bin_index(frame_to_fraction(frame, n), bins)] += 1
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
        lo, hi = k / stats.bins, (k + 1) / stats.bins
        lines.append(
            f"[{lo:.2f},{hi:.2f})  {stats.positive_hist[k]:>9d}  {stats.negative_hist[k]:>9d}"
        )
    return "\n".join(lines) + "\n"


def stats_plot_data(stats: DatasetStats) -> str:
    """Histogram TSV: bin center, positive count, negative count."""
    rows = ["# bin_center\tpositive_count\tnegative_count"]
    for k in range(stats.bins):
        center = (k + 0.5) / stats.bins
        rows.append(f"{center:.6f}\t{stats.positive_hist[k]}\t{stats.negative_hist[k]}")
    return "\n".join(rows) + "\n"
