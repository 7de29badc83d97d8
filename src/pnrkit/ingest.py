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
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from pnrkit.errors import (
    BoundsError,
    ConflictError,
    DomainError,
    EmptyInputError,
    ParseError,
    ValidationError,
)
from pnrkit.model import (
    Clip,
    PnrAnnotation,
    PnrPrediction,
    ScoredWindow,
    ScoreSeries,
    ensure_annotation_in_clip,
    ensure_range,
)


@dataclass(frozen=True)
class Dataset:
    """Clips plus whatever annotations they carry.

    Keys of ``pnr`` and ``oscc`` are subsets of ``clips``; ``oscc`` maps
    a clip id to its state-change label.  Treat all three mappings as
    read-only; they are built once and shared.
    """

    clips: dict[str, Clip]
    pnr: dict[str, PnrAnnotation]
    oscc: dict[str, bool]

    # perfbench/tracer.py counts the records parse_annotations read with len()
    def __len__(self) -> int:
        return len(self.clips)


def _put(store: dict, clip_id: str, value, what: str) -> None:
    if clip_id in store:
        raise ConflictError(f"duplicate {what} {clip_id!r}")
    store[clip_id] = value


def build_dataset(
    clips: Iterable[Clip],
    pnr: Mapping[str, PnrAnnotation] = {},
    oscc: Mapping[str, bool] = {},
) -> Dataset:
    """Assemble and cross-validate a Dataset from clips and two label maps
    keyed by clip id."""
    clip_map: dict[str, Clip] = {}
    for clip in clips:
        _put(clip_map, clip.clip_id, clip, "clip_id")
    for labels, what in ((pnr, "state-change annotation"), (oscc, "state-change label")):
        for clip_id in labels:
            if clip_id not in clip_map:
                raise ValidationError(f"{what} for unknown clip {clip_id!r}")
    for clip_id, ann in pnr.items():
        ensure_annotation_in_clip(ann, clip_map[clip_id])
    return Dataset(clips=clip_map, pnr=dict(pnr), oscc=dict(oscc))


_raw_decode = json.JSONDecoder().raw_decode


def _joined(stream: str | Iterable[str]) -> str:
    """An iterable of lines, with or without their "\n", as the text it joins to."""
    if isinstance(stream, str):
        return stream
    return "\n".join(line.removesuffix("\n") for line in stream)


def _read(
    text: str, record: Callable[[dict], None], take: Callable[[str, int], int] | None = None
) -> None:
    """Run ``record`` on the JSON object of each non-blank line; an error
    of the line or of ``record`` leaves naming the line, a model
    ValidationError as a ParseError.  ``take(text, at)`` may read the line
    at ``at`` itself and return the next line's start, or -1 if it did not."""
    # a cursor, as text.split("\n") would hold a second copy of the text
    at, size, line_no = 0, len(text), 0
    while at < size:
        line_no += 1
        if take is not None:
            after = take(text, at)
            if after >= 0:
                at = after
                continue
        stop = text.find("\n", at)
        if stop < 0:
            stop = size
        _read_line(text[at:stop], line_no, record)
        at = stop + 1


def _read_line(raw: str, line_no: int, record: Callable[[dict], None]) -> None:
    # a value that spans the whole line, up to the "\r" of a "\r\n"
    # ending, is what json.loads would give; blank lines, other edge
    # whitespace, a BOM and bad JSON go through strip() and json.loads,
    # whose messages the errors repeat
    try:
        try:
            obj, end = _raw_decode(raw)
            whole = end == len(raw) or raw[end:] == "\r"
        except ValueError:
            whole = False
        if not whole:
            text = raw.strip()
            if not text:
                return
            obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no) from None
    except ValueError as exc:  # an integer longer than int() may convert
        raise ParseError(f"invalid JSON: {exc}", line_no) from None
    try:
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object")
        record(obj)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no) from None
    except (ParseError, ConflictError) as exc:
        raise type(exc)(str(exc), line_no) from None


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise ParseError(f"missing key(s): {', '.join(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown key(s): {', '.join(sorted(unknown))}")


def _as_str(obj: dict, key: str) -> str:
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ParseError(f"{key!r} must be a non-empty string")
    return v


def _as_int(obj: dict, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{key!r} must be an integer")
    return v


def _as_number(obj: dict, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{key!r} must be a number")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    # json accepts NaN and Infinity, and integers too large for a float
    if not math.isfinite(x):
        raise ParseError(f"{key!r} must be a finite number")
    return x


def _as_bool(obj: dict, key: str) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise ParseError(f"{key!r} must be a boolean")
    return v


_ANNOTATION_REQUIRED = ("clip_id", "fps", "num_frames")
_ANNOTATION_OPTIONAL = ("state_change", "pnr_frame", "other_pnr_frames")


def parse_annotations(stream: str | Iterable[str]) -> Dataset:
    """Parse an annotation file into a validated Dataset."""
    clips: dict[str, Clip] = {}
    pnr: dict[str, PnrAnnotation] = {}
    oscc: dict[str, bool] = {}

    def record(obj: dict) -> None:
        _check_keys(obj, _ANNOTATION_REQUIRED, _ANNOTATION_OPTIONAL)
        clip_id = _as_str(obj, "clip_id")
        clip = Clip(clip_id, _as_number(obj, "fps"), _as_int(obj, "num_frames"))
        if "state_change" in obj:
            oscc[clip_id] = _as_bool(obj, "state_change")
        if "other_pnr_frames" in obj and "pnr_frame" not in obj:
            raise ParseError("'other_pnr_frames' requires 'pnr_frame'")
        if "pnr_frame" in obj:
            positive = _as_int(obj, "pnr_frame")
            others: tuple[int, ...] = ()
            if "other_pnr_frames" in obj:
                raw = obj["other_pnr_frames"]
                if not isinstance(raw, list) or any(
                    isinstance(f, bool) or not isinstance(f, int) for f in raw
                ):
                    raise ParseError("'other_pnr_frames' must be a list of integers")
                others = tuple(raw)
            ann = PnrAnnotation(positive, others)
            ensure_annotation_in_clip(ann, clip)
            pnr[clip_id] = ann
        # checked last, so a line with its own fault reports that fault
        _put(clips, clip_id, clip, "clip_id")

    _read(_joined(stream), record)
    return Dataset(clips=clips, pnr=pnr, oscc=oscc)


def emit_annotations(dataset: Dataset) -> str:
    """Serialize a Dataset back to annotation lines, clip order preserved."""
    rows = []
    for clip_id, clip in dataset.clips.items():
        rec: dict = {"clip_id": clip_id, "fps": clip.fps, "num_frames": clip.num_frames}
        if clip_id in dataset.oscc:
            rec["state_change"] = dataset.oscc[clip_id]
        ann = dataset.pnr.get(clip_id)
        if ann is not None:
            rec["pnr_frame"] = ann.positive_frame
            if ann.negative_frames:
                rec["other_pnr_frames"] = list(ann.negative_frames)
        rows.append(json.dumps(rec))
    return "".join(row + "\n" for row in rows)


_SCORE_KEYS = ("clip_id", "start", "end", "confidence")
# a score line exactly as emit_pnr_scores and json.dumps (default
# separators) write it, with a \n or \r\n ending; digits are [0-9], never
# \d, as int() and float() also read digits that JSON does not allow
_SCORE_LINE = re.compile(
    r'\{"clip_id": "([^"\\\x00-\x1f]+)", "start": (0|[1-9][0-9]*), '
    r'"end": (0|[1-9][0-9]*), "confidence": '
    r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    r"\}(?:\r?\n|\Z)"
)


def parse_pnr_scores(stream: str | Iterable[str]) -> dict[str, ScoreSeries]:
    """Parse window scores into one series per clip, sorted by start.

    A clip may score each ``(start, end)`` window once.
    """
    grouped: defaultdict[str, list[ScoredWindow]] = defaultdict(list)

    def record(obj: dict) -> None:
        _check_keys(obj, _SCORE_KEYS)
        clip_id = _as_str(obj, "clip_id")
        start = _as_int(obj, "start")
        end = _as_int(obj, "end")
        confidence = _as_number(obj, "confidence")
        grouped[clip_id].append(ScoredWindow(start, end, confidence))

    # anchored matches, not finditer, so no search runs on past a line off
    # the pattern; such a line, or one whose values int(), float() or
    # ScoredWindow refuse, goes to the line reader and ``record``, which
    # make every error and every value the pattern does not cover
    match = _SCORE_LINE.match

    def take(text: str, at: int) -> int:
        line = match(text, at)
        if line is None:
            return -1
        clip_id, start, end, confidence = line.groups()
        try:  # the conversions the JSON decoder makes
            window = ScoredWindow(int(start), int(end), float(confidence))
        except (ValueError, DomainError):
            return -1
        grouped[clip_id].append(window)
        return line.end()

    text = _joined(stream)
    _read(text, record, take)
    series_by_clip = {}
    for clip_id, windows in grouped.items():
        # tuple order is (start, end) order, as a clip holds each window
        # once; a repeated window sits right after its first
        windows.sort()
        for a, b in zip(windows, windows[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                _raise_at_second_line(text, clip_id, b)
        series_by_clip[clip_id] = ScoreSeries(tuple(windows))
    return series_by_clip


def _raise_at_second_line(text: str, clip_id: str, window: ScoredWindow) -> None:
    """Raise the duplicate-window error at the second record of a window."""
    copies = []

    def record(obj: dict) -> None:
        if (obj["clip_id"], obj["start"], obj["end"]) == (clip_id, window.start, window.end):
            copies.append(obj)
            if len(copies) == 2:
                raise ConflictError(
                    f"duplicate window [{window.start}, {window.end}) for clip {clip_id!r}"
                )

    _read(text, record)


def emit_pnr_scores(series_by_clip: Mapping[str, ScoreSeries]) -> str:
    # the bytes json.dumps writes for each record: ints as themselves, a
    # float by float.__repr__ (also for float subclasses such as numpy's)
    rows = []
    for clip_id, series in series_by_clip.items():
        head = '{"clip_id": ' + json.dumps(clip_id) + ', "start": '
        for start, end, c in series.windows:
            conf = float.__repr__(c) if isinstance(c, float) else json.dumps(c)
            rows.append(f'{head}{start}, "end": {end}, "confidence": {conf}}}\n')
    return "".join(rows)


_PROB_KEYS = ("clip_id", "prob")


def parse_oscc_scores(stream: str | Iterable[str]) -> dict[str, float]:
    """Parse per-clip state-change probabilities."""
    probs: dict[str, float] = {}

    def record(obj: dict) -> None:
        _check_keys(obj, _PROB_KEYS)
        clip_id = _as_str(obj, "clip_id")
        prob = _as_number(obj, "prob")
        ensure_range("'prob'", prob, 0, 1)
        _put(probs, clip_id, prob, "probability for clip")

    _read(_joined(stream), record)
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

    def record(obj: dict) -> None:
        _check_keys(obj, _PREDICTION_KEYS)
        clip_id = _as_str(obj, "clip_id")
        pred = PnrPrediction(
            _as_number(obj, "time_sec"), _as_int(obj, "frame"), _as_str(obj, "source")
        )
        _put(preds, clip_id, pred, "prediction for clip")

    _read(_joined(stream), record)
    return preds


def emit_predictions(preds: Mapping[str, PnrPrediction]) -> str:
    return "".join(
        json.dumps(
            {
                "clip_id": clip_id,
                "time_sec": p.time_sec,
                "frame": p.frame,
                "source": p.source,
            }
        )
        + "\n"
        for clip_id, p in preds.items()
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


def frame_bin(frame: int, num_frames: int, bins: int) -> int:
    """Histogram bin of frame / (n - 1): bin k covers [k/bins, (k+1)/bins),
    and the last bin also takes 1.0.  Integer arithmetic keeps a frame on
    a bin edge out of the bin below."""
    ensure_range("bins", bins, 1)
    if not 0 <= frame < num_frames:
        raise BoundsError(f"frame {frame} outside clip of {num_frames} frames")
    return min(frame * bins // max(num_frames - 1, 1), bins - 1)


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
    ensure_range("bins", bins, 1)
    if not dataset.clips:
        raise EmptyInputError("dataset has no clips")
    positive_hist = [0] * bins
    negative_hist = [0] * bins
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
