"""Line-oriented wire formats, the in-memory dataset, and atomic writes.

Every on-disk artifact is JSON Lines with one record per line.  Each
format (annotations, window scores, state-change probabilities,
predictions) is one table below: each key, in written order, with the
check that reads its value.  Emitters yield one clip's lines at a time,
from (clip id, value) pairs as dict.items() gives them (annotations from
a Dataset), and write the keys in that order with the JSON defaults, so
identical inputs give identical bytes.  Parsers
take a str or an iterable of lines, such as an open file, and read it a
block of lines at a time through a pattern built from the table, so no
whole input is held.  They are strict and check every record in one
order: its key set (a key may appear once), then each key's type, then
the value rules (the model constructors; given the annotated clips, that
its clip is one and that it fits; repeated ids); errors carry line numbers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from collections import defaultdict
from json.encoder import encode_basestring_ascii
from itertools import islice, repeat
from operator import itemgetter, le
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from pnrkit.errors import ConflictError, ParseError, PnrKitError, ValidationError
from pnrkit.model import (
    Clip, PnrAnnotation, PnrPrediction, Record, ScoredWindow, ScoreSeries,
    ensure_annotation_in_clip, ensure_prediction_in_clip, ensure_range, ensure_windows_in_clip,
)


class Dataset(Record):
    """Clips plus whatever annotations they carry.

    Keys of ``pnr`` and ``oscc`` are subsets of ``clips``; ``oscc`` maps
    a clip id to its state-change label.  Treat all three mappings as
    read-only; they are built once and shared.
    """

    __slots__ = ()

    def __new__(cls, clips: dict[str, Clip], pnr: dict[str, PnrAnnotation], oscc: dict[str, bool]):
        return tuple.__new__(cls, (clips, pnr, oscc))

    # the clip count, not the field count: perfbench/tracer.py counts the
    # records parse_annotations read with len()
    def __len__(self) -> int:
        return len(self[0])


def _put(store: dict, clip_ids: Sequence[str], values: Iterable, what: str) -> None:
    # all or none: an id stored before or given twice is refused (named if one is given)
    if not store.keys().isdisjoint(clip_ids) or len(set(clip_ids)) < len(clip_ids):
        raise ConflictError(f"duplicate {what} {clip_ids[0]!r}")
    store.update(zip(clip_ids, values))


def build_dataset(
    clips: Iterable[Clip], pnr: Mapping[str, PnrAnnotation] = {}, oscc: Mapping[str, bool] = {}
) -> Dataset:
    """Assemble and cross-validate a Dataset from clips and two label maps
    keyed by clip id."""
    clip_map: dict[str, Clip] = {}
    for clip in clips:
        _put(clip_map, (clip.clip_id,), (clip,), "clip_id")
    owners = _clips_of(pnr, clip_map)
    _clips_of(oscc, clip_map)
    any(map(ensure_annotation_in_clip, pnr.values(), owners))  # each call gives None
    return Dataset(clips=clip_map, pnr=dict(pnr), oscc=dict(oscc))


def _clips_of(clip_ids: Iterable[str], clips: Mapping[str, Clip] | None) -> list[Clip]:
    """The clip of each id, or none without clips; the first id clips does not hold is refused."""
    try:
        return [] if clips is None else [*map(clips.__getitem__, clip_ids)]
    except KeyError as exc:
        raise ValidationError(f"unknown clip {exc.args[0]!r}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json keeps the last copy of a repeated key, so a record could say two things
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_BLOCK = 64  # the most lines a parser reads at a time


def _lines(source: str | Iterable[str]) -> Iterator[list[str]]:
    """The lines of source without their "\n", in blocks of at most _BLOCK, each
    drawn as the one before is handed on.  A str is split at "\n", as is each item
    of an iterable (a line of an open file, say) once its own "\n" is cut off.  A
    line that is not UTF-8 (a lone surrogate, as errors="surrogateescape" hands on
    a bad byte) is a ParseError at that line, once the lines before it are handed on."""
    items, line_no = iter((source,) if isinstance(source, str) else source), 0
    while chunk := list(islice(items, _BLOCK)):
        lines = "\n".join(map(str.removesuffix, chunk, repeat("\n"))).split("\n")
        for start in range(0, len(lines), _BLOCK):
            block = lines[start : start + _BLOCK]
            for i, line in enumerate(() if all(map(str.isascii, block)) else block):
                # name the byte a surrogate stands for, then fail on any other surrogate
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                    line.encode("utf-8")
                except UnicodeError as exc:
                    if i:
                        yield block[:i]
                    raise ParseError(f"invalid UTF-8: {exc}", line_no + i + 1) from None
            yield block
            line_no += len(block)


def _read(source: str | Iterable[str], fmt: tuple, record: Callable[..., None]) -> None:
    """Run record(first, *columns) on the checked values of the non-blank lines of
    source in line order, column k holding key k's values from line first on: a
    block of lines all on fmt's pattern in one call, read by one findall, and any
    other block a line at a time by the line reader.  record keeps all of a call's
    rows or none, so a block it refuses, or one holding a value the decoder reads
    otherwise (an int too long for int(), a number past the floats), goes to the
    line reader too, and an error names its line."""
    findall, reads = _pattern(fmt)

    def take(rows: list[tuple], n: int, first: int) -> bool:  # the n lines' records, or none
        if len(rows) != n:
            return False
        try:  # each key's column, as its read converts it; a str is its own value
            columns = [c if read is str else [*map(read, c)] for read, c in zip(reads, zip(*rows))]
        except ValueError:
            return False
        # finite terms can sum past the floats, so a sum that is not finite checks each
        if not all(math.isfinite(sum(c)) or all(map(math.isfinite, c))
                   for c, read in zip(columns, reads) if read is float):
            return False
        try:
            record(first, *columns)
        except (ValidationError, ParseError, ConflictError):
            return False
        return True

    first = 1
    for block in _lines(source):
        if not take(findall("\n" + "\n".join(block)), len(block), first):
            for line_no, line in enumerate(block, first):
                _read_line(line, line_no, lambda obj: record(line_no, *zip(_fields(obj, fmt))))
        first += len(block)


def _at_line(exc: PnrKitError, line_no: int) -> PnrKitError:
    # a model ValidationError is a fault of the line's text
    return (ParseError if isinstance(exc, ValidationError) else type(exc))(str(exc), line_no)


def _read_line(raw: str, line_no: int, record: Callable[[dict], None]) -> None:
    # a blank line holds no record; any other goes through strip() and json.loads,
    # whose messages the errors repeat
    text = raw.strip()
    if not text:
        return
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError's msg, or an int longer than int() takes
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from None
    except ParseError as exc:  # a repeated key
        raise _at_line(exc, line_no) from None
    try:
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object")
        record(obj)
    except (ValidationError, ParseError, ConflictError) as exc:
        raise _at_line(exc, line_no) from None


def _as_str(v: object, key: str) -> str:
    if not isinstance(v, str) or not v:
        raise ParseError(f"{key!r} must be a non-empty string")
    return v


def _as_int(v: object, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{key!r} must be an integer")
    return v


def _as_number(v: object, key: str) -> float:
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


def _as_bool(v: object, key: str) -> bool:
    if not isinstance(v, bool):
        raise ParseError(f"{key!r} must be a boolean")
    return v


def _as_ints(v: object, key: str) -> tuple[int, ...]:
    if not isinstance(v, list) or any(isinstance(f, bool) or not isinstance(f, int) for f in v):
        raise ParseError(f"{key!r} must be a list of integers")
    return tuple(v)


def _format(required: dict[str, Callable], optional: dict[str, Callable] = {}) -> tuple:
    """A wire format as one table: each key, in the order it is written,
    with the check that reads its value; then the keys every record has,
    and the keys a record may leave out."""
    return {**required, **optional}, tuple(required), tuple(optional)


_ANNOTATION = _format(
    {"clip_id": _as_str, "fps": _as_number, "num_frames": _as_int},
    {"state_change": _as_bool, "pnr_frame": _as_int, "other_pnr_frames": _as_ints},
)
_SCORE = _format({"clip_id": _as_str, "start": _as_int, "end": _as_int, "confidence": _as_number})
_PROB = _format({"clip_id": _as_str, "prob": _as_number})
_PREDICTION = _format(
    {"clip_id": _as_str, "time_sec": _as_number, "frame": _as_int, "source": _as_str}
)

_INT = "(?:0|[1-9][0-9]*)"
# each check's values as json.dumps writes them, digits [0-9] as int() also reads \d, and how
# the decoder reads them; it reads "-0" as the int 0, so a number has a fraction or an exponent
_TOKENS = {
    _as_str: (r'"([^"\\\x00-\x1f]+)"', str),
    _as_int: (f"({_INT})", int),
    _as_number: (rf"(-?{_INT}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))", float),
    _as_bool: ("(true|false)", "true".__eq__),
    _as_ints: (rf"\[({_INT}(?:, {_INT})*)\]", lambda v: tuple(map(int, v.split(", ")))),
}


def _pattern(fmt: tuple) -> tuple:
    """The findall of fmt's pattern, a "\n" (re skips to it) and a line as the emitters
    write it, and each key's read of what it finds ("" if absent); re caches it."""
    checks, required, _ = fmt
    line, reads = "", []  # the first key is required: line[2:] cuts its ", "
    for key, check in checks.items():
        token, read = _TOKENS[check]
        line += f', "{key}": {token}' if key in required else f'(?:, "{key}": {token})?'
        reads.append(read if key in required else lambda v, read=read: read(v) if v else None)
    return re.compile(rf"\n\{{{line[2:]}\}}\r?(?=\n|\Z)").findall, reads


def _fields(obj: dict, fmt: tuple) -> list:
    """The checked values of a record of ``fmt``, in written order; an
    absent optional key reads as None.  The key set is checked first:
    missing keys are named in written order, then unknown keys sorted."""
    checks, required, _ = fmt
    if obj.keys() != checks.keys():
        missing = [k for k in required if k not in obj]
        if missing:
            raise ParseError(f"missing key(s): {', '.join(missing)}")
        unknown = obj.keys() - checks.keys()
        if unknown:
            raise ParseError(f"unknown key(s): {', '.join(sorted(unknown))}")
    return [check(obj[key], key) if key in obj else None for key, check in checks.items()]


def _json(value: object) -> str:
    """json.dumps(value), without its call for a str, a finite float (numpy's too) or a bool."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return float.__repr__(value)
    return "true" if value is True else "false" if value is False else json.dumps(value)


def parse_annotations(stream: str | Iterable[str]) -> Dataset:
    """Parse an annotation file into a validated Dataset."""
    clips: dict[str, Clip] = {}
    pnr: dict[str, PnrAnnotation] = {}
    oscc: dict[str, bool] = {}

    def record(_, clip_ids, fps, num_frames, state_changes, positives, others) -> None:
        built, anns = [*map(Clip, clip_ids, fps, num_frames)], {}
        for clip, positive, more in zip(built, positives, others):
            if positive is not None:
                anns[clip[0]] = ann = PnrAnnotation(positive, more or ())
                ensure_annotation_in_clip(ann, clip)
            elif more is not None:
                raise ParseError("'other_pnr_frames' requires 'pnr_frame'")
        # checked last, so a line with its own fault reports that fault
        _put(clips, clip_ids, built, "clip_id")
        pnr.update(anns)
        oscc.update((c, label) for c, label in zip(clip_ids, state_changes) if label is not None)

    _read(stream, _ANNOTATION, record)
    return Dataset(clips=clips, pnr=pnr, oscc=oscc)


def emit_annotations(dataset: Dataset) -> Iterator[str]:
    """A Dataset's annotation lines, one clip's at a time, clip order preserved."""
    # as emit_pnr_scores writes, keys in _ANNOTATION's order; a key with no value is left out
    for clip_id, (_, fps, num_frames) in dataset.clips.items():
        row = f'{{"clip_id": {_json(clip_id)}, "fps": {_json(fps)}, "num_frames": {num_frames}'
        label = dataset.oscc.get(clip_id)
        if label is not None:
            row += f', "state_change": {_json(label)}'
        ann = dataset.pnr.get(clip_id)
        if ann is not None:
            row += f', "pnr_frame": {ann[0]}'
            if ann[1]:
                row += f', "other_pnr_frames": [{", ".join(map(str, ann[1]))}]'
        yield row + "}\n"


def parse_pnr_scores(
    stream: str | Iterable[str], clips: Mapping[str, Clip] | None = None
) -> dict[str, ScoreSeries]:
    """Parse window scores into one series per clip, sorted by start.

    A clip may score each ``(start, end)`` window once; a repeat is
    reported at its own line, as any fault on a later line comes after it.
    """
    grouped: defaultdict[str, list[ScoredWindow]] = defaultdict(list)
    # the window of each line read (None if blank), to replay should one repeat
    placed: list[ScoredWindow | None] = []
    frames = {clip_id: clip[2] for clip_id, clip in (clips or {}).items()}  # frame counts

    def record(first, clip_ids, starts, ends, confidences) -> None:
        windows = [*map(ScoredWindow, starts, ends, confidences)]
        # a column test of the block first: an unknown clip reads as 0 frames, and fails it
        if clips is not None and not all(map(le, ends, map(frames.get, clip_ids, repeat(0)))):
            any(map(ensure_windows_in_clip, zip(windows), _clips_of(clip_ids, clips)))
        placed.extend(repeat(None, first - 1 - len(placed)))
        placed.extend(windows)
        # each window onto its clip's list, which the defaultdict's [] makes if new
        any(map(list.append, map(grouped.__getitem__, clip_ids), windows))

    try:
        _read(stream, _SCORE, record)
    except (ParseError, ConflictError):  # a window repeated before is the first fault
        _sorted_series(grouped, placed)
        raise
    return _sorted_series(grouped, placed)


def _sorted_series(grouped: dict[str, list], placed: list) -> dict[str, ScoreSeries]:
    """Each clip's windows sorted by (start, end), the tuple order; a repeated
    window is refused at the first line that repeats one, as the other formats
    refuse a repeated clip id."""
    owners = {}  # id of each window of a clip that repeats one -> clip id
    start, span = itemgetter(0), itemgetter(0, 1)
    for clip_id, windows in grouped.items():
        windows.sort()
        n = len(windows)  # only windows that share a start can repeat; most series have none
        if len(set(map(start, windows))) < n and len(set(map(span, windows))) < n:
            owners.update(dict.fromkeys(map(id, windows), clip_id))
    if owners:  # replay the lines read
        seen = set()
        for line_no, window in enumerate(placed, 1):
            clip_id = owners.get(id(window))
            if clip_id is not None:
                key = clip_id, window[0], window[1]
                if key in seen:
                    raise ConflictError(
                        f"duplicate window [{key[1]}, {key[2]}) for clip {clip_id!r}", line_no
                    )
                seen.add(key)
    placed.clear()  # freed before the series are built; each list goes as its series comes
    return {clip_id: ScoreSeries(tuple(grouped.pop(clip_id))) for clip_id in list(grouped)}


def emit_pnr_scores(series: Iterable[tuple[str, ScoreSeries]]) -> Iterator[str]:
    """The lines of each (clip id, series) pair, one clip's at a time, as the pair is drawn."""
    # the bytes of one json.dumps per record, keys in _SCORE's order, without
    # building a dict per window: ints as themselves, the rest as _json does
    for clip_id, (windows,) in series:
        head = '{"clip_id": ' + _json(clip_id) + ', "start": '
        yield "".join([
            f'{head}{start}, "end": {end}, "confidence": '
            f'{float.__repr__(c) if isinstance(c, float) else json.dumps(c)}}}\n'
            for start, end, c in windows
        ])


def parse_oscc_scores(
    stream: str | Iterable[str], clips: Mapping[str, Clip] | None = None
) -> dict[str, float]:
    """Parse per-clip state-change probabilities."""
    probs: dict[str, float] = {}

    def record(_, clip_ids, values) -> None:
        any(map(ensure_range, repeat("'prob'"), values, repeat(0), repeat(1)))  # each is None
        _clips_of(clip_ids, clips)
        _put(probs, clip_ids, values, "probability for clip")

    _read(stream, _PROB, record)
    return probs


def emit_oscc_scores(probs: Iterable[tuple[str, float]]) -> Iterator[str]:
    # as emit_pnr_scores writes, keys in _PROB's order, each value as parse_oscc_scores checks it
    for clip_id, p in probs:
        ensure_range("'prob'", p, 0, 1)
        yield f'{{"clip_id": {_json(clip_id)}, "prob": {_json(p)}}}\n'


def parse_predictions(
    stream: str | Iterable[str], clips: Mapping[str, Clip] | None = None
) -> dict[str, PnrPrediction]:
    """Parse localization predictions, one per clip."""
    preds: dict[str, PnrPrediction] = {}

    def record(_, clip_ids, times, frames, sources) -> None:
        built = [*map(PnrPrediction, times, frames, sources)]
        # one call a line, as a file holds one prediction per clip
        any(map(ensure_prediction_in_clip, built, _clips_of(clip_ids, clips)))
        _put(preds, clip_ids, built, "prediction for clip")

    _read(stream, _PREDICTION, record)
    return preds


def emit_predictions(preds: Iterable[tuple[str, PnrPrediction]]) -> Iterator[str]:
    # as emit_pnr_scores writes, keys in _PREDICTION's order: a source is
    # one of model.SOURCES, which need no escapes
    for clip_id, (time_sec, frame, source) in preds:
        yield (f'{{"clip_id": {_json(clip_id)}, "time_sec": {_json(time_sec)}, '
               f'"frame": {frame}, "source": "{source}"}}\n')


def write_text_atomic(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write text, or the pieces of an iterable of strings in turn, to
    path via a temp file so partial output never lands.

    Pieces are written as they are drawn, so the whole text need never
    be held at once; an iterable that raises leaves the old file.  The
    file gets mode 0o666 less the umask, like any file the process opens
    for writing.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".pnrkit-{os.urandom(8).hex()}.part")
    # O_EXCL refuses an existing name, so the temp file is always our own
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise

