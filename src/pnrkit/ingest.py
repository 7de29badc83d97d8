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
import io
import json
import math
import os
import re
from collections import defaultdict
from functools import partial
from json.encoder import encode_basestring_ascii
from itertools import compress, islice, repeat
from operator import add, is_not, itemgetter, le, lt, not_, truediv
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
    for clip_id, label in oscc.items():  # the parser gives a bool; no other label round-trips
        if not isinstance(label, bool):
            raise ValidationError(f"clip {clip_id!r}: state-change label {label!r} is not a bool")
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


def _lines(source: str | Iterable[str]) -> Iterator[tuple[str, int]]:
    """Blocks of source's lines as (text, n): n lines joined by "\n", each block drawn as
    the one before is handed on.  A block is _BLOCK items, each a line and its "\n", as a
    text file's are; other items, and a str's lines, are cut at "\n" once their own is
    off.  A line not UTF-8 (a lone surrogate, as errors="surrogateescape" hands on a bad
    byte) is a ParseError at that line, after the lines before it."""
    file, line_no = isinstance(source, io.TextIOBase), 0
    items = iter(source.removesuffix("\n").split("\n") if isinstance(source, str) else source)
    while chunk := list(islice(items, _BLOCK)):
        text, n = "".join(chunk).removesuffix("\n"), len(chunk)
        # a file's items but its last end in "\n", unless newline= keeps a "\r"; then,
        # as in any other iterable, an item may be more lines, or part of one
        if not file or "\r" in text or n == 1 and "\n" in text:
            text = "\n".join(map(str.removesuffix, chunk, repeat("\n")))
            n = text.count("\n") + 1
        lines = () if text.isascii() else text.split("\n")
        for i, line in enumerate(lines):
            # name the byte a surrogate stands for, then fail on any other surrogate
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
                line.encode("utf-8")
            except UnicodeError as exc:
                if i:
                    yield "\n".join(lines[:i]), i
                raise ParseError(f"invalid UTF-8: {exc}", line_no + i + 1) from None
        yield text, n
        line_no += n


def _read(source: str | Iterable[str], fmt: tuple, record: Callable[..., None]) -> None:
    """Run record(first, *columns) on the checked values of the non-blank lines of
    source in line order, column k holding key k's values from line first on: a
    block of lines all on fmt's pattern in one call, read by one findall, and any
    other block a line at a time by the line reader.  record keeps all of a call's
    rows or none, so a block it refuses, or one holding a value the decoder reads
    otherwise (an int too long for int(); a number past the floats reads as inf,
    which every record refuses), goes to the line reader too, and an error names
    its line."""
    findall, reads = _pattern(fmt)
    first = 1
    for text, n in _lines(source):
        try:
            rows, columns = findall("\n" + text), []
            if len(rows) < n:  # a line off the pattern, which holds one row a line
                raise ValueError
            for read, c in zip(reads, zip(*rows)):  # each key's column, as its read converts it
                if all(c):
                    columns.append([*read(c)])
                else:  # a key some lines leave out reads as None there
                    present = [*filter(None, c)]
                    values = {"": None, **dict(zip(present, read(present)))}
                    columns.append([*map(values.__getitem__, c)])
            record(first, *columns)
        except (ValueError, ValidationError, ParseError, ConflictError):  # each line on its own
            for line_no, line in enumerate(text.split("\n"), first):
                _read_line(line, line_no, lambda obj: record(line_no, *zip(_fields(obj, fmt))))
        first += n


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


def _as_int(v: object, key: str) -> int:  # json.loads gives an int or a bool exactly
    if type(v) is not int:
        raise ParseError(f"{key!r} must be an integer")
    return v


def _as_number(v: object, key: str) -> float:
    if type(v) not in (int, float):
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
    if not isinstance(v, list) or any(type(f) is not int for f in v):
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
# each check's values as json.dumps writes them, digits [0-9] as int() also reads \d, and how a
# column of them is read, with no Python call a value; "-0" is an int, so a number has a . or e
_TOKENS = {
    _as_str: (r'"([^"\\\x00-\x1f]+)"', iter),
    _as_int: (f"({_INT})", partial(map, int)),
    _as_number: (rf"(-?{_INT}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
                 partial(map, float)),
    _as_bool: ("(true|false)", partial(map, {"true": True, "false": False}.__getitem__)),
    _as_ints: (rf"\[({_INT}(?:, {_INT})*)\]",
               lambda c: map(tuple, map(map, repeat(int), map(str.split, c, repeat(", "))))),
}


def _pattern(fmt: tuple) -> tuple:
    """The findall of fmt's pattern, a "\n" (re skips to it) and a line as the emitters
    write it, and each key's column read of what it finds ("" if absent); re caches it."""
    checks, required, _ = fmt
    line, reads = "", []  # the first key is required: line[2:] cuts its ", "
    for key, check in checks.items():
        token, read = _TOKENS[check]
        line += f', "{key}": {token}' if key in required else f'(?:, "{key}": {token})?'
        reads.append(read)
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


def _number(value: object) -> str:
    """A number field's text: an int as json.dumps writes it, any other number
    (numpy's float32 as well as a float) as the repr of its float."""
    if isinstance(value, float):
        return float.__repr__(value)
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(float(value))


def parse_annotations(stream: str | Iterable[str]) -> Dataset:
    """Parse an annotation file into a validated Dataset."""
    clips: dict[str, Clip] = {}
    pnr: dict[str, PnrAnnotation] = {}
    oscc: dict[str, bool] = {}

    def record(_, clip_ids, fps, num_frames, labels, positives, others) -> None:
        built = Clip._from_columns(clip_ids, fps, num_frames)
        annotated = [*map(is_not, positives, repeat(None))]
        if {*compress(others, map(not_, annotated))} - {None}:  # frames, but no pnr_frame
            raise ParseError("'other_pnr_frames' requires 'pnr_frame'")
        positives, owners = [*compress(positives, annotated)], [*compress(built, annotated)]
        others = [*compress(map({None: ()}.get, others, others), annotated)]  # None: no frames
        anns = PnrAnnotation._from_columns(positives, others)
        tops = map(max, map(add, zip(positives), others))  # each one's largest frame
        if not all(map(lt, tops, map(itemgetter(2), owners))):  # a column test first
            any(map(ensure_annotation_in_clip, anns, owners))
        # checked last, so a line with its own fault reports that fault
        _put(clips, clip_ids, built, "clip_id")
        pnr.update(zip(compress(clip_ids, annotated), anns))
        oscc.update(compress(zip(clip_ids, labels), map(is_not, labels, repeat(None))))

    _read(stream, _ANNOTATION, record)
    return Dataset(clips=clips, pnr=pnr, oscc=oscc)


def emit_annotations(dataset: Dataset) -> Iterator[str]:
    """A Dataset's annotation lines, one clip's at a time, clip order preserved."""
    # as emit_pnr_scores writes, keys in _ANNOTATION's order; a key with no value is left out
    for clip_id, (_, fps, num_frames) in dataset.clips.items():
        row = (f'{{"clip_id": {encode_basestring_ascii(clip_id)}, "fps": {_number(fps)}, '
               f'"num_frames": {num_frames}')
        label = dataset.oscc.get(clip_id)
        if label is not None:
            row += ', "state_change": true' if label else ', "state_change": false'
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
        windows = ScoredWindow._from_columns(starts, ends, confidences)
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
    # a ScoreSeries checks nothing, so tuple.__new__ makes each with no call of its own
    return {c: tuple.__new__(ScoreSeries, (tuple(grouped.pop(c)),)) for c in list(grouped)}


def emit_pnr_scores(series: Iterable[tuple[str, ScoreSeries]]) -> Iterator[str]:
    """The lines of each (clip id, series) pair, one clip's at a time, as the pair is drawn."""
    # the bytes of one json.dumps per record, keys in _SCORE's order, without
    # building a dict per window: numbers as _number writes them
    for clip_id, (windows,) in series:
        head = '{"clip_id": ' + encode_basestring_ascii(clip_id) + ', "start": '
        yield "".join([
            f'{head}{start}, "end": {end}, "confidence": '
            f'{float.__repr__(c) if isinstance(c, float) else _number(c)}}}\n'
            for start, end, c in windows
        ])


def parse_oscc_scores(
    stream: str | Iterable[str], clips: Mapping[str, Clip] | None = None
) -> dict[str, float]:
    """Parse per-clip state-change probabilities."""
    probs: dict[str, float] = {}

    def record(_, clip_ids, values) -> None:
        if not 0 <= min(values) <= max(values) <= 1:  # name the first value outside [0, 1]
            any(map(ensure_range, repeat("'prob'"), values, repeat(0), repeat(1)))
        _clips_of(clip_ids, clips)
        _put(probs, clip_ids, values, "probability for clip")

    _read(stream, _PROB, record)
    return probs


def emit_oscc_scores(probs: Iterable[tuple[str, float]]) -> Iterator[str]:
    # as emit_pnr_scores writes, keys in _PROB's order, each value as parse_oscc_scores checks it
    for clip_id, p in probs:
        ensure_range("'prob'", p, 0, 1)
        yield f'{{"clip_id": {encode_basestring_ascii(clip_id)}, "prob": {_number(p)}}}\n'


def parse_predictions(
    stream: str | Iterable[str], clips: Mapping[str, Clip] | None = None
) -> dict[str, PnrPrediction]:
    """Parse localization predictions, one per clip."""
    preds: dict[str, PnrPrediction] = {}

    def record(_, clip_ids, times, frames, sources) -> None:
        built = PnrPrediction._from_columns(times, frames, sources)
        owners = _clips_of(clip_ids, clips)  # each in its clip, by a column test first
        lengths = map(truediv, map(itemgetter(2), owners), map(itemgetter(1), owners))
        if not all(map(lt, frames, map(itemgetter(2), owners))) or not all(map(le, times, lengths)):
            any(map(ensure_prediction_in_clip, built, owners))
        _put(preds, clip_ids, built, "prediction for clip")

    _read(stream, _PREDICTION, record)
    return preds


def emit_predictions(preds: Iterable[tuple[str, PnrPrediction]]) -> Iterator[str]:
    # as emit_pnr_scores writes, keys in _PREDICTION's order: a source is
    # one of model.SOURCES, which need no escapes
    for clip_id, (time_sec, frame, source) in preds:
        yield (f'{{"clip_id": {encode_basestring_ascii(clip_id)}, "time_sec": {_number(time_sec)}, '
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

