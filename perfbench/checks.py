"""Output checks against an independent plain-Python reference.

Nothing here imports pnrkit.  Each check reads one stage's output file,
recomputes what it must hold from the benchmark's own inputs, and raises
``CheckFailed`` on the first disagreement.  No check pins an output
digest, so a declared change to the simulator's random stream is not a
failure; the simulate check verifies structure, geometry and the
documented distributions instead.
"""

from __future__ import annotations

import json
import math

from inputs import FPS, WINDOW_LEN, ClipTruth, Window, dense_starts, round_half_up

THRESHOLD = 0.7
PRIOR = 0.43
BINS = 10
# Exact arithmetic is expected; the slack only absorbs a different but
# equally valid summation order.
TIME_TOL = 1e-9
CONF_TOL = 1e-12
# the oracle table prints six decimals
ORACLE_TOL = 5e-7 + 1e-9


class CheckFailed(Exception):
    pass


def _records(path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> list[dict]:
    """Strictly parse a JSON Lines file: objects with exactly the given keys."""
    allowed = set(keys) | set(optional)
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(rec, dict) or not set(keys) <= rec.keys() <= allowed:
                raise CheckFailed(f"{path}:{line_no}: unexpected record {line.strip()[:80]}")
            records.append(rec)
    return records


def _is_int(v) -> bool:
    return type(v) is int


def _is_unit(v) -> bool:
    return type(v) in (int, float) and 0.0 <= v <= 1.0


def _center(start: int, end: int) -> float:
    return start + (end - start - 1) / 2


def _same_clips(found, expected, what: str) -> None:
    found, expected = set(found), set(expected)
    if found != expected:
        extra = sorted(found - expected)[:3]
        missing = sorted(expected - found)[:3]
        raise CheckFailed(f"{what}: clip set differs (extra {extra}, missing {missing})")


# ---- reference computations -------------------------------------------------


def ref_select(windows: list[Window], num_frames: int) -> tuple[float, int, str]:
    """Threshold, then the candidate nearest the prior (ties by start, end)."""
    best = None
    for start, end, conf in windows:
        if conf > THRESHOLD:
            fraction = _center(start, end) / (num_frames - 1) if num_frames > 1 else 0.0
            key = (abs(fraction - PRIOR), start, end)
            if best is None or key < best:
                best = key
    if best is None:
        frame = round_half_up(PRIOR * (num_frames - 1))
        return frame / FPS, frame, "fallback-prior"
    center = _center(best[1], best[2])
    return center / FPS, round_half_up(center), "selected"


def ref_oracle(clip: ClipTruth, num_windows: int) -> float:
    truth = clip.positive / FPS
    return min(
        abs(_center(s, s + WINDOW_LEN) / FPS - truth)
        for s in dense_starts(clip.num_frames, num_windows)
    )


def ref_fuse(series_list: list[list[Window]]) -> list[Window]:
    """Nearest-center mean fusion on the union of the input geometries."""
    points = sorted(
        {(s, e) for windows in series_list for s, e, _ in windows},
        key=lambda p: (_center(*p), p[0], p[1]),
    )
    fused = []
    for start, end in points:
        c = _center(start, end)
        picks = [
            min(windows, key=lambda w: (abs(_center(w[0], w[1]) - c), _center(w[0], w[1]), w[0], w[1]))[2]
            for windows in series_list
        ]
        fused.append((start, end, sum(picks) / len(picks)))
    return fused


# ---- stage output checks ----------------------------------------------------


def check_predictions(
    path: str, clips: dict[str, ClipTruth], series: dict[str, list[Window]]
) -> None:
    """Every scored clip gets the reference selection."""
    seen = set()
    for rec in _records(path, ("clip_id", "time_sec", "frame", "source")):
        clip_id = rec["clip_id"]
        if clip_id in seen:
            raise CheckFailed(f"{path}: duplicate prediction for {clip_id}")
        if clip_id not in series:
            raise CheckFailed(f"{path}: prediction for unscored clip {clip_id}")
        want_time, want_frame, want_source = ref_select(series[clip_id], clips[clip_id].num_frames)
        if (
            rec["source"] != want_source
            or rec["frame"] != want_frame
            or not isinstance(rec["time_sec"], float)
            or abs(rec["time_sec"] - want_time) > TIME_TOL
        ):
            raise CheckFailed(
                f"{path}: {clip_id} predicted {rec}, reference "
                f"time_sec={want_time} frame={want_frame} source={want_source}"
            )
        seen.add(clip_id)
    _same_clips(seen, series, path)


def check_pnr_report(path: str, preds_path: str, clips: dict[str, ClipTruth]) -> None:
    """MAE and per-bin counts of the predictions the stage was given."""
    preds = {rec["clip_id"]: rec["time_sec"] for rec in _records(
        preds_path, ("clip_id", "time_sec", "frame", "source"))}
    _same_clips(preds, clips, preds_path)
    errors = [abs(preds[c.clip_id] - c.positive / FPS) for c in clips.values()]
    counts = [0] * BINS
    for c in clips.values():
        counts[min(int(c.positive / (c.num_frames - 1) * BINS), BINS - 1)] += 1
    report = _report(path)
    mae = math.fsum(errors) / len(errors)
    if (
        report.get("task") != "pnr"
        or report.get("n_clips") != len(clips)
        or abs(report.get("headline", math.inf) - mae) > TIME_TOL
        or [b.get("count") for b in report.get("per_bin", [])] != counts
    ):
        raise CheckFailed(f"{path}: report {str(report)[:160]} != reference mae {mae}, bins {counts}")


def check_oscc_report(path: str, probs: dict[str, float], clips: dict[str, ClipTruth]) -> None:
    correct = sum((probs[c.clip_id] >= 0.5) == c.state_change for c in clips.values())
    accuracy = correct / len(clips)
    report = _report(path)
    if (
        report.get("task") != "oscc"
        or report.get("n_clips") != len(clips)
        or abs(report.get("headline", math.inf) - accuracy) > CONF_TOL
    ):
        raise CheckFailed(f"{path}: report {report} != reference accuracy {accuracy}")


def _report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) != 1:
        raise CheckFailed(f"{path}: expected one JSON record, found {len(lines)} lines")
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path}: invalid JSON ({exc.msg})") from None


def check_oracle(path: str, clips: dict[str, ClipTruth], num_windows: int) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "# clip_id\toracle_error_sec":
        raise CheckFailed(f"{path}: missing header")
    seen = set()
    for line in lines[1:]:
        clip_id, _, value = line.partition("\t")
        if clip_id not in clips or clip_id in seen:
            raise CheckFailed(f"{path}: unexpected row {line!r}")
        seen.add(clip_id)
        want = ref_oracle(clips[clip_id], num_windows)
        if abs(float(value) - want) > ORACLE_TOL:
            raise CheckFailed(f"{path}: {clip_id} oracle {value}, reference {want:.9f}")
    _same_clips(seen, clips, path)


def read_series(path: str) -> dict[str, list[Window]]:
    """Strictly parse a window score file, grouped by clip in sweep order."""
    grouped: dict[str, list[Window]] = {}
    for rec in _records(path, ("clip_id", "start", "end", "confidence")):
        s, e, c = rec["start"], rec["end"], rec["confidence"]
        if not (_is_int(s) and _is_int(e) and 0 <= s < e and _is_unit(c)):
            raise CheckFailed(f"{path}: bad window {rec}")
        grouped.setdefault(rec["clip_id"], []).append((s, e, float(c)))
    for windows in grouped.values():
        windows.sort()
    return grouped


def check_fused_pnr(path: str, inputs: list[dict[str, list[Window]]]) -> None:
    """Union geometry and reference confidences on every clip."""
    fused = read_series(path)
    _same_clips(fused, inputs[0], path)
    for clip_id, windows in fused.items():
        union = {(s, e) for series in inputs for s, e, _ in series[clip_id]}
        if [(s, e) for s, e, _ in windows] != sorted(union):
            raise CheckFailed(f"{path}: {clip_id} fused geometry is not the input union")
    for clip_id in fused:
        want = sorted(ref_fuse([series[clip_id] for series in inputs]))
        for (s, e, got), (_, _, ref) in zip(fused[clip_id], want):
            if abs(got - ref) > CONF_TOL:
                raise CheckFailed(f"{path}: {clip_id} [{s}, {e}) fused {got}, reference {ref}")


def read_probs(path: str) -> dict[str, float]:
    probs = {}
    for rec in _records(path, ("clip_id", "prob")):
        if not _is_unit(rec["prob"]) or rec["clip_id"] in probs:
            raise CheckFailed(f"{path}: bad record {rec}")
        probs[rec["clip_id"]] = float(rec["prob"])
    return probs


def check_fused_oscc(path: str, inputs: list[dict[str, float]]) -> None:
    fused = read_probs(path)
    _same_clips(fused, inputs[0], path)
    for clip_id, got in fused.items():
        want = sum(p[clip_id] for p in inputs) / len(inputs)
        if abs(got - want) > CONF_TOL:
            raise CheckFailed(f"{path}: {clip_id} fused prob {got}, reference {want}")


# clips of 5-8 s at 30 fps
_FRAME_RANGE = (round_half_up(5.0 * FPS), round_half_up(8.0 * FPS))
# distribution checks need enough clips to be far from chance
_MIN_CLIPS_FOR_STATS = 200


def check_simulated(out_dir: str, n_clips: int, num_windows: int) -> None:
    """Structure, sweep geometry and documented distributions of simulate output."""
    clips: dict[str, ClipTruth] = {}
    for rec in _records(
        f"{out_dir}/annotations.jsonl",
        ("clip_id", "fps", "num_frames", "state_change", "pnr_frame"),
        ("other_pnr_frames",),
    ):
        n, pos, others = rec["num_frames"], rec["pnr_frame"], rec.get("other_pnr_frames", [])
        if (
            not isinstance(rec["clip_id"], str)
            or rec["clip_id"] in clips
            or rec["fps"] != FPS
            or not _is_int(n)
            or not _FRAME_RANGE[0] <= n <= _FRAME_RANGE[1]
            or type(rec["state_change"]) is not bool
            or not _is_int(pos)
            or not 0 <= pos < n
            or not isinstance(others, list)
            or not all(_is_int(f) and 0 <= f < n for f in others)
            or len(set(others) | {pos}) != len(others) + 1
        ):
            raise CheckFailed(f"{out_dir}/annotations.jsonl: bad record {rec}")
        clips[rec["clip_id"]] = ClipTruth(rec["clip_id"], n, pos, tuple(others), rec["state_change"])
    if len(clips) != n_clips:
        raise CheckFailed(f"{out_dir}: {len(clips)} clips, configured {n_clips}")

    series = read_series(f"{out_dir}/scores_pnr.jsonl")
    _same_clips(series, clips, f"{out_dir}/scores_pnr.jsonl")
    hit_conf, miss_conf = [], []
    for clip_id, windows in series.items():
        clip = clips[clip_id]
        starts = dense_starts(clip.num_frames, num_windows)
        if [(s, e) for s, e, _ in windows] != [(s, s + WINDOW_LEN) for s in starts]:
            raise CheckFailed(f"{out_dir}/scores_pnr.jsonl: {clip_id} windows off the dense sweep")
        frames = (clip.positive, *clip.others)
        for s, e, c in windows:
            (hit_conf if any(s <= f < e for f in frames) else miss_conf).append(c)

    probs = read_probs(f"{out_dir}/scores_oscc.jsonl")
    _same_clips(probs, clips, f"{out_dir}/scores_oscc.jsonl")

    if n_clips >= _MIN_CLIPS_FOR_STATS:
        position = sum(c.positive / (c.num_frames - 1) for c in clips.values()) / n_clips
        hit_mean = sum(hit_conf) / len(hit_conf)
        miss_mean = sum(miss_conf) / len(miss_conf)
        # means of the documented model: 0.43 (slightly shifted by the
        # truncation), Beta(9, 2) = 0.82, Beta(2, 9) = 0.18
        if not (0.38 < position < 0.48 and 0.75 < hit_mean < 0.89 and 0.11 < miss_mean < 0.25):
            raise CheckFailed(
                f"{out_dir}: positive mean {position:.3f}, hit confidence mean "
                f"{hit_mean:.3f}, miss confidence mean {miss_mean:.3f} off the model"
            )
