"""Command-line pipelines over the library: files in, files out.

Every stage reads and writes the documented line formats, so simulated
scores can be swapped for real scorer output at any boundary.  Data
goes to --out when given (written atomically) and to standard output
otherwise; informational notes go to standard error unless --quiet.
Failures exit nonzero with a one-line diagnostic naming the offending
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, TypeVar

from pnrkit.errors import CoverageError, EmptyInputError, PnrKitError, ValidationError
from pnrkit.fusion import fuse_oscc, fuse_pnr
from pnrkit.ingest import (
    dataset_stats,
    emit_annotations,
    emit_oscc_scores,
    emit_pnr_scores,
    emit_predictions,
    parse_annotations,
    parse_oscc_scores,
    parse_pnr_scores,
    parse_predictions,
    render_stats,
    stats_plot_data,
    write_text_atomic,
)
from pnrkit.localization import (
    FALLBACKS,
    SelectionConfig,
    baseline_center,
    baseline_fraction,
    oracle_error,
    select_pnr,
)
from pnrkit.metrics import (
    error_plot_data,
    oscc_accuracy,
    per_position_error,
    render_report,
    report_to_json,
)
from pnrkit.model import Clip, window_center_time
from pnrkit.sampling import WindowingConfig, dense_windows
from pnrkit.sim import gen_dataset, parse_sim_config, simulate_oscc, simulate_scores

T = TypeVar("T")


def _info(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, parse: Callable[[str], T]) -> T:
    try:
        return parse(_read_text(path))
    except PnrKitError as exc:
        # name the input in the message; the error keeps its type and fields
        exc.args = (f"{path}: {exc}",)
        raise


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        write_text_atomic(args.out, text)
        _info(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_stats(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, parse_annotations)
    stats = dataset_stats(ds, bins=args.bins)
    sys.stdout.write(render_stats(stats))
    if args.out:
        write_text_atomic(args.out, stats_plot_data(stats))
        _info(args, f"wrote {args.out}")
    return 0


def _cmd_windows(args: argparse.Namespace) -> int:
    clip = Clip("clip", args.fps, args.frames)
    config = WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# index\tstart\tend\tcenter_sec"]
    for i, win in enumerate(dense_windows(clip, config)):
        rows.append(f"{i}\t{win.start}\t{win.end}\t{window_center_time(win, clip.fps):.6f}")
    _emit(args, "\n".join(rows) + "\n")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, parse_annotations)
    series_by_clip = _load(args.scores, parse_pnr_scores)
    if not series_by_clip:
        raise EmptyInputError(f"{args.scores}: no scored windows")
    config = SelectionConfig(
        threshold=args.threshold, prior_fraction=args.prior, fallback=args.fallback
    )
    preds = {}
    for clip_id in sorted(series_by_clip):
        clip = ds.clips.get(clip_id)
        if clip is None:
            raise ValidationError(f"{args.scores}: scores for unknown clip {clip_id!r}")
        preds[clip_id] = select_pnr(series_by_clip[clip_id], clip, config)
    _emit(args, emit_predictions(preds))
    _info(args, f"localized {len(preds)} clip(s)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    preds = {}
    for clip_id in sorted(ds.pnr):
        clip = ds.clips[clip_id]
        if args.mode == "center":
            preds[clip_id] = baseline_center(clip)
        else:
            preds[clip_id] = baseline_fraction(clip, args.fraction)
    _emit(args, emit_predictions(preds))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    config = WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# clip_id\toracle_error_sec"]
    total = 0.0
    for clip_id in sorted(ds.pnr):
        err = oracle_error(ds.pnr[clip_id], ds.clips[clip_id], config)
        total += err
        rows.append(f"{clip_id}\t{err:.6f}")
    _emit(args, "\n".join(rows) + "\n")
    _info(args, f"mean_oracle_error_sec: {total / len(ds.pnr):.6f}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValidationError("fuse requires --out")
    ds = _load(args.annotations, parse_annotations) if args.annotations else None
    oscc = args.task == "oscc"
    parse = parse_oscc_scores if oscc else parse_pnr_scores
    score_maps = [_load(path, parse) for path in args.scores]
    clip_ids = sorted(set().union(*score_maps))
    if not clip_ids:
        raise EmptyInputError("no scores to fuse")
    # a clip missing from one file would be averaged over the others only
    for path, scores in zip(args.scores, score_maps):
        missing = tuple(clip_id for clip_id in clip_ids if clip_id not in scores)
        if missing:
            raise CoverageError(f"{path}: no scores for clip(s)", missing)
    fused = {}
    for clip_id in clip_ids:
        clip = None
        if ds is not None:
            clip = ds.clips.get(clip_id)
            if clip is None:
                raise ValidationError(
                    f"{args.scores[0]}: scores for unknown clip {clip_id!r} "
                    f"(not in {args.annotations})"
                )
        values = [scores[clip_id] for scores in score_maps]
        fused[clip_id] = fuse_oscc(values) if oscc else fuse_pnr(values, clip)
    _emit(args, emit_oscc_scores(fused) if oscc else emit_pnr_scores(fused))
    _info(args, f"fused {len(args.scores)} file(s)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, parse_annotations)
    if args.task == "oscc":
        if args.plot_data:
            raise ValidationError("--plot-data applies to --task pnr only")
        probs = _load(args.preds, parse_oscc_scores)
        report = oscc_accuracy({c: p >= 0.5 for c, p in probs.items()}, ds)
    else:
        preds = _load(args.preds, parse_predictions)
        report = per_position_error(preds, ds, bins=args.bins)
    sys.stdout.write(render_report(report))
    if args.out:
        write_text_atomic(args.out, report_to_json(report))
        _info(args, f"wrote {args.out}")
    if args.plot_data:
        write_text_atomic(args.plot_data, error_plot_data(report))
        _info(args, f"wrote {args.plot_data}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _load(args.config, parse_sim_config)
    sim_cfg = settings.sim
    if args.seed is not None:
        sim_cfg = dataclasses.replace(sim_cfg, seed=args.seed)
    ds = gen_dataset(sim_cfg)
    scores = simulate_scores(ds, settings.windows, settings.noise, seed=sim_cfg.seed)
    probs = simulate_oscc(ds, settings.noise, seed=sim_cfg.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = (
        ("annotations.jsonl", emit_annotations(ds)),
        ("scores_pnr.jsonl", emit_pnr_scores(scores)),
        ("scores_oscc.jsonl", emit_oscc_scores(probs)),
    )
    for name, text in outputs:
        path = os.path.join(args.out_dir, name)
        write_text_atomic(path, text)
        _info(args, f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress notes on standard error")
    common.add_argument("--out", default=None, help="write data here instead of standard output")

    parser = argparse.ArgumentParser(
        prog="pnrkit",
        description="State-change capture pipelines: sampling, localization, fusion, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common], help="annotation counts and position histograms")
    p.add_argument("--annotations", required=True, help="annotation file (JSON lines)")
    p.add_argument("--bins", type=int, default=10, help="histogram bin count")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("windows", parents=[common], help="dense window sweep table")
    p.add_argument("--frames", type=int, required=True, help="clip length in frames")
    p.add_argument("--fps", type=float, default=30.0, help="frames per second")
    p.add_argument("--n", type=int, required=True, help="window count")
    p.add_argument("--window", type=int, default=32, help="window length in frames")
    p.set_defaults(handler=_cmd_windows)

    p = sub.add_parser("localize", parents=[common], help="select one instant per scored clip")
    p.add_argument("--scores", required=True, help="window score file")
    p.add_argument("--annotations", required=True, help="annotation file for clip geometry")
    p.add_argument("--threshold", type=float, default=0.7, help="confidence filter (strictly above)")
    p.add_argument("--prior", type=float, default=0.43, help="positional prior fraction")
    p.add_argument("--fallback", choices=FALLBACKS, default="prior-point",
                   help="answer when no window clears the threshold")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("baseline", parents=[common], help="constant-position predictions")
    p.add_argument("--mode", choices=("center", "fraction"), required=True)
    p.add_argument("--fraction", type=float, default=0.43, help="fraction for --mode fraction")
    p.add_argument("--annotations", required=True)
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("oracle", parents=[common], help="best window-center error per clip")
    p.add_argument("--annotations", required=True)
    p.add_argument("--n", type=int, required=True, help="window count")
    p.add_argument("--window", type=int, default=32, help="window length in frames")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("fuse", parents=[common], help="average score files from several scorers")
    p.add_argument("--task", choices=("oscc", "pnr"), required=True)
    p.add_argument("--scores", nargs="+", required=True, help="two or more score files")
    p.add_argument("--annotations", default=None,
                   help="optional annotation file for clip id and window bounds checks")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against annotations")
    p.add_argument("--task", choices=("oscc", "pnr"), required=True)
    p.add_argument("--preds", required=True, help="prediction file (pnr) or probability file (oscc)")
    p.add_argument("--annotations", required=True)
    p.add_argument("--bins", type=int, default=10, help="position bins for the pnr breakdown")
    p.add_argument("--plot-data", default=None, help="write per-bin TSV here (pnr only)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic labeled dataset")
    p.add_argument("--config", required=True, help="key = value settings file")
    p.add_argument("--out-dir", required=True, help="directory for the emitted files")
    p.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PnrKitError, OSError) as exc:
        print(f"pnrkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
