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
import os
import sys
from typing import Callable, TypeVar

import pnrkit
from pnrkit.errors import FALLBACKS, CoverageError, EmptyInputError, PnrKitError, ValidationError

T = TypeVar("T")

# Handlers read library names as attributes of this module, never as bare
# globals: the first read of a name imports its home module through
# __getattr__ below, so a subcommand loads only the modules it runs, and
# a wrapper set on the module with setattr (as perfbench/tracer.py does)
# is the function called.
_lib = sys.modules[__name__]


def __getattr__(name: str) -> object:
    if name not in pnrkit.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(pnrkit, name)
    return value


def _info(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _blame(path: str, call: Callable[..., T], *args, only: type[PnrKitError] = PnrKitError) -> T:
    """Return call(*args), putting path in front of the message of an error
    of type only; the error keeps its type and fields."""
    try:
        return call(*args)
    except only as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load(path: str, parse: Callable[[str], T]) -> T:
    return _blame(path, parse, _read_text(path))


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        _lib.write_text_atomic(args.out, text)
        _info(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_stats(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    stats = _blame(args.annotations, _lib.dataset_stats, ds, args.bins, only=EmptyInputError)
    sys.stdout.write(_lib.render_stats(stats))
    if args.out:
        _lib.write_text_atomic(args.out, _lib.stats_plot_data(stats))
        _info(args, f"wrote {args.out}")
    return 0


def _cmd_windows(args: argparse.Namespace) -> int:
    clip = _lib.Clip("clip", args.fps, args.frames)
    config = _lib.WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# index\tstart\tend\tcenter_sec"]
    for i, win in enumerate(_lib.dense_windows(clip, config)):
        rows.append(f"{i}\t{win.start}\t{win.end}\t{_lib.window_center_time(win, clip.fps):.6f}")
    _emit(args, "\n".join(rows) + "\n")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    series_by_clip = _load(args.scores, _lib.parse_pnr_scores)
    if not series_by_clip:
        raise EmptyInputError(f"{args.scores}: no scored windows")
    config = _lib.SelectionConfig(
        threshold=args.threshold, prior_fraction=args.prior, fallback=args.fallback
    )
    preds = {}
    for clip_id in sorted(series_by_clip):
        clip = ds.clips.get(clip_id)
        if clip is None:
            raise ValidationError(f"{args.scores}: scores for unknown clip {clip_id!r}")
        preds[clip_id] = _lib.select_pnr(series_by_clip[clip_id], clip, config)
    _emit(args, _lib.emit_predictions(preds))
    _info(args, f"localized {len(preds)} clip(s)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    preds = {}
    for clip_id in sorted(ds.pnr):
        clip = ds.clips[clip_id]
        if args.mode == "center":
            preds[clip_id] = _lib.baseline_center(clip)
        else:
            preds[clip_id] = _lib.baseline_fraction(clip, args.fraction)
    _emit(args, _lib.emit_predictions(preds))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    config = _lib.WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# clip_id\toracle_error_sec"]
    total = 0.0
    for clip_id in sorted(ds.pnr):
        err = _lib.oracle_error(ds.pnr[clip_id], ds.clips[clip_id], config)
        total += err
        rows.append(f"{clip_id}\t{err:.6f}")
    _emit(args, "\n".join(rows) + "\n")
    _info(args, f"mean_oracle_error_sec: {total / len(ds.pnr):.6f}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValidationError("fuse requires --out")
    if len(args.scores) < 2:
        raise ValidationError(f"fuse needs two or more --scores files, got {len(args.scores)}")
    ds = _load(args.annotations, _lib.parse_annotations) if args.annotations else None
    oscc = args.task == "oscc"
    parse = _lib.parse_oscc_scores if oscc else _lib.parse_pnr_scores
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
        fused[clip_id] = _lib.fuse_oscc(values) if oscc else _lib.fuse_pnr(values, clip)
    _emit(args, _lib.emit_oscc_scores(fused) if oscc else _lib.emit_pnr_scores(fused))
    _info(args, f"fused {len(args.scores)} file(s)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    if args.task == "oscc":
        if args.plot_data:
            raise ValidationError("--plot-data applies to --task pnr only")
        probs = _load(args.preds, _lib.parse_oscc_scores)
        labels = {c: p >= 0.5 for c, p in probs.items()}
        # a clip missing from or extra in the preds file is the preds file's fault
        report = _blame(args.preds, _lib.oscc_accuracy, labels, ds, only=CoverageError)
    else:
        preds = _load(args.preds, _lib.parse_predictions)
        report = _blame(
            args.preds, _lib.per_position_error, preds, ds, args.bins, only=CoverageError
        )
    sys.stdout.write(_lib.render_report(report))
    if args.out:
        _lib.write_text_atomic(args.out, _lib.report_to_json(report))
        _info(args, f"wrote {args.out}")
    if args.plot_data:
        _lib.write_text_atomic(args.plot_data, _lib.error_plot_data(report))
        _info(args, f"wrote {args.plot_data}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _load(args.config, _lib.parse_sim_config)
    sim_cfg = settings.sim
    if args.seed is not None:
        import dataclasses  # not at the top: no other subcommand needs it

        sim_cfg = dataclasses.replace(sim_cfg, seed=args.seed)
    ds = _lib.gen_dataset(sim_cfg)
    scores = _lib.simulate_scores(ds, settings.windows, settings.noise, seed=sim_cfg.seed)
    probs = _lib.simulate_oscc(ds, settings.noise, seed=sim_cfg.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = (
        ("annotations.jsonl", _lib.emit_annotations(ds)),
        ("scores_pnr.jsonl", _lib.emit_pnr_scores(scores)),
        ("scores_oscc.jsonl", _lib.emit_oscc_scores(probs)),
    )
    for name, text in outputs:
        path = os.path.join(args.out_dir, name)
        _lib.write_text_atomic(path, text)
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
