"""Command-line pipelines over the library: files in, files out.

Every stage reads and writes the documented line formats, so simulated
scores can be swapped for real scorer output at any boundary.  Every data
stage, fuse too, writes to --out when given (atomically) and to standard
output otherwise, but stats and evaluate print a table and write another
form to --out.  A stage reads each input line by line as it parses it, and
checks each score or prediction against its annotated clip at its line, so
every check runs before its first write: checks first, then compute,
format and write per clip.  No whole input or output file is held, and
simulate, fuse, localize and baseline hold no clip's result but the one
being written; oracle, whose fit can refuse a clip, computes all first.
Informational notes go to standard error unless --quiet.
Failures exit nonzero with a one-line diagnostic naming the offending
input, and an option that the chosen mode does not read is refused.  A
reader that closes standard output early ends the run quietly, exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Callable, Iterable, Iterator, TypeVar

import pnrkit
from pnrkit.errors import (
    FALLBACKS, BoundsError, CoverageError, EmptyInputError, PnrKitError, ValidationError,
)

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


@contextlib.contextmanager
def _blame(path: str, *only: type) -> Iterator[None]:
    """Put path in front of the message of an error of a type of only (any PnrKitError
    if none is named) that the block raises; the error keeps its type and fields."""
    try:
        yield
    except only or PnrKitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load(path: str, parse: Callable[..., T], *args) -> T:
    """parse(the open file at path, *args), whose lines are read as the parser
    draws them.  A byte that is not UTF-8 reaches the parser as a lone
    surrogate, so the parser reports it at its line, after the lines before."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle, _blame(path):
        return parse(handle, *args)


def _write(args: argparse.Namespace, path: str, text: str | Iterable[str]) -> None:
    _lib.write_text_atomic(path, text)
    _info(args, f"wrote {path}")


def _emit(args: argparse.Namespace, pieces: Iterable[str]) -> None:
    if args.out:
        _write(args, args.out, pieces)
    else:
        sys.stdout.writelines(pieces)


def _refuse_unread(args: argparse.Namespace, mode: str, *dests: str) -> None:
    """Refuse each option of dests given on the command line, which only mode reads."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValidationError(f"--{dest.replace('_', '-')} applies to {mode} only")


def _cmd_stats(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    with _blame(args.annotations, EmptyInputError):
        stats = _lib.dataset_stats(ds, args.bins)
    sys.stdout.write(_lib.render_stats(stats))
    if args.out:
        _write(args, args.out, _lib.stats_plot_data(stats))
    return 0


def _cmd_windows(args: argparse.Namespace) -> int:
    clip = _lib.Clip("clip", args.fps, args.frames)
    config = _lib.WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# index\tstart\tend\tcenter_sec\n"]
    for i, win in enumerate(_lib.dense_windows(clip, config)):
        rows.append(f"{i}\t{win.start}\t{win.end}\t{_lib.window_center_time(win, clip.fps):.6f}\n")
    _emit(args, rows)
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    ds = _load(args.annotations, _lib.parse_annotations)
    scores = _load(args.scores, _lib.parse_pnr_scores, ds.clips)
    if not scores:
        raise EmptyInputError(f"{args.scores}: no scored windows")
    config = _lib.SelectionConfig(args.threshold, args.prior, args.fallback)
    # selection refuses no series parsed against its clip: each is selected as it is written
    preds = ((c, _lib.select_pnr(s, ds.clips[c], config)) for c, s in sorted(scores.items()))
    _emit(args, _lib.emit_predictions(preds))
    _info(args, f"localized {len(scores)} clip(s)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.mode == "center":
        _refuse_unread(args, "--mode fraction", "fraction")
    fraction = 0.43 if args.fraction is None else args.fraction
    ds = _load(args.annotations, _lib.parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    # only --fraction refuses a clip, and then the first: each is predicted as it is written
    preds = ((c, _lib.baseline_center(ds.clips[c]) if args.mode == "center"
              else _lib.baseline_fraction(ds.clips[c], fraction)) for c in sorted(ds.pnr))
    _emit(args, _lib.emit_predictions(preds))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from pnrkit.model import _mean_error  # evaluate's rule, without loading metrics

    ds = _load(args.annotations, _lib.parse_annotations)
    if not ds.pnr:
        raise EmptyInputError(f"{args.annotations}: no state-change frame annotations")
    config = _lib.WindowingConfig(num_windows=args.n, window_len=args.window)
    rows = ["# clip_id\toracle_error_sec\n"]
    errors = []
    with _blame(args.annotations):
        for clip_id in sorted(ds.pnr):
            if "\t" in clip_id or "\n" in clip_id or "\r" in clip_id:
                raise ValidationError(f"clip id {clip_id!r} would split its TSV row")
            errors.append(_lib.oracle_error(ds.pnr[clip_id], ds.clips[clip_id], config))
            rows.append(f"{clip_id}\t{errors[-1]:.6f}\n")
        mean = _mean_error(errors, len(errors))
    _emit(args, rows)
    _info(args, f"mean_oracle_error_sec: {mean:.6f}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if len(args.scores) < 2:
        raise ValidationError(f"fuse needs two or more --scores files, got {len(args.scores)}")
    clips = _load(args.annotations, _lib.parse_annotations).clips if args.annotations else None
    oscc = args.task == "oscc"
    parse = _lib.parse_oscc_scores if oscc else _lib.parse_pnr_scores
    score_maps = [_load(path, parse, clips) for path in args.scores]
    clip_ids = sorted(set().union(*score_maps))
    if not clip_ids:
        raise EmptyInputError("no scores to fuse")
    # a clip missing from one file would be averaged over the others only
    for path, scores in zip(args.scores, score_maps):
        missing = tuple(clip_id for clip_id in clip_ids if clip_id not in scores)
        if missing:
            raise CoverageError(f"{path}: no scores for clip(s)", missing)
    # fuse refuses no input that passed the checks above, so each clip is
    # fused only as the writer reaches it
    fuse = _lib.fuse_oscc if oscc else _lib.fuse_pnr
    fused = ((clip_id, fuse([scores[clip_id] for scores in score_maps])) for clip_id in clip_ids)
    _emit(args, (_lib.emit_oscc_scores if oscc else _lib.emit_pnr_scores)(fused))
    _info(args, f"fused {len(args.scores)} file(s)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.task == "oscc":
        _refuse_unread(args, "--task pnr", "bins", "plot_data")
    ds = _load(args.annotations, _lib.parse_annotations)
    if args.task == "oscc":
        preds = _load(args.preds, _lib.parse_oscc_scores, ds.clips)
        metric, options = _lib.oscc_accuracy, ()
    else:
        preds = _load(args.preds, _lib.parse_predictions, ds.clips)
        metric, options = _lib.per_position_error, (10 if args.bins is None else args.bins,)
    # a labeled clip the preds file misses, or an unlabeled one it predicts, or errors
    # that sum past the floats, are its fault, and no labels at all the annotation file's
    with _blame(args.annotations, EmptyInputError), _blame(args.preds, CoverageError, BoundsError):
        report = metric(preds, ds, *options)
    sys.stdout.write(_lib.render_report(report))
    if args.out:
        _write(args, args.out, _lib.report_to_json(report))
    if args.plot_data:
        _write(args, args.plot_data, _lib.error_plot_data(report))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _load(args.config, _lib.parse_sim_config)
    sim_cfg = settings.sim
    if args.seed is not None:
        sim_cfg = sim_cfg._replace(seed=args.seed)
    ds = _lib.gen_dataset(sim_cfg)
    # checks every clip against the window now; each clip is drawn as the writer reaches it
    scores = _lib.simulate_scores(ds, settings.windows, settings.noise, seed=sim_cfg.seed)
    probs = _lib.simulate_oscc(ds, settings.noise, seed=sim_cfg.seed)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    _write(args, os.path.join(out, "annotations.jsonl"), _lib.emit_annotations(ds))
    _write(args, os.path.join(out, "scores_pnr.jsonl"), _lib.emit_pnr_scores(scores.items()))
    _write(args, os.path.join(out, "scores_oscc.jsonl"), _lib.emit_oscc_scores(probs.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress notes on standard error")
    common = argparse.ArgumentParser(add_help=False, parents=[quiet])
    common.add_argument("--out", default=None, help="write data here instead of standard output")

    parser = argparse.ArgumentParser(
        prog="pnrkit",
        description="State-change capture pipelines: sampling, localization, fusion, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[quiet], help="annotation counts and position histograms")
    p.add_argument("--out", default=None, help="also write the histogram plot TSV here")
    p.add_argument("--annotations", required=True, help="annotation file (JSON lines)")
    p.add_argument("--bins", type=int, default=10, help="histogram bin count")

    p = sub.add_parser("windows", parents=[common], help="dense window sweep table")
    p.add_argument("--frames", type=int, required=True, help="clip length in frames")
    p.add_argument("--fps", type=float, default=30.0, help="frames per second")
    p.add_argument("--n", type=int, required=True, help="window count")
    p.add_argument("--window", type=int, default=32, help="window length in frames")

    p = sub.add_parser("localize", parents=[common], help="select one instant per scored clip")
    p.add_argument("--scores", required=True, help="window score file")
    p.add_argument("--annotations", required=True, help="annotation file for clip geometry")
    p.add_argument("--threshold", type=float, default=0.7, help="confidence filter (strictly above)")
    p.add_argument("--prior", type=float, default=0.43, help="positional prior fraction")
    p.add_argument("--fallback", choices=FALLBACKS, default="prior-point",
                   help="answer when no window clears the threshold")

    p = sub.add_parser("baseline", parents=[common], help="constant-position predictions")
    p.add_argument("--mode", choices=("center", "fraction"), required=True)
    p.add_argument("--fraction", type=float, default=None,
                   help="fraction for --mode fraction (default 0.43)")
    p.add_argument("--annotations", required=True)

    p = sub.add_parser("oracle", parents=[common], help="best window-center error per clip")
    p.add_argument("--annotations", required=True)
    p.add_argument("--n", type=int, required=True, help="window count")
    p.add_argument("--window", type=int, default=32, help="window length in frames")

    p = sub.add_parser("fuse", parents=[common], help="average score files from several scorers")
    p.add_argument("--task", choices=("oscc", "pnr"), required=True)
    p.add_argument("--scores", nargs="+", required=True, help="two or more score files")
    p.add_argument("--annotations", default=None,
                   help="optional annotation file for clip id and window bounds checks")

    p = sub.add_parser("evaluate", parents=[quiet], help="score predictions against annotations")
    p.add_argument("--out", default=None, help="also write the report as one JSON line here")
    p.add_argument("--task", choices=("oscc", "pnr"), required=True)
    p.add_argument("--preds", required=True, help="prediction file (pnr) or probability file (oscc)")
    p.add_argument("--annotations", required=True)
    p.add_argument("--bins", type=int, default=None,
                   help="position bins for the pnr breakdown (default 10)")
    p.add_argument("--plot-data", default=None, help="write per-bin TSV here (pnr only)")

    # no abbreviations, so --out is refused, not read as --out-dir
    p = sub.add_parser("simulate", parents=[quiet], help="generate a synthetic labeled dataset",
                       allow_abbrev=False)
    p.add_argument("--config", required=True, help="key = value settings file")
    p.add_argument("--out-dir", required=True, help="directory for the emitted files")
    p.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")

    # each subcommand runs _cmd_<name>, and reports the options it does not know (see main)
    for name, p in sub.choices.items():
        p.set_defaults(subparser=p, handler=globals()[f"_cmd_{name}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    # parse_args would report a subcommand's unknown options through the
    # top-level parser, whose usage line lists only the subcommands
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        rc = args.handler(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of standard output stopped early, as `| head` does: exit
        # 1 quietly, and point stdout at devnull so the flush at exit cannot
        # fail again (the SIGPIPE note in the Python docs for signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PnrKitError, OSError) as exc:
        print(f"pnrkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
