"""pnrkit benchmark: CLI pipeline workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one benchmark process starts
the workload's ``pnrkit`` subcommands one at a time, each in a fresh
process, and the next starts only after the previous one exits.  The
loop repeats the whole sequence, preceded by one ``pnrkit --help`` for
set-up time, until ``--seconds`` are used up.  Timing metrics take each
stage's median over the repetitions (see ``_median_walls``) of its wall
time scaled to a reference host speed (see ``HostSpeed``), which cancels
the shared host's own changes of speed.  Every output is
checked against the plain-Python reference in ``checks.py``, except that
an output byte-identical to one of the same stage that already passed
its check is accepted as it stands; an invocation that exits nonzero or
fails its check counts as failed.

Workloads (sizes in ``CLIPS``):

* ``localize-eval``: one 16-window scorer, score lines in a seeded random
  order; ``localize`` -> ``evaluate --task pnr`` -> ``evaluate --task
  oscc`` -> ``oracle --n 16``.  Loads ingest parse (including its group
  and sort), localization and metrics.
* ``fuse-16x32``: two scorers over the same clips at 16 and 32 windows;
  ``fuse --task pnr --annotations`` -> ``fuse --task oscc`` ->
  ``localize`` on the fused file (about 44 windows per clip) ->
  ``evaluate --task pnr``.  Loads fusion, then selection on long series.
* ``simulate``: ``simulate`` at 16 windows per clip from a config carrying
  the seed.  Loads sim and the write side of ingest; nothing is parsed.

With ``--trace 0`` the run prints the end-to-end metrics (``END_TO_END``),
measured with tracing off.  With ``--trace 1`` each repetition runs the
sequence once untraced and once under ``tracer.py``, which times the
calls from ``pnrkit.cli`` into the library from outside the program, and
the run prints the per-layer metrics (``PER_LAYER``).  Human-readable
tables come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launch.py"
# what the installed ``pnrkit`` console script runs
ENTRY = "import sys; from pnrkit.cli import main; sys.exit(main())"

# Sizes keep one pass near two to three seconds, so a 40-second run gets a
# dozen or more repetitions of every stage to take medians over.
CLIPS = {"localize-eval": 2000, "fuse-16x32": 300, "simulate": 3000}
# a stuck subcommand is killed so a run still ends within its time limit
STAGE_TIMEOUT_S = 100.0

END_TO_END = (
    ("setup_s", "s"),
    ("clips_per_s", "clips/s"),
    ("main_stage_clips_per_s", "clips/s"),
    ("peak_rss_mb", "MB"),
)

# per-stage throughputs printed by name; the JSON carries the workload's
# main stage as main_stage_clips_per_s, so every workload reports it
STAGE_METRICS = {
    "localize": "localize_clips_per_s",
    "fuse-pnr": "fuse_pnr_clips_per_s",
    "simulate": "simulate_clips_per_s",
}

# Per-layer values come from the median traced pass; a layer the workload
# never calls reads 0.
COMMANDS = ("simulate", "localize", "evaluate", "oracle", "fuse")
INGEST = (
    "parse_annotations", "parse_pnr_scores", "parse_predictions", "parse_oscc_scores",
    "emit_annotations", "emit_pnr_scores", "emit_predictions", "emit_oscc_scores",
    "write_text_atomic",
)
PER_LAYER = (
    *((f"cli.{c}.{part}", "s") for c in COMMANDS for part in ("s", "self_s", "process_overhead_s")),
    *((f"ingest.{name}.s", "s") for name in INGEST),
    ("ingest.records_read", "count"),
    ("ingest.bytes_read", "bytes"),
    ("ingest.bytes_written", "bytes"),
    ("ingest.parse_pnr_scores.records_per_s", "records/s"),
    ("localization.select_pnr.s", "s"),
    ("localization.select_pnr.calls", "count"),
    ("localization.windows_scanned", "count"),
    ("localization.candidates", "count"),
    ("localization.kept_ratio", "ratio"),
    ("localization.source.selected", "count"),
    ("localization.source.fallback-prior", "count"),
    ("localization.source.fallback-argmax", "count"),
    ("localization.oracle_error.s", "s"),
    ("localization.oracle_error.calls", "count"),
    ("fusion.fuse_pnr.s", "s"),
    ("fusion.fuse_pnr.calls", "count"),
    ("fusion.points", "count"),
    # computed as points x windows of each input series, not counted
    ("fusion.window_comparisons", "count"),
    ("fusion.fuse_oscc.s", "s"),
    ("metrics.per_position_error.s", "s"),
    ("metrics.oscc_accuracy.s", "s"),
    ("sim.gen_dataset.s", "s"),
    ("sim.simulate_scores.s", "s"),
    ("sim.simulate_oscc.s", "s"),
    ("sim.windows_scored", "count"),
    ("python.gc_collections", "count"),
    ("python.gc_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    *((f"trace.{c}.overhead_ratio", "ratio") for c in COMMANDS),
)


@dataclass
class Stage:
    name: str
    argv: list[str]
    output: Path
    check: Callable[[], None]
    # digest of the last output that passed ``check``
    verified: str | None = None


@dataclass
class Workload:
    clips: int
    stages: list[Stage]
    main_stage: str


@dataclass
class StageRun:
    wall_s: float
    # wall_s at the reference host speed (see HostSpeed)
    scaled_s: float
    rss_mb: float
    error: str | None
    spans: Path | None = None


def _argv(*parts) -> list[str]:
    return [str(p) for p in parts] + ["--quiet"]


def localize_eval(work: Path, seed: int, n_clips: int) -> Workload:
    rng = np.random.default_rng(seed)
    clips = inputs.gen_clips(rng, n_clips)
    series = inputs.gen_series(rng, clips, 16)
    probs = inputs.gen_oscc(rng, clips)
    # parallel scorer workers deliver lines out of order
    lines = inputs.score_lines(series)
    lines = [lines[i] for i in rng.permutation(len(lines))]
    ann, scores, oscc = work / "annotations.jsonl", work / "scores_pnr.jsonl", work / "scores_oscc.jsonl"
    inputs.write_lines(ann, inputs.annotation_lines(clips))
    inputs.write_lines(scores, lines)
    inputs.write_lines(oscc, inputs.oscc_lines(probs))
    by_id = {c.clip_id: c for c in clips}
    preds, rep_pnr, rep_oscc, table = (
        work / "preds.jsonl", work / "report_pnr.json", work / "report_oscc.json", work / "oracle.tsv")
    return Workload(n_clips, [
        Stage("localize", _argv("localize", "--scores", scores, "--annotations", ann, "--out", preds),
              preds, lambda: checks.check_predictions(preds, by_id, series)),
        Stage("evaluate-pnr", _argv("evaluate", "--task", "pnr", "--preds", preds,
                                    "--annotations", ann, "--out", rep_pnr),
              rep_pnr, lambda: checks.check_pnr_report(rep_pnr, preds, by_id)),
        Stage("evaluate-oscc", _argv("evaluate", "--task", "oscc", "--preds", oscc,
                                     "--annotations", ann, "--out", rep_oscc),
              rep_oscc, lambda: checks.check_oscc_report(rep_oscc, probs, by_id)),
        Stage("oracle", _argv("oracle", "--n", 16, "--annotations", ann, "--out", table),
              table, lambda: checks.check_oracle(table, by_id, 16)),
    ], main_stage="localize")


def fuse_16x32(work: Path, seed: int, n_clips: int) -> Workload:
    rng = np.random.default_rng(seed)
    clips = inputs.gen_clips(rng, n_clips)
    s16, s32 = inputs.gen_series(rng, clips, 16), inputs.gen_series(rng, clips, 32)
    p16, p32 = inputs.gen_oscc(rng, clips), inputs.gen_oscc(rng, clips)
    ann = work / "annotations.jsonl"
    inputs.write_lines(ann, inputs.annotation_lines(clips))
    for name, lines in (
        ("scores16.jsonl", inputs.score_lines(s16)), ("scores32.jsonl", inputs.score_lines(s32)),
        ("oscc16.jsonl", inputs.oscc_lines(p16)), ("oscc32.jsonl", inputs.oscc_lines(p32)),
    ):
        inputs.write_lines(work / name, lines)
    by_id = {c.clip_id: c for c in clips}
    fused, fused_oscc, preds, rep = (
        work / "fused.jsonl", work / "fused_oscc.jsonl", work / "preds.jsonl", work / "report.json")
    return Workload(n_clips, [
        Stage("fuse-pnr", _argv("fuse", "--task", "pnr", "--scores", work / "scores16.jsonl",
                                work / "scores32.jsonl", "--annotations", ann, "--out", fused),
              fused, lambda: checks.check_fused_pnr(fused, [s16, s32])),
        Stage("fuse-oscc", _argv("fuse", "--task", "oscc", "--scores", work / "oscc16.jsonl",
                                 work / "oscc32.jsonl", "--out", fused_oscc),
              fused_oscc, lambda: checks.check_fused_oscc(fused_oscc, [p16, p32])),
        Stage("localize", _argv("localize", "--scores", fused, "--annotations", ann, "--out", preds),
              preds, lambda: checks.check_predictions(preds, by_id, checks.read_series(fused))),
        Stage("evaluate-pnr", _argv("evaluate", "--task", "pnr", "--preds", preds,
                                    "--annotations", ann, "--out", rep),
              rep, lambda: checks.check_pnr_report(rep, preds, by_id)),
    ], main_stage="fuse-pnr")


def simulate(work: Path, seed: int, n_clips: int) -> Workload:
    config, out_dir = work / "sim.cfg", work / "sim"
    config.write_text(f"n_clips = {n_clips}\nseed = {seed}\nnum_windows = 16\n", encoding="utf-8")
    return Workload(n_clips, [
        Stage("simulate", _argv("simulate", "--config", config, "--out-dir", out_dir),
              out_dir, lambda: checks.check_simulated(out_dir, n_clips, 16)),
    ], main_stage="simulate")


WORKLOADS = {"localize-eval": localize_eval, "fuse-16x32": fuse_16x32, "simulate": simulate}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class HostSpeed:
    """Times a fixed pure-Python loop between the measured processes.

    The host shares its cores with other tenants and changes speed by up
    to half, in spells from seconds to minutes, so two runs of the same
    code can differ by a third in raw wall time.  The loop slows down with
    them.  ``scale`` returns the factor that takes a process's wall time to
    a host on which the loop takes ``REF_S``: the loop is timed right
    before and right after each measured process, on the same core (see
    ``pin_to_one_core``).  ``REF_S`` is about the loop's median time on a
    2.1 GHz Xeon vCPU, so scaled times read close to typical wall times
    there.  The tables print raw wall times next to scaled ones.
    """

    REF_S = 0.015
    LOOP_N = 80_000
    REPEATS = 5

    def __init__(self) -> None:
        self.last = self._block()

    def _loop(self) -> float:
        start = perf_counter()
        table: dict[int, float] = {}
        for i in range(self.LOOP_N):
            key = i % 1024
            table[key] = table.get(key, 0.0) + i * 0.5
        return perf_counter() - start

    def _block(self) -> float:
        return statistics.median(self._loop() for _ in range(self.REPEATS))

    def scale(self) -> float:
        """Scale for the process that ran since the previous call."""
        before, self.last = self.last, self._block()
        return self.REF_S / ((before + self.last) / 2)


def pin_to_one_core() -> None:
    """Keep this process and its children on one core.

    The cores change speed independently, so the reference loop and the
    process it scales must run on the same one.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_process(argv: list[str], work: Path, log: Path) -> tuple[float, float, int]:
    """Run one child to completion: wall seconds, peak RSS in MB, exit code."""
    with open(log, "wb") as err:
        done = subprocess.run(
            [sys.executable, str(LAUNCHER), str(STAGE_TIMEOUT_S), "--", *argv],
            stdout=subprocess.PIPE, stderr=err, cwd=work, env=_child_env(), check=True,
        )
    result = json.loads(done.stdout)
    return result["wall_s"], result["maxrss_kb"] / 1024, result["rc"]


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _digest(path: Path) -> str:
    """Hash of a file, or of a directory's file names and contents."""
    digest = hashlib.blake2b()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for file in files:
        digest.update(str(file.relative_to(path) if path.is_dir() else file.name).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def run_sequence(
    workload: Workload, work: Path, traced: bool, label: str, host: HostSpeed,
    tamper: Callable[[Stage], None] | None = None,
) -> list[StageRun]:
    """One pass over the workload's subcommands, each checked after it exits.

    ``tamper`` lets the self-test damage an output before it is checked.
    """
    runs = []
    for i, stage in enumerate(workload.stages):
        _remove(stage.output)
        spans = work / f"spans-{label}-{i}.json" if traced else None
        if traced:
            argv = [sys.executable, str(TRACER), str(spans), f"{label}/{stage.name}", "--", *stage.argv]
        else:
            argv = [sys.executable, "-c", ENTRY, *stage.argv]
        log = work / "stderr.log"
        wall, rss, rc = run_process(argv, work, log)
        scaled = wall * host.scale()
        error = None
        if rc != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            error = f"exit code {rc}: {' '.join(tail)}"
        else:
            if tamper is not None:
                tamper(stage)
            try:
                digest = _digest(stage.output)
                if digest != stage.verified:
                    stage.check()
                    stage.verified = digest
            except (checks.CheckFailed, OSError, ValueError, TypeError, KeyError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            print(f"FAILED {label}/{stage.name}: {error}", file=sys.stderr)
        runs.append(StageRun(wall, scaled, rss, error, spans))
    return runs


def measure_setup(work: Path, host: HostSpeed) -> StageRun:
    """Wall time of ``pnrkit --help``, which loads the CLI and exits."""
    wall, rss, rc = run_process([sys.executable, "-c", ENTRY, "--help"], work, work / "stderr.log")
    return StageRun(wall, wall * host.scale(), rss, None if rc == 0 else f"exit code {rc}")


def end_to_end(workload: Workload, reps: list[list[StageRun]], setup: list[StageRun]
               ) -> dict[str, float]:
    walls = _median_walls(reps)
    main = next(i for i, stage in enumerate(workload.stages) if stage.name == workload.main_stage)
    return {
        "setup_s": statistics.median(r.scaled_s for r in setup),
        "clips_per_s": workload.clips / sum(walls),
        "main_stage_clips_per_s": workload.clips / walls[main],
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rep) for rep in reps),
    }


def _median_walls(reps: list[list[StageRun]]) -> list[float]:
    """Each stage's median scaled wall time over the repetitions.

    A process of a second or more seldom runs wholly inside one of the
    host's fast spells, so a stage's fastest repetition depends on luck;
    its median repeats from run to run about twice as closely.
    """
    return [statistics.median(rep[i].scaled_s for rep in reps) for i in range(len(reps[0]))]


def layer_metrics(workload: Workload, untraced: list[list[StageRun]], traced: list[list[StageRun]]
                  ) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics from the span files of the median traced pass.

    One pass gives a consistent snapshot, in which a command's self time
    and its children's spans add up to its handler time.  The tracing
    overhead compares each stage's median traced and untraced scaled times.
    """
    by_wall = sorted(traced, key=lambda rep: sum(r.scaled_s for r in rep))
    median_pass = by_wall[(len(by_wall) - 1) // 2]
    m: dict[str, float] = defaultdict(float)
    absent: set[str] = set()
    for run in median_pass:
        if run.error is not None:
            continue
        data = json.loads(run.spans.read_text(encoding="utf-8"))
        cmd, spans = data["command"], data["spans"]
        _, root_start, root_end, _ = spans[0]
        root_s = root_end - root_start
        handler_s = root_s - data["count_s"]
        children_s = sum(end - start for _, start, end, parent in spans[1:] if parent == 0)
        m[f"cli.{cmd}.s"] += handler_s
        m[f"cli.{cmd}.self_s"] += handler_s - children_s
        m[f"cli.{cmd}.process_overhead_s"] += run.wall_s - root_s - data["serialize_s"]
        for name, start, end, _ in spans[1:]:
            m[f"{name}.s"] += end - start
            m[f"{name}.calls"] += 1
        for key, value in data["counters"].items():
            m[key] += value
        m["python.gc_collections"] += data["gc_collections"]
        m["python.gc_s"] += data["gc_s"]
        absent.update(data["absent"])
    if m["localization.windows_scanned"]:
        m["localization.kept_ratio"] = m["localization.candidates"] / m["localization.windows_scanned"]
    if m["ingest.parse_pnr_scores.s"]:
        m["ingest.parse_pnr_scores.records_per_s"] = (
            m["ingest.parse_pnr_scores.records"] / m["ingest.parse_pnr_scores.s"])

    wall = defaultdict(lambda: [0.0, 0.0])  # command -> [traced, untraced]
    for stage, t, u in zip(workload.stages, _median_walls(traced), _median_walls(untraced)):
        cmd = stage.argv[0]
        wall[cmd][0] += t
        wall[cmd][1] += u
    for cmd, (t, u) in wall.items():
        m[f"trace.{cmd}.overhead_ratio"] = t / u
    m["trace.overhead_ratio"] = sum(t for t, _ in wall.values()) / sum(u for _, u in wall.values())
    return m, absent


def print_report(name: str, seed: int, workload: Workload, reps: list[list[StageRun]],
                 attempted: int, failed: int, trace: bool) -> None:
    print(f"workload {name}  seed {seed}  clips {workload.clips}  "
          f"repetitions {len(reps)}  trace {'on' if trace else 'off'}")
    print("stage (untraced)   wall_s: min    median       max  scaled_s: median  peak_rss_mb")
    for i, stage in enumerate(workload.stages):
        walls = [rep[i].wall_s for rep in reps]
        scaled = statistics.median(rep[i].scaled_s for rep in reps)
        rss = statistics.median(rep[i].rss_mb for rep in reps)
        print(f"  {stage.name:<17} {min(walls):>9.4f} {statistics.median(walls):>9.4f} "
              f"{max(walls):>9.4f} {scaled:>17.4f} {rss:>12.1f}")
    print(f"failed_ratio       {failed}/{attempted} = {failed / attempted:.4f} (failed/attempted)")


def emit_result(attempted: int, failed: int, values: dict[str, float], spec) -> None:
    metrics = {}
    for name, unit in spec:
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"{name:<40} {metrics[name]['value']:>16.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run(args: argparse.Namespace, tamper: Callable[[Stage], None] | None = None,
        clips: int | None = None) -> int:
    if not (SRC / "pnrkit" / "cli.py").is_file():
        print(f"run.py: no pnrkit sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](work, args.seed, clips or CLIPS[args.workload])
        attempted = failed = 0
        pin_to_one_core()
        host = HostSpeed()
        measure_setup(work, host)  # compiles bytecode once, as an install would
        setup: list[StageRun] = []
        reps, traced_reps = [], []
        start = perf_counter()
        while True:
            began = perf_counter()
            label = f"rep{len(reps)}"
            if not args.trace:
                setup.append(measure_setup(work, host))
                attempted, failed = attempted + 1, failed + (setup[-1].error is not None)
            reps.append(run_sequence(workload, work, False, label, host, tamper))
            if args.trace:
                traced_reps.append(run_sequence(workload, work, True, label, host, tamper))
            for rep in (reps[-1], *traced_reps[-1:]):
                attempted += len(rep)
                failed += sum(r.error is not None for r in rep)
            took = perf_counter() - began
            if perf_counter() - start + took > args.seconds:
                break

        print_report(args.workload, args.seed, workload, reps, attempted, failed, bool(args.trace))
        if args.trace:
            values, absent = layer_metrics(workload, reps, traced_reps)
            if absent:
                print(f"absent from pnrkit.cli (reported as 0): {', '.join(sorted(absent))}")
            emit_result(attempted, failed, values, PER_LAYER)
        else:
            walls = [r.wall_s for r in setup]
            print(f"setup (--help)     {min(walls):>9.4f} {statistics.median(walls):>9.4f} "
                  f"{max(walls):>9.4f} {statistics.median(r.scaled_s for r in setup):>17.4f}")
            print(f"main stage         {workload.main_stage}")
            for i, stage in enumerate(workload.stages):
                if stage.name in STAGE_METRICS:
                    print(f"{STAGE_METRICS[stage.name]:<40} "
                          f"{workload.clips / _median_walls(reps)[i]:>16.6f} clips/s")
            emit_result(attempted, failed, end_to_end(workload, reps, setup), END_TO_END)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


if __name__ == "__main__":
    sys.exit(run(parse_args()))
