"""Self-test of the benchmark harness on a few clips per workload.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every run prints exactly the metrics BENCHMARK.json lists,
each with its unit, that the unmodified program passes every output
check, that a deliberately corrupted output file makes the run report
failed invocations, and that the benchmark exits nonzero without a
result where the program's sources are missing.  Exits nonzero on the
first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {"localize-eval": 40, "fuse-16x32": 20, "simulate": 30}


def _rewrite_first_line(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = edit(lines[0])
    path.write_text("".join(lines), encoding="utf-8")


def _shift_time(line: str) -> str:
    rec = json.loads(line)
    rec["time_sec"] += 0.5
    return json.dumps(rec) + "\n"


def _shift_start(line: str) -> str:
    rec = json.loads(line)
    rec["start"] += 1
    rec["end"] += 1
    return json.dumps(rec) + "\n"


# the stage whose output is damaged, and how
CORRUPTIONS = {
    "localize-eval": ("localize", lambda out: _rewrite_first_line(out, _shift_time)),
    "fuse-16x32": ("fuse-pnr", lambda out: _rewrite_first_line(out, _shift_start)),
    "simulate": ("simulate", lambda out: _rewrite_first_line(out / "scores_pnr.jsonl", _shift_start)),
}


def run_tiny(workload: str, trace: int, tamper=None) -> tuple[dict, str]:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.run(args, tamper=tamper, clips=TINY[workload])
    if rc != 0:
        raise SystemExit(f"{workload}: run exited {rc}")
    text = out.getvalue()
    return json.loads(text.splitlines()[-1]), text


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, text = run_tiny(workload, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                raise SystemExit(f"{workload} trace {trace}: metrics {units} != {expected[trace]}")
            for name, unit in units.items():
                if not any(line.startswith(name + " ") and line.endswith(" " + unit)
                           for line in text.splitlines()):
                    raise SystemExit(f"{workload}: {name} not printed with its unit")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace {trace}: unexpected failures {result}")
        print(f"ok   {workload}: all metrics printed with units, every output checked")

        stage_name, corrupt = CORRUPTIONS[workload]

        def tamper(stage, stage_name=stage_name, corrupt=corrupt):
            if stage.name == stage_name:
                corrupt(stage.output)

        result, _ = run_tiny(workload, 0, tamper)
        ratio = result["failed"] / result["attempted"]
        if result["correct"] or not ratio > 0:
            raise SystemExit(f"{workload}: corrupted {stage_name} output not detected: {result}")
        print(f"ok   {workload}: corrupted {stage_name} output gives failed_ratio {ratio:.4f}")

    # an output that differs from the one already verified is checked again
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        workload = run.WORKLOADS["fuse-16x32"](work, 3, TINY["fuse-16x32"])
        stage_name, corrupt = CORRUPTIONS["fuse-16x32"]

        def tamper_later(stage):
            if stage.name == stage_name and stage.verified is not None:
                corrupt(stage.output)

        with contextlib.redirect_stderr(io.StringIO()):
            host = run.HostSpeed()
            passes = [run.run_sequence(workload, work, False, f"rep{i}", host, tamper_later)
                      for i in range(2)]
        errors = [[r.error is not None for r in rep] for rep in passes]
        if errors != [[False] * 4, [True, False, False, False]]:
            raise SystemExit(f"fuse-16x32: output changed after verification not caught: {errors}")
    print("ok   fuse-16x32: an output that changes after its first check is checked again")

    with tempfile.TemporaryDirectory(dir=run.WORK) as lone:
        shutil.copy(run.ROOT / "BENCHMARK.json", lone)
        shutil.copytree(run.BENCH_DIR, Path(lone) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "simulate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit(f"without the program: exit {done.returncode}, output {done.stdout!r}")
    print(f"ok   without the program's sources: exit {done.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
