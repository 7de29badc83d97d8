"""Run one pnrkit subcommand in-process with timing spans around its layers.

Usage: python3 tracer.py SPANS_OUT TRACE_ID -- ARGV...

The program is not modified.  Before calling ``pnrkit.cli.main(ARGV)``
this script replaces the public library names that ``pnrkit.cli``
imports with wrappers that record a span per call and count the work
each call was handed.  Private helpers are never wrapped.  A name the
CLI no longer imports is listed as absent instead of failing the run.
Spans stay in memory and are written to SPANS_OUT as JSON after
``main`` returns; the process then exits normally, so interpreter
teardown still counts toward its wall time.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter
from time import perf_counter


def _text_bytes(args) -> int:
    text = args[0] if args else None
    return len(text.encode()) if isinstance(text, str) else 0


def _count_parse_scores(c, args, kwargs, result):
    n = sum(len(series.windows) for series in result.values())
    c["ingest.records_read"] += n
    c["ingest.parse_pnr_scores.records"] += n
    c["ingest.bytes_read"] += _text_bytes(args)


def _count_parse(c, args, kwargs, result):
    c["ingest.records_read"] += len(result)
    c["ingest.bytes_read"] += _text_bytes(args)


def _count_write(c, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    c["ingest.bytes_written"] += len(text.encode())


def _count_select(c, args, kwargs, result):
    series = args[0]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    threshold = config.threshold if config is not None else 0.7
    c["localization.windows_scanned"] += len(series.windows)
    c["localization.candidates"] += sum(sw.confidence > threshold for sw in series.windows)
    c[f"localization.source.{result.source}"] += 1


def _count_fuse(c, args, kwargs, result):
    series_list = args[0]
    points = len(result.windows)
    c["fusion.points"] += points
    # computed from input sizes, not counted inside the program
    c["fusion.window_comparisons"] += points * sum(len(s.windows) for s in series_list)


def _count_scored(c, args, kwargs, result):
    c["sim.windows_scored"] += sum(len(series.windows) for series in result.values())


# (span name, name in pnrkit.cli, work counter)
WRAPPED = (
    ("ingest.parse_annotations", "parse_annotations", _count_parse),
    ("ingest.parse_pnr_scores", "parse_pnr_scores", _count_parse_scores),
    ("ingest.parse_predictions", "parse_predictions", _count_parse),
    ("ingest.parse_oscc_scores", "parse_oscc_scores", _count_parse),
    ("ingest.emit_annotations", "emit_annotations", None),
    ("ingest.emit_pnr_scores", "emit_pnr_scores", None),
    ("ingest.emit_predictions", "emit_predictions", None),
    ("ingest.emit_oscc_scores", "emit_oscc_scores", None),
    ("ingest.write_text_atomic", "write_text_atomic", _count_write),
    ("localization.select_pnr", "select_pnr", _count_select),
    ("localization.oracle_error", "oracle_error", None),
    ("fusion.fuse_pnr", "fuse_pnr", _count_fuse),
    ("fusion.fuse_oscc", "fuse_oscc", None),
    ("metrics.per_position_error", "per_position_error", None),
    ("metrics.oscc_accuracy", "oscc_accuracy", None),
    ("sim.gen_dataset", "gen_dataset", None),
    ("sim.simulate_scores", "simulate_scores", _count_scored),
    ("sim.simulate_oscc", "simulate_oscc", None),
)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.absent: set[str] = set()
        self.count_s = 0.0
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_start = 0.0

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_s += perf_counter() - self._gc_start

    def wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                try:
                    count(counters, args, kwargs, return_value)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the call's signature or result type changed
                    self.absent.add(f"counts of {name}")
                self.count_s += perf_counter() - end
            return return_value

        return traced

    def run(self, argv: list[str]) -> int:
        import pnrkit.cli as cli

        for span_name, attr, count in WRAPPED:
            fn = getattr(cli, attr, None)
            if fn is None:
                self.absent.add(span_name)
            else:
                setattr(cli, attr, self.wrap(span_name, fn, count))
        root = len(self.spans)
        self.spans.append([f"cli.{argv[0]}", 0.0, 0.0, -1])
        self.stack.append(root)
        gc.callbacks.append(self.on_gc)
        start = perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            end = perf_counter()
            gc.callbacks.remove(self.on_gc)
            self.stack.pop()
            self.spans[root][1:3] = start, end
        return rc


def main() -> int:
    out_path, trace_id, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print("usage: tracer.py SPANS_OUT TRACE_ID -- ARGV...", file=sys.stderr)
        return 2
    tracer = Tracer()
    rc = tracer.run(argv)
    start = perf_counter()
    body = json.dumps(tracer.spans)
    serialize_s = perf_counter() - start
    header = {
        "trace_id": trace_id,
        "command": argv[0],
        "rc": rc,
        "counters": tracer.counters,
        "absent": sorted(tracer.absent),
        "count_s": tracer.count_s,
        "serialize_s": serialize_s,
        "gc_collections": tracer.gc_collections,
        "gc_s": tracer.gc_s,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header)[:-1] + ', "spans": ' + body + "}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
