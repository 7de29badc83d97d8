"""Acceptance gate: every shipped claim, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines with measured values.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pnrkit.cli import main
from pnrkit.fusion import fuse_oscc, fuse_pnr
from pnrkit.ingest import build_dataset, emit_annotations, parse_annotations, parse_predictions
from pnrkit.localization import SelectionConfig, baseline_center, baseline_fraction, oracle_error, select_pnr
from pnrkit.metrics import dataset_stats, per_position_error, pnr_mae
from pnrkit.model import (
    Clip,
    PnrAnnotation,
    ScoredWindow,
    ScoreSeries,
    window_center_frame,
)
from pnrkit.sampling import SamplerConfig, WindowingConfig, dense_windows, negative_windows, positive_window, tsn_sample
from pnrkit.sim import ScorerNoiseModel, SimConfig, gen_dataset, simulate_scores

FIXTURE = Path(__file__).parent / "data" / "annotations_3clips.jsonl"
SEED = 424242


def report(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    """The default simulator pipeline at 10^4 clips, built once."""
    ds = gen_dataset(SimConfig(n_clips=10_000, seed=SEED))
    windows = WindowingConfig(num_windows=16)
    scores = simulate_scores(ds, windows, ScorerNoiseModel(), seed=SEED)
    preds_prior = {cid: select_pnr(scores[cid], ds.clips[cid]) for cid in ds.clips}
    return ds, windows, scores, preds_prior


def brute_force_select(series, clip, config):
    """Filter then argmin by explicit enumeration, coded independently."""
    n = clip.num_frames
    rows = []
    for sw in series.windows:
        center = sw.start + (sw.end - sw.start - 1) / 2
        frac = 0.0 if n == 1 else center / (n - 1)
        rows.append((sw, center, frac))
    kept = [r for r in rows if r[0].confidence > config.threshold]
    if kept:
        ranked = sorted(
            kept,
            key=lambda r: (abs(r[2] - config.prior_fraction), r[0].start, r[0].end),
        )
        center = ranked[0][1]
        return center / clip.fps, math.floor(center + 0.5), "selected"
    if config.fallback == "prior-point":
        frame = math.floor(config.prior_fraction * (n - 1) + 0.5)
        return frame / clip.fps, frame, "fallback-prior"
    ranked = sorted(rows, key=lambda r: (-r[0].confidence, r[0].start, r[0].end))
    center = ranked[0][1]
    return center / clip.fps, math.floor(center + 0.5), "fallback-argmax"


def test_criterion_01_selection_brute_force_equivalence():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    mismatches = 0
    cases = 1200
    for case in range(cases):
        n = int(rng.integers(40, 400))
        w = int(rng.integers(8, min(64, n) + 1))
        count = int(rng.integers(2, 65))
        clip = Clip("c", float(rng.choice([24.0, 30.0, 60.0])), n)
        wins = dense_windows(clip, WindowingConfig(num_windows=count, window_len=w))
        series = ScoreSeries(
            tuple(
                ScoredWindow(win.start, win.end, float(c))
                for win, c in zip(wins, rng.random(count))
            )
        )
        if case % 2:
            config = SelectionConfig()
        else:
            config = SelectionConfig(
                threshold=float(rng.random()),
                prior_fraction=float(rng.random()),
                fallback=("prior-point", "argmax-confidence")[int(rng.integers(2))],
            )
        got = select_pnr(series, clip, config)
        want = brute_force_select(series, clip, config)
        if (got.time_sec, got.frame, got.source) != want:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "selection equals brute force",
        mismatches == 0 and elapsed < 5.0,
        f"{cases} series, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_oracle_lower_bound(pipeline):
    ds, windows, default_scores, preds_prior = pipeline
    noise_models = {
        "default": None,  # reuse the fixture's scores
        "sharp": ScorerNoiseModel(hit_alpha=100.0, hit_beta=1.0, miss_alpha=1.0, miss_beta=100.0),
        "diffuse": ScorerNoiseModel(hit_alpha=2.0, hit_beta=2.0, miss_alpha=2.0, miss_beta=2.0),
    }
    window_restricted = SelectionConfig(fallback="argmax-confidence")
    violations = 0
    checked = 0
    floors = {cid: oracle_error(ds.pnr[cid], ds.clips[cid], windows) for cid in ds.clips}
    for name, noise in noise_models.items():
        scores = default_scores if noise is None else simulate_scores(ds, windows, noise, seed=7)
        for cid, series in scores.items():
            clip = ds.clips[cid]
            truth = ds.pnr[cid].positive_frame / clip.fps
            err = abs(select_pnr(series, clip, window_restricted).time_sec - truth)
            checked += 1
            if err < floors[cid]:
                violations += 1
    # predictions that came from a window under the default fallback obey
    # the same floor
    for cid, pred in preds_prior.items():
        if pred.source == "selected":
            truth = ds.pnr[cid].positive_frame / ds.clips[cid].fps
            checked += 1
            if abs(pred.time_sec - truth) < floors[cid]:
                violations += 1
    report(
        2,
        "oracle is a lower bound",
        violations == 0,
        f"{checked} clip evaluations across {len(noise_models)} noise models, "
        f"{violations} violations",
    )


def test_criterion_03_oracle_scaling_ratio():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    # long clips keep edge clamping negligible, the regime the 16 vs 32
    # comparison describes
    clip = Clip("c", 30.0, 720)
    positions = rng.integers(0, clip.num_frames, size=10_000)
    means = {}
    for count in (16, 32):
        cfg = WindowingConfig(num_windows=count)
        means[count] = math.fsum(
            oracle_error(PnrAnnotation(int(p)), clip, cfg) for p in positions
        ) / len(positions)
    ratio = means[16] / means[32]
    elapsed = time.perf_counter() - started
    report(
        3,
        "oracle error halves from N=16 to N=32",
        1.7 <= ratio <= 2.3 and elapsed < 10.0,
        f"mean N=16 {means[16]:.4f}s, N=32 {means[32]:.4f}s, ratio {ratio:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_error_ordering(pipeline):
    ds, windows, _, preds_prior = pipeline
    mae_center = pnr_mae({c: baseline_center(ds.clips[c]) for c in ds.pnr}, ds).headline
    mae_prior_pt = pnr_mae({c: baseline_fraction(ds.clips[c], 0.43) for c in ds.pnr}, ds).headline
    mae_selected = pnr_mae(preds_prior, ds).headline
    mean_oracle = math.fsum(
        oracle_error(ds.pnr[c], ds.clips[c], windows) for c in ds.pnr
    ) / len(ds.pnr)
    ok = mae_center > mae_prior_pt > mae_selected > mean_oracle
    report(
        4,
        "center > 0.43 baseline > selection > oracle",
        ok,
        f"{mae_center:.4f} > {mae_prior_pt:.4f} > {mae_selected:.4f} > {mean_oracle:.4f} s",
    )


def test_criterion_05_prior_beats_argmax(pipeline):
    ds, _, scores, preds_prior = pipeline
    # threshold 1.0 with a strict filter passes nothing, leaving pure argmax
    pure_argmax = SelectionConfig(threshold=1.0, fallback="argmax-confidence")
    preds_argmax = {c: select_pnr(scores[c], ds.clips[c], pure_argmax) for c in ds.clips}
    mae_prior = pnr_mae(preds_prior, ds).headline
    mae_argmax = pnr_mae(preds_argmax, ds).headline
    gain = (mae_argmax - mae_prior) / mae_argmax
    report(
        5,
        "prior-based selection beats pure argmax by >= 5%",
        gain >= 0.05,
        f"prior {mae_prior:.4f}s vs argmax {mae_argmax:.4f}s, relative gain {gain:.1%}",
    )


def test_criterion_06_center_baseline_analytic():
    rng = np.random.default_rng(SEED)
    n_clips = 100_000
    clip_geometry = Clip("g", 30.0, 240)  # exactly 8 s
    positions = rng.integers(0, clip_geometry.num_frames, size=n_clips)
    clips = [Clip(f"c{i}", 30.0, 240) for i in range(n_clips)]
    ds = build_dataset(clips, {f"c{i}": PnrAnnotation(int(p)) for i, p in enumerate(positions)})
    preds = {c.clip_id: baseline_center(c) for c in clips}
    mae = pnr_mae(preds, ds).headline
    report(
        6,
        "center baseline MAE on uniform 8 s clips = 2.0 s +/- 2%",
        abs(mae - 2.0) <= 0.04,
        f"MAE {mae:.4f} s over {n_clips} clips",
    )


def test_criterion_07_position_histogram_shape():
    ds = gen_dataset(SimConfig(n_clips=100_000, seed=SEED))
    stats = dataset_stats(ds, bins=10)
    peak_bin = max(range(10), key=lambda k: stats.positive_hist[k])
    neg_ratio = max(stats.negative_hist) / min(stats.negative_hist)
    mean_per_clip = stats.pnr_per_clip_mean
    ok = peak_bin == 4 and neg_ratio < 1.5 and 3.38 <= mean_per_clip <= 3.58
    report(
        7,
        "positives peak in [0.4,0.5), negatives uniform",
        ok,
        f"peak bin {peak_bin}, negative max/min {neg_ratio:.3f}, "
        f"mean state-change frames/clip {mean_per_clip:.3f}",
    )


def test_criterion_08_per_position_error_dips_at_prior(pipeline):
    ds, _, _, preds_prior = pipeline
    rep = per_position_error(preds_prior, ds, bins=10)
    populated = [(b.mean_error_sec, k) for k, b in enumerate(rep.per_bin) if b.count]
    best_bin = min(populated)[1]
    report(
        8,
        "lowest per-position error bin contains 0.43",
        best_bin == 4,
        f"bin means {[round(m, 3) for m, _ in sorted(populated, key=lambda t: t[1])]}, "
        f"minimum at bin {best_bin}",
    )


def test_criterion_09_sampler_invariants():
    clip = Clip("c", 30.0, 240)
    failures = []

    for seed in range(1000):
        picks = tsn_sample(clip, SamplerConfig(num_segments=8, mode="train-random", seed=seed))
        for k, p in enumerate(picks):
            lo, hi = k * 240 // 8, (k + 1) * 240 // 8
            if not lo <= p < hi:
                failures.append(f"train pick {p} outside segment {k}")

    test_cfg_a = SamplerConfig(num_segments=8, mode="test-uniform", seed=1)
    test_cfg_b = SamplerConfig(num_segments=8, mode="test-uniform", seed=2)
    if tsn_sample(clip, test_cfg_a) != tsn_sample(clip, test_cfg_b):
        failures.append("test mode depends on seed")

    ident = tsn_sample(Clip("c", 30.0, 16), SamplerConfig(num_segments=16))
    if ident != tuple(range(16)):
        failures.append(f"M=n identity broken: {ident}")

    rng = np.random.default_rng(SEED)
    for _ in range(300):
        n = int(rng.integers(32, 500))
        count = int(rng.integers(2, 40))
        c = Clip("c", 30.0, n)
        wins = dense_windows(c, WindowingConfig(num_windows=count))
        if wins[0].start != 0 or wins[-1].end != n:
            failures.append(f"sweep not anchored for n={n}, N={count}")

        p = int(rng.integers(0, n))
        pw = positive_window(
            PnrAnnotation(p), c, WindowingConfig(num_windows=count), int(rng.integers(2**31))
        )
        if not (pw.start <= p < pw.end <= n):
            failures.append(f"positive window misses frame {p}")

        others = tuple({int(rng.integers(0, n)) for _ in range(3)} - {p})
        ann = PnrAnnotation(p, others)
        try:
            negs = negative_windows(
                ann, c, WindowingConfig(num_windows=count), int(rng.integers(2**31)), 8
            )
        except Exception:
            continue
        for win in negs:
            for f in ann.all_frames:
                if win.start <= f < win.end:  # brute-force scan
                    failures.append(f"negative window [{win.start},{win.end}) holds frame {f}")
    report(
        9,
        "sampler invariants hold exactly",
        not failures,
        failures[0] if failures else "1000 train seeds, 300 randomized window draws clean",
    )


def test_criterion_10_fixture_statistics_and_round_trip():
    text = FIXTURE.read_text(encoding="utf-8")
    ds = parse_annotations(text)
    stats = dataset_stats(ds)
    exact = stats.pnr_per_clip_mean == 11 / 3
    round_trip = "".join(emit_annotations(ds)) == text
    report(
        10,
        "fixture mean 11/3 and byte round-trip",
        exact and round_trip,
        f"mean {stats.pnr_per_clip_mean!r}, round-trip {'identical' if round_trip else 'differs'}",
    )


def test_criterion_11_fusion_identities():
    rng = np.random.default_rng(SEED)
    clip = Clip("c", 30.0, 300)
    failures = []

    def random_series():
        w = int(rng.choice([16, 32, 64]))
        starts = sorted(rng.choice(300 - w, size=int(rng.integers(1, 7)), replace=False))
        return ScoreSeries(
            tuple(
                ScoredWindow(int(s), int(s) + w, float(rng.random()))
                for s in starts
            )
        )

    for _ in range(300):
        single = random_series()
        if fuse_pnr([single], clip) != single:
            failures.append("single-series identity broken")

        group = [random_series() for _ in range(int(rng.integers(2, 5)))]
        fused = fuse_pnr(group, clip)
        perm = [group[i] for i in rng.permutation(len(group))]
        if fuse_pnr(perm, clip) != fused:
            failures.append("permutation changed the fused series")

        lo = min(sw.confidence for s in group for sw in s.windows)
        hi = max(sw.confidence for s in group for sw in s.windows)
        if any(not lo <= sw.confidence <= hi for sw in fused.windows):
            failures.append("fused confidence escaped contribution bounds")

    exact_mean = fuse_oscc([0.6, 0.8]) == 0.7
    if not exact_mean:
        failures.append("fuse_oscc([0.6, 0.8]) != 0.7")
    report(
        11,
        "fusion identities exact",
        not failures,
        failures[0] if failures else "300 randomized fusions clean, fuse_oscc mean exact",
    )


def test_criterion_12_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_clips = 300\nseed = 99\n", encoding="utf-8")
    runs = {}
    for label in ("first", "second"):
        out = tmp_path / label
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        ann = out / "annotations.jsonl"
        preds = out / "preds.jsonl"
        assert main(["localize", "--scores", str(out / "scores_pnr.jsonl"),
                     "--annotations", str(ann), "--out", str(preds), "--quiet"]) == 0
        base = out / "base.jsonl"
        assert main(["baseline", "--mode", "fraction", "--fraction", "0.43",
                     "--annotations", str(ann), "--out", str(base), "--quiet"]) == 0
        report_path = out / "report.json"
        code = main(["evaluate", "--task", "pnr", "--preds", str(preds),
                     "--annotations", str(ann), "--out", str(report_path), "--quiet"])
        assert code == 0
        runs[label] = b"".join(
            (out / name).read_bytes()
            for name in ("annotations.jsonl", "scores_pnr.jsonl", "scores_oscc.jsonl",
                         "preds.jsonl", "report.json")
        )

    identical = runs["first"] == runs["second"]

    out = tmp_path / "first"
    ds = parse_annotations((out / "annotations.jsonl").read_text(encoding="utf-8"))
    mae_sel = pnr_mae(parse_predictions((out / "preds.jsonl").read_text(encoding="utf-8")), ds).headline
    mae_base = pnr_mae(parse_predictions((out / "base.jsonl").read_text(encoding="utf-8")), ds).headline

    lines = (out / "preds.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    incomplete = tmp_path / "incomplete.jsonl"
    incomplete.write_text("".join(lines[1:]), encoding="utf-8")
    capsys.readouterr()
    reject_code = main(["evaluate", "--task", "pnr", "--preds", str(incomplete),
                        "--annotations", str(out / "annotations.jsonl")])
    diagnostic = capsys.readouterr().err
    rejected = reject_code != 0 and "clip000000" in diagnostic

    ok = identical and rejected and mae_sel < mae_base
    with capsys.disabled():
        report(
            12,
            "CLI pipeline deterministic and strict",
            ok,
            f"reruns byte-identical: {identical}; incomplete preds exit {reject_code}; "
            f"selection MAE {mae_sel:.4f} < baseline {mae_base:.4f}",
        )
