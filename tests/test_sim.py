"""Synthetic dataset generation and the noisy scorer stand-in."""

import hashlib
import json
import math
import os
import random
import re
import sys

import pytest
from helpers import run_fresh
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pnrkit.sim
from pnrkit.cli import main
from pnrkit.errors import ClipTooShortError, DomainError, ParseError
from pnrkit.ingest import build_dataset, emit_annotations, emit_pnr_scores, parse_pnr_scores
from pnrkit.localization import select_pnr
from pnrkit.model import Clip, PnrAnnotation, fraction_to_frame
from pnrkit.sampling import WindowingConfig, dense_windows
from pnrkit.sim import (
    ScorerNoiseModel,
    SimConfig,
    _poisson,
    gen_dataset,
    parse_sim_config,
    simulate_oscc,
    simulate_scores,
)


class TestGenDataset:
    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_clips=40, seed=123)
        assert [*emit_annotations(gen_dataset(cfg))] == [*emit_annotations(gen_dataset(cfg))]

    def test_seed_changes_output(self):
        a = "".join(emit_annotations(gen_dataset(SimConfig(n_clips=40, seed=1))))
        b = "".join(emit_annotations(gen_dataset(SimConfig(n_clips=40, seed=2))))
        assert a != b

    def test_every_clip_fully_annotated(self):
        ds = gen_dataset(SimConfig(n_clips=30, seed=5))
        assert len(ds) == 30
        assert set(ds.pnr) == set(ds.clips) == set(ds.oscc)

    def test_durations_within_range(self):
        ds = gen_dataset(SimConfig(n_clips=50, seed=7))
        for clip in ds.clips.values():
            assert 150 <= clip.num_frames <= 240
            assert clip.fps == 30.0

    def test_degenerate_sd_pins_every_positive(self):
        ds = gen_dataset(SimConfig(n_clips=25, seed=3, positive_sd=0.0))
        for clip_id, ann in ds.pnr.items():
            n = ds.clips[clip_id].num_frames
            assert ann.positive_frame == fraction_to_frame(0.43, n)

    def test_label_probability_extremes(self):
        all_true = gen_dataset(SimConfig(n_clips=20, seed=1, state_change_prob=1.0))
        assert all(all_true.oscc.values())
        all_false = gen_dataset(SimConfig(n_clips=20, seed=1, state_change_prob=0.0))
        assert not any(all_false.oscc.values())

    def test_no_negatives_when_lambda_zero(self):
        ds = gen_dataset(SimConfig(n_clips=20, seed=2, negatives_lambda=0.0))
        assert all(ann.negative_frames == () for ann in ds.pnr.values())

    def test_mean_annotated_frames_tracks_lambda(self):
        ds = gen_dataset(SimConfig(n_clips=2000, seed=11))
        mean = sum(len(a.all_frames) for a in ds.pnr.values()) / len(ds.pnr)
        assert 3.2 < mean < 3.8

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n_clips=0)
        with pytest.raises(DomainError):
            SimConfig(duration_min_sec=8.0, duration_max_sec=5.0)
        with pytest.raises(DomainError):
            SimConfig(negatives_lambda=-1.0)
        with pytest.raises(DomainError):
            SimConfig(positive_mean=1.2)
        with pytest.raises(DomainError):
            ScorerNoiseModel(hit_alpha=0.0)
        with pytest.raises(DomainError):
            ScorerNoiseModel(oscc_flip_prob=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be a non-negative integer, got -1$"):
            gen_dataset(SimConfig(n_clips=2, seed=-1))

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected_by_every_draw(self, seed):
        # True is an int to isinstance, but it would seed the stream of the text "True"
        message = f"^seed must be a non-negative integer, got {seed}$"
        with pytest.raises(DomainError, match=message):
            gen_dataset(SimConfig(n_clips=2, seed=seed))
        ds = gen_dataset(SimConfig(n_clips=2))
        with pytest.raises(DomainError, match=message):
            simulate_scores(ds, WindowingConfig(num_windows=4), seed=seed)
        with pytest.raises(DomainError, match=message):
            simulate_oscc(ds, seed=seed)

    @pytest.mark.parametrize("lam", [0.3, 2.48])
    def test_poisson_counts_follow_the_pmf(self, lam):
        rng = random.Random(0)
        draws = [_poisson(rng, lam) for _ in range(20_000)]
        for k in range(4):
            expected = math.exp(-lam) * lam**k / math.factorial(k)
            assert abs(draws.count(k) / len(draws) - expected) < 0.01, k

    @pytest.mark.parametrize("lam", [0.3, 2.48, 7.0])
    def test_poisson_cap_keeps_the_draws_below_it(self, lam):
        for seed in range(300):
            free, capped = random.Random(seed), random.Random(seed)
            count = _poisson(free, lam)
            assert _poisson(capped, lam, 4) == min(count, 4)
            if count <= 4:
                # the capped draw used the same stream, so later draws agree
                assert capped.random() == free.random()


# Runs in a fresh interpreter, so that run_fresh's timeout ends a draw that
# hangs.  Simulates one clip under the SimConfig and ScorerNoiseModel
# fields given as JSON, and prints the DomainError, or the clip's frame
# count and number of extra state-change frames.
SIMULATE_ONE = """
import json, sys
from pnrkit.errors import DomainError
from pnrkit.sampling import WindowingConfig
from pnrkit.sim import ScorerNoiseModel, SimConfig, gen_dataset, simulate_scores
sim, noise = json.loads(sys.argv[1])
try:
    ds = gen_dataset(SimConfig(n_clips=1, **sim))
    simulate_scores(ds, WindowingConfig(num_windows=16), ScorerNoiseModel(**noise))
except DomainError as exc:
    print(exc)
else:
    (clip,), (ann,) = ds.clips.values(), ds.pnr.values()
    print(clip.num_frames, len(ann.negative_frames))
"""


def simulate_one(sim, noise=None):
    proc = run_fresh(["-c", SIMULATE_ONE, json.dumps([sim, noise or {}])], timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_large_lambda_stops_at_the_free_frames():
    # each extra frame is one the clip has left, so a huge lambda fills the
    # clip instead of counting and retrying without end
    num_frames, extra = map(int, simulate_one({"negatives_lambda": 1e6}).split())
    assert 0 < extra <= num_frames - 1


@pytest.mark.parametrize(
    "sim, noise, message",
    [
        ({"positive_sd": math.nan}, {}, "positive_sd must be in [0, 1], got nan"),
        ({"positive_sd": math.inf}, {}, "positive_sd must be in [0, 1], got inf"),
        ({"negatives_lambda": math.nan}, {}, "negatives_lambda must be >= 0, got nan"),
        ({"negatives_lambda": math.inf}, {}, "negatives_lambda must be finite, got inf"),
        ({"duration_max_sec": math.inf}, {}, "duration_max_sec must be finite, got inf"),
        ({}, {"hit_alpha": math.inf}, "hit_alpha must be finite, got inf"),
        ({}, {"miss_beta": math.nan}, "miss_beta must be positive, got nan"),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
)
def test_non_finite_settings_are_refused_without_drawing(sim, noise, message):
    assert simulate_one(sim, noise) == message + "\n"


def test_positive_sd_above_one_is_refused_without_drawing():
    # with the mean in [0, 1], an sd of at most 1 keeps the rejection draw's
    # acceptance at 34 % or more; a huge sd would redraw for seconds
    assert simulate_one({"positive_sd": 1e7}) == "positive_sd must be in [0, 1], got 10000000.0\n"
    SimConfig(positive_mean=0.0, positive_sd=1.0)


# Runs in a fresh interpreter, so that run_fresh's timeout ends a hang.
# Simulates one clip of up to 1e300 seconds into the directory given, under
# the extra config lines given, then localizes and oracles it, and prints
# the three exit codes.
HUGE_CLIP = """
import os, sys
from pnrkit.cli import main
out = sys.argv[1]
config, annotations = os.path.join(out, "sim.cfg"), os.path.join(out, "annotations.jsonl")
with open(config, "w") as handle:
    handle.write("n_clips = 1\\nduration_max_sec = 1e300\\n" + sys.argv[2])
print(
    main(["simulate", "--config", config, "--out-dir", out, "--quiet"]),
    main(["localize", "--scores", os.path.join(out, "scores_pnr.jsonl"),
          "--annotations", annotations, "--out", os.path.join(out, "preds.jsonl")]),
    main(["oracle", "--annotations", annotations, "--n", "16",
          "--out", os.path.join(out, "oracle.tsv")]),
)
"""


def run_huge_clip(tmp_path, extra=""):
    proc = run_fresh(["-c", HUGE_CLIP, str(tmp_path), extra], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0\n", proc.stderr


def test_huge_clip_round_trips(tmp_path):
    # window starts are integers, so the last window of a clip too long
    # for a float to count its frames still ends at the clip's end
    run_huge_clip(tmp_path)


def test_huge_window_round_trips(tmp_path):
    # the simulator's hit test costs the same for any window length, so a
    # window of 10**9 frames is scored at once
    run_huge_clip(tmp_path, "window_len = 1000000000\n")


# sha256 of each file of `simulate` at n_clips = 4, seed = 3, num_windows = 4,
# pinned so that a change to the draws fails here instead of drifting.  The
# window scores' Beta draws are pnrkit's own (sim._beta), made from random()
# alone, whose sequence Python keeps across releases; the dataset's and the
# classifier's draws still come from random's normalvariate, expovariate and
# uniform, which a Python release could change
PINNED_STREAM = {
    "annotations.jsonl": "83a080f9e4dbbef4e8152151d66b2522f3303e1237ac44631a3b4e2e02d7203a",
    "scores_pnr.jsonl": "6660f3dd800800082f62a869154e1f7fc1fbf67af80480843634ae7ea0efc9ca",
    "scores_oscc.jsonl": "f10744bc9dafc1aae368f81fa64bc472cf7dcedfdf53dc34d49ef7340996668a",
}

# the same at n_clips = 8 with a hit shape of 1 and a miss shape of 0.5, whose
# Beta draws come from random.betavariate itself; pinned on one Python release
PINNED_COLD_STREAM = {
    "annotations.jsonl": "251adb2795908e9be89fe31563bd83ab6f12e6ef3c088067fd6e74aa8ea85274",
    "scores_pnr.jsonl": "2d1785869b8f9b1d794cca923553da0b1aebecb29d893fe80b1534acfeaebb9c",
    "scores_oscc.jsonl": "af170aa663205b190daaf54a2b12407cbc25cbea16ba9fd4592410dfca7928e1",
}


def simulate_digests(tmp_path, settings_text):
    config = tmp_path / "sim.cfg"
    config.write_text(settings_text, encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path), "--quiet"]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_STREAM
    }


def test_simulate_stream_is_pinned(tmp_path):
    assert simulate_digests(tmp_path, "n_clips = 4\nseed = 3\nnum_windows = 4\n") == PINNED_STREAM


def test_cold_shape_stream_is_pinned(tmp_path):
    text = "n_clips = 8\nseed = 3\nnum_windows = 4\nhit_beta = 1.0\nmiss_alpha = 0.5\n"
    assert simulate_digests(tmp_path, text) == PINNED_COLD_STREAM


# every shape ScorerNoiseModel takes: both above 1 draw by sim's copy of
# Cheng's Gamma branch, any other pair by random.betavariate; the examples
# are the shapes of the branches random takes below 1 and at 1
shapes = st.one_of(st.just(1.0), st.floats(0.0, 50.0, exclude_min=True))


@settings(max_examples=300)
@given(shapes, shapes, st.integers(0, 2**64))
@example(1.0, 1.0, 7)
@example(0.5, 2.0, 7)
@example(3.0, 0.05, 7)
@example(1.0, 100.0, 7)
def test_beta_draws_are_randoms_to_the_bit(alpha, beta, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = pnrkit.sim._beta(alpha, beta)
    for _ in range(4):
        assert draw(ours.random).hex() == theirs.betavariate(alpha, beta).hex()
    assert ours.random() == theirs.random()  # as many random() calls, too


class Counting(random.Random):
    """A Random that counts its betavariate and gammavariate calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"betavariate": 0, "gammavariate": 0}

    def betavariate(self, alpha, beta):
        self.calls["betavariate"] += 1
        return super().betavariate(alpha, beta)

    def gammavariate(self, alpha, beta=1.0):
        self.calls["gammavariate"] += 1
        return super().gammavariate(alpha, beta)


def scorer_calls(monkeypatch, noise):
    """The betavariate and gammavariate calls of every stream simulate_scores
    draws from, and the count of windows it scored."""
    ds = gen_dataset(SimConfig(n_clips=6, seed=5))
    streams = []

    def counting_rng(*key):
        streams.append(Counting(repr(key)))
        return streams[-1]

    monkeypatch.setattr(pnrkit.sim, "_rng", counting_rng)
    series = dict(simulate_scores(ds, WindowingConfig(num_windows=16), noise, seed=3))
    calls = {name: sum(s.calls[name] for s in streams) for name in Counting(0).calls}
    return calls, sum(len(s.windows) for s in series.values())


@pytest.mark.parametrize(
    "noise",
    [ScorerNoiseModel(), ScorerNoiseModel(hit_alpha=7.0), ScorerNoiseModel(hit_beta=3.0)],
    ids=["defaults", "demo-04-a", "demo-04-b"],
)
def test_shapes_above_one_draw_by_the_copy_alone(monkeypatch, noise):
    calls, windows = scorer_calls(monkeypatch, noise)
    assert windows > 0
    assert calls == {"betavariate": 0, "gammavariate": 0}


def test_cold_shapes_draw_by_betavariate(monkeypatch):
    # one betavariate call a window, hit or miss
    calls, windows = scorer_calls(monkeypatch, ScorerNoiseModel(hit_beta=1.0, miss_alpha=0.5))
    assert calls["betavariate"] == windows > 0


class Replay(random.Random):
    """A Random whose random() returns the given values in turn, counting its calls."""

    def __init__(self, values):
        super().__init__(0)
        self.values, self.calls = iter(values), 0

    def random(self):
        self.calls += 1
        return next(self.values)


def test_beta_draw_skips_the_gamma_values_cheng_rejects():
    # Cheng's Gamma draw (shape > 1) throws away a first uniform outside
    # (1e-7, 0.9999999); a seeded stream almost never gives one
    script = [0.0, 0.99999995, 1e-8, 0.6, 0.3, 0.2, 0.7, 0.5, 0.4, 0.8]
    ours, theirs = Replay(script), Replay(script)
    draw = pnrkit.sim._beta(9.0, 2.0)(ours.random)
    assert draw.hex() == theirs.betavariate(9.0, 2.0).hex()
    assert ours.calls == theirs.calls == 7  # the three rejected, then two per Gamma draw


def test_a_clip_is_drawn_by_pnrkit_alone():
    # each window costs a few calls of pnrkit's own (its Beta draw, two
    # Gamma draws, ScoredWindow); random.py runs only to seed the clip's stream
    ds = gen_dataset(SimConfig(n_clips=1, seed=5))
    scores = simulate_scores(ds, WindowingConfig(num_windows=64), seed=3)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        series = scores["clip000000"]
    finally:
        sys.setprofile(None)
    assert len(series.windows) == 64
    assert [name for path, name in calls if path == random.__file__] == ["__init__", "seed"]
    package = os.path.dirname(pnrkit.sim.__file__)
    assert len([path for path, _ in calls if os.path.dirname(path) == package]) <= 4 * 64 + 16


class TestSimulateScores:
    def test_sharp_noise_matches_containment_oracle(self):
        ds = gen_dataset(SimConfig(n_clips=40, seed=9))
        windows = WindowingConfig(num_windows=16)
        sharp = ScorerNoiseModel(hit_alpha=100.0, hit_beta=1.0, miss_alpha=1.0, miss_beta=100.0)
        scores = simulate_scores(ds, windows, sharp, seed=2)
        for clip_id, series in scores.items():
            frames = ds.pnr[clip_id].all_frames
            for sw in series.windows:
                contains = any(sw.start <= f < sw.end for f in frames)
                assert (sw.confidence > 0.5) == contains

    def test_geometry_is_the_dense_sweep(self):
        ds = gen_dataset(SimConfig(n_clips=10, seed=4))
        windows = WindowingConfig(num_windows=16)
        scores = simulate_scores(ds, windows, seed=0)
        for clip_id, series in scores.items():
            expected = dense_windows(ds.clips[clip_id], windows)
            assert [(sw.start, sw.end) for sw in series.windows] == [
                (w.start, w.end) for w in expected
            ]

    def test_short_clips_score_each_window_once(self):
        # 33-frame clips have two window starts for a 16-window sweep
        ds = gen_dataset(SimConfig(n_clips=5, duration_min_sec=1.1, duration_max_sec=1.1, seed=4))
        windows = WindowingConfig(num_windows=16)
        scores = simulate_scores(ds, windows, seed=0)
        for clip_id, series in scores.items():
            assert len(dense_windows(ds.clips[clip_id], windows)) == 16
            assert [(sw.start, sw.end) for sw in series.windows] == [(0, 32), (1, 33)]

    def test_short_clip_round_trips_through_a_score_file(self):
        # 40 frames hold 9 starts of a 32-frame window, so a 16-window
        # sweep repeats windows; a score file may hold each window once
        clip = Clip("c", 30.0, 40)
        config = WindowingConfig(num_windows=16)
        distinct = list(dict.fromkeys(dense_windows(clip, config)))
        assert len(dense_windows(clip, config)) == 16 and len(distinct) == 9
        scores = simulate_scores(build_dataset([clip], {"c": PnrAnnotation(20)}), config, seed=0)
        assert [(sw.start, sw.end) for sw in scores["c"].windows] == [
            (w.start, w.end) for w in distinct
        ]
        assert parse_pnr_scores("".join(emit_pnr_scores(scores.items()))) == scores

    def test_two_window_sweep_scores_both_ends_in_order(self):
        ds = build_dataset([Clip("c", 30.0, 240)])
        series = simulate_scores(ds, WindowingConfig(num_windows=2), seed=0)["c"]
        assert [(sw.start, sw.end) for sw in series.windows] == [(0, 32), (208, 240)]

    def test_all_miss_model_forces_fallback(self):
        ds = gen_dataset(SimConfig(n_clips=25, seed=6))
        dull = ScorerNoiseModel(hit_alpha=1.0, hit_beta=100.0, miss_alpha=1.0, miss_beta=100.0)
        scores = simulate_scores(ds, WindowingConfig(num_windows=16), dull, seed=1)
        for clip_id, series in scores.items():
            pred = select_pnr(series, ds.clips[clip_id])
            assert pred.source == "fallback-prior"

    def test_deterministic_per_seed(self):
        ds = gen_dataset(SimConfig(n_clips=15, seed=8))
        windows = WindowingConfig(num_windows=16)
        assert simulate_scores(ds, windows, seed=3) == simulate_scores(ds, windows, seed=3)
        assert simulate_scores(ds, windows, seed=3) != simulate_scores(ds, windows, seed=4)

    @pytest.fixture()
    def streams(self, monkeypatch):
        """The keys of the random streams sim opens, in order."""
        keys, rng = [], pnrkit.sim._rng
        monkeypatch.setattr(
            pnrkit.sim, "_rng", lambda seed, *key: keys.append(key) or rng(seed, *key)
        )
        return keys

    def test_result_is_a_mapping_drawn_on_read(self, streams):
        ds = gen_dataset(SimConfig(n_clips=6, seed=8))
        streams.clear()
        scores = simulate_scores(ds, WindowingConfig(num_windows=16), seed=3)
        assert streams == [()]  # the seed check; no clip is drawn yet
        assert len(scores) == 6 and list(scores) == list(ds.clips)
        assert "clip000002" in scores and "ghost" not in scores
        with pytest.raises(KeyError):
            scores["ghost"]
        with pytest.raises(TypeError):
            scores["clip000002"] = scores["clip000002"]
        assert streams == [(), (1, 2), (1, 2)]
        streams.clear()
        # every read draws the clip from its own stream again, to the same values
        assert scores["clip000004"] == scores["clip000004"]
        assert streams == [(1, 4), (1, 4)]
        streams.clear()
        drawn = dict(scores.items())
        assert streams == [(1, i) for i in range(6)]
        assert scores == drawn and drawn == scores

    def test_every_clip_and_the_seed_are_checked_at_call_time(self, streams):
        ds = build_dataset([Clip("a", 30.0, 240), Clip("b", 30.0, 152)])
        with pytest.raises(ClipTooShortError) as info:
            simulate_scores(ds, WindowingConfig(num_windows=16, window_len=200))
        assert str(info.value) == "clip 'b' has 152 frames, needs at least 200"
        with pytest.raises(DomainError):
            simulate_scores(ds, WindowingConfig(num_windows=16), seed=-1)
        assert all(key == () for key in streams)


class TestSimulateOscc:
    def test_no_flips_when_prob_zero(self):
        ds = gen_dataset(SimConfig(n_clips=50, seed=10))
        probs = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=0.0), seed=1)
        for clip_id, prob in probs.items():
            assert 0.0 <= prob < 1.0
            assert (prob >= 0.5) == ds.oscc[clip_id]

    def test_always_flips_when_prob_one(self):
        ds = gen_dataset(SimConfig(n_clips=50, seed=10))
        probs = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=1.0), seed=1)
        for clip_id, prob in probs.items():
            assert (prob >= 0.5) != ds.oscc[clip_id]


NUMBER_KEYS = [
    "fps",
    "duration_min_sec",
    "duration_max_sec",
    "positive_mean",
    "positive_sd",
    "negatives_lambda",
    "state_change_prob",
    "hit_alpha",
    "hit_beta",
    "miss_alpha",
    "miss_beta",
    "oscc_flip_prob",
]


class TestParseSimConfig:
    def test_defaults_from_empty_text(self):
        settings = parse_sim_config("")
        assert settings.sim == SimConfig()
        assert settings.noise == ScorerNoiseModel()
        assert settings.windows.num_windows == 16
        assert settings.windows.window_len == 32

    def test_full_file_with_comments(self):
        text = """
        # generator
        n_clips = 250
        fps = 24
        duration_min_sec = 4.0
        duration_max_sec = 6.0
        positive_mean = 0.4   # peak position
        positive_sd = 0.1
        negatives_lambda = 1.5
        state_change_prob = 0.6
        seed = 42

        # scorer
        num_windows = 32
        window_len = 16
        hit_alpha = 8
        hit_beta = 3
        miss_alpha = 3
        miss_beta = 8
        oscc_flip_prob = 0.2
        """
        settings = parse_sim_config(text)
        assert settings.sim.n_clips == 250
        assert settings.sim.fps == 24.0
        assert settings.sim.seed == 42
        assert settings.noise.hit_alpha == 8.0
        assert settings.noise.oscc_flip_prob == 0.2
        assert settings.windows.num_windows == 32
        assert settings.windows.window_len == 16

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_sim_config("clips = 10")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_sim_config("seed = 1\nseed = 2")

    def test_bad_value(self):
        with pytest.raises(ParseError, match="integer"):
            parse_sim_config("n_clips = ten")
        with pytest.raises(ParseError, match="number"):
            parse_sim_config("fps = fast")

    @pytest.mark.parametrize("key", ["n_clips", "seed", "num_windows", "window_len"])
    def test_integer_keys(self, key):
        message = f"line 1: '{key}' must be an integer, got '1.5'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_sim_config(f"{key} = 1.5")

    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_number_keys(self, key):
        message = f"line 1: '{key}' must be a number, got 'x'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_sim_config(f"{key} = x")

    # nan passed every range check and hung the truncated-normal draw;
    # inf overflowed inside the draws
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_number_keys_must_be_finite(self, key, value):
        message = f"line 2: '{key}' must be a finite number, got '{value}'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_sim_config(f"n_clips = 2\n{key} = {value}")

    @pytest.mark.parametrize("key", ["jitter", "sim", "noise", "windows"])
    def test_other_field_names_are_unknown(self, key):
        # jitter is a training-sampler knob that simulate does not use
        with pytest.raises(ParseError, match=re.escape(f"unknown key '{key}'")):
            parse_sim_config(f"{key} = 1")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_sim_config("n_clips 10")

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1e"])
    def test_lines_end_at_newline_only(self, sep):
        # str.splitlines() would also break at these, splitting a comment
        # and moving every later line number
        assert parse_sim_config(f"# a{sep}comment\nseed = 7\n").sim.seed == 7
        with pytest.raises(ParseError, match="^line 2: 'seed' must be an integer"):
            parse_sim_config(f"n_clips = 3 # {sep}\nseed = x\n")

    def test_invalid_combination(self):
        with pytest.raises(ParseError):
            parse_sim_config("duration_min_sec = 9\nduration_max_sec = 5")
