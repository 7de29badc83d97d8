"""Synthetic dataset generation and the noisy scorer stand-in."""

import re

import pytest

from pnrkit.errors import DomainError, ParseError
from pnrkit.ingest import emit_annotations
from pnrkit.localization import select_pnr
from pnrkit.model import fraction_to_frame
from pnrkit.sampling import WindowingConfig, dense_windows
from pnrkit.sim import (
    ScorerNoiseModel,
    SimConfig,
    gen_dataset,
    parse_sim_config,
    simulate_oscc,
    simulate_scores,
)


class TestGenDataset:
    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_clips=40, seed=123)
        assert emit_annotations(gen_dataset(cfg)) == emit_annotations(gen_dataset(cfg))

    def test_seed_changes_output(self):
        a = emit_annotations(gen_dataset(SimConfig(n_clips=40, seed=1)))
        b = emit_annotations(gen_dataset(SimConfig(n_clips=40, seed=2)))
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
        assert all(a.state_change for a in all_true.oscc.values())
        all_false = gen_dataset(SimConfig(n_clips=20, seed=1, state_change_prob=0.0))
        assert not any(a.state_change for a in all_false.oscc.values())

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


class TestSimulateOscc:
    def test_no_flips_when_prob_zero(self):
        ds = gen_dataset(SimConfig(n_clips=50, seed=10))
        probs = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=0.0), seed=1)
        for clip_id, prob in probs.items():
            assert 0.0 <= prob < 1.0
            assert (prob >= 0.5) == ds.oscc[clip_id].state_change

    def test_always_flips_when_prob_one(self):
        ds = gen_dataset(SimConfig(n_clips=50, seed=10))
        probs = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=1.0), seed=1)
        for clip_id, prob in probs.items():
            assert (prob >= 0.5) != ds.oscc[clip_id].state_change


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

    @pytest.mark.parametrize(
        "key",
        [
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
        ],
    )
    def test_number_keys(self, key):
        message = f"line 1: '{key}' must be a number, got 'x'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_sim_config(f"{key} = x")

    @pytest.mark.parametrize("key", ["jitter", "sim", "noise", "windows"])
    def test_other_field_names_are_unknown(self, key):
        # jitter is a training-sampler knob that simulate does not use
        with pytest.raises(ParseError, match=re.escape(f"unknown key '{key}'")):
            parse_sim_config(f"{key} = 1")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_sim_config("n_clips 10")

    def test_invalid_combination(self):
        with pytest.raises(ParseError):
            parse_sim_config("duration_min_sec = 9\nduration_max_sec = 5")
