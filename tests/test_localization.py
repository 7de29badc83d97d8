"""Selection rule, baselines, and the oracle bound."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnrkit.errors import (
    BoundsError, ClipTooShortError, DomainError, EmptyInputError, ValidationError,
)
from pnrkit.ingest import build_dataset
from pnrkit.localization import (
    SelectionConfig,
    baseline_center,
    baseline_fraction,
    oracle_error,
    select_pnr,
)
from pnrkit.model import (
    Clip,
    FrameWindow,
    PnrAnnotation,
    ScoredWindow,
    ScoreSeries,
    _sweep_start,
    window_center_frame,
)
from pnrkit.sampling import WindowingConfig, _sweep_starts, dense_windows
from pnrkit.sim import SimConfig, gen_dataset, simulate_scores


@st.composite
def sweeps(draw):
    """(n, w, N, fps) of a dense sweep, often one window, a clip of exactly
    one window, or more windows than the clip has starts."""
    w = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.one_of(st.just(w), st.integers(min_value=w, max_value=200)))
    count = draw(st.one_of(
        st.just(1),
        st.integers(min_value=n - w + 2, max_value=n - w + 40),
        st.integers(min_value=1, max_value=48),
    ))
    fps = draw(st.sampled_from([30.0, 29.97, 24.0, 1.0]))
    return n, w, count, fps


def series_of(triples):
    return ScoreSeries(tuple(ScoredWindow(s, e, c) for s, e, c in triples))


def reference_select(series, clip, config):
    """Independent re-statement of the selection rule, via explicit sort."""
    n = clip.num_frames

    def frac(sw):
        center = sw.start + (sw.end - sw.start - 1) / 2
        return 0.0 if n == 1 else center / (n - 1)

    candidates = sorted(
        (sw for sw in series.windows if sw.confidence > config.threshold),
        key=lambda sw: (abs(frac(sw) - config.prior_fraction), sw.start, sw.end),
    )
    if candidates:
        chosen = candidates[0]
        center = chosen.start + (chosen.end - chosen.start - 1) / 2
        return center / clip.fps
    if config.fallback == "prior-point":
        return math.floor(config.prior_fraction * (n - 1) + 0.5) / clip.fps
    best = sorted(
        series.windows, key=lambda sw: (-sw.confidence, sw.start, sw.end)
    )[0]
    return (best.start + (best.end - best.start - 1) / 2) / clip.fps


class TestSelectPnr:
    def test_nearest_prior_wins_over_higher_confidence(self):
        clip = Clip("c", 30.0, 240)
        # centers at fractions 0.50 and 0.30; both clear the filter
        series = series_of([((104), 136, 0.8), (56, 88, 0.9)])
        pred = select_pnr(series, clip)
        assert pred.frame == 120
        assert pred.time_sec == pytest.approx(119.5 / 30)
        assert pred.source == "selected"

    def test_threshold_is_strict(self):
        clip = Clip("c", 30.0, 240)
        series = series_of([(104, 136, 0.7), (56, 88, 0.6)])
        pred = select_pnr(series, clip)
        assert pred.source == "fallback-prior"

    def test_prior_point_fallback_value(self):
        clip = Clip("c", 30.0, 240)
        series = series_of([(0, 32, 0.1)])
        pred = select_pnr(series, clip)
        assert pred.frame == 103
        assert pred.time_sec == pytest.approx(103 / 30)

    def test_argmax_fallback(self):
        clip = Clip("c", 30.0, 240)
        config = SelectionConfig(fallback="argmax-confidence")
        series = series_of([(0, 32, 0.3), (104, 136, 0.5), (208, 240, 0.2)])
        pred = select_pnr(series, clip, config)
        assert pred.source == "fallback-argmax"
        assert pred.frame == 120

    def test_argmax_tie_prefers_earlier(self):
        clip = Clip("c", 30.0, 240)
        config = SelectionConfig(fallback="argmax-confidence")
        series = series_of([(104, 136, 0.5), (0, 32, 0.5)])
        assert select_pnr(series, clip, config).frame == 16

    def test_single_candidate(self):
        clip = Clip("c", 30.0, 240)
        series = series_of([(0, 32, 0.9), (104, 136, 0.2)])
        pred = select_pnr(series, clip)
        assert pred.source == "selected"
        assert pred.frame == 16

    def test_equidistant_tie_prefers_earlier(self):
        clip = Clip("c", 30.0, 101)
        config = SelectionConfig(prior_fraction=0.5)
        # centers at frames 40.5 and 59.5, both 0.095 from the prior
        series = series_of([(50, 70, 0.9), (31, 51, 0.9)])
        assert select_pnr(series, clip, config).frame == 41

    def test_order_independence(self):
        clip = Clip("c", 30.0, 240)
        triples = [(0, 32, 0.75), (56, 88, 0.9), (104, 136, 0.8), (150, 182, 0.2)]
        rng = random.Random(4)
        baseline = select_pnr(series_of(triples), clip)
        for _ in range(10):
            rng.shuffle(triples)
            assert select_pnr(series_of(triples), clip) == baseline

    def test_errors(self):
        clip = Clip("c", 30.0, 240)
        with pytest.raises(EmptyInputError):
            select_pnr(ScoreSeries(()), clip)
        with pytest.raises(BoundsError):
            select_pnr(series_of([(220, 252, 0.9)]), clip)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SelectionConfig(threshold=1.5)
        with pytest.raises(DomainError):
            SelectionConfig(prior_fraction=-0.1)
        with pytest.raises(ValidationError):
            SelectionConfig(fallback="middle")

    @given(
        st.integers(min_value=2, max_value=400),
        st.data(),
        st.sampled_from(["prior-point", "argmax-confidence"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_agrees_with_reference(self, n, data, fallback, threshold, prior):
        clip = Clip("c", 30.0, n)
        k = data.draw(st.integers(min_value=1, max_value=8))
        triples = []
        for _ in range(k):
            start = data.draw(st.integers(min_value=0, max_value=n - 1))
            end = data.draw(st.integers(min_value=start + 1, max_value=n))
            conf = data.draw(st.floats(min_value=0.0, max_value=1.0))
            triples.append((start, end, conf))
        config = SelectionConfig(threshold=threshold, prior_fraction=prior, fallback=fallback)
        series = series_of(triples)
        assert select_pnr(series, clip, config).time_sec == reference_select(
            series, clip, config
        )


class TestBaselines:
    def test_center(self):
        pred = baseline_center(Clip("c", 30.0, 240))
        assert pred.frame == 120
        assert pred.time_sec == 4.0
        assert pred.source == "baseline-center"

    def test_center_single_frame(self):
        pred = baseline_center(Clip("c", 30.0, 1))
        assert pred.frame == 0 and pred.time_sec == 0.0

    def test_fraction(self):
        pred = baseline_fraction(Clip("c", 30.0, 240), 0.43)
        assert pred.frame == 103
        assert pred.time_sec == pytest.approx(103 / 30)
        assert pred.source == "baseline-fraction"

    def test_fraction_out_of_range(self):
        with pytest.raises(DomainError):
            baseline_fraction(Clip("c", 30.0, 240), 1.2)


class TestOracleError:
    def test_two_window_reference(self):
        err = oracle_error(PnrAnnotation(120), Clip("c", 30.0, 240), WindowingConfig(num_windows=2))
        assert err == pytest.approx(3.45)

    def test_error_measured_from_nearest_center(self):
        # N=2 centers sit at frames 15.5 and 223.5; truth at 16 is half a
        # frame from the first
        err = oracle_error(PnrAnnotation(16), Clip("c", 30.0, 240), WindowingConfig(num_windows=2))
        assert err == pytest.approx(0.5 / 30)

    def test_enumerated_means_over_all_positions(self):
        # exact enumeration over every frame of a 240-frame, 32-frame-window
        # clip: mean best error is 163/1200 s for N=16 and 17/200 s for N=32
        clip = Clip("c", 30.0, 240)
        for count, expected in ((16, 163 / 1200), (32, 17 / 200)):
            cfg = WindowingConfig(num_windows=count)
            mean = math.fsum(
                oracle_error(PnrAnnotation(p), clip, cfg) for p in range(240)
            ) / 240
            assert mean == pytest.approx(expected, rel=1e-12)

    def test_ratio_on_this_geometry(self):
        # edge clamping keeps the 16 vs 32 ratio below the interior value 2
        assert (163 / 1200) / (17 / 200) == pytest.approx(163 / 102)

    @given(sweeps())
    @example((311, 32, 7, 30.0))
    @settings(max_examples=150)
    def test_brute_force_agreement(self, sweep):
        # the exact float the min over the dense windows' center times gives,
        # at every frame of the clip
        n, w, count, fps = sweep
        clip = Clip("c", fps, n)
        cfg = WindowingConfig(num_windows=count, window_len=w)
        centers = [window_center_frame(win) / fps for win in dense_windows(clip, cfg)]
        for p in range(n):
            expected = min(abs(c - p / fps) for c in centers)
            assert oracle_error(PnrAnnotation(p), clip, cfg) == expected

    @given(data=st.data(), num_frames=st.integers(1, 2**64), fps=st.floats(1e-280, 1e300),
           count=st.integers(1, 200))
    @example(data=None, num_frames=1_790_000_000, fps=1e-299, count=16)
    @settings(max_examples=500)
    def test_bisection_finds_the_full_scan_minimum(self, data, num_frames, fps, count):
        # the oracle evaluates only the two sweep centers around the truth;
        # a scan of all N gives the same float, also for huge or repeated starts
        if data is None:  # the clip of the largest times Clip allows
            window_len, frame = 32, num_frames - 1
        else:
            window_len = data.draw(st.integers(1, min(num_frames, 10**6)), label="window_len")
            frame = data.draw(st.integers(0, num_frames - 1), label="frame")
        clip, cfg = Clip("c", fps, num_frames), WindowingConfig(count, window_len)
        truth = frame / fps
        expected = min(
            abs(window_center_frame((s, s + window_len)) / fps - truth)
            for s in _sweep_starts(clip, cfg)
        )
        assert oracle_error(PnrAnnotation(frame), clip, cfg) == expected

    def test_builds_no_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("the whole sweep was built")

        clip = Clip("c", 30.0, 240)
        frames, counts = (0, 120, 239), (1, 2, 16, 200)
        expected = {
            (p, count): min(abs(window_center_frame((s, s + 32)) / 30.0 - p / 30.0)
                            for s in _sweep_starts(clip, WindowingConfig(count)))
            for p in frames for count in counts
        }
        monkeypatch.setattr("pnrkit.sampling._sweep_starts", sweep)
        assert oracle_error(PnrAnnotation(120), clip, WindowingConfig(2)) == pytest.approx(3.45)
        assert oracle_error(PnrAnnotation(16), clip, WindowingConfig(2)) == pytest.approx(0.5 / 30)
        # nor maps the start rule over the sweep: it bisects it
        calls = []

        def rule(*args):
            calls.append(args)
            return _sweep_start(*args)

        monkeypatch.setattr("pnrkit.localization._sweep_start", rule)
        for (p, count), error in expected.items():
            calls.clear()
            assert oracle_error(PnrAnnotation(p), clip, WindowingConfig(count)) == error
            assert len(calls) <= math.ceil(math.log2(count + 1)) + 2, (p, count)

    def test_errors(self):
        with pytest.raises(ValidationError):
            oracle_error(PnrAnnotation(500), Clip("c", 30.0, 240), WindowingConfig(num_windows=2))
        # a clip shorter than the window is refused as the sweep refuses it
        with pytest.raises(ClipTooShortError, match="clip 'c' has 20 frames, needs at least 32"):
            oracle_error(PnrAnnotation(5), Clip("c", 30.0, 20), WindowingConfig(num_windows=2))


class TestSweepBuildsNoWindow:
    def test_consumers_run_with_frame_window_refused(self, monkeypatch):
        # the oracle and the simulator read the sweep's integer starts:
        # refusing every FrameWindow changes none of their values
        ds = gen_dataset(SimConfig(n_clips=12, duration_min_sec=1.1, duration_max_sec=3.0, seed=5))
        ds = build_dataset([*ds.clips.values(), Clip("bare", 30.0, 50)], ds.pnr, ds.oscc)

        def run():
            out = []
            for count in (1, 16, 32, 90):
                cfg = WindowingConfig(num_windows=count)
                scores = simulate_scores(ds, cfg, seed=4)
                oracle = [oracle_error(ds.pnr[c], ds.clips[c], cfg) for c in ds.pnr]
                out.append((scores, oracle))
            return out

        expected = run()

        def refuse(cls, *args):
            raise AssertionError(f"built {cls.__name__}{args}")

        monkeypatch.setattr(FrameWindow, "__new__", refuse)
        with pytest.raises(AssertionError, match=r"^built FrameWindow\(0, 1\)$"):
            FrameWindow(0, 1)
        assert run() == expected
