"""Synthetic clips, annotations, and noisy scorer output.

The generator produces short clips whose positive state-change frame
sits at a truncated-normal fraction of the clip (peaked near 0.43) and
whose extra state-change frames are Poisson-many at uniform positions.
The scorer stand-in draws a confidence per dense window from one Beta
distribution when the window contains any annotated frame and another
when it contains none, which reproduces the key difficulty: windows
around every annotated frame look alike, yet only one frame is scored
as correct.

All draws are substreamed per clip, so serial and parallel generation
agree and runs are reproducible.  Each clip's draws come from a
``random.Random`` stream keyed (seed, family tag, clip index), with tag
0 for the dataset, 1 for the window scorer and 2 for the classifier, so
no two families share a stream even under one seed.

simulate_scores checks first, then draws a clip's window scores when
that clip is read: it holds no series, and reading a clip again redraws
it from its own stream, to the same values.

A Beta draw with both shapes above 1 copies ``random.Random.betavariate``
(CPython 3.11) to the bit, its Cheng branch alone, on ``random()``, whose
sequence Python keeps across releases; a shape at or below 1 is drawn by
the stream's own ``betavariate``, whose bits a release could change.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import chain
from math import exp, log

from pnrkit.errors import DomainError, ParseError
from pnrkit.ingest import Dataset, _lines, build_dataset
from pnrkit.model import (
    Clip,
    PnrAnnotation,
    Record,
    ScoredWindow,
    ScoreSeries,
    _check_fits,
    ensure_positive,
    ensure_range,
    fraction_to_frame,
    round_half_up,
)
from pnrkit.sampling import WindowingConfig, _held_starts, _rng, _sweep_starts


class SimConfig(Record):
    """Dataset generator settings."""

    __slots__ = ()

    def __new__(
        cls,
        n_clips: int = 1000,
        fps: float = 30.0,
        duration_min_sec: float = 5.0,
        duration_max_sec: float = 8.0,
        positive_mean: float = 0.43,
        positive_sd: float = 0.12,
        negatives_lambda: float = 2.48,
        state_change_prob: float = 0.5,
        seed: int = 0,
    ):
        ensure_range("n_clips", n_clips, 1, integer=True)
        ensure_positive("fps", fps)
        ensure_positive("duration_min_sec", duration_min_sec)
        ensure_range("duration_max_sec", duration_max_sec, duration_min_sec)
        ensure_range("positive_mean", positive_mean, 0, 1)
        ensure_range("positive_sd", positive_sd, 0, 1)
        ensure_range("negatives_lambda", negatives_lambda, 0)
        ensure_range("state_change_prob", state_change_prob, 0, 1)
        return tuple.__new__(cls, (
            n_clips, fps, duration_min_sec, duration_max_sec, positive_mean, positive_sd,
            negatives_lambda, state_change_prob, seed,
        ))


class ScorerNoiseModel(Record):
    """Beta confidence parameters for hit and miss windows.

    A hit is a window containing any annotated state-change frame,
    positive or not.  ``oscc_flip_prob`` is the chance the simulated
    classifier scores a clip on the wrong side of 0.5.
    """

    __slots__ = ()

    def __new__(
        cls,
        hit_alpha: float = 9.0,
        hit_beta: float = 2.0,
        miss_alpha: float = 2.0,
        miss_beta: float = 9.0,
        oscc_flip_prob: float = 0.1,
    ):
        for name, value in zip(cls._fields, (hit_alpha, hit_beta, miss_alpha, miss_beta)):
            ensure_positive(name, value)
        ensure_range("oscc_flip_prob", oscc_flip_prob, 0, 1)
        return tuple.__new__(cls, (hit_alpha, hit_beta, miss_alpha, miss_beta, oscc_flip_prob))


def _gamma(alpha: float) -> Callable[[Callable[[], float]], float]:
    """draw(random), a Gamma(alpha, 1) draw from a stream's random(), as
    random.Random.gammavariate(alpha, 1.0) makes it for alpha > 1, the one
    branch copied: R. C. H. Cheng, Applied Statistics 26 (1977), 71-74."""
    ainv = math.sqrt(2.0 * alpha - 1.0)
    bbb, ccc, magic = alpha - log(4.0), alpha + ainv, 1.0 + log(4.5)

    def draw(random: Callable[[], float]) -> float:
        while True:
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = log(u1 / (1.0 - u1)) / ainv
            x = alpha * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + magic - 4.5 * z >= 0.0 or r >= log(z):
                return x  # gammavariate's x * beta, with beta 1.0

    return draw


def _beta(alpha: float, beta: float) -> Callable[[Callable[[], float]], float]:
    """draw(random), a Beta(alpha, beta) draw from a stream's random(), as
    random.Random.betavariate(alpha, beta) makes it: by _gamma's copy when
    both shapes are above 1, else by the betavariate of random.__self__."""
    if not min(alpha, beta) > 1.0:
        return lambda random: random.__self__.betavariate(alpha, beta)
    gamma_alpha, gamma_beta = _gamma(alpha), _gamma(beta)

    def draw(random: Callable[[], float]) -> float:
        # Cheng's y = alpha * exp(v), v > -16.2, is never 0: no y == 0 guard
        y = gamma_alpha(random)
        return y / (y + gamma_beta(random))

    return draw


def _truncated_normal(rng: random.Random, mean: float, sd: float) -> float:
    """Draw from a normal(mean, sd) restricted to [0, 1] by rejection."""
    if sd <= 0:
        return mean
    while True:
        x = rng.normalvariate(mean, sd)
        if 0.0 <= x <= 1.0:
            return x


def _poisson(rng: random.Random, lam: float, cap: float = math.inf) -> int:
    """Draw from a Poisson(lam): the arrivals of a unit-rate process in
    [0, lam), counted gap by exponential gap.  Counting stops at cap, so
    a count below cap draws exactly as an uncapped one would."""
    count, t = 0, rng.expovariate(1.0)
    while t < lam and count < cap:
        count += 1
        t += rng.expovariate(1.0)
    return count


def gen_dataset(config: SimConfig = SimConfig()) -> Dataset:
    """Generate a fully annotated synthetic dataset, deterministic per seed."""
    clips: list[Clip] = []
    pnr: dict[str, PnrAnnotation] = {}
    oscc: dict[str, bool] = {}
    for i in range(config.n_clips):
        rng = _rng(config.seed, 0, i)
        clip_id = f"clip{i:06d}"
        duration = rng.uniform(config.duration_min_sec, config.duration_max_sec)
        num_frames = max(1, round_half_up(duration * config.fps))
        clips.append(Clip(clip_id, config.fps, num_frames))

        positive = fraction_to_frame(
            _truncated_normal(rng, config.positive_mean, config.positive_sd), num_frames
        )
        taken = {positive}
        negatives: list[int] = []
        # a clip has num_frames - 1 frames left for extra state changes
        for _ in range(_poisson(rng, config.negatives_lambda, num_frames - 1)):
            # resample on frame collisions; give up if the clip is saturated
            for _ in range(1000):
                frame = fraction_to_frame(rng.uniform(0.0, 1.0), num_frames)
                if frame not in taken:
                    taken.add(frame)
                    negatives.append(frame)
                    break
        pnr[clip_id] = PnrAnnotation(positive, tuple(negatives))
        oscc[clip_id] = rng.random() < config.state_change_prob
    return build_dataset(clips, pnr, oscc)


def simulate_scores(
    ds: Dataset,
    windows: WindowingConfig,
    noise: ScorerNoiseModel = ScorerNoiseModel(),
    seed: int = 0,
) -> Mapping[str, ScoreSeries]:
    """Score every clip's distinct dense windows with hit/miss Beta noise.

    The seed and the fit of every clip to the window (ClipTooShortError)
    are checked now.  The result is a read-only mapping that draws a
    clip's series from that clip's own stream when the clip is read, so
    it holds no series; reading a clip again draws it again, to the same
    values.  Take dict() of it to draw every clip once and keep them.
    """
    _rng(seed)  # refuses a bad seed now, not at the first read
    for clip in ds.clips.values():
        _check_fits(clip, windows.window_len)
    return _DrawnScores(ds, windows, noise, seed)


class _DrawnScores(Mapping):
    """The window scores of simulate_scores, drawn per clip on read."""

    def __init__(self, ds: Dataset, windows: WindowingConfig, noise: ScorerNoiseModel, seed: int):
        self._index = {clip_id: i for i, clip_id in enumerate(ds.clips)}
        self._ds, self._windows, self._seed = ds, windows, seed
        self._hit = _beta(noise.hit_alpha, noise.hit_beta)
        self._miss = _beta(noise.miss_alpha, noise.miss_beta)
        self._sweeps: dict[int, tuple[list[int], list[int]]] = {}  # clip length -> starts, ends

    def __getitem__(self, clip_id: str) -> ScoreSeries:
        random = _rng(self._seed, 1, self._index[clip_id]).random
        clip, w = self._ds.clips[clip_id], self._windows.window_len
        sweep = self._sweeps.get(clip.num_frames)
        if sweep is None:
            # a sweep of more windows than a short clip has starts repeats
            # starts; each distinct window is scored once
            starts = list(dict.fromkeys(_sweep_starts(clip, self._windows)))
            sweep = self._sweeps[clip.num_frames] = starts, [s + w for s in starts]
        starts, ends = sweep
        ann = self._ds.pnr.get(clip_id)
        held = _held_starts(ann.all_frames if ann is not None else (), starts, w)
        hit, miss = self._hit, self._miss
        confidences = [(hit if s in held else miss)(random) for s in starts]
        return ScoreSeries(ScoredWindow._from_columns(starts, ends, confidences))

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def simulate_oscc(
    ds: Dataset, noise: ScorerNoiseModel = ScorerNoiseModel(), seed: int = 0
) -> dict[str, float]:
    """Emit a state-change probability per labeled clip, in clip order.

    With probability ``oscc_flip_prob`` the probability lands on the
    wrong side of 0.5, otherwise on the correct side.
    """
    out: dict[str, float] = {}
    for i, clip_id in enumerate(ds.clips):  # the clip's index keys its stream, as in gen_dataset
        label = ds.oscc.get(clip_id)
        if label is None:  # an unlabeled clip draws nothing
            continue
        rng = _rng(seed, 2, i)
        if rng.random() < noise.oscc_flip_prob:
            label = not label
        half = rng.uniform(0.0, 0.5)
        out[clip_id] = 0.5 + half if label else half
    return out


class SimSettings(Record):
    """Everything a simulation run needs: generator, noise, windowing."""

    __slots__ = ()

    def __new__(cls, sim: SimConfig, noise: ScorerNoiseModel, windows: WindowingConfig):
        return tuple.__new__(cls, (sim, noise, windows))


# every field of the three settings classes is a config key, an int or a float as
# its __new__ annotation says, except the training jitter, which simulate does not use
_SETTINGS_CLASSES = {"sim": SimConfig, "noise": ScorerNoiseModel, "windows": WindowingConfig}
_KEYS = {
    name: (group, int if cls.__new__.__annotations__[name] == "int" else float)
    for group, cls in _SETTINGS_CLASSES.items()
    for name in cls._fields
    if name != "jitter"
}


def parse_sim_config(text: str | Iterable[str]) -> SimSettings:
    """Parse ``key = value`` simulation settings.

    One assignment per line; ``#`` starts a comment; blank lines are
    skipped; unknown keys are errors.  The keys are the fields of
    SimConfig, ScorerNoiseModel and WindowingConfig (bar ``jitter``);
    every key is optional and falls back to the field default, with
    ``num_windows`` defaulting to 16.
    """
    kwargs: dict[str, dict[str, float | int]] = {group: {} for group in _SETTINGS_CLASSES}
    for line_no, raw in enumerate(chain.from_iterable(b.split("\n") for b, _ in _lines(text)), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line_no)
        group, convert = _KEYS[key]
        if key in kwargs[group]:
            raise ParseError(f"duplicate key {key!r}", line_no)
        try:
            number = convert(value)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ParseError(f"{key!r} must be {kind}, got {value!r}", line_no) from None
        # float() reads nan and inf, which the range checks refuse too; this
        # check refuses them first, so the error names the line
        if convert is float and not math.isfinite(number):
            raise ParseError(f"{key!r} must be a finite number, got {value!r}", line_no)
        kwargs[group][key] = number

    kwargs["windows"].setdefault("num_windows", 16)
    try:
        return SimSettings(
            **{group: cls(**kwargs[group]) for group, cls in _SETTINGS_CLASSES.items()}
        )
    except DomainError as exc:
        raise ParseError(str(exc)) from None
