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
agree and runs are reproducible.  Each generator family keys its
substream as (seed, family tag, clip index), so dataset, window scorer,
and classifier draws never share a stream even under one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from pnrkit.errors import DomainError, ParseError
from pnrkit.ingest import Dataset, build_dataset
from pnrkit.model import (
    Clip,
    OsccAnnotation,
    PnrAnnotation,
    ScoredWindow,
    ScoreSeries,
    fraction_to_frame,
    round_half_up,
)
from pnrkit.sampling import WindowingConfig, dense_windows

# numpy is imported inside the generators, so importing this module (and
# the CLI) does not load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SimConfig:
    """Dataset generator settings."""

    n_clips: int = 1000
    fps: float = 30.0
    duration_min_sec: float = 5.0
    duration_max_sec: float = 8.0
    positive_mean: float = 0.43
    positive_sd: float = 0.12
    negatives_lambda: float = 2.48
    state_change_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_clips < 1:
            raise DomainError(f"n_clips must be >= 1, got {self.n_clips}")
        if not self.fps > 0:
            raise DomainError(f"fps must be positive, got {self.fps}")
        if not 0 < self.duration_min_sec <= self.duration_max_sec:
            raise DomainError(
                f"need 0 < duration_min_sec <= duration_max_sec, got "
                f"[{self.duration_min_sec}, {self.duration_max_sec}]"
            )
        if not 0.0 <= self.positive_mean <= 1.0:
            raise DomainError(f"positive_mean must be in [0, 1], got {self.positive_mean}")
        if self.positive_sd < 0:
            raise DomainError(f"positive_sd must be >= 0, got {self.positive_sd}")
        if self.negatives_lambda < 0:
            raise DomainError(
                f"negatives_lambda must be >= 0, got {self.negatives_lambda}"
            )
        if not 0.0 <= self.state_change_prob <= 1.0:
            raise DomainError(
                f"state_change_prob must be in [0, 1], got {self.state_change_prob}"
            )


@dataclass(frozen=True)
class ScorerNoiseModel:
    """Beta confidence parameters for hit and miss windows.

    A hit is a window containing any annotated state-change frame,
    positive or not.  ``oscc_flip_prob`` is the chance the simulated
    classifier scores a clip on the wrong side of 0.5.
    """

    hit_alpha: float = 9.0
    hit_beta: float = 2.0
    miss_alpha: float = 2.0
    miss_beta: float = 9.0
    oscc_flip_prob: float = 0.1

    def __post_init__(self):
        for name in ("hit_alpha", "hit_beta", "miss_alpha", "miss_beta"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.oscc_flip_prob <= 1.0:
            raise DomainError(
                f"oscc_flip_prob must be in [0, 1], got {self.oscc_flip_prob}"
            )


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    """Draw from a normal(mean, sd) restricted to [0, 1] by rejection."""
    if sd <= 0:
        return mean
    while True:
        x = rng.normal(mean, sd)
        if 0.0 <= x <= 1.0:
            return x


def gen_dataset(config: SimConfig = SimConfig()) -> Dataset:
    """Generate a fully annotated synthetic dataset, deterministic per seed."""
    import numpy as np

    clips: list[Clip] = []
    pnr: list[PnrAnnotation] = []
    oscc: list[OsccAnnotation] = []
    for i in range(config.n_clips):
        rng = np.random.default_rng((config.seed, 0, i))
        clip_id = f"clip{i:06d}"
        duration = rng.uniform(config.duration_min_sec, config.duration_max_sec)
        num_frames = max(1, round_half_up(duration * config.fps))
        clips.append(Clip(clip_id, config.fps, num_frames))

        positive = fraction_to_frame(
            _truncated_normal(rng, config.positive_mean, config.positive_sd), num_frames
        )
        taken = {positive}
        negatives: list[int] = []
        for _ in range(int(rng.poisson(config.negatives_lambda))):
            # resample on frame collisions; give up if the clip is saturated
            for _ in range(1000):
                frame = fraction_to_frame(rng.uniform(0.0, 1.0), num_frames)
                if frame not in taken:
                    taken.add(frame)
                    negatives.append(frame)
                    break
        pnr.append(PnrAnnotation(clip_id, positive, tuple(negatives)))
        oscc.append(OsccAnnotation(clip_id, bool(rng.random() < config.state_change_prob)))
    return build_dataset(clips, pnr, oscc)


def simulate_scores(
    ds: Dataset,
    windows: WindowingConfig,
    noise: ScorerNoiseModel = ScorerNoiseModel(),
    seed: int = 0,
) -> dict[str, ScoreSeries]:
    """Score every clip's dense windows with hit/miss Beta noise."""
    import numpy as np

    out: dict[str, ScoreSeries] = {}
    for i, (clip_id, clip) in enumerate(ds.clips.items()):
        rng = np.random.default_rng((seed, 1, i))
        ann = ds.pnr.get(clip_id)
        frames = ann.all_frames if ann is not None else ()
        scored = []
        for win in dense_windows(clip, windows):
            hit = any(win.contains(f) for f in frames)
            if hit:
                conf = rng.beta(noise.hit_alpha, noise.hit_beta)
            else:
                conf = rng.beta(noise.miss_alpha, noise.miss_beta)
            scored.append(ScoredWindow(win.start, win.end, float(conf)))
        out[clip_id] = ScoreSeries(clip_id, tuple(scored))
    return out


def simulate_oscc(
    ds: Dataset, noise: ScorerNoiseModel = ScorerNoiseModel(), seed: int = 0
) -> dict[str, float]:
    """Emit a state-change probability per labeled clip.

    With probability ``oscc_flip_prob`` the probability lands on the
    wrong side of 0.5, otherwise on the correct side.
    """
    import numpy as np

    out: dict[str, float] = {}
    for i, (clip_id, ann) in enumerate(ds.oscc.items()):
        rng = np.random.default_rng((seed, 2, i))
        label = ann.state_change
        if rng.random() < noise.oscc_flip_prob:
            label = not label
        half = rng.uniform(0.0, 0.5)
        out[clip_id] = 0.5 + half if label else half
    return out


@dataclass(frozen=True)
class SimSettings:
    """Everything a simulation run needs: generator, noise, windowing."""

    sim: SimConfig
    noise: ScorerNoiseModel
    windows: WindowingConfig


# every field of the three settings classes is a config key, except the
# training jitter, which simulate does not use
_SETTINGS_CLASSES = {"sim": SimConfig, "noise": ScorerNoiseModel, "windows": WindowingConfig}
_KEYS = {
    f.name: (group, int if f.type == "int" else float)
    for group, cls in _SETTINGS_CLASSES.items()
    for f in fields(cls)
    if f.name != "jitter"
}


def parse_sim_config(text: str) -> SimSettings:
    """Parse ``key = value`` simulation settings.

    One assignment per line; ``#`` starts a comment; blank lines are
    skipped; unknown keys are errors.  The keys are the fields of
    SimConfig, ScorerNoiseModel and WindowingConfig (bar ``jitter``);
    every key is optional and falls back to the field default, with
    ``num_windows`` defaulting to 16.
    """
    kwargs: dict[str, dict[str, float | int]] = {group: {} for group in _SETTINGS_CLASSES}
    for line_no, raw in enumerate(text.splitlines(), 1):
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
            kwargs[group][key] = convert(value)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ParseError(f"{key!r} must be {kind}, got {value!r}", line_no) from None

    kwargs["windows"].setdefault("num_windows", 16)
    try:
        return SimSettings(
            **{group: cls(**kwargs[group]) for group, cls in _SETTINGS_CLASSES.items()}
        )
    except DomainError as exc:
        raise ParseError(str(exc)) from None
