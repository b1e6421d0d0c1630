"""Run profiles, attack ranges, seed streams and key=value config files."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class AttackRanges:
    """Physical ranges of the attacking pose (x, y in metres, alpha in radians)."""

    x: tuple[float, float] = (-0.37, 0.29)
    y: tuple[float, float] = (-0.20, 0.20)
    alpha: tuple[float, float] = (math.radians(15.0), math.radians(120.0))

    def contains(self, x: float, y: float, alpha: float) -> bool:
        return (
            self.x[0] <= x <= self.x[1]
            and self.y[0] <= y <= self.y[1]
            and self.alpha[0] <= alpha <= self.alpha[1]
        )


# The one set of ranges: objects are placed, the sensor crops, the planner
# gates and the actions map inside these.
ATTACK_RANGES = AttackRanges()

# Objects per scene unless a run asks for another range: the environment's,
# the dataset's and the config file's default.
OBJECT_COUNT_RANGE = (50, 300)


@dataclass(frozen=True)
class Profile:
    """Scale knobs for a full run.

    ``paper`` reproduces the published scale; ``desk`` is sized so the whole
    pipeline (dataset, representation training, RL) runs on one workstation.
    """

    name: str
    fps_target: int
    level_points: tuple[int, ...]
    level_widths: tuple[int, ...]
    fp_widths: tuple[int, ...]
    rep_scenes: int
    rl_total_samples: int

    @property
    def code_size(self) -> int:
        """Flattened size of the coded representation (#points x (features+3))."""
        return self.level_points[-1] * (self.level_widths[-1] + 3)


PAPER_PROFILE = Profile(
    name="paper",
    fps_target=7000,
    level_points=(1024, 256, 64, 16, 8),
    level_widths=(128, 128, 128, 64, 32),
    fp_widths=(256, 256, 256, 128),
    rep_scenes=35000,
    rl_total_samples=30000,
)

DESK_PROFILE = Profile(
    name="desk",
    fps_target=2048,
    level_points=(256, 64, 32, 16, 8),
    level_widths=(96, 96, 96, 64, 32),
    fp_widths=(128, 128, 128, 128),
    rep_scenes=300,
    rl_total_samples=5000,
)

_PROFILES = {"paper": PAPER_PROFILE, "desk": DESK_PROFILE}


def get_profile(name: str) -> Profile:
    """Look up a profile by name."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}")


def seed_stream(master_seed: int, name: str) -> np.random.Generator:
    """Derive a named, independent random stream from one master seed.

    The mapping is stable across platforms and runs: the stream is keyed on
    the master seed plus the bytes of the stream name.
    """
    key = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + list(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(key))


def stream_seed(master_seed: int, name: str) -> int:
    """A plain integer seed derived the same way as :func:`seed_stream`."""
    key = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + list(name.encode("utf-8"))
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def load_config(path: str) -> dict[str, dict[str, str]]:
    """Read a plain ``key = value`` file with ``[section]`` headers.

    Values are returned as strings; callers coerce what they need and reject
    the sections and keys they do not know. A ``[DEFAULT]`` key, which
    configparser would copy into every section, raises ConfigError.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():
        raise ConfigError(f"{path}: [DEFAULT] sets {sorted(parser.defaults())}; name a section")
    return {section: dict(parser.items(section)) for section in parser.sections()}
