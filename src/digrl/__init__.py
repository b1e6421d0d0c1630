"""Desk-scale excavation learning workbench.

Synthetic cluttered trays, a top-down depth sensor, a hand-rolled autodiff
stack, a hierarchical point-cloud encoder trained on geometric
self-supervision, and a clipped-surrogate policy optimizer digging with a
four-phase arm trajectory. Everything runs from one CLI (``digrl``) and two
profiles: ``paper`` at published scale, ``desk`` sized for one workstation.
"""

from .config import (
    AttackRanges,
    DESK_PROFILE,
    PAPER_PROFILE,
    Profile,
    get_profile,
    seed_stream,
    stream_seed,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DigrlError,
    EmptyObservationError,
    PlacementError,
    ProtocolError,
    ShapeError,
    SizeError,
    TopologyError,
)
from .excavation import BucketSpec, DigResult, EnvConfig, ExcavationEnv, execute_dig
from .geometry import HeightMap, PointCloud
from .kinematics import ArmModel, AttackPose, PlanOutcome, TrajectoryParams, plan_trajectory
from .ppo import PolicyCore, train_rl
from .repnet import RepNet, train_rep
from .scenegen import RigidObject, Scene, Tray, spawn_scene
from .sensor import ObservationCloud, SensorConfig, observe

__version__ = "0.1.0"

__all__ = [
    "ArmModel",
    "AttackPose",
    "AttackRanges",
    "BucketSpec",
    "ConfigError",
    "DESK_PROFILE",
    "DegenerateGeometryError",
    "DigResult",
    "DigrlError",
    "EmptyObservationError",
    "EnvConfig",
    "ExcavationEnv",
    "HeightMap",
    "ObservationCloud",
    "PAPER_PROFILE",
    "PlacementError",
    "PlanOutcome",
    "PointCloud",
    "PolicyCore",
    "Profile",
    "ProtocolError",
    "RepNet",
    "RigidObject",
    "Scene",
    "SensorConfig",
    "ShapeError",
    "SizeError",
    "TopologyError",
    "TrajectoryParams",
    "Tray",
    "execute_dig",
    "get_profile",
    "observe",
    "plan_trajectory",
    "seed_stream",
    "spawn_scene",
    "stream_seed",
    "train_rep",
    "train_rl",
    "__version__",
]
