"""4-DoF digging arm: analytic kinematics, dig trajectory planning, collisions.

The arm is a base yaw joint plus a planar 3R chain (shoulder, elbow, wrist)
whose last link carries the bucket. A dig trajectory runs four phases:

1. penetrate: the tip enters at the attacking point, moving along a straight
   line whose entry angle alpha is measured from horizontal (alpha = 90 deg is
   a vertical plunge; shallow alpha rakes toward the robot base), until the
   tip sits the configured depth below the local surface;
2. drag: the tip moves horizontally toward the base's floor projection, up to
   the configured length, truncated early where the wrist would leave the
   reachable annulus or the bucket would later swing into a tray wall;
3. close: the bucket pitch rotates in place to the fixed closing attitude;
4. lift: the tip rises vertically to the lift height.

Waypoints sit on an exact 10 ms grid; penetrate and drag advance exactly
linear_speed * dt per step, so both phase lengths are quantized to whole
steps. Planning fails (never raises) with a failure kind plus the first
offending waypoint. A kinematically sound waypoint that violates joint
limits is reported as a self collision: with a box bucket on an open tray
the only way this arm can fold into itself is by over-rotating a joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import AttackRanges
from .errors import ShapeError
from .geometry import HeightMap
from .scenegen import Tray

OUT_OF_RANGE = "out_of_range"
IK_FAILURE = "ik_failure"
SELF_COLLISION = "self_collision"
ENV_COLLISION = "env_collision"

_OK, _UNREACHABLE, _LIMITS = 0, 1, 2

PHASE_NAMES = ("penetrate", "drag", "close", "lift")


@dataclass
class ArmModel:
    """Geometry, speed and bucket of the digging arm (tray frame)."""

    base: np.ndarray = field(default_factory=lambda: np.array([-0.55, 0.0, 0.05]))
    lengths: tuple[float, float, float] = (0.45, 0.40, 0.15)
    joint_limits: np.ndarray = field(
        default_factory=lambda: np.array(
            [[-3.15, 3.15], [-1.2, 2.7], [-2.9, 2.9], [-3.05, 3.05]]
        )
    )
    linear_speed: float = 0.10  # m/s tip speed in penetrate/drag/lift
    angular_speed: float = 0.79  # rad/s bucket pitch speed in close
    dt: float = 0.01  # s, 100 Hz waypoint grid
    # Bucket collision body: an oriented box whose bottom-front edge is the
    # cutting tip; x along the scoop direction, z out of the mouth.
    bucket_box: tuple[float, float, float] = (0.12, 0.12, 0.04)

    def within_limits(self, q: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        return (
            (q >= self.joint_limits[None, :, 0] - 1e-12)
            & (q <= self.joint_limits[None, :, 1] + 1e-12)
        ).all(axis=1)


@dataclass
class AttackPose:
    """Physical attacking pose: hit point (x, y) and entry angle alpha (rad)."""

    x: float
    y: float
    alpha: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.alpha])


@dataclass
class TrajectoryParams:
    penetration_depth: float = 0.10  # m below the local surface
    max_drag: float = 0.30  # m
    closing_angle: float = math.radians(135.0)  # bucket attitude after close
    lift_height: float = 0.40  # m, tray frame


@dataclass
class JointTrajectory:
    """Joint-space waypoints on a uniform time grid with phase boundaries."""

    times: np.ndarray  # (N,)
    joints: np.ndarray  # (N, 4)
    phase_ends: tuple[int, int, int, int]  # last waypoint index of each phase
    rate_hz: float = 100.0

    def __len__(self) -> int:
        return len(self.times)

    def phase_of(self, index: int) -> str:
        for name, end in zip(PHASE_NAMES, self.phase_ends):
            if index <= end:
                return name
        return PHASE_NAMES[-1]

    def phase_slice(self, name: str) -> slice:
        i = PHASE_NAMES.index(name)
        start = 0 if i == 0 else self.phase_ends[i - 1]
        return slice(start, self.phase_ends[i] + 1)


@dataclass
class PlanOutcome:
    """Either a trajectory or a failure kind with the first offending waypoint."""

    trajectory: JointTrajectory | None = None
    failure: str | None = None
    fail_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.trajectory is not None

    @staticmethod
    def failed(kind: str, index: int | None = None) -> "PlanOutcome":
        return PlanOutcome(None, kind, index)


# ---------------------------------------------------------------------------
# Forward / inverse kinematics


def fk_batch(arm: ArmModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward kinematics: (N, 4) joints -> (N, 3) tips, (N,) pitches."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ShapeError(f"joints must be (N, 4), got {q.shape}")
    l1, l2, l3 = arm.lengths
    a1 = q[:, 1]
    a2 = a1 + q[:, 2]
    a3 = a2 + q[:, 3]
    r = l1 * np.cos(a1) + l2 * np.cos(a2) + l3 * np.cos(a3)
    z = l1 * np.sin(a1) + l2 * np.sin(a2) + l3 * np.sin(a3)
    yaw = q[:, 0]
    tips = arm.base[None, :] + np.stack([r * np.cos(yaw), r * np.sin(yaw), z], axis=1)
    return tips, a3


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def ik_batch(
    arm: ArmModel, positions: np.ndarray, pitches: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic IK for tip positions + bucket pitches.

    Returns (joints (N, 4), status (N,)) with status 0 ok, 1 unreachable,
    2 joint limits. Four candidate branches are tried in preference order:
    base yaw facing the target first (flipped yaw with a negative radial
    coordinate covers poses folded back over the base), elbow-up before
    elbow-down within each yaw. The first branch satisfying the joint limits
    wins.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    pitches = np.atleast_1d(np.asarray(pitches, dtype=np.float64))
    l1, l2, l3 = arm.lengths
    rel = positions - arm.base[None, :]
    yaw_fwd = np.arctan2(rel[:, 1], rel[:, 0])
    r = np.hypot(rel[:, 0], rel[:, 1])
    n = len(positions)
    cand = np.zeros((n, 4, 4))
    geom_ok = np.zeros((n, 4), dtype=bool)
    for rep, (yaw_rep, r_rep) in enumerate(
        ((yaw_fwd, r), (_wrap_angle(yaw_fwd + np.pi), -r))
    ):
        wr = r_rep - l3 * np.cos(pitches)
        wz = rel[:, 2] - l3 * np.sin(pitches)
        d = np.hypot(wr, wz)
        ok = (d <= l1 + l2 + 1e-9) & (d >= abs(l1 - l2) - 1e-9)
        cos_q2 = np.clip((d * d - l1 * l1 - l2 * l2) / (2.0 * l1 * l2), -1.0, 1.0)
        # Snap the straight/folded elbow: acos amplifies one ulp at the
        # boundary into ~3e-8 rad, which would leak into boundary poses.
        cos_q2[cos_q2 > 1.0 - 5e-13] = 1.0
        cos_q2[cos_q2 < -1.0 + 5e-13] = -1.0
        base_angle = np.arctan2(wz, wr)
        elbow_z = np.zeros((n, 2))
        for b, sign in enumerate((1.0, -1.0)):
            q2 = sign * np.arccos(cos_q2)
            q1 = base_angle - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2))
            q3 = _wrap_angle(pitches - q1 - q2)
            col = 2 * rep + b
            cand[:, 0, col] = yaw_rep
            cand[:, 1, col] = _wrap_angle(q1)
            cand[:, 2, col] = q2
            cand[:, 3, col] = q3
            geom_ok[:, col] = ok
            elbow_z[:, b] = l1 * np.sin(q1)
        swap = elbow_z[:, 1] > elbow_z[:, 0]  # keep the higher elbow first
        lo_col, hi_col = 2 * rep, 2 * rep + 1
        tmp = cand[swap][:, :, lo_col].copy()
        cand[swap, :, lo_col] = cand[swap][:, :, hi_col]
        cand[swap, :, hi_col] = tmp
    limits = arm.joint_limits
    in_lim = (
        (cand >= limits[None, :, 0, None] - 1e-12)
        & (cand <= limits[None, :, 1, None] + 1e-12)
    ).all(axis=1)
    good = geom_ok & in_lim
    any_good = good.any(axis=1)
    any_geom = geom_ok.any(axis=1)
    pick = np.where(any_good, np.argmax(good, axis=1), np.argmax(geom_ok, axis=1))
    joints = cand[np.arange(n), :, pick]
    status = np.full(n, _OK, dtype=np.int64)
    status[~any_good] = _LIMITS
    status[~any_geom] = _UNREACHABLE
    return joints, status


# ---------------------------------------------------------------------------
# Collision checking

_AX_EPS = 1e-12


def obb_hits_aabb(
    centers: np.ndarray,
    axes: np.ndarray,
    half: np.ndarray,
    box_center: np.ndarray,
    box_half: np.ndarray,
) -> np.ndarray:
    """Separating-axis test of oriented boxes against one axis-aligned box.

    ``axes[n, :, k]`` is the k-th unit axis of the n-th box. Touching
    (separation exactly zero) does not count as a hit.
    """
    d = centers - box_center[None, :]
    hit = np.ones(len(centers), dtype=bool)
    abs_axes = np.abs(axes)
    # World axes.
    for i in range(3):
        ra = box_half[i]
        rb = (half[None, :] * abs_axes[:, i, :]).sum(axis=1)
        hit &= np.abs(d[:, i]) < ra + rb
    # Bucket axes.
    proj = np.einsum("nj,njk->nk", d, axes)
    ra_b = np.einsum("j,njk->nk", box_half, abs_axes)
    hit &= (np.abs(proj) < ra_b + half[None, :]).all(axis=1)
    # Cross products of world and bucket axes.
    for i in range(3):
        for k in range(3):
            a = np.cross(np.eye(3)[i][None, :], axes[:, :, k])
            norm = np.linalg.norm(a, axis=1)
            valid = norm > _AX_EPS
            if not valid.any():
                continue
            a = a[valid] / norm[valid, None]
            ra = np.abs(a @ np.diag(box_half)).sum(axis=1)
            rb = (half[None, :] * np.abs(np.einsum("nj,njk->nk", a, axes[valid]))).sum(axis=1)
            sep = np.abs(np.einsum("nj,nj->n", d[valid], a)) >= ra + rb
            sub = hit[valid]
            sub[sep] = False
            hit[valid] = sub
    return hit


def bucket_frames(
    tips: np.ndarray, pitches: np.ndarray, yaws: np.ndarray, bucket: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oriented collision boxes for the bucket at each tip pose.

    Returns (centers (N,3), axes (N,3,3), half_extents (3,)).
    """
    cy, sy = np.cos(yaws), np.sin(yaws)
    cp, sp = np.cos(pitches), np.sin(pitches)
    x_ax = np.stack([cp * cy, cp * sy, sp], axis=1)
    y_ax = np.stack([-sy, cy, np.zeros_like(sy)], axis=1)
    z_ax = np.stack([-sp * cy, -sp * sy, cp], axis=1)
    axes = np.stack([x_ax, y_ax, z_ax], axis=2)
    half = np.asarray(bucket) / 2.0
    centers = tips - half[0] * x_ax + half[2] * z_ax
    return centers, axes, half


def check_collision(
    tips: np.ndarray,
    pitches: np.ndarray,
    yaws: np.ndarray,
    tray: Tray,
    bucket,
) -> np.ndarray:
    """Per-waypoint bucket-vs-wall collision mask.

    Only the walls are obstacles: the bucket is expected to cut below the
    surface, where the floor is the digging medium's container.
    """
    centers, axes, half = bucket_frames(tips, pitches, yaws, bucket)
    hits = np.zeros(len(tips), dtype=bool)
    for box_center, box_half in tray.wall_boxes():
        hits |= obb_hits_aabb(centers, axes, half, box_center, box_half)
    return hits


def _wall_clearances(
    pitches: np.ndarray, yaw: float, bucket, tip_z: float, tray: Tray
) -> np.ndarray:
    """Tip-to-wall-face distances needed to keep the bucket clear of the walls.

    Evaluated over a set of bucket attitudes at the digging height; attitudes
    whose box rides entirely above the wall tops constrain nothing. Returns
    demands for the four inner faces in the order (x low, x high, y low,
    y high). Clearance along the face normal is a sufficient separation, so
    the demands err toward stopping short, never toward allowing contact.
    """
    h0, h1, h2 = np.asarray(bucket) / 2.0
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = np.cos(pitches), np.sin(pitches)
    x_ax = np.stack([cp * cy, cp * sy, sp], axis=1)
    y_ax = np.tile([-sy, cy, 0.0], (len(pitches), 1))
    z_ax = np.stack([-sp * cy, -sp * sy, cp], axis=1)
    off = -h0 * x_ax + h2 * z_ax
    ext = h0 * np.abs(x_ax) + h1 * np.abs(y_ax) + h2 * np.abs(z_ax)
    wall_top = tray.floor_z + tray.wall_height
    live = tip_z + off[:, 2] - ext[:, 2] < wall_top
    demands = np.zeros(4)
    if live.any():
        o, e = off[live], ext[live]
        demands[0] = np.max(e[:, 0] - o[:, 0])
        demands[1] = np.max(e[:, 0] + o[:, 0])
        demands[2] = np.max(e[:, 1] - o[:, 1])
        demands[3] = np.max(e[:, 1] + o[:, 1])
    return demands


# ---------------------------------------------------------------------------
# Dig trajectory planning


def plan_trajectory(
    arm: ArmModel,
    attack: AttackPose,
    hmap: HeightMap,
    tray: Tray,
    params: TrajectoryParams,
    ranges: AttackRanges = AttackRanges(),
) -> PlanOutcome:
    """Plan the four dig phases for one attacking pose.

    Checks, in order: attack ranges, per-waypoint IK reachability, joint
    limits (reported as self collision), and bucket-vs-wall collisions.
    The tray floor is the digging medium's container: cutting below the
    surface is the whole point of the motion, so the floor never
    invalidates a plan.
    """
    if not ranges.contains(attack.x, attack.y, attack.alpha):
        return PlanOutcome.failed(OUT_OF_RANGE)
    alpha = attack.alpha
    z0 = hmap.height_at(attack.x, attack.y)
    start = np.array([attack.x, attack.y, z0])
    to_base = arm.base[:2] - start[:2]
    dist_b = float(np.hypot(*to_base))
    if dist_b < 1e-9:
        return PlanOutcome.failed(IK_FAILURE, 0)
    h_hat = np.array([to_base[0] / dist_b, to_base[1] / dist_b, 0.0])
    entry_dir = math.cos(alpha) * h_hat - math.sin(alpha) * np.array([0.0, 0.0, 1.0])
    step = arm.linear_speed * arm.dt

    n_pen = max(1, int(math.floor(params.penetration_depth / math.sin(alpha) / step)))
    pen = start[None, :] + np.arange(n_pen + 1)[:, None] * step * entry_dir[None, :]

    pitch_dig = alpha - math.pi
    pitch_close = params.closing_angle - math.pi
    dphi = pitch_close - pitch_dig
    n_close = max(1, int(math.floor(abs(dphi) / (arm.angular_speed * arm.dt))))
    close_pitches = pitch_dig + np.sign(dphi) * arm.angular_speed * arm.dt * np.arange(
        1, n_close + 1
    )
    final_pitch = float(close_pitches[-1]) if n_close else pitch_dig

    # Drag toward the base, truncated where the wrist would leave the
    # reachable annulus or where closing the bucket at the drag endpoint
    # would swing it into a wall. The innermost wrist distance is set by the
    # elbow limit, not by |l1 - l2|, because the elbow cannot fold completely.
    l1, l2, l3 = arm.lengths
    tip_r0 = float(np.hypot(*(pen[-1, :2] - arm.base[:2])))
    wrist_z = pen[-1, 2] + l3 * math.sin(alpha) - arm.base[2]
    elbow_max = min(float(np.abs(arm.joint_limits[2]).max()), math.pi)
    c_min_sq = l1 * l1 + l2 * l2 + 2.0 * l1 * l2 * math.cos(elbow_max)
    inner = math.sqrt(max(0.0, c_min_sq - wrist_z**2))
    wrist_r0 = tip_r0 + l3 * math.cos(alpha)
    ws_margin = min(wrist_r0 - max(inner, 0.01), tip_r0 - 0.01)

    yaw0 = math.atan2(start[1] - arm.base[1], start[0] - arm.base[0])
    sweep = np.concatenate([[pitch_dig], close_pitches])
    demands = _wall_clearances(sweep, yaw0, arm.bucket_box, float(pen[-1, 2]), tray)
    (wx0, wx1), (wy0, wy1) = tray.x_range, tray.y_range
    wall_margin = math.inf
    for nx, ny, bound, demand in (
        (1.0, 0.0, wx0, demands[0]),
        (-1.0, 0.0, -wx1, demands[1]),
        (0.0, 1.0, wy0, demands[2]),
        (0.0, -1.0, -wy1, demands[3]),
    ):
        rate = h_hat[0] * nx + h_hat[1] * ny
        if rate < -1e-12:
            slack = pen[-1, 0] * nx + pen[-1, 1] * ny - (bound + demand)
            wall_margin = min(wall_margin, max(0.0, slack / -rate))

    drag_len = max(0.0, min(params.max_drag, ws_margin, wall_margin))
    n_drag = int(math.floor(drag_len / step))
    drag = pen[-1][None, :] + np.arange(1, n_drag + 1)[:, None] * step * h_hat[None, :]

    tip_after = drag[-1] if n_drag else pen[-1]
    rise = params.lift_height - tip_after[2]
    lift_z = []
    if rise > 1e-12:
        n_full = int(math.floor(rise / step))
        lift_z = list(tip_after[2] + step * np.arange(1, n_full + 1))
        if not lift_z or lift_z[-1] < params.lift_height - 1e-12:
            lift_z.append(params.lift_height)

    positions = [pen]
    pitches = [np.full(n_pen + 1, pitch_dig)]
    if n_drag:
        positions.append(drag)
        pitches.append(np.full(n_drag, pitch_dig))
    positions.append(np.repeat(tip_after[None, :], n_close, axis=0))
    pitches.append(close_pitches)
    if lift_z:
        lift = np.repeat(tip_after[None, :], len(lift_z), axis=0)
        lift[:, 2] = lift_z
        positions.append(lift)
        pitches.append(np.full(len(lift_z), final_pitch))
    positions = np.concatenate(positions, axis=0)
    pitches = np.concatenate(pitches)
    pen_end = n_pen
    drag_end = pen_end + n_drag
    close_end = drag_end + n_close
    lift_end = len(positions) - 1

    joints, status = ik_batch(arm, positions, pitches)
    bad = np.flatnonzero(status != _OK)
    if bad.size:
        i = int(bad[0])
        kind = IK_FAILURE if status[i] == _UNREACHABLE else SELF_COLLISION
        return PlanOutcome.failed(kind, i)
    hits = check_collision(positions, pitches, joints[:, 0], tray, arm.bucket_box)
    if hits.any():
        return PlanOutcome.failed(ENV_COLLISION, int(np.argmax(hits)))
    traj = JointTrajectory(
        times=np.arange(len(positions)) * arm.dt,
        joints=joints,
        phase_ends=(pen_end, drag_end, close_end, lift_end),
        rate_hz=1.0 / arm.dt,
    )
    return PlanOutcome(trajectory=traj)
