import math

import numpy as np
import pytest

from digrl.config import AttackRanges
from digrl.errors import ShapeError
from digrl.geometry import HeightMap
from digrl.kinematics import (
    ENV_COLLISION,
    IK_FAILURE,
    OUT_OF_RANGE,
    PHASE_NAMES,
    SELF_COLLISION,
    ArmModel,
    AttackPose,
    TrajectoryParams,
    bucket_frames,
    check_collision,
    fk_batch,
    ik_batch,
    obb_hits_aabb,
    plan_trajectory,
)
from digrl.scenegen import Tray


def wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def within_limits(arm, q):
    """Per row of ``q``: whether every joint lies within the arm's limits (1e-12 slack)."""
    q = np.atleast_2d(q)
    lim = arm.joint_limits
    return ((q >= lim[None, :, 0] - 1e-12) & (q <= lim[None, :, 1] + 1e-12)).all(axis=1)


def phase_of(traj, index):
    """Name of the phase that waypoint ``index`` of ``traj`` belongs to."""
    for name, end in zip(PHASE_NAMES, traj.phase_ends):
        if index <= end:
            return name
    return PHASE_NAMES[-1]


def flat_bed(height):
    """Uniform-height surface covering the default tray at 5 mm pitch."""
    return HeightMap(
        origin=np.array([-0.40, -0.25]),
        resolution=0.005,
        heights=np.full((160, 100), float(height)),
    )


def fk_one(arm, q):
    """Tip, pitch and yaw of one joint vector through ``fk_batch``."""
    tips, pitches = fk_batch(arm, np.asarray(q, dtype=np.float64)[None, :])
    return tips[0], pitches[0], q[0]


def ik_one(arm, position, pitch):
    """Joints of one pose through ``ik_batch``; None unless the status is ok."""
    joints, status = ik_batch(arm, np.asarray(position)[None, :], np.array([pitch]))
    return joints[0] if status[0] == 0 else None


class TestForwardKinematics:
    def test_straight_arm(self):
        arm = ArmModel()
        tip, pitch, yaw = fk_one(arm, np.zeros(4))
        assert np.allclose(tip, [-0.55 + 1.00, 0.0, 0.05], atol=1e-12)
        assert pitch == 0.0 and yaw == 0.0

    def test_full_extension_ik_recovers_zero(self):
        arm = ArmModel()
        q = ik_one(arm, np.array([0.45, 0.0, 0.05]), 0.0)
        assert q is not None
        assert np.abs(q).max() < 1e-9

    def test_yawed_arm(self):
        arm = ArmModel()
        tip, _, yaw = fk_one(arm, np.array([math.pi / 2, 0.0, 0.0, 0.0]))
        assert np.allclose(tip, [-0.55, 1.00, 0.05], atol=1e-12)
        assert yaw == math.pi / 2

    def test_bent_arm(self):
        # Shoulder straight up, elbow back to horizontal: tip rises by l1.
        arm = ArmModel()
        tip, pitch, _ = fk_one(arm, np.array([0.0, math.pi / 2, -math.pi / 2, 0.0]))
        assert np.allclose(tip, [-0.55 + 0.55, 0.0, 0.05 + 0.45], atol=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)

    def test_batch_shape_error(self):
        with pytest.raises(ShapeError):
            fk_batch(ArmModel(), np.zeros((5, 3)))


class TestInverseKinematics:
    def test_round_trip_random_poses(self, rng):
        arm = ArmModel()
        lim = arm.joint_limits
        q = rng.uniform(lim[:, 0], lim[:, 1], size=(300, 4))
        tips, pitches = fk_batch(arm, q)
        joints, status = ik_batch(arm, tips, pitches)
        assert np.all(status == 0)
        assert within_limits(arm, joints).all()
        tips2, pitches2 = fk_batch(arm, joints)
        assert np.abs(tips2 - tips).max() < 1e-6
        assert np.abs(wrap(pitches2 - pitches)).max() < 1e-9

    def test_single_pose_matches_batch(self):
        # A pose solved alone gets the joints of its row in a larger batch.
        arm = ArmModel()
        pos = np.array([0.1, 0.05, 0.2])
        q = ik_one(arm, pos, -1.0)
        joints, status = ik_batch(
            arm, np.array([[0.3, -0.1, 0.1], pos, [5.0, 0.0, 0.0]]), np.array([-0.5, -1.0, 0.0])
        )
        assert status[1] == 0
        assert np.array_equal(q, joints[1])
        tip, pitch, _ = fk_one(arm, q)
        assert np.allclose(tip, pos, atol=1e-9)
        assert wrap(np.array([pitch + 1.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_returns_none(self):
        arm = ArmModel()
        assert ik_one(arm, np.array([5.0, 0.0, 0.0]), 0.0) is None
        _, status = ik_batch(arm, np.array([[5.0, 0.0, 0.0]]), np.array([0.0]))
        assert status[0] == 1

    def test_limit_violation_status(self):
        # Geometrically reachable pose, but every branch breaks the frozen
        # shoulder/elbow, so the status reports limits rather than reach.
        arm = ArmModel(
            joint_limits=np.array(
                [[-3.15, 3.15], [0.0, 1e-3], [-1e-3, 1e-3], [-3.05, 3.05]]
            )
        )
        _, status = ik_batch(arm, np.array([[0.0, 0.0, 0.15]]), np.array([-2.0]))
        assert status[0] == 2

    def test_deterministic(self):
        arm = ArmModel()
        a = ik_one(arm, np.array([0.0, 0.1, 0.15]), -2.0)
        b = ik_one(arm, np.array([0.0, 0.1, 0.15]), -2.0)
        assert np.array_equal(a, b)


class TestPlanValid:
    def make(self):
        arm = ArmModel()
        attack = AttackPose(0.0, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.ok and out.failure is None and out.fail_index is None
        return arm, out.trajectory

    def test_joints_within_limits(self):
        arm, traj = self.make()
        assert within_limits(arm, traj.joints).all()

    def test_phase_order_and_labels(self):
        _, traj = self.make()
        p_end, d_end, c_end, l_end = traj.phase_ends
        assert 0 < p_end < d_end < c_end < l_end == len(traj.joints) - 1
        assert phase_of(traj, 0) == "penetrate"
        assert phase_of(traj, p_end) == "penetrate"
        assert phase_of(traj, p_end + 1) == "drag"
        assert phase_of(traj, c_end) == "close"
        assert phase_of(traj, l_end) == "lift"

    def test_penetrate_straight_line_at_speed(self):
        arm, traj = self.make()
        tips, pitches = fk_batch(arm, traj.joints)
        p_end = traj.phase_ends[0]
        assert np.allclose(tips[0], [0.0, 0.0, 0.15], atol=1e-9)
        steps = np.diff(tips[: p_end + 1], axis=0)
        assert np.allclose(np.linalg.norm(steps, axis=1), 0.001, atol=1e-9)
        assert np.all(steps[:, 2] < 0)  # descending
        assert np.allclose(pitches[: p_end + 1], math.radians(60.0) - math.pi, atol=1e-9)
        depth = 0.15 - tips[p_end, 2]
        assert depth <= 0.10 + 1e-9
        assert depth + 0.001 * math.sin(math.radians(60.0)) >= 0.10 - 1e-9

    def test_drag_horizontal_toward_base(self):
        arm, traj = self.make()
        tips, _ = fk_batch(arm, traj.joints)
        p_end, d_end = traj.phase_ends[:2]
        seg = tips[p_end : d_end + 1]
        assert np.abs(seg[:, 2] - seg[0, 2]).max() < 1e-9
        steps = np.diff(seg[:, :2], axis=0)
        assert np.allclose(np.linalg.norm(steps, axis=1), 0.001, atol=1e-9)
        to_base = arm.base[:2] - seg[0, :2]
        assert np.all(steps @ to_base > 0)
        dragged = np.linalg.norm(seg[-1, :2] - seg[0, :2])
        assert dragged <= TrajectoryParams().max_drag + 1e-9

    def test_close_rotates_in_place(self):
        arm, traj = self.make()
        tips, pitches = fk_batch(arm, traj.joints)
        d_end, c_end = traj.phase_ends[1:3]
        seg = tips[d_end : c_end + 1]
        assert np.abs(seg - seg[0]).max() < 1e-9
        dphi = np.diff(pitches[d_end : c_end + 1])
        assert np.allclose(np.abs(dphi), arm.angular_speed * arm.dt, atol=1e-9)
        target = TrajectoryParams().closing_angle - math.pi
        assert abs(pitches[c_end] - target) <= arm.angular_speed * arm.dt + 1e-9

    def test_lift_vertical_to_height(self):
        arm, traj = self.make()
        tips, _ = fk_batch(arm, traj.joints)
        c_end, l_end = traj.phase_ends[2:]
        seg = tips[c_end : l_end + 1]
        assert np.abs(seg[:, :2] - seg[0, :2]).max() < 1e-9
        assert np.all(np.diff(seg[:, 2]) > 0)
        assert seg[-1, 2] == pytest.approx(0.40, abs=1e-9)

    def test_deterministic(self):
        _, t1 = self.make()
        _, t2 = self.make()
        assert np.array_equal(t1.joints, t2.joints)
        assert t1.phase_ends == t2.phase_ends


class TestPlanFailures:
    def test_out_of_range(self):
        arm = ArmModel()
        for attack in (
            AttackPose(0.35, 0.0, math.radians(60.0)),
            AttackPose(0.0, 0.25, math.radians(60.0)),
            AttackPose(0.0, 0.0, math.radians(130.0)),
            AttackPose(0.0, 0.0, math.radians(10.0)),
        ):
            out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
            assert not out.ok
            assert out.failure == OUT_OF_RANGE
            assert out.fail_index is None

    def test_range_boundary_is_inside(self):
        arm = ArmModel()
        attack = AttackPose(0.29, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.failure != OUT_OF_RANGE

    def test_bare_floor_dig_is_valid(self):
        # Cutting below the floor surface is the job, not a collision: the
        # center dig on an empty tray must plan cleanly end to end.
        arm = ArmModel()
        attack = AttackPose(0.0, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.0), Tray(), TrajectoryParams())
        assert out.ok
        tips, _ = fk_batch(arm, out.trajectory.joints)
        d_end = out.trajectory.phase_ends[1]
        steps = np.diff(tips[: d_end + 1], axis=0)
        assert np.allclose(np.linalg.norm(steps, axis=1), 0.001, atol=1e-9)

    def test_near_wall_attack_collides(self):
        # x = -0.39 lies outside the attack ranges, so the planner's gate
        # stops it. Its penetrate waypoints, laid out as the planner lays
        # them, run the bucket into the base-side wall from waypoint 49 on.
        arm = ArmModel()
        alpha = math.radians(60.0)
        attack = AttackPose(-0.39, 0.0, alpha)
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.failure == OUT_OF_RANGE
        step = arm.linear_speed * arm.dt
        n = int(math.floor(TrajectoryParams().penetration_depth / math.sin(alpha) / step))
        entry = np.array([-math.cos(alpha), 0.0, -math.sin(alpha)])  # toward the base, down
        tips = np.array([-0.39, 0.0, 0.15]) + np.arange(n + 1)[:, None] * step * entry
        pitches, yaws = np.full(n + 1, alpha - math.pi), np.zeros(n + 1)
        hits = check_collision(tips, pitches, yaws, Tray(), arm.bucket_box)
        assert np.flatnonzero(hits)[0] == 49

    def test_drag_into_side_wall(self):
        # Attacking next to the base-side wall runs the bucket into it even
        # though the surface is high enough to clear the floor.
        arm = ArmModel()
        attack = AttackPose(-0.36, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.failure == ENV_COLLISION
        assert out.fail_index is not None and out.fail_index > 0

    def test_unreachable_reports_ik_failure(self):
        arm = ArmModel(lengths=(0.10, 0.10, 0.05))
        attack = AttackPose(0.0, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.failure == IK_FAILURE
        assert out.fail_index == 0

    def test_frozen_joints_report_self_collision(self):
        arm = ArmModel(
            joint_limits=np.array(
                [[-3.15, 3.15], [0.0, 1e-3], [-1e-3, 1e-3], [-3.05, 3.05]]
            )
        )
        attack = AttackPose(0.0, 0.0, math.radians(60.0))
        out = plan_trajectory(arm, attack, flat_bed(0.15), Tray(), TrajectoryParams())
        assert out.failure == SELF_COLLISION
        assert out.fail_index == 0


class TestBucketGeometry:
    def test_tip_is_bottom_front_edge(self, rng):
        tips = rng.uniform(-0.3, 0.3, size=(50, 3))
        pitches = rng.uniform(-math.pi, math.pi, size=50)
        yaws = rng.uniform(-math.pi, math.pi, size=50)
        centers, axes, half = bucket_frames(tips, pitches, yaws, (0.12, 0.12, 0.04))
        rebuilt = centers + half[0] * axes[:, :, 0] - half[2] * axes[:, :, 2]
        assert np.abs(rebuilt - tips).max() < 1e-12
        gram = np.einsum("nji,njk->nik", axes, axes)
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_level_bucket_frame(self):
        centers, axes, half = bucket_frames(
            np.array([[0.0, 0.0, 0.0]]), np.array([0.0]), np.array([0.0]), (0.12, 0.12, 0.04)
        )
        assert np.allclose(axes[0], np.eye(3), atol=1e-12)
        assert np.allclose(centers[0], [-0.06, 0.0, 0.02], atol=1e-12)
        assert np.allclose(half, [0.06, 0.06, 0.02])

    def test_obb_touching_is_not_a_hit(self):
        eye = np.eye(3)[None, :, :]
        half = np.array([0.5, 0.5, 0.5])
        box_c, box_h = np.zeros(3), np.array([0.5, 0.5, 0.5])
        assert not obb_hits_aabb(np.array([[1.0, 0.0, 0.0]]), eye, half, box_c, box_h)[0]
        assert obb_hits_aabb(np.array([[0.999, 0.0, 0.0]]), eye, half, box_c, box_h)[0]

    def test_obb_rotated_extent(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])[None, :, :]
        half = np.array([0.5, 0.5, 0.5])
        box_c, box_h = np.zeros(3), np.array([0.5, 0.5, 0.5])
        reach = 0.5 * (c + s) + 0.5  # corner-on contact distance along x
        assert not obb_hits_aabb(np.array([[reach + 1e-3, 0.0, 0.0]]), rot, half, box_c, box_h)[0]
        assert obb_hits_aabb(np.array([[reach - 1e-3, 0.0, 0.0]]), rot, half, box_c, box_h)[0]

    def test_check_collision_clear_and_hit(self):
        tray = Tray()
        high = check_collision(
            np.array([[0.0, 0.0, 0.30]]), np.array([-math.pi / 2]), np.array([0.0]), tray,
            (0.12, 0.12, 0.04),
        )
        # Pointing down with its tip 2 cm inside the +x wall face, at wall height.
        wall = check_collision(
            np.array([[0.38, 0.0, 0.02]]), np.array([-math.pi / 2]), np.array([0.0]), tray,
            (0.12, 0.12, 0.04),
        )
        # Below the floor in the middle of the tray: the floor is no obstacle.
        below = check_collision(
            np.array([[0.0, 0.0, -0.05]]), np.array([-math.pi / 2]), np.array([0.0]), tray,
            (0.12, 0.12, 0.04),
        )
        assert not high[0]
        assert wall[0]
        assert not below[0]


class TestAttackRanges:
    def test_contains_boundaries(self):
        r = AttackRanges()
        assert r.contains(-0.37, -0.20, math.radians(15.0))
        assert r.contains(0.29, 0.20, math.radians(120.0))
        assert not r.contains(-0.371, 0.0, math.radians(60.0))
        assert not r.contains(0.0, 0.201, math.radians(60.0))
        assert not r.contains(0.0, 0.0, math.radians(14.9))
