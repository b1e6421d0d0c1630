import itertools
import math

import numpy as np
import pytest

from digrl.config import AttackRanges
from digrl import kinematics
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
from digrl.scenegen import Tray, quat_from_euler, quat_to_matrix


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


def obb_hits_aabb_reference(centers, axes, half, box_center, box_half):
    """All 15 separating axes on every box, with no early exit: the oracle of ``obb_hits_aabb``."""
    d = centers - box_center[None, :]
    hit = np.ones(len(centers), dtype=bool)
    abs_axes = np.abs(axes)
    for i in range(3):
        ra = box_half[i]
        rb = (half[None, :] * abs_axes[:, i, :]).sum(axis=1)
        hit &= np.abs(d[:, i]) < ra + rb
    proj = np.einsum("nj,njk->nk", d, axes)
    ra_b = np.einsum("j,njk->nk", box_half, abs_axes)
    hit &= (np.abs(proj) < ra_b + half[None, :]).all(axis=1)
    for i in range(3):
        for k in range(3):
            a = np.cross(np.eye(3)[i][None, :], axes[:, :, k])
            norm = np.linalg.norm(a, axis=1)
            valid = norm > 1e-12
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


def face_axes_hit(centers, axes, half, box_center, box_half):
    """Whether the six face axes alone leave each box in contact."""
    d = centers - box_center[None, :]
    abs_axes = np.abs(axes)
    world = (np.abs(d) < box_half + np.einsum("k,nik->ni", half, abs_axes)).all(axis=1)
    own_ext = np.einsum("j,njk->nk", box_half, abs_axes) + half
    own = np.abs(np.einsum("nj,njk->nk", d, axes)) < own_ext
    return world & own.all(axis=1)


# A bucket-sized box against a wall-sized slab. Along each direction, only an
# edge-by-edge axis separates the two boxes between contact and contact + 1 mm.
EDGE_HALF = np.array([0.06, 0.06, 0.02])
EDGE_WALL = (np.zeros(3), np.array([0.5, 0.01, 0.05]))
EDGE_POSES = [
    # (yaw, pitch, roll) in degrees, centre direction, contact distance along it
    ((45.0, 45.0, 0.0), (0.0, 1.0, 1.0), 0.08929),
    ((45.0, 45.0, 0.0), (1.0, 1.0, 1.0), 0.10936),
    ((45.0, 0.0, 45.0), (0.0, 1.0, -1.0), 0.08929),
    ((30.0, 60.0, 0.0), (0.0, 1.0, 1.0), 0.09651),
    ((45.0, 35.26, 0.0), (1.0, 1.0, 1.0), 0.10992),
]


def edge_pose(euler_deg, direction, distance):
    rot = quat_to_matrix(quat_from_euler(*np.radians(euler_deg)))
    u = np.asarray(direction) / np.linalg.norm(direction)
    return (distance * u)[None, :], rot[None, :, :]


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

    @pytest.mark.parametrize("euler, direction, contact", EDGE_POSES)
    def test_edge_by_edge_axis_separates(self, euler, direction, contact):
        for gap, hits in ((1e-3, False), (-1e-3, True)):
            centers, axes = edge_pose(euler, direction, contact + gap)
            args = (centers, axes, EDGE_HALF, *EDGE_WALL)
            # The face axes see contact both times; only a cross axis tells them apart.
            assert face_axes_hit(*args)[0]
            assert obb_hits_aabb_reference(*args)[0] == hits
            assert obb_hits_aabb(*args)[0] == hits

    def test_random_poses_match_reference(self, rng):
        n = 20_000
        quats = rng.normal(size=(n, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        axes = np.stack([quat_to_matrix(q) for q in quats])
        centers = rng.uniform(-0.15, 0.15, size=(n, 3))
        args = (centers, axes, EDGE_HALF, *EDGE_WALL)
        ref = obb_hits_aabb_reference(*args)
        assert obb_hits_aabb(*args).tobytes() == ref.tobytes()
        # The sample holds hits, face-axis misses and cross-axis-only misses.
        faces = face_axes_hit(*args)
        assert ref.sum() > 1000 and (~faces).sum() > 1000 and (faces & ~ref).sum() > 100

    def test_planned_waypoints_match_reference(self, monkeypatch):
        calls = []

        def both(*args):
            calls.append((obb_hits_aabb(*args), obb_hits_aabb_reference(*args), args))
            return calls[-1][0]

        monkeypatch.setattr(kinematics, "obb_hits_aabb", both)
        arm, tray = ArmModel(), Tray()
        for x, y, alpha in itertools.product(
            np.linspace(-0.37, 0.29, 7), np.linspace(-0.2, 0.2, 5), np.radians([15.0, 60.0, 120.0])
        ):
            plan_trajectory(arm, AttackPose(x, y, alpha), flat_bed(0.15), tray, TrajectoryParams())
        for new, ref, _ in calls:
            assert new.tobytes() == ref.tobytes()
        hits = sum(int(ref.sum()) for _, ref, _ in calls)
        cross_only = sum(int((face_axes_hit(*args) & ~ref).sum()) for _, ref, args in calls)
        assert hits > 0 and cross_only > 0, (hits, cross_only)

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
