import hashlib
import itertools
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from digrl import scenegen
from digrl.errors import (
    DegenerateGeometryError,
    PlacementError,
    SizeError,
    TopologyError,
)
from digrl.scenegen import (
    PlacedObject,
    RigidObject,
    Scene,
    Tray,
    _PRUNE_MARGIN,
    _Pile,
    _check_watertight,
    _cross,
    _hull_objects,
    _mesh_volumes,
    _segment_crossings,
    face_planes,
    gen_objects,
    load_scene,
    mesh_edges,
    quat_from_euler,
    resettle,
    save_scene,
    settle_scene,
    spawn_scene,
    vertical_envelopes,
)
from digrl.sensor import SensorConfig, label_observation, observe

# ---------------------------------------------------------------------------
# Frozen oracle: exact minimum translation distance between convex polytopes
# by separating-axis enumeration (face normals of both bodies plus all
# edge-direction cross products). Written independently of the settling code.


def _oracle_edges(faces):
    es = set()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            es.add((min(a, b), max(a, b)))
    return np.array(sorted(es), dtype=np.int64)


def penetration_depth(verts_a, faces_a, verts_b, faces_b):
    na, _ = face_planes(verts_a, faces_a)
    nb, _ = face_planes(verts_b, faces_b)
    ea = _oracle_edges(faces_a)
    eb = _oracle_edges(faces_b)
    da = verts_a[ea[:, 1]] - verts_a[ea[:, 0]]
    db = verts_b[eb[:, 1]] - verts_b[eb[:, 0]]
    cross = np.cross(da[:, None, :], db[None, :, :]).reshape(-1, 3)
    dirs = np.concatenate([na, nb, cross], axis=0)
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12, None]
    pa = verts_a @ dirs.T
    pb = verts_b @ dirs.T
    overlap = np.minimum(pa.max(0), pb.max(0)) - np.maximum(pa.min(0), pb.min(0))
    return max(0.0, float(overlap.min()))


def settle_in_order(placed, pile_cls=_Pile):
    """One table over ``placed`` in a ``Tray()``, its objects settled one at a time, in order.

    Returns the pile and the rest z offsets of those one-by-one drops.
    """
    pile = pile_cls(placed, [p.world_vertices() for p in placed], Tray().floor_z)
    return pile, [pile.settle([i], [None])[0] for i in range(len(placed))]


class RestPileReference:
    """The per-body loop that ``_Pile`` batches, kept as its reference.

    It takes the pile's constructor. For each earlier body whose AABB
    overlaps the incoming one it evaluates the three gap families with
    separate calls; the batched pile must give the same rest offsets bit for
    bit. Like the pile, it takes a known ``drop`` without searching. Its
    ``settle`` drops the members one body at a time, in order, each seeing
    the ones before it: the drops that the pile's wavefronts must reproduce.
    It keeps each rested body's lowered vertices, planes and box in drop
    order, and ``meets`` from its own boxes.
    """

    def __init__(self, placed, wverts, floor):
        self.placed, self.floor = placed, floor
        lo = np.array([v.min(axis=0)[:2] for v in wverts])
        hi = np.array([v.max(axis=0)[:2] for v in wverts])
        self.meets = ((lo[:, None] <= hi[None]) & (hi[:, None] >= lo[None])).all(axis=2)
        self._verts, self._planes, self._edges, self._lo, self._hi = [], [], [], [], []

    def settle(self, members, drops):
        return [self.drop_and_add(self.placed[i], d) for i, d in zip(members, drops)]

    def drop_and_add(self, placed, drop=None):
        wverts = placed.world_vertices()
        normals, offsets = face_planes(wverts, placed.obj.faces)
        edges = mesh_edges(placed.obj.faces)
        seg_new = wverts[:, :2][edges]
        aabb_min, aabb_max = wverts.min(axis=0), wverts.max(axis=0)
        gap_groups = [np.array([aabb_min[2] - self.floor])]
        for k in range(len(self._verts) if drop is None else 0):
            lo, hi = self._lo[k], self._hi[k]
            if (
                lo[0] > aabb_max[0]
                or hi[0] < aabb_min[0]
                or lo[1] > aabb_max[1]
                or hi[1] < aabb_min[1]
            ):
                continue
            r_verts = self._verts[k]
            r_n, r_o = self._planes[k]
            _, r_high, r_ok = vertical_envelopes(r_n, r_o, wverts[:, :2])
            if r_ok.any():
                gap_groups.append(wverts[r_ok, 2] - r_high[r_ok])
            near = (
                (r_verts[:, 0] >= aabb_min[0])
                & (r_verts[:, 0] <= aabb_max[0])
                & (r_verts[:, 1] >= aabb_min[1])
                & (r_verts[:, 1] <= aabb_max[1])
            )
            if near.any():
                pts = r_verts[near]
                p_low, _, p_ok = vertical_envelopes(normals, offsets, pts[:, :2])
                if p_ok.any():
                    gap_groups.append(p_low[p_ok] - pts[p_ok, 2])
            cross, _ = _segment_crossings(seg_new[:, None], r_verts[:, :2][self._edges[k]][None])
            if len(cross):
                c_low, _, c_ok1 = vertical_envelopes(normals, offsets, cross)
                _, c_high, c_ok2 = vertical_envelopes(r_n, r_o, cross)
                both = c_ok1 & c_ok2
                if both.any():
                    gap_groups.append(c_low[both] - c_high[both])
        if drop is None:
            drop = float(np.concatenate(gap_groups).min())
        placed.translation = placed.translation + np.array([0.0, 0.0, -drop])
        rested = wverts.copy()
        rested[:, 2] -= drop
        self._verts.append(rested)
        self._planes.append((normals, offsets - normals[:, 2] * drop))
        self._edges.append(edges)
        self._lo.append(rested.min(axis=0))
        self._hi.append(rested.max(axis=0))
        return -drop


# ---------------------------------------------------------------------------
# Frozen references: one object at a time, as objects were built before the
# scene-wide batch. ``gen_objects`` and ``load_scene`` must give their bits.


def convex_hull_reference(points):
    """Watertight outward-wound hull (vertices, faces) of one point set."""
    pts = np.asarray(points, dtype=np.float64)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateGeometryError(f"degenerate hull input: {exc}") from exc
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[hull.vertices] = np.arange(len(hull.vertices))
    verts = pts[hull.vertices]
    faces = remap[hull.simplices]
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross = _cross(v1 - v0, v2 - v0)
    flip = np.einsum("ij,ij->i", cross, hull.equations[:, :3]) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return verts, faces


def polytope_volume_reference(vertices, faces):
    """Volume of one watertight, outward-wound mesh via signed tetrahedra."""
    verts = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    _check_watertight(faces)
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    vol = float(np.einsum("ij,ij->i", v0, _cross(v1, v2)).sum() / 6.0)
    if vol <= 0:
        raise DegenerateGeometryError(f"non-positive mesh volume {vol}")
    return vol


def gen_object_reference(rng, density=2700.0):
    """One convex object: hull of 8..24 points at radii 1..7 cm, up to 64 attempts."""
    lo, hi = scenegen.VERTEX_COUNT_RANGE
    r_lo, r_hi = scenegen.VERTEX_RADIUS_RANGE
    for _ in range(64):
        n = int(rng.integers(lo, hi + 1))
        dirs = rng.normal(size=(n, 3))
        lens = np.linalg.norm(dirs, axis=1, keepdims=True)
        if (lens < 1e-12).any():
            continue
        seeds = dirs / lens * rng.uniform(r_lo, r_hi, size=(n, 1))
        try:
            verts, faces = convex_hull_reference(seeds)
            vol = polytope_volume_reference(verts, faces)
        except DegenerateGeometryError:
            continue
        return RigidObject(verts, faces, vol, density)
    raise DegenerateGeometryError("could not sample a non-degenerate hull")


def total_volume(scene):
    """The volume a dig conserves: the summed volume of a scene's objects."""
    return float(sum(p.obj.volume for p in scene.placed))


def hull_object(points):
    """The convex object of one point set; raises when its hull is degenerate."""
    pts = np.asarray(points, dtype=np.float64)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateGeometryError("degenerate hull") from exc
    return _hull_objects([(pts, hull.simplices, hull.equations[:, :3])])[0]


def make_box(dx, dy, dz):
    corners = np.array(
        [
            [sx * dx / 2, sy * dy / 2, sz * dz / 2]
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        ]
    )
    return hull_object(corners)


class TestConvexHull:
    def test_tetrahedron(self):
        obj = hull_object([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        assert len(obj.vertices) == 4
        assert len(obj.faces) == 4
        assert obj.volume == pytest.approx(1 / 6, abs=1e-12)

    def test_interior_point_excluded(self):
        cube = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
        )
        obj = hull_object(np.vstack([cube, [[0.5, 0.5, 0.5]]]))
        assert len(obj.vertices) == 8
        assert obj.volume == pytest.approx(1.0, abs=1e-12)

    def test_random_points_inside_halfspaces(self, rng):
        pts = rng.normal(size=(50, 3))
        obj = hull_object(pts)
        normals, offsets = face_planes(obj.vertices, obj.faces)
        slack = pts @ normals.T - offsets
        assert slack.max() <= 1e-9

    def test_coplanar_input_rejected(self, rng):
        flat = np.column_stack([rng.normal(size=(10, 2)), np.zeros(10)])
        with pytest.raises(DegenerateGeometryError):
            hull_object(flat)

    def test_watertight_edge_count(self, rng):
        faces = hull_object(rng.normal(size=(30, 3))).faces
        edges = mesh_edges(faces)
        # Euler: closed triangle mesh has E = 3F/2 and each undirected edge
        # is shared by exactly two triangles.
        assert len(edges) * 2 == 3 * len(faces)

    def test_cross_matches_numpy_bitwise(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            scale = 10.0 ** rng.uniform(-3, 3)
            a = rng.normal(size=(n, 3)) * scale
            b = rng.normal(size=(n, 3))
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


def mesh_edges_rowwise(faces):
    """The row-wise ``np.unique`` that ``mesh_edges`` replaced."""
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    return np.unique(np.sort(pairs, axis=1), axis=0)


def watertight_by_dict(faces):
    """The dict loop ``_check_watertight`` replaced: None, or the message it raises."""
    edges = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    for (a, b), count in edges.items():
        if count != 1 or edges.get((b, a), 0) != 1:
            return f"mesh is not watertight at edge ({a}, {b})"
    return None


class TestMeshTopology:
    def test_mesh_edges_match_rowwise_unique(self, rng):
        for _ in range(100):
            faces = hull_object(rng.normal(size=(int(rng.integers(4, 40)), 3))).faces
            got, want = mesh_edges(faces), mesh_edges_rowwise(faces)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_mesh_edges_of_no_faces(self):
        got = mesh_edges(np.zeros((0, 3), dtype=np.int64))
        assert got.shape == (0, 2) and got.dtype == np.int64

    @staticmethod
    def broken_meshes(faces):
        flipped = faces.copy()
        flipped[0] = flipped[0, [0, 2, 1]]
        yield "good", faces
        yield "duplicated face", np.vstack([faces, faces[:1]])
        yield "flipped face", flipped
        yield "missing face", faces[:-1]
        yield "shifted indices", faces + 7
        middle = int(faces.max()) // 2
        yield "mixed-sign indices", faces - middle
        yield "mixed-sign flipped face", flipped - middle
        yield "lone degenerate face", np.array([[0, 0, 1]])
        yield "repeated degenerate edge", np.array([[0, 0, 1], [0, 0, 2]])
        yield "degenerate face added", np.vstack([faces, [[0, 0, 1]]])
        yield "no faces", np.zeros((0, 3), dtype=np.int64)
        huge = faces.copy()
        huge[0, 0] = 2**40  # beyond the integer keys, checked by the dict loop
        yield "index beyond the keys", huge

    def test_watertight_check_matches_dict_version(self, rng):
        outcomes = set()
        for _ in range(20):
            faces = hull_object(rng.normal(size=(int(rng.integers(4, 30)), 3))).faces
            for kind, mesh in self.broken_meshes(faces):
                want = watertight_by_dict(mesh)
                if want is None:
                    _check_watertight(mesh)
                else:
                    with pytest.raises(TopologyError) as exc:
                        _check_watertight(mesh)
                    assert str(exc.value) == want, kind
                outcomes.add((kind, want is None))
        # Both the accepted and the rejected cases were exercised.
        assert ("good", True) in outcomes and ("lone degenerate face", True) in outcomes
        assert ("flipped face", False) in outcomes and ("missing face", False) in outcomes
        assert ("repeated degenerate edge", False) in outcomes


def one_volume(verts, faces):
    return _mesh_volumes(verts, faces, np.array([len(faces)]))[0]


class TestPolytopeVolume:
    def test_unit_cube(self):
        box = make_box(1.0, 1.0, 1.0)
        assert box.volume == pytest.approx(1.0, abs=1e-12)

    def test_scaling_is_cubic(self, rng):
        obj = hull_object(rng.normal(size=(20, 3)))
        v3 = one_volume(obj.vertices * 3.0, obj.faces)
        assert v3 == pytest.approx(27.0 * obj.volume, rel=1e-10)

    def test_open_mesh_rejected(self):
        obj = hull_object([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        with pytest.raises(TopologyError):
            one_volume(obj.vertices, obj.faces[:-1])

    def test_meshes_laid_end_to_end_match_reference(self, rng):
        objs = [hull_object(rng.normal(size=(int(rng.integers(4, 30)), 3))) for _ in range(50)]
        verts, faces, _, n_faces = scenegen._laid_end_to_end(
            [o.vertices for o in objs], [o.faces for o in objs]
        )
        got = _mesh_volumes(verts, faces, n_faces)
        assert got == [polytope_volume_reference(o.vertices, o.faces) for o in objs]
        # One open mesh among closed ones fails the whole batch.
        counts = n_faces.copy()
        counts[1] -= 1
        with pytest.raises(TopologyError):
            _mesh_volumes(verts, np.delete(faces, n_faces[0], axis=0), counts)


THIS = sys.modules[__name__]


def reject_qhull(monkeypatch, rejected):
    """Make Qhull reject every point set whose size passes ``rejected``, in both generators."""
    qhull = ConvexHull

    def hull(points):
        if rejected(len(points)):
            raise QhullError("rejected")
        return qhull(points)

    monkeypatch.setattr(THIS, "ConvexHull", hull)
    monkeypatch.setattr(scenegen, "ConvexHull", hull)


class TestGenObject:
    @staticmethod
    def check_against_reference(seed, count):
        """gen_objects against one reference draw per object: same objects, same generator state."""
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = gen_objects(rng_new, count)
        ref = [gen_object_reference(rng_ref) for _ in range(count)]
        assert len(new) == count
        for a, b in zip(new, ref):
            assert a.vertices.tobytes() == b.vertices.tobytes()
            assert a.faces.dtype == b.faces.dtype and a.faces.tobytes() == b.faces.tobytes()
            assert np.float64(a.volume).tobytes() == np.float64(b.volume).tobytes()
            assert a.density == b.density
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_one_object_at_a_time(self, seed):
        self.check_against_reference(seed, 250)  # 2,000 objects over the seeds

    def test_rejected_hull_is_redrawn_in_place(self, monkeypatch):
        reject_qhull(monkeypatch, lambda n_points: n_points == 9)
        batches = []
        build = scenegen._hull_objects

        def counting(hulls):
            batches.append(len(hulls))
            return build(hulls)

        monkeypatch.setattr(scenegen, "_hull_objects", counting)
        self.check_against_reference(3, 100)
        # Rejected draws are redrawn at once; the accepted hulls are built in one batch.
        assert batches == [100]

    def test_non_positive_volume_raises(self, monkeypatch):
        batched = _mesh_volumes

        def negative_20_faced(verts, faces, counts):
            return [-v if n == 20 else v for v, n in zip(batched(verts, faces, counts), counts)]

        monkeypatch.setattr(scenegen, "_mesh_volumes", negative_20_faced)
        with pytest.raises(DegenerateGeometryError, match="volume must be positive"):
            gen_objects(np.random.default_rng(3), 100)

    def test_exhausted_attempts_raise(self, monkeypatch):
        reject_qhull(monkeypatch, lambda n_points: True)
        rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(DegenerateGeometryError, match="could not sample"):
            gen_objects(rng_new, 3)
        with pytest.raises(DegenerateGeometryError, match="could not sample"):
            gen_object_reference(rng_ref)
        # The first object used all 64 attempts, and nothing was drawn after them.
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_no_objects(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert gen_objects(rng, 0) == []
        assert rng.bit_generator.state == state

    def test_deterministic(self):
        a = gen_objects(np.random.default_rng(11), 1)[0]
        b = gen_objects(np.random.default_rng(11), 1)[0]
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
        assert a.volume == b.volume

    def test_size_density_and_recentring(self, rng):
        for obj in gen_objects(rng, 20):
            assert obj.density == 2700.0
            assert np.linalg.norm(obj.vertices, axis=1).max() <= 0.07 + 1e-9
            assert 1e-7 < obj.volume <= 4.0 / 3.0 * np.pi * 0.07**3 + 1e-12

    def test_constant_radius_ball_volume(self, rng):
        # 500 unit directions at a fixed radius hull out to nearly a ball.
        r = 0.05
        dirs = rng.normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vol = hull_object(dirs * r).volume
        assert vol == pytest.approx(4.0 / 3.0 * np.pi * r**3, rel=0.10)

    def test_hull_contains_samples(self, rng):
        obj = gen_objects(rng, 1)[0]
        normals, offsets = face_planes(obj.vertices, obj.faces)
        slack = obj.vertices @ normals.T - offsets
        assert slack.max() <= 1e-9


class TestVerticalEnvelopes:
    def test_unit_cube_column(self):
        box = make_box(0.1, 0.1, 0.1)
        placed = PlacedObject(box, np.array([1.0, 0, 0, 0]), np.array([0.0, 0.0, 0.3]))
        normals, offsets = face_planes(placed.world_vertices(), placed.obj.faces)
        z_lo, z_hi, ok = vertical_envelopes(
            normals, offsets, np.array([[0.0, 0.0], [0.04, -0.04], [0.2, 0.0]])
        )
        assert ok[0] and ok[1] and not ok[2]
        assert z_lo[0] == pytest.approx(0.25, abs=1e-12)
        assert z_hi[0] == pytest.approx(0.35, abs=1e-12)

    @staticmethod
    def masked_reference(normals, offsets, xy):
        """Envelopes over the boolean-selected plane subsets, one body at a time."""
        c = offsets[None, :] - xy[:, 0:1] * normals[None, :, 0] - xy[:, 1:2] * normals[None, :, 1]
        nz = normals[:, 2]
        up, down = nz > 1e-12, nz < -1e-12
        vert = ~(up | down)
        z_high, z_low = np.full(len(xy), np.inf), np.full(len(xy), -np.inf)
        if up.any():
            z_high = (c[:, up] / nz[up]).min(axis=1)
        if down.any():
            z_low = (c[:, down] / nz[down]).max(axis=1)
        feasible = z_low <= z_high + 1e-9
        if vert.any():
            feasible &= (c[:, vert] >= -1e-9).all(axis=1)
        return z_low, z_high, feasible

    def test_matches_masked_reference_bitwise(self, rng):
        """Random hulls and an upright box (vertical faces), columns on and off the body."""
        bodies = [PlacedObject(make_box(0.1, 0.06, 0.04), np.array([1.0, 0, 0, 0]),
                               np.array([0.01, -0.02, 0.1]))]
        for _ in range(30):
            q = rng.normal(size=4)
            bodies.append(PlacedObject(gen_objects(rng, 1)[0], q / np.linalg.norm(q),
                                       rng.uniform(-0.05, 0.05, size=3)))
        for placed in bodies:
            normals, offsets = face_planes(placed.world_vertices(), placed.obj.faces)
            xy = rng.uniform(-0.12, 0.12, size=(400, 2))
            got = vertical_envelopes(normals, offsets, xy)
            want = self.masked_reference(normals, offsets, xy)
            assert got[2].any() and not got[2].all()
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestSettling:
    def test_single_object_rests_on_floor(self, tray):
        scene = settle_scene(gen_objects(np.random.default_rng(3), 1), tray,
                             np.random.default_rng(4))
        low = scene.placed[0].world_vertices()[:, 2].min()
        assert abs(low - tray.floor_z) <= 1e-9

    def test_identical_boxes_stack_exactly(self, tray):
        # White-box check of the rest mechanics: same column, flat faces.
        h = 0.06
        a = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                         np.array([0.0, 0.0, 0.5]))
        b = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                         np.array([0.0, 0.0, 0.9]))
        settle_in_order([a, b])
        assert a.world_vertices()[:, 2].min() == pytest.approx(tray.floor_z, abs=1e-9)
        assert b.world_vertices()[:, 2].min() == pytest.approx(
            tray.floor_z + h, abs=2e-3
        )

    def test_offset_box_rests_on_edge_contact(self, tray):
        # Half-overlapping boxes: contact happens along an edge crossing,
        # which the exact rest search must catch.
        h = 0.05
        a = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                         np.array([0.0, 0.0, 0.2]))
        b = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                         np.array([0.04, 0.04, 0.7]))
        settle_in_order([a, b])
        assert b.world_vertices()[:, 2].min() == pytest.approx(
            tray.floor_z + h, abs=1e-9
        )
        pen = penetration_depth(
            a.world_vertices(), a.obj.faces, b.world_vertices(), b.obj.faces
        )
        assert pen <= 1e-9

    def test_settle_deterministic_bitwise(self, tray):
        objs = [gen_objects(np.random.default_rng(100 + i), 1)[0] for i in range(12)]
        s1 = settle_scene(list(objs), tray, np.random.default_rng(55))
        s2 = settle_scene(list(objs), tray, np.random.default_rng(55))
        for p1, p2 in zip(s1.placed, s2.placed):
            assert np.array_equal(p1.quat, p2.quat)
            assert np.array_equal(p1.translation, p2.translation)

    def test_placement_error_names_index(self, tray):
        wide = make_box(0.75, 0.45, 0.05)  # nearly fills the tray
        blocker = make_box(0.3, 0.3, 0.3)
        with pytest.raises(PlacementError, match="object 1"):
            # The second object can never fit beside the first draw range.
            settle_scene([wide, make_box(0.9, 0.9, 0.1)], tray,
                         np.random.default_rng(0))
        del blocker

    def test_invariant_sweep_dense_scene(self):
        """300-object scene: exact-settling invariants against the frozen oracle."""
        scene = spawn_scene(seed=123, count_range=(280, 300))
        tray = scene.tray
        wv = [p.world_vertices() for p in scene.placed]
        fc = [p.obj.faces for p in scene.placed]
        lo = np.array([v.min(axis=0) for v in wv])
        hi = np.array([v.max(axis=0) for v in wv])

        # Support: nothing below the floor.
        assert lo[:, 2].min() >= tray.floor_z - 1e-3

        # Containment: horizontal AABBs inside the inner walls.
        (x0, x1), (y0, y1) = tray.x_range, tray.y_range
        assert lo[:, 0].min() >= x0 - 1e-9 and hi[:, 0].max() <= x1 + 1e-9
        assert lo[:, 1].min() >= y0 - 1e-9 and hi[:, 1].max() <= y1 + 1e-9

        # Pairwise interpenetration bounded by 2 mm (exact rests give ~0).
        worst = 0.0
        for i, j in itertools.combinations(range(len(wv)), 2):
            if np.any(lo[i] > hi[j]) or np.any(lo[j] > hi[i]):
                continue
            worst = max(worst, penetration_depth(wv[i], fc[i], wv[j], fc[j]))
        assert worst <= 2e-3, f"max interpenetration {worst * 1000:.3f} mm"

    def test_resettle_drops_unsupported(self, tray):
        h = 0.06
        base = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                            np.array([0.0, 0.0, 0.0]))
        top = PlacedObject(make_box(0.08, 0.08, h), np.array([1.0, 0, 0, 0]),
                           np.array([0.0, 0.0, 0.0]))
        settle_in_order([base, top])
        scene = Scene(tray, [base, top])
        scene.placed.pop(0)  # excavate the base
        dropped = resettle(scene)
        assert dropped.placed[0].world_vertices()[:, 2].min() == pytest.approx(
            tray.floor_z, abs=1e-9
        )


IDENTITY = np.array([1.0, 0, 0, 0])


def _boxes_stacked():
    box = make_box(0.08, 0.08, 0.06)
    return [(box, (0.0, 0.0, 0.5)), (box, (0.0, 0.0, 0.9))]


def _boxes_edge_contact():
    box = make_box(0.08, 0.08, 0.05)
    return [(box, (0.0, 0.0, 0.2)), (box, (0.04, 0.04, 0.7))]


def _boxes_crossed():
    # Long thin bars at right angles: the rest column is a crossing of edges.
    return [
        (make_box(0.20, 0.02, 0.03), (0.0, 0.0, 0.0)),
        (make_box(0.02, 0.20, 0.03), (0.01, 0.0, 0.0)),
        (make_box(0.20, 0.02, 0.03), (0.0, 0.03, 0.0)),
        (make_box(0.05, 0.05, 0.05), (0.005, 0.015, 0.0)),
    ]


def _scene_bytes(scene, path):
    save_scene(scene, path)
    return path.read_bytes()


def _settle_three_ways(seed, count, path):
    """Bytes of a spawn, its full resettle, and a resettle without every third object."""
    spawned = spawn_scene(seed, (count, count))
    full = resettle(spawned)
    kept = [p for i, p in enumerate(spawned.placed) if i % 3 != 2]
    partial = resettle(Scene(spawned.tray, kept, spawned.seed))
    return [_scene_bytes(s, path) for s in (spawned, full, partial)]


class TestBatchedPile:
    """``_Pile`` gives the bits of the per-body loop it replaced."""

    @pytest.mark.parametrize("case", [_boxes_stacked, _boxes_edge_contact, _boxes_crossed])
    def test_hand_built_matches_reference(self, tray, case):
        rests = []
        for pile_cls in (_Pile, RestPileReference):
            placed = [PlacedObject(box, IDENTITY.copy(), np.array(at)) for box, at in case()]
            _, offsets = settle_in_order(placed, pile_cls)
            rests.append((offsets, [p.translation for p in placed]))
        (new_off, new_t), (ref_off, ref_t) = rests
        assert new_off == ref_off
        for a, b in zip(new_t, ref_t):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def check_rested_rows(pile, ref):
        """Each object's rows in the table are the reference's lowered rows, bit for bit."""
        assert pile.rested.all() and len(ref._verts) == len(pile.placed)
        for i, ((n_planes, n_verts, _), (p0, v0, _)) in enumerate(zip(pile.counts, pile.starts)):
            normals, offsets = ref._planes[i]
            planes = np.column_stack([normals, offsets])
            assert pile.planes[p0 : p0 + n_planes].tobytes() == planes.tobytes()
            assert pile.verts[v0 : v0 + n_verts].tobytes() == ref._verts[i].tobytes()
            assert pile.lo[i].tobytes() == ref._lo[i].tobytes()
            assert pile.hi[i].tobytes() == ref._hi[i].tobytes()

    @pytest.mark.parametrize("case", [_boxes_stacked, _boxes_edge_contact, _boxes_crossed])
    def test_hand_built_rows_lowered_in_place(self, case):
        piles = []
        for pile_cls in (_Pile, RestPileReference):
            placed = [PlacedObject(box, IDENTITY.copy(), np.array(at)) for box, at in case()]
            piles.append(settle_in_order(placed, pile_cls)[0])
        self.check_rested_rows(*piles)

    def test_spawned_rows_lowered_in_place(self, monkeypatch):
        piles = []
        settle = _Pile.settle

        def recording(pile, members, drops):
            piles.append(pile)
            return settle(pile, members, drops)

        monkeypatch.setattr(_Pile, "settle", recording)
        scene = spawn_scene(6, (150, 150))
        # Every object is spawned at z offset 0 and dropped from there.
        posed = [
            PlacedObject(p.obj, p.quat.copy(), np.array([p.translation[0], p.translation[1], 0.0]))
            for p in scene.placed
        ]
        ref, _ = settle_in_order(posed, RestPileReference)
        assert len(piles) == 1
        self.check_rested_rows(piles[0], ref)

    def test_resettle_after_removing_base_matches_reference(self, tray, monkeypatch, tmp_path):
        def run():
            placed = [
                PlacedObject(box, IDENTITY.copy(), np.array(at)) for box, at in _boxes_crossed()
            ]
            settle_in_order(placed, scenegen._Pile)
            return _scene_bytes(resettle(Scene(tray, placed[1:])), tmp_path / "r.scene")

        new = run()
        monkeypatch.setattr(scenegen, "_Pile", RestPileReference)
        assert new == run()

    @pytest.mark.parametrize("seed", range(20))
    def test_scenes_match_reference(self, seed, monkeypatch, tmp_path):
        count = 50 + 250 * seed // 19  # 50 to 300 objects
        new = _settle_three_ways(seed, count, tmp_path / "s.scene")
        monkeypatch.setattr(scenegen, "_Pile", RestPileReference)
        ref = _settle_three_ways(seed, count, tmp_path / "s.scene")
        for kind, a, b in zip(("spawn", "full resettle", "partial resettle"), new, ref):
            assert a == b, f"{kind} differs from the reference at seed {seed}"

    def test_golden_settle_hash(self, tmp_path):
        """Pins the settled bits, so the pile and its reference cannot drift together."""
        spawned = spawn_scene(2024, (200, 200))
        kept = [p for i, p in enumerate(spawned.placed) if i % 3 != 2]
        partial = resettle(Scene(spawned.tray, kept, spawned.seed))
        digests = [
            hashlib.sha256(_scene_bytes(s, tmp_path / "g.scene")).hexdigest()
            for s in (spawned, partial)
        ]
        assert digests == [
            "5ab7a20f0e5066fa3a4a86e80e1f41ab1cce6b322a69a1325388cf90e693db16",
            "0ba880565fd2628a5f939c370628384a231c2afef2685df2fbf2dbb5040a175f",
        ]

    def test_golden_label_hash(self):
        """Pins the PCA label bits of one desk observation, downhill flips included."""
        scene = spawn_scene(seed=5, count_range=(250, 250))
        cloud = label_observation(observe(scene, SensorConfig(fps_target=2048))).cloud
        digest = hashlib.sha256(cloud.normals.tobytes() + cloud.curvature.tobytes()).hexdigest()
        assert digest == "26f2720c3ac4acfd5d50a56059806e438b05bd662bea0a285526cd7c6d90dc5b"


def _drop_boxes(pile_cls, boxes):
    placed = [PlacedObject(box, IDENTITY.copy(), np.array(at)) for box, at in boxes]
    return settle_in_order(placed, pile_cls)[1], placed


def _segments_reached(monkeypatch):
    """Record the rested segments each drop hands to ``_segment_crossings``."""
    calls = []

    def counting(a, b):
        calls.append(b.copy())
        return _segment_crossings(a, b)

    monkeypatch.setattr(scenegen, "_segment_crossings", counting)
    return calls


class TestPrunedPile:
    """The branch-and-bound drop skips deep supports and keeps every bit."""

    @staticmethod
    def check_against_reference(tray, boxes):
        new_off, new_placed = _drop_boxes(_Pile, boxes)
        ref_off, ref_placed = _drop_boxes(RestPileReference, boxes)
        assert new_off == ref_off
        for a, b in zip(new_placed, ref_placed):
            assert a.translation.tobytes() == b.translation.tobytes()
        return new_placed

    def test_crossing_support_beside_the_bound_body(self, tray):
        # A bar along x carries the incoming bar along y; they touch only
        # where their edges cross. A box under the incoming bar's end, its
        # top 2**-10 m lower, sets the bound from the incoming vertices.
        h = 0.0625
        boxes = [
            (make_box(0.25, 0.03125, h), (0.0, 0.0, 0.0)),
            (make_box(0.0625, 0.0625, h - 2.0**-10), (0.0, 0.125, 0.0)),
            (make_box(0.03125, 0.25, h), (0.0, 0.0, 0.0)),
        ]
        placed = self.check_against_reference(tray, boxes)
        assert placed[2].world_vertices()[:, 2].min() == h

    @pytest.mark.parametrize("depth, kept", [(_PRUNE_MARGIN, True), (2 * _PRUNE_MARGIN, False)])
    def test_body_at_bound_plus_margin_is_kept(self, tray, monkeypatch, depth, kept):
        # The incoming bar rests on the left box, which sets the bound; the
        # right box's top sits ``depth`` lower, so its clearance is
        # bound + depth. All sizes are binary fractions, so this is exact.
        h = 0.0625
        boxes = [
            (make_box(0.0625, 0.0625, h), (-0.046875, 0.0, 0.0)),
            (make_box(0.0625, 0.0625, h - depth), (0.046875, 0.0, 0.0)),
            (make_box(0.125, 0.03125, 0.03125), (0.0, 0.0, 0.0)),
        ]
        calls = _segments_reached(monkeypatch)
        placed = self.check_against_reference(tray, boxes)
        assert placed[2].world_vertices()[:, 2].min() == h
        # Only the last drop has candidates; the right box's edges lie at x > 0.
        assert len(calls) == 1
        assert (calls[0][..., 0] > 0.0).any() == kept

    def test_lands_on_floor_beside_tall_body(self, tray, monkeypatch):
        # A tall box turned 45 degrees: its AABB overlaps the small box's,
        # its footprint does not, so the small box falls to the floor.
        tall = PlacedObject(make_box(0.1, 0.1, 0.3), quat_from_euler(np.pi / 4, 0.0, 0.0),
                            np.zeros(3))
        small = PlacedObject(make_box(0.02, 0.02, 0.02), IDENTITY.copy(),
                             np.array([0.06, 0.06, 0.0]))
        calls = _segments_reached(monkeypatch)
        settle_in_order([tall, small])
        ref_small = PlacedObject(small.obj, IDENTITY.copy(), np.array([0.06, 0.06, 0.0]))
        ref_tall = PlacedObject(tall.obj, tall.quat.copy(), np.zeros(3))
        settle_in_order([ref_tall, ref_small], RestPileReference)
        assert small.translation.tobytes() == ref_small.translation.tobytes()
        assert small.world_vertices()[:, 2].min() == pytest.approx(tray.floor_z, abs=1e-12)
        # The floor sets the bound, and a body taller than the drop is kept.
        assert len(calls) == 1 and len(calls[0]) > 0

    def test_most_candidate_segments_are_skipped(self, monkeypatch):
        reached = []

        def counting(a, b):
            reached.append(len(b))
            return _segment_crossings(a, b)

        monkeypatch.setattr(scenegen, "_segment_crossings", counting)
        scene = spawn_scene(3, (250, 250))
        # Replay the candidates the unpruned pile would hand over: edges of
        # every earlier body whose xy box overlaps, that meet the incoming box.
        xy = [p.world_vertices()[:, :2] for p in scene.placed]
        segs = [v[mesh_edges(p.obj.faces)] for v, p in zip(xy, scene.placed)]
        lo = np.array([v.min(axis=0) for v in xy])
        hi = np.array([v.max(axis=0) for v in xy])
        candidates = 0
        for i in range(1, len(xy)):
            for k in np.flatnonzero(((lo[:i] <= hi[i]) & (hi[:i] >= lo[i])).all(axis=1)):
                s_lo, s_hi = segs[k].min(axis=1), segs[k].max(axis=1)
                candidates += int(((s_lo <= hi[i]) & (s_hi >= lo[i])).all(axis=1).sum())
        assert candidates > 10_000
        assert sum(reached) < 0.4 * candidates, (sum(reached), candidates)


class TestDirtyResettle:
    """``resettle(scene, removed)`` re-drops only disturbed objects, with the full re-drop's bits."""

    @staticmethod
    def check(scene, removed, path):
        """Bytes of the dirty-set resettle, after checking them against the full one."""
        gone = set(removed)
        kept = Scene(scene.tray, [p for i, p in enumerate(scene.placed) if i not in gone], scene.seed)
        dirty = _scene_bytes(resettle(scene, removed), path)
        assert dirty == _scene_bytes(resettle(kept), path)
        return dirty

    def test_transitive_support_chain(self, tray, tmp_path):
        # Each box overlaps only its neighbours in xy and rests on the one
        # before; removing the first drops the rest one level each, and the
        # last two move only because the box under them moved.
        box = make_box(0.08, 0.08, 0.0625)
        placed = [PlacedObject(box, IDENTITY.copy(), np.array([x, 0.0, 0.0]))
                  for x in (0.0, 0.0625, 0.125, 0.1875)]
        settle_in_order(placed)
        scene = Scene(tray, placed)
        self.check(scene, [0], tmp_path / "d.scene")
        bottoms = [p.world_vertices()[:, 2].min() for p in resettle(scene, [0]).placed]
        assert bottoms == [0.0, 0.0625, 0.125]

    @pytest.fixture(scope="class")
    def spawned(self):
        return spawn_scene(4, (120, 120))

    def test_remove_first_object(self, spawned, tmp_path):
        self.check(spawned, [0], tmp_path / "d.scene")

    def test_remove_last_object_searches_nothing(self, spawned, monkeypatch, tmp_path):
        searches = []
        search = _Pile._lowest_gaps

        def counting(pile, planes, *args):
            searches.append(len(planes))
            return search(pile, planes, *args)

        monkeypatch.setattr(_Pile, "_lowest_gaps", counting)
        dirty = self.check(spawned, [119], tmp_path / "d.scene")
        # The full resettle searches all 119 drops; the dirty one searches none.
        assert sum(searches) == 119
        kept = Scene(spawned.tray, spawned.placed[:-1], spawned.seed)
        assert dirty == _scene_bytes(kept, tmp_path / "s.scene")


def _record_passes(monkeypatch):
    """Record the (batch, drops) of every ``_Pile._rest`` pass."""
    passes = []
    rest = _Pile._rest

    def recording(pile, members, drops):
        passes.append(([pile.placed[i] for i in members], list(drops)))
        return rest(pile, members, drops)

    monkeypatch.setattr(_Pile, "_rest", recording)
    return passes


class TestWavefronts:
    """Objects settle in dependency wavefronts, one batched pass each, with one-by-one bits."""

    @pytest.mark.parametrize("seed", range(20))
    def test_wavefront_rule(self, seed, monkeypatch):
        passes = _record_passes(monkeypatch)
        scene = spawn_scene(seed, (40, 120))
        index = {id(p): i for i, p in enumerate(scene.placed)}
        wave = np.full(scene.object_count, -1)
        for w, (batch, _) in enumerate(passes):
            for p in batch:
                assert wave[index[id(p)]] == -1
                wave[index[id(p)]] = w
        assert (wave >= 0).all()
        xy = [p.world_vertices()[:, :2] for p in scene.placed]
        lo, hi = np.array([v.min(axis=0) for v in xy]), np.array([v.max(axis=0) for v in xy])
        meets = ((lo[:, None] <= hi[None]) & (hi[:, None] >= lo[None])).all(axis=2)
        for j in range(scene.object_count):
            earlier = wave[:j][meets[j, :j]]
            # Every earlier object that meets j sits in an earlier wavefront,
            # and j sits in the first wavefront after all of them.
            assert (earlier < wave[j]).all()
            assert wave[j] == earlier.max(initial=-1) + 1
            # Objects of one wavefront have pairwise-disjoint xy boxes.
            assert not meets[j, (wave == wave[j]) & (np.arange(len(wave)) != j)].any()
        assert len(passes) < scene.object_count

    def test_two_boxes_on_one_bar_settle_in_one_pass(self, tray, monkeypatch):
        bar = make_box(0.25, 0.03125, 0.0625)
        cube = make_box(0.0625, 0.0625, 0.0625)
        tilt = quat_from_euler(0.3, 0.2, 0.1)
        poses = [(bar, IDENTITY, (0.0, 0.0)), (cube, tilt, (-0.09375, 0.0)),
                 (cube, tilt, (0.09375, 0.0))]
        placed = [PlacedObject(b, q.copy(), np.array([x, y, 0.0])) for b, q, (x, y) in poses]
        passes = _record_passes(monkeypatch)
        settled = resettle(Scene(tray, placed))
        assert [len(batch) for batch, _ in passes] == [1, 2]
        settle_in_order(placed, RestPileReference)
        for p, s in zip(placed, settled.placed):
            assert s.translation.tobytes() == p.translation.tobytes()
        # Both cubes rest on the bar, not on the floor.
        assert all(p.world_vertices()[:, 2].min() > 0.03 for p in settled.placed[1:])

    def test_resettle_wavefront_mixes_clean_and_dirty(self, tray, monkeypatch, tmp_path):
        # Two stacks of two cubes. Removing the left base leaves its top
        # cube dirty and with no remaining support below, so it settles in
        # the first wavefront beside the clean right base.
        cube = make_box(0.0625, 0.0625, 0.0625)
        placed = [PlacedObject(cube, IDENTITY.copy(), np.array([x, 0.0, 0.0]))
                  for x in (-0.125, 0.125, -0.125, 0.125)]
        scene = resettle(Scene(tray, placed))
        passes = _record_passes(monkeypatch)
        after = resettle(scene, [0])
        # The cubes are centred on their origin, so a known drop is minus the
        # rest height of the centre.
        assert [(len(batch), drops) for batch, drops in passes] == [
            (2, [-0.03125, None]),
            (1, [-0.09375]),
        ]
        TestDirtyResettle.check(scene, [0], tmp_path / "m.scene")
        bottoms = [p.world_vertices()[:, 2].min() for p in after.placed]
        assert bottoms == [0.0, 0.0, 0.0625]

    def test_overfull_tray_names_the_failing_object(self, tray, monkeypatch):
        small = make_box(0.03125, 0.03125, 0.03125)
        passes = _record_passes(monkeypatch)
        with pytest.raises(PlacementError, match="object 2 does not fit"):
            settle_scene([small, small, make_box(0.9, 0.9, 0.1), small], tray,
                         np.random.default_rng(0))
        # Every pose is drawn before anything settles.
        assert passes == []

    def test_spawn_makes_at_most_a_third_as_many_passes_as_objects(self, monkeypatch):
        passes = _record_passes(monkeypatch)
        spawn_scene(5, (250, 250))
        assert sum(len(batch) for batch, _ in passes) == 250
        assert len(passes) <= 250 / 3, len(passes)


class TestSpawnScene:
    def test_count_range_respected(self):
        for seed in range(5):
            scene = spawn_scene(seed, (8, 12))
            assert 8 <= scene.object_count <= 12
            assert scene.seed == seed

    def test_single_object_range(self):
        scene = spawn_scene(3, (1, 1))
        assert scene.object_count == 1

    def test_same_seed_same_scene(self):
        a = spawn_scene(17, (5, 9))
        b = spawn_scene(17, (5, 9))
        assert a.object_count == b.object_count
        for pa, pb in zip(a.placed, b.placed):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.quat, pb.quat)

    def test_bad_range_rejected(self):
        with pytest.raises(SizeError):
            spawn_scene(0, (5, 3))
        with pytest.raises(SizeError):
            spawn_scene(0, (0, 3))

    def test_total_volume_sums_objects(self, small_scene):
        assert total_volume(small_scene) == pytest.approx(
            sum(polytope_volume_reference(p.obj.vertices, p.obj.faces) for p in small_scene.placed)
        )


class TestSceneFile:
    def test_round_trip_byte_exact(self, small_scene, tmp_path):
        p1 = tmp_path / "a.scene"
        p2 = tmp_path / "b.scene"
        save_scene(small_scene, p1)
        loaded = load_scene(p1)
        save_scene(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.object_count == small_scene.object_count
        assert loaded.seed == small_scene.seed
        for a, b in zip(loaded.placed, small_scene.placed):
            assert np.array_equal(a.obj.vertices, b.obj.vertices)
            assert np.array_equal(a.obj.faces, b.obj.faces)
            assert np.array_equal(a.quat, b.quat)
            assert np.array_equal(a.translation, b.translation)

    def test_reload_preserves_tray(self, small_scene, tmp_path):
        p = tmp_path / "t.scene"
        save_scene(small_scene, p)
        loaded = load_scene(p)
        assert loaded.tray.inner_length == small_scene.tray.inner_length
        assert loaded.tray.inner_width == small_scene.tray.inner_width
        assert loaded.tray.floor_z == small_scene.tray.floor_z

    @pytest.mark.parametrize("seed, count", [(3, 50), (5, 175), (7, 300)])
    def test_loaded_volumes_match_reference(self, seed, count, tmp_path):
        scene = spawn_scene(seed, (count, count))
        save_scene(scene, tmp_path / "v.scene")
        loaded = load_scene(tmp_path / "v.scene")
        for a, b in zip(loaded.placed, scene.placed, strict=True):
            want = polytope_volume_reference(b.obj.vertices, b.obj.faces)
            assert np.float64(a.obj.volume).tobytes() == np.float64(want).tobytes()
            assert np.float64(b.obj.volume).tobytes() == np.float64(want).tobytes()

    def test_open_object_in_file_raises_topology_error(self, tmp_path):
        scene = spawn_scene(3, (3, 3))
        obj = scene.placed[1].obj
        scene.placed[1].obj = RigidObject(obj.vertices, obj.faces[:-1], obj.volume)
        save_scene(scene, tmp_path / "open.scene")
        with pytest.raises(TopologyError):
            load_scene(tmp_path / "open.scene")


def test_golden_volume_hash():
    """Pins the volume bits: rewards use them, and SCENE files do not store them."""
    volumes = np.array([p.obj.volume for p in spawn_scene(2024, (200, 200)).placed])
    assert volumes.dtype == np.float64
    assert hashlib.sha256(volumes.tobytes()).hexdigest() == (
        "36c189ed858168902d24771c8f736926c09427b016873cac890814968e3de0c9"
    )
