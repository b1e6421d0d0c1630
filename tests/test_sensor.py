import numpy as np
import pytest
from scipy.spatial import cKDTree

from digrl import sensor
from digrl.config import ATTACK_RANGES, PAPER_PROFILE
from digrl.errors import EmptyObservationError, ShapeError
from digrl.geometry import estimate_normals_curvature
from digrl.scenegen import (
    _PRUNE_MARGIN,
    PlacedObject,
    Scene,
    Tray,
    face_planes,
    resettle,
    spawn_scene,
    vertical_envelopes,
)
from digrl.sensor import (
    STEEP_NZ,
    _orient_steep_downhill,
    _ray_axes,
    _surface_grid,
    label_observation,
    observe,
    render_surface,
    scene_heightmap,
)
from test_scenegen import make_box, settle_in_order

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
PAPER_FPS = PAPER_PROFILE.fps_target  # 7,000 of the crop's 10,560 rays


def box_scene(dx=0.10, dy=0.10, dz=0.05, center=(0.0, 0.0)):
    """One axis-aligned box resting on the floor of a default tray."""
    box = make_box(dx, dy, dz)
    placed = PlacedObject(box, IDENTITY_QUAT.copy(), np.array([center[0], center[1], dz / 2]))
    return Scene(Tray(), [placed])


class TestRenderSurface:
    def test_empty_tray_is_flat_floor(self, tray):
        scene = Scene(tray, [])
        cloud = render_surface(scene)
        # 0.80 m x 0.50 m tray at 5 mm pitch.
        assert len(cloud) == 160 * 100
        assert np.all(cloud.points[:, 2] == tray.floor_z)

    def test_ray_grid_cell_centers(self, tray):
        cloud = render_surface(Scene(tray, []))
        xs = np.unique(cloud.points[:, 0])
        ys = np.unique(cloud.points[:, 1])
        assert xs[0] == pytest.approx(-0.40 + 0.0025, abs=1e-12)
        assert ys[-1] == pytest.approx(0.25 - 0.0025, abs=1e-12)
        assert np.allclose(np.diff(xs), 0.005, atol=1e-12)

    def test_box_top_and_floor(self):
        scene = box_scene()
        cloud = render_surface(scene)
        pts = cloud.points
        over = (np.abs(pts[:, 0]) < 0.0475 + 1e-9) & (np.abs(pts[:, 1]) < 0.0475 + 1e-9)
        assert np.allclose(pts[over, 2], 0.05, atol=1e-9)
        assert np.all(pts[~over, 2] == 0.0)
        # 20 x 20 ray columns have centers inside the 0.10 m footprint.
        assert over.sum() == 400

    def test_highest_surface_wins(self, small_scene):
        """No returned point may sit under any object's top envelope."""
        cloud = render_surface(small_scene)
        pts = cloud.points
        for placed in small_scene.placed:
            normals, offsets = face_planes(placed.world_vertices(), placed.obj.faces)
            _, z_high, feasible = vertical_envelopes(normals, offsets, pts[:, :2])
            assert np.all(pts[feasible, 2] >= z_high[feasible] - 1e-9)

    def test_points_never_below_floor(self, small_scene):
        cloud = render_surface(small_scene)
        assert np.all(cloud.points[:, 2] >= small_scene.tray.floor_z)

    # The render is noise-free; ``observe`` adds the noise to its points.
    def test_noise_needs_rng(self, tray):
        with pytest.raises(ShapeError):
            observe(Scene(tray, []), PAPER_FPS, noise_sigma=0.001)

    def test_noise_statistics(self, tray, rng):
        clean = observe(Scene(tray, []), 10 ** 6)
        noisy = observe(Scene(tray, []), 10 ** 6, rng, 0.002)
        dz = noisy.points[:, 2] - clean.points[:, 2]
        assert np.allclose(noisy.points[:, :2], clean.points[:, :2])
        assert abs(dz.std() - 0.002) < 0.0002
        assert abs(dz.mean()) < 0.0002


class TestSceneHeightmap:
    def test_matches_surface_grid(self, small_scene):
        hm = scene_heightmap(small_scene)
        cloud = render_surface(small_scene)
        assert hm.heights.shape == (160, 100)
        assert np.array_equal(hm.heights.reshape(-1), cloud.points[:, 2])
        cx, cy = hm.origin + 0.5 * hm.resolution
        assert cx == pytest.approx(cloud.points[0, 0], abs=1e-12)
        assert cy == pytest.approx(cloud.points[0, 1], abs=1e-12)
        assert hm.resolution == sensor.RAY_PITCH == 0.005


class TestObserve:
    def test_crop_bounds(self, small_scene):
        obs = observe(small_scene, PAPER_FPS)
        pts = obs.points
        (x0, x1), (y0, y1) = ATTACK_RANGES.x, ATTACK_RANGES.y
        assert np.all(pts[:, 0] >= x0) and np.all(pts[:, 0] <= x1)
        assert np.all(pts[:, 1] >= y0) and np.all(pts[:, 1] <= y1)

    def test_downsamples_to_target(self, small_scene):
        obs = observe(small_scene, 2048)
        assert len(obs) == 2048

    def test_small_cloud_passes_through(self, small_scene):
        # The default crop keeps 132 x 80 ray columns; a huge target is a no-op.
        obs = observe(small_scene, 10 ** 6)
        assert len(obs) == 132 * 80

    def test_deterministic_without_noise(self, small_scene):
        a = observe(small_scene, 2048)
        b = observe(small_scene, 2048)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
    def test_heightmap_metadata_is_noise_free(self, small_scene, noise_sigma):
        obs = observe(small_scene, 2048, np.random.default_rng(5), noise_sigma)
        hm = scene_heightmap(small_scene)
        assert obs.heightmap.heights.tobytes() == hm.heights.tobytes()
        assert obs.heightmap.origin.tobytes() == hm.origin.tobytes()
        assert obs.heightmap.resolution == hm.resolution
        labeled = label_observation(obs)
        assert labeled.heightmap is obs.heightmap

    def test_noisy_observation_matches_noisy_render(self, small_scene):
        obs = observe(small_scene, 10 ** 6, np.random.default_rng(5), 0.002)
        surface = render_surface(small_scene).points
        surface[:, 2] += np.random.default_rng(5).normal(0.0, 0.002, size=len(surface))
        (x0, x1), (y0, y1) = ATTACK_RANGES.x, ATTACK_RANGES.y
        keep = (
            (surface[:, 0] >= x0) & (surface[:, 0] <= x1)
            & (surface[:, 1] >= y0) & (surface[:, 1] <= y1)
        )
        assert obs.points.tobytes() == surface[keep].tobytes()
        with pytest.raises(ShapeError):
            observe(small_scene, 10 ** 6, noise_sigma=0.002)

    def test_empty_crop_raises(self, tray, monkeypatch):
        # One ray per axis, at (0.10, 0.25): y lies outside the crop.
        monkeypatch.setattr(sensor, "RAY_PITCH", 1.0)
        assert np.allclose(render_surface(Scene(tray, [])).points, [[0.1, 0.25, 0.0]])
        with pytest.raises(EmptyObservationError):
            observe(Scene(tray, []), PAPER_FPS)

    def test_fps_keeps_subset(self, small_scene):
        full = observe(small_scene, 10 ** 6)
        sub = observe(small_scene, 500)
        full_rows = {tuple(p) for p in full.points}
        assert all(tuple(p) in full_rows for p in sub.points)


class TestLabels:
    def test_label_fields(self, small_scene):
        obs = observe(small_scene, 2048)
        labeled = label_observation(obs)
        cloud = labeled.cloud
        assert cloud.normals is not None and cloud.curvature is not None
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-6)
        # Clearly tilted-up normals keep the upward sign; near-vertical ones
        # may face either way after the downhill re-orientation.
        assert np.all(cloud.normals[:, 2] >= -STEEP_NZ)
        steep = np.abs(cloud.normals[:, 2]) < STEEP_NZ
        assert np.all(cloud.normals[~steep, 2] >= 0.0)
        # The scene must exercise the re-orientation branch, or the two sign
        # checks above hold vacuously.
        assert steep.any()
        assert np.any(cloud.normals[:, 2] < 0.0)
        assert np.all((cloud.curvature >= 0.0) & (cloud.curvature <= 1.0 / 3.0))
        assert np.array_equal(cloud.points, obs.points)
        assert labeled.heightmap is obs.heightmap

    def test_flat_region_labels(self, tray):
        """Floor points far from any object get vertical normals, zero curvature."""
        scene = box_scene(center=(-0.25, -0.12))
        labeled = label_observation(observe(scene, 10 ** 6))
        pts = labeled.points
        far = (pts[:, 0] > 0.10) & (pts[:, 1] > 0.05) & (pts[:, 2] == 0.0)
        assert far.sum() > 100
        assert np.allclose(labeled.cloud.normals[far], [0.0, 0.0, 1.0], atol=1e-9)
        assert np.allclose(labeled.cloud.curvature[far], 0.0, atol=1e-12)


def orient_steep_downhill_reference(points, normals):
    """The per-row loop: one ``mean`` per side of each steep point."""
    nz = normals[:, 2]
    horiz = np.hypot(normals[:, 0], normals[:, 1])
    steep = np.flatnonzero((np.abs(nz) < STEEP_NZ) & (horiz > 1e-12))
    if len(steep) == 0:
        return normals
    xy = points[:, :2]
    z = points[:, 2]
    tree = cKDTree(xy)
    d = normals[steep, :2] / horiz[steep, None]
    ahead = tree.query_ball_point(xy[steep] + sensor._SIDE_OFFSET * d, sensor._SIDE_RADIUS)
    behind = tree.query_ball_point(xy[steep] - sensor._SIDE_OFFSET * d, sensor._SIDE_RADIUS)
    out = normals.copy()
    for row, (ia, ib) in enumerate(zip(ahead, behind)):
        if ia and ib and z[ia].mean() > z[ib].mean() + 1e-9:
            out[steep[row]] = -out[steep[row]]
    return out


def step_floor(ahead_z):
    """A 5 mm grid over [-0.1, 0.1]^2 at height ``ahead_z`` for x > 0, else 0.

    Each point of the column x = 0 gets the normal (1, 0, 0). Each point of
    the edge x = 0.1 gets (-1, 0, 0), so its behind side, 0.02 past the
    edge, holds no point. Every other normal is vertical.
    """
    axis = np.round(np.arange(-20, 21) * 0.005, 12)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.where(gx.ravel() > 0.001, ahead_z, 0.0)], axis=1)
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    normals[pts[:, 0] == 0.0] = (1.0, 0.0, 0.0)
    normals[pts[:, 0] == 0.1] = (-1.0, 0.0, 0.0)
    return pts, normals


class TestOrientSteepDownhill:
    def assert_matches_reference(self, pts, normals):
        got = _orient_steep_downhill(pts, normals)
        assert got.tobytes() == orient_steep_downhill_reference(pts, normals).tobytes()
        return got

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    @pytest.mark.parametrize("seed,count", [(5, 250), (50, 60), (51, 150)])
    def test_matches_reference_on_desk_crops(self, seed, count, sigma):
        scene = spawn_scene(seed=seed, count_range=(count, count))
        pts = observe(scene, 2048, np.random.default_rng(seed), sigma).points
        normals, _ = estimate_normals_curvature(pts)
        got = self.assert_matches_reference(pts, normals)
        assert (got != normals).any()

    def test_flat_floor_rows_with_zero_means_keep_their_sign(self, rng):
        pts, _ = step_floor(0.0)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=len(pts))
        normals = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(len(pts))])
        got = self.assert_matches_reference(pts, normals)
        assert np.array_equal(got, normals)

    def test_empty_side_keeps_the_sign(self):
        pts, normals = step_floor(0.05)
        got = self.assert_matches_reference(pts, normals)
        edge = pts[:, 0] == 0.1
        assert np.array_equal(got[edge], normals[edge])
        assert (got[pts[:, 0] == 0.0] == (-1.0, 0.0, 0.0)).all()

    @pytest.mark.parametrize("scale", [-1e-15, -2**-52, 0.0, 2**-52, 2**-51, 1e-15, 1e-12])
    def test_steps_at_the_margin_take_the_exact_test(self, scale):
        # The ahead side sits 1e-9 above the behind side, so a row's flip is
        # decided within rounding of its means.
        pts, normals = step_floor(1e-9 * (1.0 + scale))
        got = self.assert_matches_reference(pts, normals)
        pts[0, 2] = 1.5  # a tall point elsewhere widens the rounding bound
        assert np.array_equal(self.assert_matches_reference(pts, normals), got)
        flipped = (got[pts[:, 0] == 0.0, 0] < 0.0).sum()
        assert flipped == {0.0: 0, 1e-12: 41}.get(scale, flipped)


def footprint_windows(scene):
    """Per body: the ray cells of its footprint box, as index arrays, or None when empty."""
    xs, ys = _ray_axes(scene.tray)
    pitch = sensor.RAY_PITCH
    x0, y0 = scene.tray.x_range[0], scene.tray.y_range[0]
    for placed in scene.placed:
        wverts = placed.world_vertices()
        lo, hi = wverts.min(axis=0), wverts.max(axis=0)
        i0 = max(0, int(np.floor((lo[0] - x0) / pitch - 0.5)))
        i1 = min(len(xs) - 1, int(np.ceil((hi[0] - x0) / pitch)))
        j0 = max(0, int(np.floor((lo[1] - y0) / pitch - 0.5)))
        j1 = min(len(ys) - 1, int(np.ceil((hi[1] - y0) / pitch)))
        if i1 < i0 or j1 < j0:
            yield placed, None
            continue
        ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
        yield placed, (ii.reshape(-1), jj.reshape(-1))


def surface_grid_reference(scene):
    """The per-body render loop that the culled ``_surface_grid`` replaced.

    Every body, in placement order, evaluates its envelopes on every cell of
    its footprint box. Returns the heights and, over all feasible cells, the
    largest ``z_high - top`` of a body, the slack that ``_PRUNE_MARGIN`` must
    exceed.
    """
    xs, ys = _ray_axes(scene.tray)
    heights = np.full((len(xs), len(ys)), scene.tray.floor_z, dtype=np.float64)
    worst = -np.inf
    for placed, cells in footprint_windows(scene):
        if cells is None:
            continue
        ii, jj = cells
        normals, offsets = face_planes(placed.world_vertices(), placed.obj.faces)
        cols = np.stack([xs[ii], ys[jj]], axis=1)
        _, z_high, feasible = vertical_envelopes(normals, offsets, cols)
        if feasible.any():
            top = placed.world_vertices()[:, 2].max()
            worst = max(worst, float((z_high[feasible] - top).max()))
        sel = feasible & (z_high > heights[ii, jj])
        heights[ii[sel], jj[sel]] = z_high[sel]
    return heights, worst


@pytest.fixture(scope="module")
def reference_renders():
    """(scene, reference heights, slack) for 20 spawns of 50 to 300 objects and a resettle of each.

    Counts grow geometrically, and the resettle removes every third object
    of the later half.
    """
    cases = []
    for k in range(20):
        spawned = spawn_scene(300 + k, (round(50 * 6 ** (k / 19)),) * 2)
        n = spawned.object_count
        for scene in (spawned, resettle(spawned, range(n // 2, n, 3))):
            cases.append((scene, *surface_grid_reference(scene)))
    return cases


class TestCulledRender:
    """``_surface_grid`` skips occluded cells and keeps every bit of the per-body loop."""

    def test_heights_match_reference(self, reference_renders):
        for scene, want, _ in reference_renders:
            assert _surface_grid(scene)[2].tobytes() == want.tobytes()

    def test_margin_exceeds_envelope_slack(self, reference_renders):
        worst = max(slack for _, _, slack in reference_renders)
        assert worst < _PRUNE_MARGIN, worst

    def test_most_footprint_cells_are_skipped(self, monkeypatch):
        scene = spawn_scene(5, (250, 250))
        footprint = sum(len(c[0]) for _, c in footprint_windows(scene) if c is not None)
        reached = []

        def counting(normals, offsets, xy):
            reached.append(len(xy))
            return vertical_envelopes(normals, offsets, xy)

        monkeypatch.setattr(sensor, "vertical_envelopes", counting)
        heights = _surface_grid(scene)[2]
        assert heights.tobytes() == surface_grid_reference(scene)[0].tobytes()
        assert sum(reached) < 0.4 * footprint, (sum(reached), footprint)

    @staticmethod
    def render_counting_bodies(monkeypatch, scene):
        """Heights of ``scene`` and the number of bodies whose envelopes the render evaluated."""
        evaluated = []

        def counting(normals, offsets, xy):
            evaluated.append(len(normals))
            return vertical_envelopes(normals, offsets, xy)

        monkeypatch.setattr(sensor, "vertical_envelopes", counting)
        heights = _surface_grid(scene)[2]
        assert heights.tobytes() == surface_grid_reference(scene)[0].tobytes()
        return heights, len(evaluated)

    @staticmethod
    def box_under_lid(lid_height):
        """A 6.25 cm box on the floor under a wider lid of ``lid_height``, dropped onto it."""
        placed = [
            PlacedObject(make_box(0.0625, 0.0625, 0.0625), IDENTITY_QUAT.copy(), np.zeros(3)),
            PlacedObject(make_box(0.125, 0.125, lid_height), IDENTITY_QUAT.copy(), np.zeros(3)),
        ]
        settle_in_order(placed)
        return Scene(Tray(), placed)

    def test_fully_buried_box_is_skipped(self, monkeypatch):
        scene = self.box_under_lid(0.03125)
        heights, evaluated = self.render_counting_bodies(monkeypatch, scene)
        assert heights.max() == 0.0625 + 0.03125
        assert evaluated == 1  # the lid only

    @pytest.mark.parametrize(
        "lid, kept", [(_PRUNE_MARGIN - 2.0**-10, True), (_PRUNE_MARGIN, False)]
    )
    def test_box_at_top_plus_margin(self, monkeypatch, lid, kept):
        # The lid's top sits ``lid`` above the box's top; sizes are binary
        # fractions, so heights are exact. A cell at exactly the box's top
        # plus the margin is skipped, one just below it is evaluated.
        scene = self.box_under_lid(lid)
        heights, evaluated = self.render_counting_bodies(monkeypatch, scene)
        assert heights.max() == 0.0625 + lid
        assert evaluated == (2 if kept else 1)
