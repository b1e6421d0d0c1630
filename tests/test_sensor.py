import numpy as np
import pytest

from digrl import sensor
from digrl.errors import EmptyObservationError, ShapeError
from digrl.scenegen import (
    _PRUNE_MARGIN,
    PlacedObject,
    Scene,
    Tray,
    _RestPile,
    face_planes,
    resettle,
    spawn_scene,
    vertical_envelopes,
)
from digrl.sensor import (
    STEEP_NZ,
    SensorConfig,
    _ray_axes,
    _surface_grid,
    label_observation,
    observe,
    render_surface,
    scene_heightmap,
)
from test_scenegen import make_box

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def box_scene(dx=0.10, dy=0.10, dz=0.05, center=(0.0, 0.0)):
    """One axis-aligned box resting on the floor of a default tray."""
    box = make_box(dx, dy, dz)
    placed = PlacedObject(box, IDENTITY_QUAT.copy(), np.array([center[0], center[1], dz / 2]))
    return Scene(Tray(), [placed])


class TestRenderSurface:
    def test_empty_tray_is_flat_floor(self, tray):
        scene = Scene(tray, [])
        cloud = render_surface(scene, SensorConfig())
        # 0.80 m x 0.50 m tray at 5 mm pitch.
        assert len(cloud) == 160 * 100
        assert np.all(cloud.points[:, 2] == tray.floor_z)

    def test_ray_grid_cell_centers(self, tray):
        cloud = render_surface(Scene(tray, []), SensorConfig())
        xs = np.unique(cloud.points[:, 0])
        ys = np.unique(cloud.points[:, 1])
        assert xs[0] == pytest.approx(-0.40 + 0.0025, abs=1e-12)
        assert ys[-1] == pytest.approx(0.25 - 0.0025, abs=1e-12)
        assert np.allclose(np.diff(xs), 0.005, atol=1e-12)

    def test_box_top_and_floor(self):
        scene = box_scene()
        cloud = render_surface(scene, SensorConfig())
        pts = cloud.points
        over = (np.abs(pts[:, 0]) < 0.0475 + 1e-9) & (np.abs(pts[:, 1]) < 0.0475 + 1e-9)
        assert np.allclose(pts[over, 2], 0.05, atol=1e-9)
        assert np.all(pts[~over, 2] == 0.0)
        # 20 x 20 ray columns have centers inside the 0.10 m footprint.
        assert over.sum() == 400

    def test_highest_surface_wins(self, small_scene):
        """No returned point may sit under any object's top envelope."""
        cloud = render_surface(small_scene, SensorConfig())
        pts = cloud.points
        for placed in small_scene.placed:
            normals, offsets = face_planes(placed.world_vertices(), placed.obj.faces)
            _, z_high, feasible = vertical_envelopes(normals, offsets, pts[:, :2])
            assert np.all(pts[feasible, 2] >= z_high[feasible] - 1e-9)

    def test_points_never_below_floor(self, small_scene):
        cloud = render_surface(small_scene, SensorConfig())
        assert np.all(cloud.points[:, 2] >= small_scene.tray.floor_z)

    def test_bad_ray_pitch(self, tray):
        with pytest.raises(ShapeError):
            render_surface(Scene(tray, []), SensorConfig(ray_pitch=0.0))

    def test_noise_needs_rng(self, tray):
        with pytest.raises(ShapeError):
            render_surface(Scene(tray, []), SensorConfig(noise_sigma=0.001))

    def test_noise_statistics(self, tray, rng):
        cfg = SensorConfig(noise_sigma=0.002)
        clean = render_surface(Scene(tray, []), SensorConfig())
        noisy = render_surface(Scene(tray, []), cfg, rng)
        dz = noisy.points[:, 2] - clean.points[:, 2]
        assert np.allclose(noisy.points[:, :2], clean.points[:, :2])
        assert abs(dz.std() - 0.002) < 0.0002
        assert abs(dz.mean()) < 0.0002


class TestSceneHeightmap:
    def test_matches_surface_grid(self, small_scene):
        cfg = SensorConfig()
        hm = scene_heightmap(small_scene, cfg)
        cloud = render_surface(small_scene, cfg)
        assert hm.heights.shape == (160, 100)
        assert np.array_equal(hm.heights.reshape(-1), cloud.points[:, 2])
        assert np.all(hm.occupied)
        cx, cy = hm.cell_center(0, 0)
        assert cx == pytest.approx(cloud.points[0, 0], abs=1e-12)
        assert cy == pytest.approx(cloud.points[0, 1], abs=1e-12)
        assert hm.resolution == cfg.ray_pitch


class TestObserve:
    def test_crop_bounds(self, small_scene):
        cfg = SensorConfig()
        obs = observe(small_scene, cfg)
        pts = obs.points
        assert np.all(pts[:, 0] >= cfg.crop_x[0]) and np.all(pts[:, 0] <= cfg.crop_x[1])
        assert np.all(pts[:, 1] >= cfg.crop_y[0]) and np.all(pts[:, 1] <= cfg.crop_y[1])

    def test_downsamples_to_target(self, small_scene):
        obs = observe(small_scene, SensorConfig(fps_target=2048))
        assert len(obs) == 2048

    def test_small_cloud_passes_through(self, small_scene):
        # The default crop keeps 132 x 80 ray columns; a huge target is a no-op.
        obs = observe(small_scene, SensorConfig(fps_target=10 ** 6))
        assert len(obs) == 132 * 80

    def test_deterministic_without_noise(self, small_scene):
        a = observe(small_scene, SensorConfig(fps_target=2048))
        b = observe(small_scene, SensorConfig(fps_target=2048))
        assert np.array_equal(a.points, b.points)

    def test_object_count_metadata(self, small_scene):
        obs = observe(small_scene, SensorConfig())
        assert obs.object_count == small_scene.object_count

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
    def test_heightmap_metadata_is_noise_free(self, small_scene, noise_sigma):
        cfg = SensorConfig(fps_target=2048, noise_sigma=noise_sigma)
        obs = observe(small_scene, cfg, np.random.default_rng(5))
        hm = scene_heightmap(small_scene, cfg)
        assert obs.heightmap.heights.tobytes() == hm.heights.tobytes()
        assert obs.heightmap.origin.tobytes() == hm.origin.tobytes()
        assert obs.heightmap.resolution == hm.resolution
        assert np.all(obs.heightmap.occupied)
        labeled = label_observation(obs)
        assert labeled.heightmap is obs.heightmap

    def test_noisy_observation_matches_noisy_render(self, small_scene):
        cfg = SensorConfig(fps_target=10 ** 6, noise_sigma=0.002)
        obs = observe(small_scene, cfg, np.random.default_rng(5))
        surface = render_surface(small_scene, cfg, np.random.default_rng(5)).points
        keep = (
            (surface[:, 0] >= cfg.crop_x[0]) & (surface[:, 0] <= cfg.crop_x[1])
            & (surface[:, 1] >= cfg.crop_y[0]) & (surface[:, 1] <= cfg.crop_y[1])
        )
        assert obs.points.tobytes() == surface[keep].tobytes()
        with pytest.raises(ShapeError):
            observe(small_scene, cfg)

    def test_empty_crop_raises(self, tray):
        cfg = SensorConfig(crop_x=(0.50, 0.60))
        with pytest.raises(EmptyObservationError):
            observe(Scene(tray, []), cfg)

    def test_fps_keeps_subset(self, small_scene):
        full = observe(small_scene, SensorConfig(fps_target=10 ** 6))
        sub = observe(small_scene, SensorConfig(fps_target=500))
        full_rows = {tuple(p) for p in full.points}
        assert all(tuple(p) in full_rows for p in sub.points)


class TestLabels:
    def test_label_fields(self, small_scene):
        obs = observe(small_scene, SensorConfig(fps_target=2048))
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
        assert labeled.object_count == obs.object_count

    def test_flat_region_labels(self, tray):
        """Floor points far from any object get vertical normals, zero curvature."""
        scene = box_scene(center=(-0.25, -0.12))
        labeled = label_observation(observe(scene, SensorConfig(fps_target=10 ** 6)))
        pts = labeled.points
        far = (pts[:, 0] > 0.10) & (pts[:, 1] > 0.05) & (pts[:, 2] == 0.0)
        assert far.sum() > 100
        assert np.allclose(labeled.cloud.normals[far], [0.0, 0.0, 1.0], atol=1e-9)
        assert np.allclose(labeled.cloud.curvature[far], 0.0, atol=1e-12)


def footprint_windows(scene, cfg):
    """Per body: the ray cells of its footprint box, as index arrays, or None when empty."""
    xs, ys = _ray_axes(scene.tray, cfg)
    x0, y0 = scene.tray.x_range[0], scene.tray.y_range[0]
    for placed in scene.placed:
        wverts = placed.world_vertices()
        lo, hi = wverts.min(axis=0), wverts.max(axis=0)
        i0 = max(0, int(np.floor((lo[0] - x0) / cfg.ray_pitch - 0.5)))
        i1 = min(len(xs) - 1, int(np.ceil((hi[0] - x0) / cfg.ray_pitch)))
        j0 = max(0, int(np.floor((lo[1] - y0) / cfg.ray_pitch - 0.5)))
        j1 = min(len(ys) - 1, int(np.ceil((hi[1] - y0) / cfg.ray_pitch)))
        if i1 < i0 or j1 < j0:
            yield placed, None
            continue
        ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij")
        yield placed, (ii.reshape(-1), jj.reshape(-1))


def surface_grid_reference(scene, cfg):
    """The per-body render loop that the culled ``_surface_grid`` replaced.

    Every body, in placement order, evaluates its envelopes on every cell of
    its footprint box. Returns the heights and, over all feasible cells, the
    largest ``z_high - top`` of a body, the slack that ``_PRUNE_MARGIN`` must
    exceed.
    """
    xs, ys = _ray_axes(scene.tray, cfg)
    heights = np.full((len(xs), len(ys)), scene.tray.floor_z, dtype=np.float64)
    worst = -np.inf
    for placed, cells in footprint_windows(scene, cfg):
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
            cases.append((scene, *surface_grid_reference(scene, SensorConfig())))
    return cases


class TestCulledRender:
    """``_surface_grid`` skips occluded cells and keeps every bit of the per-body loop."""

    def test_heights_match_reference(self, reference_renders):
        for scene, want, _ in reference_renders:
            assert _surface_grid(scene, SensorConfig())[2].tobytes() == want.tobytes()

    def test_margin_exceeds_envelope_slack(self, reference_renders):
        worst = max(slack for _, _, slack in reference_renders)
        assert worst < _PRUNE_MARGIN, worst

    def test_most_footprint_cells_are_skipped(self, monkeypatch):
        cfg = SensorConfig()
        scene = spawn_scene(5, (250, 250))
        footprint = sum(len(c[0]) for _, c in footprint_windows(scene, cfg) if c is not None)
        reached = []

        def counting(normals, offsets, xy):
            reached.append(len(xy))
            return vertical_envelopes(normals, offsets, xy)

        monkeypatch.setattr(sensor, "vertical_envelopes", counting)
        heights = _surface_grid(scene, cfg)[2]
        assert heights.tobytes() == surface_grid_reference(scene, cfg)[0].tobytes()
        assert sum(reached) < 0.4 * footprint, (sum(reached), footprint)

    @staticmethod
    def render_counting_bodies(monkeypatch, scene):
        """Heights of ``scene`` and the number of bodies whose envelopes the render evaluated."""
        evaluated = []

        def counting(normals, offsets, xy):
            evaluated.append(len(normals))
            return vertical_envelopes(normals, offsets, xy)

        monkeypatch.setattr(sensor, "vertical_envelopes", counting)
        heights = _surface_grid(scene, SensorConfig())[2]
        assert heights.tobytes() == surface_grid_reference(scene, SensorConfig())[0].tobytes()
        return heights, len(evaluated)

    @staticmethod
    def box_under_lid(lid_height):
        """A 6.25 cm box on the floor under a wider lid of ``lid_height``, dropped onto it."""
        pile = _RestPile(Tray())
        placed = [
            PlacedObject(make_box(0.0625, 0.0625, 0.0625), IDENTITY_QUAT.copy(), np.zeros(3)),
            PlacedObject(make_box(0.125, 0.125, lid_height), IDENTITY_QUAT.copy(), np.zeros(3)),
        ]
        for p in placed:
            pile.drop_and_add(p)
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
