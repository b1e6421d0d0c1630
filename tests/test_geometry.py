import numpy as np
import pytest

from digrl import geometry, sensor
from digrl.config import get_profile
from digrl.errors import EmptyObservationError, ShapeError, SizeError
from digrl.geometry import (
    CURVATURE_MAX,
    PointCloud,
    ball_query,
    estimate_normals_curvature,
    _sq_dist,
    fps,
    idw_weights,
    load_xyzl,
    save_xyzl,
    to_heightmap,
)
from digrl.scenegen import spawn_scene
from digrl.sensor import SensorConfig, observe


def fps_oracle(pts, n, start=0):
    """Greedy max-min reference, written point-at-a-time on purpose."""
    chosen = [start]
    for _ in range(n - 1):
        best_i, best_d = -1, -1.0
        for i in range(len(pts)):
            d = min(float(np.sum((pts[i] - pts[j]) ** 2)) for j in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.array(chosen)


def fps_reference(pts, n, start=0):
    """The unpruned vectorised greedy loop: every pick updates every point."""
    selected = np.empty(n, dtype=np.int64)
    selected[0] = start
    min_d2 = np.sum((pts - pts[start]) ** 2, axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        d2 = np.sum((pts - pts[nxt]) ** 2, axis=1)
        np.minimum(min_d2, d2, out=min_d2)
    return selected


def ball_query_reference(pts, center, radius, max_k):
    """The per-center query that ``ball_query`` batches: one stable sort per center."""
    d2 = np.sum((pts - center) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    inside = order[d2[order] <= radius * radius]
    return inside[:max_k] if len(inside) else order[:1]


def assert_rows_match_reference(pts, centers, radius, max_k):
    got = ball_query(pts, centers, radius, max_k)
    assert got.shape == (len(centers), max_k) and got.dtype == np.int64
    for row, c in zip(got, centers):
        want = ball_query_reference(pts, c, radius, max_k)
        assert np.array_equal(row[: len(want)], want)
        assert (row[len(want) :] == -1).all()


def tie_heavy_clouds():
    """Clouds where exact distance ties or zero max-min distances are common."""
    rng = np.random.default_rng(7)
    gx, gy = np.meshgrid(np.arange(40) * 0.005, np.arange(25) * 0.005, indexing="ij")
    grid = np.stack([gx.reshape(-1), gy.reshape(-1), np.zeros(gx.size)], axis=1)
    lx, ly, lz = np.meshgrid(*[np.arange(k) * 0.005 for k in (8, 8, 2)], indexing="ij")
    lattice = np.stack([lx.reshape(-1), ly.reshape(-1), lz.reshape(-1)], axis=1)
    distinct = rng.uniform(-1, 1, size=(30, 3))
    one_x = rng.uniform(-1, 1, size=(200, 3))
    one_x[:, 0] = 0.3
    return {
        "flat-grid": grid,
        # Far from the origin the rounding of x itself exceeds a slab pad
        # proportional to the radius alone.
        "lattice-far": lattice + (1e3, 0.0, 0.0),
        "flat-grid-shifted": grid + (-0.37, 0.2, 0.0),
        # 120 points over 30 positions: past 30 picks the max-min is 0.
        "duplicates": distinct[rng.permutation(np.tile(np.arange(30), 4))],
        "one-x": one_x,
    }


TIE_HEAVY = tie_heavy_clouds()


def x_non_decreasing(pts):
    return bool((pts[1:, 0] >= pts[:-1, 0]).all())


def fps_update_widths(monkeypatch, pts, n):
    """Indices of ``fps(pts, n)`` and how many points each pick's update touched.

    The updates are counted on the ``minimum`` calls that ``fps`` makes
    through its module's ``np``.
    """
    widths = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def minimum(a, b, out):
            widths.append(len(a))
            return np.minimum(a, b, out=out)

    monkeypatch.setattr(geometry, "np", CountingNumpy())
    idx = fps(pts, n)
    monkeypatch.undo()
    return idx, widths


@pytest.fixture(scope="module")
def desk_crop(small_scene):
    """The full 132 x 80 ray crop of a rendered scene, unsampled."""
    return observe(small_scene, SensorConfig(fps_target=10 ** 6)).points


@pytest.fixture(scope="module")
def crop_250():
    """A desk observation (2,048 FPS points) of a settled 250-object scene."""
    scene = spawn_scene(seed=5, count_range=(250, 250))
    return observe(scene, SensorConfig(fps_target=2048)).points


class TestFps:
    def test_matches_greedy_oracle(self, rng):
        for _ in range(5):
            pts = rng.uniform(-1, 1, size=(40, 3))
            got = fps(pts, 12)
            assert np.array_equal(got, fps_oracle(pts, 12))

    def test_matches_reference_on_desk_crop(self, desk_crop):
        assert len(desk_crop) == 10_560
        assert np.array_equal(fps(desk_crop, 2048), fps_reference(desk_crop, 2048))

    def test_matches_reference_on_encoder_levels(self, desk_crop):
        level = desk_crop[fps_reference(desk_crop, 2048)]
        for n in get_profile("desk").level_points:
            idx = fps(level, n)
            assert np.array_equal(idx, fps_reference(level, n))
            level = level[idx]

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_reference_on_ties(self, name):
        pts = TIE_HEAVY[name]
        for n in (2, 37, len(pts) // 2, len(pts)):
            assert np.array_equal(fps(pts, n), fps_reference(pts, n))

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_reference_on_shuffled_ties(self, name):
        pts = TIE_HEAVY[name]
        shuffled = pts[np.random.default_rng(3).permutation(len(pts))]
        # A constant x stays in order under any shuffle.
        assert x_non_decreasing(shuffled) == (name == "one-x")
        for n in (2, 37, len(pts) // 2, len(pts)):
            assert np.array_equal(fps(shuffled, n), fps_reference(shuffled, n))

    def test_matches_reference_on_shuffled_desk_crop(self, desk_crop):
        shuffled = desk_crop[np.random.default_rng(3).permutation(len(desk_crop))]
        assert not x_non_decreasing(shuffled)
        assert np.array_equal(fps(shuffled, 2048), fps_reference(shuffled, 2048))

    def test_matches_reference_on_reversed_x_grid(self):
        grid = TIE_HEAVY["flat-grid"][::-1]
        assert not x_non_decreasing(grid)
        for n in (2, 37, len(grid)):
            assert np.array_equal(fps(grid, n), fps_reference(grid, n))

    def test_matches_reference_from_other_starts(self, desk_crop):
        grid = TIE_HEAVY["flat-grid"]
        for start in (1, 517, len(grid) - 1):
            assert np.array_equal(fps(grid, 300, start), fps_reference(grid, 300, start))
        start = len(desk_crop) // 2 + 7
        assert np.array_equal(fps(desk_crop, 512, start), fps_reference(desk_crop, 512, start))

    def test_full_sample_of_sorted_grid(self):
        grid = TIE_HEAVY["flat-grid"]
        idx = fps(grid, len(grid))
        assert sorted(idx) == list(range(len(grid)))
        assert np.array_equal(idx, fps_reference(grid, len(grid)))

    def test_one_point_cloud(self):
        assert fps(np.array([[0.1, -0.2, 0.3]]), 1).tolist() == [0]
        with pytest.raises(SizeError):
            fps(np.zeros((1, 3)), 1, start=1)

    def test_sorted_x_updates_slabs_and_other_orders_the_whole_cloud(
        self, monkeypatch, desk_crop
    ):
        # The crop has 80 points on each x, so a strict order test would
        # miss it and fall back to whole-cloud updates.
        idx, widths = fps_update_widths(monkeypatch, desk_crop, 512)
        assert np.array_equal(idx, fps_reference(desk_crop, 512))
        assert len(widths) == 511 and widths[0] == len(desk_crop)
        assert np.mean(widths[1:]) < 0.5 * len(desk_crop)
        shuffled = desk_crop[np.random.default_rng(3).permutation(len(desk_crop))]
        idx, widths = fps_update_widths(monkeypatch, shuffled, 64)
        assert widths == [len(desk_crop)] * 63

    @pytest.mark.parametrize("noise", [0.0, 0.002])
    def test_sensor_crop_reaches_fps_in_x_order(self, monkeypatch, small_scene, noise):
        seen = []

        def recording(cloud, n, start=0):
            seen.append(np.array(cloud))
            return fps(cloud, n, start)

        monkeypatch.setattr(sensor, "fps", recording)
        cfg = SensorConfig(fps_target=2048, noise_sigma=noise)
        observe(small_scene, cfg, np.random.default_rng(5))
        assert len(seen) == 1 and len(seen[0]) > 2048
        assert x_non_decreasing(seen[0])

    def test_min_distance_sequence_non_increasing(self, rng):
        pts = rng.normal(size=(300, 3))
        idx = fps(pts, 100)
        sel = pts[idx]
        dists = []
        for i in range(1, len(idx)):
            d = np.min(np.linalg.norm(sel[:i] - sel[i], axis=1))
            dists.append(d)
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_deterministic(self, rng):
        pts = rng.normal(size=(200, 3))
        assert np.array_equal(fps(pts, 50), fps(pts, 50))

    def test_start_index_is_first(self, rng):
        pts = rng.normal(size=(30, 3))
        idx = fps(pts, 5, start=17)
        assert idx[0] == 17
        assert np.array_equal(idx, fps_reference(pts, 5, start=17))

    def test_full_sample_is_permutation(self, rng):
        pts = rng.normal(size=(25, 3))
        idx = fps(pts, 25)
        assert sorted(idx) == list(range(25))
        assert np.array_equal(idx, fps_reference(pts, 25))
        assert np.array_equal(fps(pts, 25, start=9), fps_reference(pts, 25, start=9))

    def test_rejects_bad_sizes(self, rng):
        pts = rng.normal(size=(10, 3))
        with pytest.raises(SizeError):
            fps(pts, 11)
        with pytest.raises(SizeError):
            fps(pts, 0)
        with pytest.raises(SizeError):
            fps(np.empty((0, 3)), 1)


class TestSqDist:
    def test_matches_axis_sum_bitwise(self, rng):
        shapes = [((500, 3), (3,)), ((1, 300, 3), (40, 1, 3)), ((64, 1, 3), (1, 90, 3))]
        for a_shape, b_shape in shapes:
            for _ in range(10):
                a = rng.normal(size=a_shape) * 10.0 ** rng.uniform(-3, 3)
                b = rng.normal(size=b_shape) + rng.uniform(-1e3, 1e3)
                want = np.sum((a - b) ** 2, axis=-1)
                assert _sq_dist(a, b).tobytes() == want.tobytes()


class TestBallQuery:
    def test_matches_brute_force_filter(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 400))
            pts = rng.uniform(-1, 1, size=(n, 3))
            centers = rng.uniform(-1, 1, size=(int(rng.integers(1, 12)), 3))
            r = float(rng.uniform(0.05, 1.2))
            max_k = int(rng.integers(1, 40))
            got = ball_query(pts, centers, r, max_k)
            assert got.shape == (len(centers), max_k)
            for row, c in zip(got, centers):
                d2 = np.sum((pts - c) ** 2, axis=1)
                order = np.argsort(d2, kind="stable")
                inside = order[d2[order] <= r * r]
                want = inside[:max_k] if len(inside) else order[:1]
                assert np.array_equal(row[: len(want)], want)
                assert (row[len(want) :] == -1).all()

    def test_far_center_falls_back_to_nearest(self, rng):
        pts = rng.normal(size=(50, 3))
        got = ball_query(pts, [[100.0, 0, 0]], 0.01, 8)
        d2 = np.sum((pts - [100.0, 0, 0]) ** 2, axis=1)
        assert got.shape == (1, 8)
        assert got[0, 0] == np.argmin(d2) and (got[0, 1:] == -1).all()

    def test_covering_radius_returns_everything(self, rng):
        pts = rng.uniform(-0.1, 0.1, size=(20, 3))
        got = ball_query(pts, [[0, 0, 0]], 10.0, 50)
        assert sorted(got[0, :20]) == list(range(20))
        assert (got[0, 20:] == -1).all()

    def test_respects_max_k(self, rng):
        pts = rng.uniform(-0.1, 0.1, size=(30, 3))
        got = ball_query(pts, [[0, 0, 0]], 10.0, 7)
        assert got.shape == (1, 7) and (got >= 0).all()

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        assert ball_query(pts, [[0, 0, 0]], 2.0, 3).tolist() == [[0, 1, -1]]
        assert ball_query(pts, [[0, 0, 0]], 0.5, 3).tolist() == [[0, -1, -1]]

    def test_matches_reference_on_encoder_levels(self, crop_250):
        p = get_profile("desk")
        level = crop_250
        assert len(level) == 2048
        for n, r, k in zip(p.level_points, p.level_radii, p.level_group_sizes):
            centers = level[fps(level, n)]
            assert_rows_match_reference(level, centers, r, k)
            level = centers

    @pytest.mark.parametrize("name", ["flat-grid", "lattice-far", "duplicates"])
    def test_matches_reference_on_ties(self, name):
        pts = TIE_HEAVY[name]
        # Centers on the points and halfway between them make many exact ties.
        centers = np.concatenate([pts[::3], pts[::5] + (0.0025, 0.0, 0.0)])
        for r in (0.0025, 0.005, 0.0075, 0.012):
            for k in (1, 4, 9, 40):
                assert_rows_match_reference(pts, centers, r, k)

    def test_empty_balls_fall_back_to_reference(self, rng):
        pts = rng.uniform(-1, 1, size=(300, 3))
        centers = np.concatenate([rng.uniform(-1, 1, size=(50, 3)), [[9.0, 9.0, 9.0]]])
        got = ball_query(pts, centers, 1e-4, 5)
        assert (got[:, 1:] == -1).all()
        assert_rows_match_reference(pts, centers, 1e-4, 5)

    def test_max_k_above_cloud_size(self, rng):
        pts = rng.uniform(-0.1, 0.1, size=(20, 3))
        centers = rng.uniform(-0.1, 0.1, size=(15, 3))
        for r in (0.02, 0.08, 1.0):
            assert_rows_match_reference(pts, centers, r, 50)

    def test_chunks_match_one_block(self, rng, monkeypatch):
        pts = rng.uniform(-1, 1, size=(200, 3))
        centers = rng.uniform(-1, 1, size=(70, 3))
        whole = ball_query(pts, centers, 0.3, 12)
        monkeypatch.setattr(geometry, "_CHUNK", 16)
        assert np.array_equal(ball_query(pts, centers, 0.3, 12), whole)

    def test_rejects_bad_input(self, rng):
        pts = rng.normal(size=(10, 3))
        with pytest.raises(ShapeError):
            ball_query(pts, [0.0, 0.0, 0.0], 1.0, 4)
        with pytest.raises(SizeError):
            ball_query(np.empty((0, 3)), [[0.0, 0.0, 0.0]], 1.0, 4)
        with pytest.raises(SizeError):
            ball_query(pts, [[0.0, 0.0, 0.0]], 0.0, 4)
        with pytest.raises(SizeError):
            ball_query(pts, [[0.0, 0.0, 0.0]], 1.0, 0)


class TestNormalsCurvature:
    def test_plane_gives_vertical_normals_zero_curvature(self, rng):
        xy = rng.uniform(-1, 1, size=(400, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        normals, curv, degen = estimate_normals_curvature(pts, k=12)
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.all(normals[:, 2] > 0)
        assert np.all(curv <= 1e-6)
        assert not degen.any()

    def test_sphere_normals_near_radial(self, rng):
        # Smaller twin of the timed acceptance check.
        r = 0.05
        v = rng.normal(size=(2000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = r * v
        normals, curv, _ = estimate_normals_curvature(pts, k=30)
        radial = np.sign(v[:, 2])[:, None] * v
        radial[v[:, 2] == 0] = v[v[:, 2] == 0]
        cos = np.abs(np.sum(normals * v, axis=1))
        ang = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert np.mean(ang) < 5.0
        assert curv.min() >= 0.0 and curv.max() <= CURVATURE_MAX + 1e-12

    def test_normals_unit_and_upward(self, rng):
        pts = rng.normal(size=(200, 3))
        normals, curv, _ = estimate_normals_curvature(pts, k=10)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
        assert np.all(normals[:, 2] >= 0)
        assert np.all((curv >= 0) & (curv <= CURVATURE_MAX + 1e-12))

    def test_coincident_neighborhood_flagged_degenerate(self):
        pts = np.zeros((10, 3))
        normals, curv, degen = estimate_normals_curvature(pts, k=5)
        assert degen.all()
        assert np.allclose(normals, [0, 0, 1])
        assert np.all(curv == 0)


class TestIdw:
    def test_weights_sum_to_one(self, rng):
        src = rng.normal(size=(50, 3))
        dst = rng.normal(size=(20, 3))
        _, w = idw_weights(src, dst, k=3)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_coincident_point_copies_exactly(self, rng):
        src = rng.normal(size=(30, 3))
        dst = np.vstack([src[13], rng.normal(size=3)])
        idx, w = idw_weights(src, dst, k=3)
        assert idx[0, 0] == 13
        assert w[0].tolist() == [1.0, 0.0, 0.0]

    def test_equidistant_pair_averages(self):
        src = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        idx, w = idw_weights(src, np.array([[0.0, 0, 0]]), k=2)
        assert idx.tolist() == [[0, 1]]
        assert w[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_direct_formula(self, rng):
        src = rng.uniform(-1, 1, size=(40, 3))
        feats = rng.normal(size=(40, 2))
        dst = rng.uniform(-1, 1, size=(15, 3))
        k = 3
        idx, w = idw_weights(src, dst, k=k)
        out = np.einsum("dk,dkf->df", w, feats[idx])
        for d in range(len(dst)):
            d2 = np.sum((src - dst[d]) ** 2, axis=1)
            nearest = np.argsort(d2)[:k]
            assert np.array_equal(idx[d], nearest)
            wd = 1.0 / d2[nearest]
            want = (wd[:, None] * feats[nearest]).sum(axis=0) / wd.sum()
            assert np.allclose(out[d], want, atol=1e-10)

    def test_translation_invariant_stencil(self, rng):
        # Quantized coordinates make the shifts exact, so the difference
        # form inside the stencil must cancel the translation bitwise.
        q = 2.0**-20
        src = np.round(rng.uniform(-1, 1, size=(25, 3)) / q) * q
        dst = np.round(rng.uniform(-1, 1, size=(10, 3)) / q) * q
        t = np.round(np.array([3.7, -1.2, 0.4]) / q) * q
        i0, w0 = idw_weights(src, dst, k=3)
        i1, w1 = idw_weights(src + t, dst + t, k=3)
        assert np.array_equal(i0, i1)
        assert np.array_equal(w0, w1)


class TestHeightmap:
    def test_single_point(self):
        hm = to_heightmap(np.array([[0.05, 0.05, 0.1]]), (0, 0.1, 0, 0.1), 0.1)
        assert hm.heights.shape == (1, 1)
        assert hm.heights[0, 0] == 0.1
        assert hm.occupied[0, 0]

    def test_max_rule_within_cell(self):
        pts = np.array([[0.05, 0.05, 0.1], [0.04, 0.06, 0.2]])
        hm = to_heightmap(pts, (0, 0.1, 0, 0.1), 0.1)
        assert hm.heights[0, 0] == 0.2

    def test_unoccupied_cells_copy_nearest(self):
        pts = np.array([[0.05, 0.05, 0.3]])
        hm = to_heightmap(pts, (0, 0.3, 0, 0.1), 0.1)
        assert hm.occupied.sum() == 1
        assert np.all(hm.heights == 0.3)

    def test_all_outside_gives_unoccupied_zeros(self):
        hm = to_heightmap(np.array([[5.0, 5.0, 1.0]]), (0, 1, 0, 1), 0.5)
        assert not hm.occupied.any()
        assert np.all(hm.heights == 0.0)

    def test_height_at_clamps_to_grid(self, rng):
        pts = rng.uniform(0, 1, size=(200, 3))
        hm = to_heightmap(pts, (0, 1, 0, 1), 0.25)
        assert hm.height_at(-10, -10) == hm.heights[0, 0]
        assert hm.height_at(10, 10) == hm.heights[-1, -1]

    def test_flat_floor(self, rng):
        xy = rng.uniform(0, 1, size=(5000, 2))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        hm = to_heightmap(pts, (0, 1, 0, 1), 0.1)
        assert np.all(hm.heights == 0.0)
        assert hm.occupied.all()

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ShapeError):
            to_heightmap(np.zeros((1, 3)), (0, 0, 0, 1), 0.1)
        with pytest.raises(ShapeError):
            to_heightmap(np.zeros((1, 3)), (0, 1, 0, 1), 0.0)


class TestXyzl:
    def test_bare_round_trip(self, rng, tmp_path):
        cloud = PointCloud(rng.uniform(-1, 1, size=(57, 3)))
        p = tmp_path / "bare.xyzl"
        save_xyzl(p, cloud)
        back = load_xyzl(p)
        assert back.normals is None
        assert np.allclose(back.points, cloud.points, atol=1e-8)

    def test_labeled_round_trip(self, rng, tmp_path):
        pts = rng.uniform(-1, 1, size=(40, 3))
        normals, curv, _ = estimate_normals_curvature(pts, k=8)
        cloud = PointCloud(pts, normals, curv)
        p = tmp_path / "lab.xyzl"
        save_xyzl(p, cloud)
        back = load_xyzl(p)
        assert np.allclose(back.points, pts, atol=1e-8)
        assert np.allclose(back.normals, normals, atol=1e-7)
        assert np.allclose(back.curvature, curv, atol=1e-8)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("# header\n\n1 2 3\n4 5 6 # trailing note\n")
        back = load_xyzl(p)
        assert np.array_equal(back.points, [[1, 2, 3], [4, 5, 6]])

    def test_wrong_field_count_is_an_error(self, tmp_path):
        p = tmp_path / "bad.xyzl"
        p.write_text("1 2\n")
        with pytest.raises(ShapeError):
            load_xyzl(p)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "empty.xyzl"
        p.write_text("# nothing\n")
        with pytest.raises(EmptyObservationError):
            load_xyzl(p)


class TestPointCloudType:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            PointCloud(np.array([[np.nan, 0, 0]]))

    def test_rejects_non_unit_normals(self):
        pts = np.zeros((1, 3))
        with pytest.raises(ShapeError):
            PointCloud(pts, normals=np.array([[2.0, 0, 0]]))
