import numpy as np
import pytest

from digrl.config import get_profile
from digrl.errors import EmptyObservationError, ShapeError, SizeError
from digrl.geometry import (
    CURVATURE_MAX,
    PointCloud,
    ball_query,
    estimate_normals_curvature,
    fps,
    idw_interpolate,
    idw_weights,
    knn,
    load_xyzl,
    save_xyzl,
    to_heightmap,
)
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


@pytest.fixture(scope="module")
def desk_crop(small_scene):
    """The full 132 x 80 ray crop of a rendered scene, unsampled."""
    return observe(small_scene, SensorConfig(fps_target=10 ** 6)).points


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


class TestKnn:
    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 300))
            pts = rng.uniform(-2, 2, size=(n, 3))
            q = rng.uniform(-2, 2, size=3)
            k = int(rng.integers(1, n + 1))
            got = knn(pts, q, k)
            d2 = np.sum((pts - q) ** 2, axis=1)
            want = np.argsort(d2, kind="stable")[:k]
            assert np.array_equal(got, want)

    def test_nearest_first_ordering(self, rng):
        pts = rng.normal(size=(80, 3))
        q = np.zeros(3)
        idx = knn(pts, q, 10)
        d = np.linalg.norm(pts[idx] - q, axis=1)
        assert np.all(np.diff(d) >= -1e-15)

    def test_tie_breaks_to_lower_index(self):
        # Two points equidistant from the origin: index order decides.
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        assert np.array_equal(knn(pts, [0, 0, 0], 2), [0, 1])

    def test_rejects_empty_and_bad_k(self, rng):
        with pytest.raises(SizeError):
            knn(np.empty((0, 3)), [0, 0, 0], 1)
        with pytest.raises(SizeError):
            knn(rng.normal(size=(4, 3)), [0, 0, 0], 5)


class TestBallQuery:
    def test_matches_brute_force_filter(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 400))
            pts = rng.uniform(-1, 1, size=(n, 3))
            c = rng.uniform(-1, 1, size=3)
            r = float(rng.uniform(0.05, 1.2))
            max_k = int(rng.integers(1, 40))
            got = ball_query(pts, c, r, max_k)
            d2 = np.sum((pts - c) ** 2, axis=1)
            order = np.argsort(d2, kind="stable")
            inside = order[d2[order] <= r * r]
            want = inside[:max_k] if len(inside) else order[:1]
            assert np.array_equal(got, want)

    def test_far_center_falls_back_to_nearest(self, rng):
        pts = rng.normal(size=(50, 3))
        got = ball_query(pts, [100.0, 0, 0], 0.01, 8)
        d2 = np.sum((pts - [100.0, 0, 0]) ** 2, axis=1)
        assert len(got) == 1 and got[0] == np.argmin(d2)

    def test_covering_radius_returns_everything(self, rng):
        pts = rng.uniform(-0.1, 0.1, size=(20, 3))
        got = ball_query(pts, [0, 0, 0], 10.0, 50)
        assert sorted(got) == list(range(20))

    def test_respects_max_k(self, rng):
        pts = rng.uniform(-0.1, 0.1, size=(30, 3))
        assert len(ball_query(pts, [0, 0, 0], 10.0, 7)) == 7


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
        feats = rng.normal(size=(30, 5))
        dst = np.vstack([src[13], rng.normal(size=3)])
        out = idw_interpolate(src, feats, dst, k=3)
        assert np.array_equal(out[0], feats[13])

    def test_equidistant_pair_averages(self):
        src = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        feats = np.array([[2.0], [6.0]])
        out = idw_interpolate(src, feats, np.array([[0.0, 0, 0]]), k=2)
        assert out[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        src = rng.uniform(-1, 1, size=(40, 3))
        feats = rng.normal(size=(40, 2))
        dst = rng.uniform(-1, 1, size=(15, 3))
        k = 3
        out = idw_interpolate(src, feats, dst, k=k)
        for d in range(len(dst)):
            d2 = np.sum((src - dst[d]) ** 2, axis=1)
            nearest = np.argsort(d2)[:k]
            w = 1.0 / d2[nearest]
            want = (w[:, None] * feats[nearest]).sum(axis=0) / w.sum()
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
