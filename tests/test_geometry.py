import numpy as np
import pytest

from digrl import geometry, sensor
from digrl.config import get_profile
from digrl.errors import EmptyObservationError, ShapeError, SizeError
from digrl.geometry import (
    CURVATURE_MAX,
    HeightMap,
    PointCloud,
    ball_query,
    estimate_normals_curvature,
    _sq_dist,
    fps,
    idw_weights,
    load_xyzl,
    save_xyzl,
)
from digrl.repnet import LEVEL_GROUP_SIZES, LEVEL_RADII
from digrl.scenegen import spawn_scene
from digrl.sensor import observe


def fps_oracle(pts, n):
    """Greedy max-min reference from point 0, written point-at-a-time on purpose."""
    chosen = [0]
    for _ in range(n - 1):
        best_i, best_d = -1, -1.0
        for i in range(len(pts)):
            d = min(float(np.sum((pts[i] - pts[j]) ** 2)) for j in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.array(chosen)


def fps_reference(pts, n):
    """The unpruned vectorised greedy loop from point 0: every pick updates every point."""
    selected = np.empty(n, dtype=np.int64)
    selected[0] = 0
    min_d2 = np.sum((pts - pts[0]) ** 2, axis=1)
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


def neighbor_indices_reference(pts, k):
    """The chunked brute-force kNN that the PCA labels rank by.

    Per ``geometry._CHUNK`` block: expanded squared distances
    (|a|^2 - 2 a.b) + |b|^2 to every point, the k smallest by
    ``argpartition``, ordered by a stable ``argsort``.
    """
    n = len(pts)
    out = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, geometry._CHUNK):
        hi = min(lo + geometry._CHUNK, n)
        block = pts[lo:hi]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ pts.T
            + np.sum(pts**2, axis=1)[None, :]
        )
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        order = np.argsort(d2[rows, part], kind="stable", axis=1)
        out[lo:hi] = part[rows, order]
    return out


def ball_query_brute(pts, centers, radius, max_k):
    """The chunked brute force ``ball_query`` replaced: every center against every point."""
    r2 = radius * radius
    out = np.full((len(centers), max_k), -1, dtype=np.int64)
    step = min(geometry._CHUNK, max(1, 2**17 // len(pts)))
    for lo in range(0, len(centers), step):
        hi = min(lo + step, len(centers))
        d2 = np.sum((pts[None, :, :] - centers[lo:hi, None, :]) ** 2, axis=-1)
        inside = d2 <= r2
        rows, cols = np.nonzero(inside)
        order = np.lexsort((d2[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        counts = np.count_nonzero(inside, axis=1)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rank < max_k
        out[lo + rows[keep], rank[keep]] = cols[keep]
        empty = np.flatnonzero(counts == 0)
        out[lo + empty, 0] = np.argmin(d2[empty], axis=1)
    return out


def idw_brute(src, dst, k):
    """The chunked brute force ``idw_weights`` replaced: every dst point against every source."""
    idx = np.empty((len(dst), k), dtype=np.int64)
    weights = np.empty((len(dst), k), dtype=np.float64)
    for lo in range(0, len(dst), geometry._CHUNK):
        hi = min(lo + geometry._CHUNK, len(dst))
        d2 = np.sum((dst[lo:hi, None, :] - src[None, :, :]) ** 2, axis=-1)
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        order = np.argsort(d2[rows, part], kind="stable", axis=1)
        nearest = part[rows, order]
        nd2 = d2[rows, nearest]
        exact = nd2[:, 0] == 0.0
        with np.errstate(divide="ignore"):
            w = 1.0 / nd2
        w[exact] = 0.0
        w[exact, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        idx[lo:hi] = nearest
        weights[lo:hi] = w
    return idx, weights


def rows_redone(fn, *args):
    """``fn(*args)`` and how many rows it rebuilt by brute force.

    The rebuilt rows are counted on the ``argpartition`` calls that
    ``_knn_indices`` and ``idw_weights`` make through their module's ``np``.
    """
    redone = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argpartition(a, kth, axis):
            redone.append(len(a))
            return np.argpartition(a, kth, axis=axis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "np", CountingNumpy())
        out = fn(*args)
    return out, sum(redone)


def knn_rows_redone(pts, k):
    """``_knn_indices(pts, k)`` and how many of its rows were rebuilt in full."""
    return rows_redone(geometry._knn_indices, pts, k)


def assert_idw_matches_brute(src, dst, k):
    """Same stencil bits as the brute force; returns the rows redone."""
    (idx, w), redone = rows_redone(idw_weights, src, dst, k)
    want_idx, want_w = idw_brute(src, dst, k)
    assert np.array_equal(idx, want_idx)
    assert w.tobytes() == want_w.tobytes()
    return redone


def pca_labels(pts, k):
    """``estimate_normals_curvature(pts)`` over neighborhoods of ``k`` points."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "PCA_K", k)
        return estimate_normals_curvature(pts)


def assert_labels_match_reference(pts, k):
    """Same index matrix and label bytes as the brute force; returns the rows redone."""
    idx, redone = knn_rows_redone(pts, k)
    assert np.array_equal(idx, neighbor_indices_reference(pts, k))
    got = pca_labels(pts, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_knn_indices", neighbor_indices_reference)
        want = pca_labels(pts, k)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    return redone


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
    return observe(small_scene, 10 ** 6).points


# One object count from each of the five scene-dataset strata (50-300).
STRATA_COUNTS = (75, 125, 175, 225, 275)


@pytest.fixture(scope="module")
def strata_crops():
    """Desk observations (2,048 FPS points), noise-free and at 3 mm, per stratum."""
    crops = {}
    for count in STRATA_COUNTS:
        scene = spawn_scene(seed=count, count_range=(count, count))
        for sigma in (0.0, 0.003):
            crops[count, sigma] = observe(scene, 2048, np.random.default_rng(count), sigma).points
    return crops


@pytest.fixture(scope="module")
def crop_250():
    """A desk observation (2,048 FPS points) of a settled 250-object scene."""
    scene = spawn_scene(seed=5, count_range=(250, 250))
    return observe(scene, 2048).points


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

    def test_full_sample_of_sorted_grid(self):
        grid = TIE_HEAVY["flat-grid"]
        idx = fps(grid, len(grid))
        assert sorted(idx) == list(range(len(grid)))
        assert np.array_equal(idx, fps_reference(grid, len(grid)))

    def test_one_point_cloud(self):
        assert fps(np.array([[0.1, -0.2, 0.3]]), 1).tolist() == [0]

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

        def recording(cloud, n):
            seen.append(np.array(cloud))
            return fps(cloud, n)

        monkeypatch.setattr(sensor, "fps", recording)
        observe(small_scene, 2048, np.random.default_rng(5), noise)
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
        idx = fps(pts, 5)
        assert idx[0] == 0
        assert np.array_equal(idx, fps_reference(pts, 5))

    def test_full_sample_is_permutation(self, rng):
        pts = rng.normal(size=(25, 3))
        idx = fps(pts, 25)
        assert sorted(idx) == list(range(25))
        assert np.array_equal(idx, fps_reference(pts, 25))

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
        for n, r, k in zip(p.level_points, LEVEL_RADII, LEVEL_GROUP_SIZES):
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
        normals, curv = pca_labels(pts, 12)
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.all(normals[:, 2] > 0)
        assert np.all(curv <= 1e-6)

    def test_sphere_normals_near_radial(self, rng):
        # Smaller twin of the timed acceptance check.
        r = 0.05
        v = rng.normal(size=(2000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = r * v
        normals, curv = estimate_normals_curvature(pts)
        radial = np.sign(v[:, 2])[:, None] * v
        radial[v[:, 2] == 0] = v[v[:, 2] == 0]
        cos = np.abs(np.sum(normals * v, axis=1))
        ang = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert np.mean(ang) < 5.0
        assert curv.min() >= 0.0 and curv.max() <= CURVATURE_MAX + 1e-12

    def test_normals_unit_and_upward(self, rng):
        pts = rng.normal(size=(200, 3))
        normals, curv = pca_labels(pts, 10)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
        assert np.all(normals[:, 2] >= 0)
        assert np.all((curv >= 0) & (curv <= CURVATURE_MAX + 1e-12))

    def test_coincident_neighborhood_flagged_degenerate(self):
        pts = np.zeros((10, 3))
        normals, curv = pca_labels(pts, 5)
        assert np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (10, 1)))
        assert np.all(curv == 0)


class TestKnnIndices:
    """The KD-tree path against the brute force it certifies rows for."""

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    @pytest.mark.parametrize("count", STRATA_COUNTS)
    def test_matches_reference_on_desk_crops(self, strata_crops, count, sigma):
        assert_labels_match_reference(strata_crops[count, sigma], 30)

    @pytest.mark.parametrize("k", [1, 2, 5, 30, "n"])
    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_reference_on_ties(self, name, k):
        pts = TIE_HEAVY[name]
        assert_labels_match_reference(pts, len(pts) if k == "n" else k)

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (9, 4), (10, 5), (13, 5), (14, 5), (38, 30), (39, 30)])
    def test_matches_reference_on_clouds_within_the_spare(self, rng, n, k):
        pts = rng.uniform(-1, 1, size=(n, 3))
        assert_labels_match_reference(pts, k)
        # A 3 x 3 grid has ties at every k.
        grid = TIE_HEAVY["flat-grid"][[0, 1, 2, 25, 26, 27, 50, 51, 52]]
        assert_labels_match_reference(grid, min(k, len(grid)))

    def test_small_chunks_match_reference(self, strata_crops, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK", 16)
        assert 0 < assert_labels_match_reference(strata_crops[75, 0.0], 30)

    def test_certified_and_redone_rows_both_occur(self, strata_crops):
        # The flat floor of a noise-free render ties the k-th distance on
        # some rows; noise breaks those ties.
        _, redone = knn_rows_redone(strata_crops[75, 0.0], 30)
        assert 0 < redone < 2048 // 2
        _, redone = knn_rows_redone(strata_crops[75, 0.003], 30)
        assert redone < 2048 // 100
        # Every lattice row ties at its 5th distance.
        pts = TIE_HEAVY["lattice-far"]
        _, redone = knn_rows_redone(pts, 5)
        assert redone == len(pts)

    def test_rounding_bound_far_from_the_origin(self, rng):
        # 30 centres 1e5 m out, each with 40 points on a 0.1 m sphere around
        # it. The expanded form's rounding, about 1e-5 m^2 there, reorders
        # each sphere, so on some rows without ties the 2nd nearest by
        # expanded value is none of the tree's candidates.
        centres = np.column_stack([np.full(30, 1e5), 10.0 * np.arange(30), np.zeros(30)])
        v = rng.normal(size=(30, 40, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        pts = np.concatenate([centres[:, None], centres[:, None] + 0.1 * v], axis=1).reshape(-1, 3)
        redone = assert_labels_match_reference(pts, 2)
        assert 0 < redone < len(pts)


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
        # A third, farther source keeps k below the source count.
        src = np.array([[-1.0, 0, 0], [1.0, 0, 0], [0.0, 3.0, 0]])
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


    def test_chunks_match_one_block(self, monkeypatch):
        # Rows the tree cannot certify are rebuilt by brute force in
        # ``geometry._CHUNK`` blocks: 112 rows here, one block by default.
        src = TIE_HEAVY["lattice-far"]
        dst = src + (0.0025, 0.0025, 0.0)
        want_idx, want_w = idw_brute(src, dst, 3)
        (idx, w), redone = rows_redone(idw_weights, src, dst, 3)
        assert 3 * 16 < redone <= geometry._CHUNK
        monkeypatch.setattr(geometry, "_CHUNK", 16)
        (idx16, w16), redone16 = rows_redone(idw_weights, src, dst, 3)
        assert redone16 == redone
        for got_idx, got_w in ((idx, w), (idx16, w16)):
            assert np.array_equal(got_idx, want_idx)
            assert got_w.tobytes() == want_w.tobytes()


class TestTreeQueriesMatchBruteForce:
    """``ball_query`` and ``idw_weights`` give the brute force's rows, bit for bit."""

    def test_desk_crops_and_their_jitter(self, crop_250, strata_crops):
        p = get_profile("desk")
        rng = np.random.default_rng(11)
        redone = rows = 0
        for cloud in (crop_250, *strata_crops.values()):
            # train_rep's case: the whole cloud under one planar translation.
            shift = np.zeros(3)
            shift[:2] = rng.uniform(-0.1, 0.1, size=2)
            for pts in (cloud, cloud + shift):
                positions = [pts]
                for n, r, k in zip(p.level_points, LEVEL_RADII, LEVEL_GROUP_SIZES):
                    prev = positions[-1]
                    centers = prev[fps(prev, n)]
                    got = ball_query(prev, centers, r, k)
                    assert np.array_equal(got, ball_query_brute(prev, centers, r, k))
                    positions.append(centers)
                for src, dst in zip(positions[:0:-1], positions[-2::-1]):
                    redone += assert_idw_matches_brute(src, dst, min(3, len(src)))
                    rows += len(dst)
        # The tree's ranking settles nearly every row.
        assert redone < 0.01 * rows

    @pytest.mark.parametrize("name", ["flat-grid", "lattice-far", "duplicates", "quantized"])
    def test_tie_heavy_clouds(self, name):
        if name == "quantized":
            q = 2.0**-6
            pts = np.round(np.random.default_rng(4).uniform(-0.2, 0.2, size=(400, 3)) / q) * q
            step = q / 2
        else:
            pts, step = TIE_HEAVY[name], 0.0025
        # On the points and halfway between them, many sources are equidistant.
        dst = np.concatenate([pts, pts + (step, 0.0, 0.0), pts + (step, step, 0.0)])
        redone = sum(assert_idw_matches_brute(pts, dst, k) for k in (1, 3, 4))
        assert 0 < redone
        for r in (step, 2 * step, 3 * step):
            assert np.array_equal(ball_query(pts, dst, r, 9), ball_query_brute(pts, dst, r, 9))

    def test_off_cloud_centers(self, crop_250):
        rng = np.random.default_rng(2)
        lo, hi = crop_250.min(axis=0), crop_250.max(axis=0)
        centers = np.concatenate([rng.uniform(lo, hi, size=(300, 3)), [[5.0, 5.0, 5.0]]])
        d2 = np.sum((crop_250[None, :, :] - centers[:, None, :]) ** 2, axis=-1)
        for r in (0.005, 0.02, 0.05):
            empty = np.count_nonzero((d2 <= r * r).sum(axis=1) == 0)
            assert 0 < empty < len(centers)
            got = ball_query(crop_250, centers, r, 32)
            assert np.array_equal(got, ball_query_brute(crop_250, centers, r, 32))

    def test_k_below_the_source_count(self, rng):
        for n in (2, 3, 5):
            src = rng.uniform(-1, 1, size=(n, 3))
            dst = np.concatenate([rng.uniform(-1, 1, size=(40, 3)), src])
            for k in range(1, n):
                assert_idw_matches_brute(src, dst, k)
            # The encoder's levels always hold more points than its stencil takes.
            with pytest.raises(SizeError, match=f"k={n} out of range for {n} source points"):
                idw_weights(src, dst, k=n)
        # Ties at the k-th distance rank as the brute force ranks them.
        src = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        for k in (2, 3):
            assert_idw_matches_brute(src, np.zeros((1, 3)), k)


class TestHeightmap:
    def test_height_at_clamps_to_grid(self, rng):
        hm = HeightMap(
            origin=np.array([0.0, 0.0]), resolution=0.25, heights=rng.uniform(0, 1, size=(4, 4))
        )
        assert hm.height_at(-10, -10) == hm.heights[0, 0]
        assert hm.height_at(10, 10) == hm.heights[-1, -1]
        assert hm.height_at(0.3, 0.6) == hm.heights[1, 2]


def save_xyzl_reference(path, cloud):
    """The per-point writer: one ``fh.write`` per line."""
    with open(path, "w") as fh:
        fh.write("# digrl point cloud, %d points, labeled\n" % len(cloud))
        for p, nrm, c in zip(cloud.points, cloud.normals, cloud.curvature):
            fh.write(
                "%.9g %.9g %.9g %.9g %.9g %.9g %.9g\n"
                % (p[0], p[1], p[2], nrm[0], nrm[1], nrm[2], c)
            )


class TestXyzl:
    def test_labeled_round_trip(self, rng, tmp_path):
        pts = rng.uniform(-1, 1, size=(40, 3))
        normals, curv = pca_labels(pts, 8)
        cloud = PointCloud(pts, normals, curv)
        p = tmp_path / "lab.xyzl"
        save_xyzl(p, cloud)
        back = load_xyzl(p)
        assert np.allclose(back.points, pts, atol=1e-8)
        assert np.allclose(back.normals, normals, atol=1e-7)
        assert np.allclose(back.curvature, curv, atol=1e-8)

    def test_bytes_match_per_line_writer(self, rng, tmp_path):
        pts = rng.uniform(-1, 1, size=(64, 3))
        pts[:3] = [[-0.0, 1e-300, 1e6], [1e6, -0.0, -1e-300], [0.0, -1e6, 123456789.0]]
        normals, curv = pca_labels(pts, 8)
        normals[0] = (-0.0, -0.0, 1.0)
        curv[:3] = (-0.0, 1e-300, 0.0)
        cloud = PointCloud(pts, normals, curv)
        save_xyzl(tmp_path / "a.xyzl", cloud)
        save_xyzl_reference(tmp_path / "b.xyzl", cloud)
        text = (tmp_path / "a.xyzl").read_bytes()
        assert text == (tmp_path / "b.xyzl").read_bytes()
        assert b"\n-0 1e-300 1000000" in text

    def test_empty_cloud_writes_the_header_only(self, tmp_path):
        empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty(0))
        save_xyzl(tmp_path / "a.xyzl", empty)
        save_xyzl_reference(tmp_path / "b.xyzl", empty)
        assert (tmp_path / "a.xyzl").read_bytes() == (tmp_path / "b.xyzl").read_bytes()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.xyzl"
        p.write_text("# header\n\n1 2 3 0 0 1 0.1\n4 5 6 0 0 1 0.2 # trailing note\n")
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

    def test_rejects_non_finite_curvature(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ShapeError, match="curvature contains non-finite values"):
                PointCloud(np.zeros((2, 3)), curvature=np.array([bad, 0.1]))

    def test_rejects_non_unit_normals(self):
        pts = np.zeros((1, 3))
        with pytest.raises(ShapeError):
            PointCloud(pts, normals=np.array([[2.0, 0, 0]]))
