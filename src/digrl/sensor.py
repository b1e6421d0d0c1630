"""Top-down depth sensing of a scene: surface rays, crop, downsample, labels.

The sensor is an orthographic ray grid looking straight down at the tray.
Each ray keeps the highest surface it meets (an object's top envelope or the
tray floor), so occlusion falls out of a per-cell max and no returned point
can sit under another body's top surface. The render visits bodies from the
highest top down and skips every cell that already lies above a body's top,
so buried bodies cost almost nothing and the heights keep their bits. One
``face_planes`` call per render builds the planes of every body, laid end to
end; each body the culling keeps reads its own slice. The grid is emitted
x-major, so a crop of it has the non-decreasing x that lets ``fps`` update
one contiguous slab per pick.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .config import AttackRanges
from .errors import EmptyObservationError, ShapeError
from .geometry import HeightMap, PointCloud, estimate_normals_curvature, fps
from .scenegen import _PRUNE_MARGIN, Scene, _laid_end_to_end, face_planes, vertical_envelopes

DEFAULT_RAY_PITCH = 0.005  # m; ~16k rays over the default tray footprint
STEEP_NZ = 0.35      # below this the upward-flip convention stops pinning the sign
_SIDE_OFFSET = 0.02  # m; distance to each side of a steep face when comparing ground
_SIDE_RADIUS = 0.015  # m; disk radius for the side height samples


@dataclass
class SensorConfig:
    ray_pitch: float = DEFAULT_RAY_PITCH
    noise_sigma: float = 0.0  # stddev of additive z noise, metres
    fps_target: int = 7000
    crop_x: tuple[float, float] = AttackRanges().x
    crop_y: tuple[float, float] = AttackRanges().y


@dataclass
class ObservationCloud:
    """Sensor output: points in the tray frame plus ground-truth metadata."""

    cloud: PointCloud
    object_count: int | None = None
    heightmap: HeightMap | None = None

    @property
    def points(self) -> np.ndarray:
        return self.cloud.points

    def __len__(self) -> int:
        return len(self.cloud)


def _ray_axes(tray, cfg: SensorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Centres of the ray columns along x and along y."""
    if cfg.ray_pitch <= 0:
        raise ShapeError("ray pitch must be positive")
    (x0, x1), (y0, y1) = tray.x_range, tray.y_range
    nx = max(1, int(round((x1 - x0) / cfg.ray_pitch)))
    ny = max(1, int(round((y1 - y0) / cfg.ray_pitch)))
    return x0 + (np.arange(nx) + 0.5) * cfg.ray_pitch, y0 + (np.arange(ny) + 0.5) * cfg.ray_pitch


def _surface_grid(scene: Scene, cfg: SensorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-grid axes and per-cell surface heights over the tray floor.

    A cell's height is the maximum over the floor and every body's upper
    envelope, so bodies may come in any order. Taken from the top down, a
    body evaluates only the cells of its footprint box below its top plus
    ``_PRUNE_MARGIN``, a bound no envelope value of it passes (see the
    margin's comment in ``scenegen``), so the skipped cells keep their bits.
    The planes, boxes and tops of all bodies come from one pass over their
    world meshes laid end to end; ``face_planes`` works face by face, so
    each body's planes have the bits they would have alone.
    """
    tray = scene.tray
    xs, ys = _ray_axes(tray, cfg)
    x0, y0 = tray.x_range[0], tray.y_range[0]
    nx, ny = len(xs), len(ys)
    heights = np.full((nx, ny), tray.floor_z, dtype=np.float64)
    if not scene.placed:
        return xs, ys, heights
    verts, faces, vert_starts, n_faces = _laid_end_to_end(
        [p.world_vertices() for p in scene.placed], [p.obj.faces for p in scene.placed]
    )
    normals, offsets = face_planes(verts, faces)
    los = np.minimum.reduceat(verts, vert_starts)
    his = np.maximum.reduceat(verts, vert_starts)
    # Per body: its footprint box's window of ray cells, clipped to the
    # grid, and its run of planes.
    first = np.maximum(0, np.floor((los[:, :2] - (x0, y0)) / cfg.ray_pitch - 0.5))
    last = np.minimum((nx - 1, ny - 1), np.ceil((his[:, :2] - (x0, y0)) / cfg.ray_pitch))
    plane_ends = np.cumsum(n_faces)
    runs = np.column_stack([first, last, plane_ends - n_faces, plane_ends])
    runs = runs.astype(np.int64).tolist()
    tops = his[:, 2]
    for k in np.argsort(-tops, kind="stable").tolist():
        i0, j0, i1, j1, p0, p1 = runs[k]
        if i1 < i0 or j1 < j0:
            continue
        ii, jj = np.nonzero(heights[i0 : i1 + 1, j0 : j1 + 1] < tops[k] + _PRUNE_MARGIN)
        if len(ii) == 0:
            continue
        ii, jj = ii + i0, jj + j0
        cols = np.stack([xs[ii], ys[jj]], axis=1)
        _, z_high, feasible = vertical_envelopes(normals[p0:p1], offsets[p0:p1], cols)
        sel = feasible & (z_high > heights[ii, jj])
        heights[ii[sel], jj[sel]] = z_high[sel]
    return xs, ys, heights


def _grid_heightmap(xs: np.ndarray, ys: np.ndarray, heights: np.ndarray, cfg: SensorConfig) -> HeightMap:
    return HeightMap(
        origin=np.array([xs[0] - 0.5 * cfg.ray_pitch, ys[0] - 0.5 * cfg.ray_pitch]),
        resolution=cfg.ray_pitch,
        heights=heights,
        occupied=np.ones(heights.shape, dtype=bool),
    )


def scene_heightmap(scene: Scene, cfg: SensorConfig) -> HeightMap:
    """Noise-free surface heights of the whole tray as a grid."""
    return _grid_heightmap(*_surface_grid(scene, cfg), cfg)


def _with_noise(pts: np.ndarray, cfg: SensorConfig, rng: np.random.Generator | None) -> np.ndarray:
    """``pts`` with additive z noise of ``cfg.noise_sigma``; a copy when noisy."""
    if cfg.noise_sigma > 0.0:
        if rng is None:
            raise ShapeError("noisy sensing needs an rng")
        pts = pts.copy()
        pts[:, 2] += rng.normal(0.0, cfg.noise_sigma, size=len(pts))
    return pts


def render_surface(scene: Scene, cfg: SensorConfig, rng: np.random.Generator | None = None) -> PointCloud:
    """Cast the full ray grid over the tray floor and return one point per ray."""
    xs, ys, heights = _surface_grid(scene, cfg)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1), heights.reshape(-1)], axis=1)
    return PointCloud(_with_noise(pts, cfg, rng))


def observe(
    scene: Scene, cfg: SensorConfig, rng: np.random.Generator | None = None
) -> ObservationCloud:
    """Render, crop to the excavation range, and downsample to the FPS target.

    Clouds already at or below the target size pass through unsampled. The
    scene's true object count and its noise-free heightmap (equal to
    :func:`scene_heightmap`) ride along as metadata for supervision and
    planning; policies must only consume the points.
    """
    # One render serves both outputs: noise goes onto the points only.
    clean = render_surface(scene, replace(cfg, noise_sigma=0.0)).points
    xs, ys = _ray_axes(scene.tray, cfg)
    hmap = _grid_heightmap(xs, ys, clean[:, 2].reshape(len(xs), len(ys)).copy(), cfg)
    pts = _with_noise(clean, cfg, rng)
    keep = (
        (pts[:, 0] >= cfg.crop_x[0])
        & (pts[:, 0] <= cfg.crop_x[1])
        & (pts[:, 1] >= cfg.crop_y[0])
        & (pts[:, 1] <= cfg.crop_y[1])
    )
    cropped = pts[keep]
    if len(cropped) == 0:
        raise EmptyObservationError("sensor crop produced zero points")
    if len(cropped) > cfg.fps_target:
        cropped = cropped[fps(cropped, cfg.fps_target)]
    return ObservationCloud(PointCloud(cropped), object_count=scene.object_count, heightmap=hmap)


def _orient_steep_downhill(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Flip near-vertical normals so they face the lower side of their wall.

    The upward flip that fixes normal signs elsewhere is numerical noise on a
    wall: two neighbouring points of one face can come out pointing opposite
    ways, which turns any regression against these labels into a coin toss.
    For those points the informative sign is horizontal, and the material of
    a face always looks out over lower ground, so compare the observed
    surface height a short step to either side and point at the lower one.
    """
    nz = normals[:, 2]
    horiz = np.hypot(normals[:, 0], normals[:, 1])
    steep = np.flatnonzero((np.abs(nz) < STEEP_NZ) & (horiz > 1e-12))
    if len(steep) == 0:
        return normals
    xy = points[:, :2]
    z = points[:, 2]
    tree = cKDTree(xy)
    d = normals[steep, :2] / horiz[steep, None]
    ahead = tree.query_ball_point(xy[steep] + _SIDE_OFFSET * d, _SIDE_RADIUS)
    behind = tree.query_ball_point(xy[steep] - _SIDE_OFFSET * d, _SIDE_RADIUS)
    out = normals.copy()
    for row, (ia, ib) in enumerate(zip(ahead, behind)):
        if ia and ib and z[ia].mean() > z[ib].mean() + 1e-9:
            out[steep[row]] = -out[steep[row]]
    return out


def label_observation(obs: ObservationCloud, k: int = 30) -> ObservationCloud:
    """Attach PCA normal and curvature labels computed on the observed cloud.

    Normals come out of the estimator facing up; near-vertical ones are then
    re-oriented to face downhill so labels stay consistent along walls.
    """
    normals, curvature, _ = estimate_normals_curvature(obs.cloud.points, k)
    normals = _orient_steep_downhill(obs.cloud.points, normals)
    return replace(obs, cloud=PointCloud(obs.cloud.points, normals, curvature))
