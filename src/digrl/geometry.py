"""Point-cloud primitives: sampling, neighbor queries, PCA surface labels, heightmaps.

All queries are exact, and ties stay reproducible. Neighbor queries are
vectorized brute force, chunked to bound memory; at the cloud sizes this
package works with that is both simpler and faster than an acceleration
structure. ``ball_query`` answers every center of a level in one call and
returns a padded index matrix. Every squared distance taken from coordinate
differences adds the squared x, y and z differences in the order
``np.sum(..., axis=-1)`` would: through ``_sq_dist``, or in ``fps`` by the
same steps into reused buffers. Only the PCA neighborhoods use the expanded
form |a|^2 - 2 a.b + |b|^2. Farthest point sampling updates its distances in
place after each pick: on a cloud whose x is non-decreasing, such as the
sensor's crop, only the contiguous x-slab that can hold a point the pick
moves closer; on any other cloud, every point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyObservationError, ShapeError, SizeError

CURVATURE_MAX = 1.0 / 3.0

# Rows per pairwise-distance block; a 512 x 20k float64 block is 82 MB.
_CHUNK = 512


@dataclass
class PointCloud:
    """Unordered 3D points with optional per-point surface labels.

    ``normals`` rows are unit length (within 1e-6) and oriented toward +z;
    ``curvature`` is the surface-variation ratio, bounded by 1/3 for any
    neighborhood. Either label may be absent.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    curvature: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ShapeError(f"points must be (N, 3), got {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise ShapeError("points contain non-finite values")
        n = len(self.points)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64)
            if self.normals.shape != (n, 3):
                raise ShapeError(f"normals must be ({n}, 3), got {self.normals.shape}")
            norms = np.linalg.norm(self.normals, axis=1)
            if n and not np.all(np.abs(norms - 1.0) <= 1e-6):
                raise ShapeError("normals must be unit length within 1e-6")
        if self.curvature is not None:
            self.curvature = np.asarray(self.curvature, dtype=np.float64)
            if self.curvature.shape != (n,):
                raise ShapeError(f"curvature must be ({n},), got {self.curvature.shape}")
            if n and (self.curvature.min() < -1e-12 or self.curvature.max() > CURVATURE_MAX + 1e-9):
                raise ShapeError("curvature out of [0, 1/3] range")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class HeightMap:
    """Regular x/y grid of surface heights.

    ``heights[i, j]`` covers the cell with x index ``i`` and y index ``j``;
    flat row-major order therefore scans x first, then y. ``occupied`` marks
    cells whose height came from actual points; unoccupied cells are filled
    from their nearest occupied cell.
    """

    origin: np.ndarray  # (2,) lower corner (x_min, y_min)
    resolution: float
    heights: np.ndarray  # (nx, ny)
    occupied: np.ndarray  # (nx, ny) bool

    def cell_center(self, i: int, j: int) -> np.ndarray:
        return self.origin + (np.array([i, j], dtype=np.float64) + 0.5) * self.resolution

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = int(np.floor((x - self.origin[0]) / self.resolution))
        j = int(np.floor((y - self.origin[1]) / self.resolution))
        nx, ny = self.heights.shape
        return min(max(i, 0), nx - 1), min(max(j, 0), ny - 1)

    def height_at(self, x: float, y: float) -> float:
        i, j = self.cell_of(x, y)
        return float(self.heights[i, j])


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"expected (N, 3) points, got {pts.shape}")
    return pts


def fps(cloud, n: int, start: int = 0) -> np.ndarray:
    """Farthest point sampling: greedy max-min-distance subset of ``n`` indices.

    The first index is ``start``; each following index maximizes the minimum
    distance to everything already selected (ties go to the lowest index).

    Each pick ``q`` has the largest squared min-distance ``m`` of the cloud,
    and a point ``p`` can only move closer when ``|p - q|^2 < min_d2[p] <= m``,
    which needs ``|p.x - q.x| < sqrt(m)``. When x is non-decreasing, as in
    the sensor's x-major crops, the points within that x-distance form one
    contiguous slab, found by bisection on x, and only that slab is updated.
    Any other order updates the whole cloud, which at the encoder's sizes
    costs no more than the slab would. Either way the updated distances get
    the bits of ``_sq_dist`` and the argmax runs over the whole cloud, so
    the indices are identical to the unpruned greedy loop, ties included.
    """
    pts = _as_points(cloud)
    total = len(pts)
    if total == 0:
        raise SizeError("cannot sample from an empty cloud")
    if not 0 < n <= total:
        raise SizeError(f"requested {n} samples from a cloud of {total}")
    if not 0 <= start < total:
        raise SizeError(f"start index {start} out of range for {total} points")
    x, y, z = (np.ascontiguousarray(pts[:, k]) for k in range(3))
    bisect = bool((x[1:] >= x[:-1]).all())
    d2_buf, d_buf = np.empty(total), np.empty(total)
    # From inf, the first update (always the whole cloud) sets the distances
    # to ``start`` exactly.
    min_d2 = np.full(total, np.inf)
    selected = np.empty(n, dtype=np.int64)
    selected[0] = nxt = start
    lo, hi = 0, total
    for i in range(1, n):
        # _sq_dist's arithmetic on the slab, into preallocated buffers.
        d2, d = d2_buf[: hi - lo], d_buf[: hi - lo]
        np.subtract(x[lo:hi], x[nxt], out=d2)
        d2 *= d2
        np.subtract(y[lo:hi], y[nxt], out=d)
        d *= d
        d2 += d
        np.subtract(z[lo:hi], z[nxt], out=d)
        d *= d
        d2 += d
        slab = min_d2[lo:hi]
        np.minimum(slab, d2, out=slab)
        # The method skips np.argmax's dispatch wrapper: 2 us of a ~15 us pick.
        nxt = int(min_d2.argmax())
        selected[i] = nxt
        if bisect:
            # The pad outweighs float rounding in the slab bounds and in the
            # distances: a point outside the slab computes d2 >= m >= its
            # min_d2, so a full pass would not have lowered it either.
            qx = float(x[nxt])
            r = math.sqrt(min_d2[nxt]) * (1.0 + 1e-12) + 1e-12 * abs(qx)
            # Python ints slice faster than numpy ones.
            lo, hi = x.searchsorted((qx - r, qx + r)).tolist()
    return selected


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances over the last (xyz) axis, broadcasting ``a`` against ``b``.

    Adds the three squared component differences in x, y, z order, which is
    what ``np.sum((a - b) ** 2, axis=-1)`` does, so the bits are the same;
    it skips the generic axis reduction and the (..., 3) temporaries.
    """
    d2 = a[..., 0] - b[..., 0]
    d2 *= d2
    d = a[..., 1] - b[..., 1]
    d *= d
    d2 += d
    d = np.subtract(a[..., 2], b[..., 2], out=d)
    d *= d
    d2 += d
    return d2


def ball_query(cloud, centers, radius: float, max_k: int) -> np.ndarray:
    """Neighbors within ``radius`` of each of the (G, 3) ``centers``.

    Returns a (G, max_k) int64 matrix padded with -1. Row ``g`` lists up to
    ``max_k`` indices of cloud points inside the ball around ``centers[g]``,
    nearest first, distance ties to the lower index. If nothing falls inside
    a ball its row holds the single nearest point, so downstream grouping
    never sees an empty group.
    """
    pts = _as_points(cloud)
    ctr = np.asarray(centers, dtype=np.float64)
    if ctr.ndim != 2 or ctr.shape[1] != 3:
        raise ShapeError(f"centers must be (G, 3), got {ctr.shape}")
    if len(pts) == 0:
        raise SizeError("ball_query on an empty cloud")
    if radius <= 0 or max_k <= 0:
        raise SizeError("radius and max_k must be positive")
    r2 = radius * radius
    out = np.full((len(ctr), max_k), -1, dtype=np.int64)
    # Blocks of at most 2**17 distances (1 MB) stay in cache: 64 x 2,048 ran
    # a third faster than 512 x 2,048.
    step = min(_CHUNK, max(1, 2**17 // len(pts)))
    for lo in range(0, len(ctr), step):
        hi = min(lo + step, len(ctr))
        d2 = _sq_dist(pts[None, :, :], ctr[lo:hi, None, :])
        inside = d2 <= r2
        rows, cols = np.nonzero(inside)
        # One stable sort of the in-ball entries by (row, d2): within a row
        # equal distances keep nonzero's ascending column order.
        order = np.lexsort((d2[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        counts = np.count_nonzero(inside, axis=1)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rank < max_k
        out[lo + rows[keep], rank[keep]] = cols[keep]
        empty = np.flatnonzero(counts == 0)
        out[lo + empty, 0] = np.argmin(d2[empty], axis=1)
    return out


def _neighbor_indices(pts: np.ndarray, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest neighbors (self included)."""
    n = len(pts)
    out = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
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


def estimate_normals_curvature(
    cloud, k: int = 30
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point PCA surface labels from k-neighborhoods.

    The normal is the eigenvector of the neighborhood covariance with the
    smallest eigenvalue, flipped so its z component is non-negative. The
    curvature is the surface variation lam0 / (lam0 + lam1 + lam2), which
    lives in [0, 1/3]. Neighborhoods that collapse to a point are flagged
    degenerate and get normal (0, 0, 1) and curvature 0.

    Returns (normals (N,3), curvature (N,), degenerate mask (N,)).
    """
    pts = _as_points(cloud)
    n = len(pts)
    if n == 0:
        raise SizeError("cannot label an empty cloud")
    if not 0 < k <= n:
        raise SizeError(f"k={k} out of range for cloud of {n}")
    idx = _neighbor_indices(pts, k)
    nbr = pts[idx]  # (N, k, 3)
    centered = nbr - nbr.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    total = evals.sum(axis=1)
    degenerate = total <= 1e-18
    normals = evecs[:, :, 0].copy()
    flip = normals[:, 2] < 0.0
    normals[flip] *= -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = np.where(degenerate, 0.0, evals[:, 0] / np.where(degenerate, 1.0, total))
    normals[degenerate] = (0.0, 0.0, 1.0)
    curvature = np.clip(curvature, 0.0, CURVATURE_MAX)
    return normals, curvature, degenerate


def idw_weights(src_points, dst_points, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-squared-distance interpolation stencil from src onto dst points.

    Returns (idx (D,k), weights (D,k)); weights per row sum to 1. A dst point
    coinciding with a source point copies that source exactly (weight 1).
    """
    src = _as_points(src_points)
    dst = _as_points(dst_points)
    if len(src) == 0:
        raise SizeError("interpolation needs at least one source point")
    if not 0 < k <= len(src):
        raise SizeError(f"k={k} out of range for {len(src)} source points")
    idx = np.empty((len(dst), k), dtype=np.int64)
    weights = np.empty((len(dst), k), dtype=np.float64)
    for lo in range(0, len(dst), _CHUNK):
        hi = min(lo + _CHUNK, len(dst))
        block = dst[lo:hi]
        # Difference form, not the expanded quadratic: coordinate differences
        # cancel any common translation exactly, which keeps interpolation
        # stencils (and everything downstream) bitwise translation invariant.
        d2 = _sq_dist(block[:, None, :], src[None, :, :])
        if k < len(src):
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            part = np.tile(np.arange(len(src)), (hi - lo, 1))
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


def to_heightmap(cloud, bounds, resolution: float) -> HeightMap:
    """Rasterize a cloud into a max-z heightmap over ``bounds``.

    ``bounds`` is (x_min, x_max, y_min, y_max). Each occupied cell keeps the
    max z of its points; unoccupied cells copy their nearest occupied cell and
    stay flagged via ``occupied``. A cloud entirely outside the bounds yields
    an all-unoccupied map with zero heights.
    """
    pts = _as_points(cloud)
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not (x_max > x_min and y_max > y_min):
        raise ShapeError("bounds must span a positive area")
    if resolution <= 0:
        raise ShapeError("resolution must be positive")
    nx = max(1, int(np.ceil((x_max - x_min) / resolution)))
    ny = max(1, int(np.ceil((y_max - y_min) / resolution)))
    heights = np.zeros((nx, ny), dtype=np.float64)
    occupied = np.zeros((nx, ny), dtype=bool)
    if len(pts):
        keep = (
            (pts[:, 0] >= x_min)
            & (pts[:, 0] <= x_max)
            & (pts[:, 1] >= y_min)
            & (pts[:, 1] <= y_max)
        )
        inside = pts[keep]
        if len(inside):
            i = np.clip(((inside[:, 0] - x_min) / resolution).astype(np.int64), 0, nx - 1)
            j = np.clip(((inside[:, 1] - y_min) / resolution).astype(np.int64), 0, ny - 1)
            filler = np.full((nx, ny), -np.inf)
            np.maximum.at(filler, (i, j), inside[:, 2])
            occupied = filler > -np.inf
            heights = np.where(occupied, filler, 0.0)
    if occupied.any() and not occupied.all():
        _, (ii, jj) = ndimage.distance_transform_edt(~occupied, return_indices=True)
        heights = heights[ii, jj]
    return HeightMap(
        origin=np.array([x_min, y_min]), resolution=float(resolution),
        heights=heights, occupied=occupied,
    )


_XYZL_HEADER = re.compile(r"# digrl point cloud, (\d+) points, (?:labeled|bare)\n")


def save_xyzl(path, cloud: PointCloud) -> None:
    """Write a cloud as text: ``x y z`` or ``x y z nx ny nz c`` per line."""
    labeled = cloud.normals is not None and cloud.curvature is not None
    with open(path, "w") as fh:
        fh.write("# digrl point cloud, %d points, %s\n" % (len(cloud), "labeled" if labeled else "bare"))
        if labeled:
            for p, nrm, c in zip(cloud.points, cloud.normals, cloud.curvature):
                fh.write(
                    "%.9g %.9g %.9g %.9g %.9g %.9g %.9g\n"
                    % (p[0], p[1], p[2], nrm[0], nrm[1], nrm[2], c)
                )
        else:
            for p in cloud.points:
                fh.write("%.9g %.9g %.9g\n" % (p[0], p[1], p[2]))


def load_xyzl(path) -> PointCloud:
    """Read a cloud written by :func:`save_xyzl`.

    Lines may carry 3 fields (bare point) or 7 (point + normal + curvature);
    ``#`` starts a comment. Labels survive only when every line carries them.
    A truncated file raises ShapeError: every line must end in a newline, and
    when the first line is :func:`save_xyzl`'s header the point count must
    match the one it records.
    """
    points, normals, curvature = [], [], []
    all_labeled = True
    declared = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.endswith("\n"):
                raise ShapeError(f"{path}:{lineno}: truncated line (no newline)")
            if lineno == 1 and (header := _XYZL_HEADER.fullmatch(raw)):
                declared = int(header.group(1))
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (3, 7):
                raise ShapeError(f"{path}:{lineno}: expected 3 or 7 fields, got {len(parts)}")
            try:
                values = [float(v) for v in parts]
            except ValueError as exc:
                raise ShapeError(f"{path}:{lineno}: {exc}") from None
            points.append(values[:3])
            if len(values) == 7:
                normals.append(values[3:6])
                curvature.append(values[6])
            else:
                all_labeled = False
    if declared is not None and declared != len(points):
        raise ShapeError(f"{path}: header records {declared} points, file holds {len(points)}")
    if not points:
        raise EmptyObservationError(f"{path} holds no points")
    pts = np.asarray(points, dtype=np.float64)
    if all_labeled and normals:
        nrm = np.asarray(normals)
        # Renormalize against text round-off so the unit invariant holds exactly.
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        return PointCloud(pts, nrm, np.clip(np.asarray(curvature), 0.0, CURVATURE_MAX))
    return PointCloud(pts)
