"""Point-cloud primitives: sampling, neighbor queries, PCA surface labels, the heightmap grid.

All queries are exact, and ties stay reproducible: each returns the rows of
a brute force over every point, bit for bit. The encoder's ``ball_query``,
``idw_weights`` and ``fps`` add the squared x, y and z coordinate
differences in the order ``np.sum(..., axis=-1)`` would: through
``_sq_dist``, or in ``fps`` by the same steps into reused buffers. ``fps``
updates its distances in place after each pick: on a cloud whose x is
non-decreasing, such as the sensor's crop, only the x-slab that can hold a
point the pick moves closer; elsewhere, every point. The neighbor queries
share one path: a KD-tree offers candidates and the brute force's own values
rank them. ``ball_query`` answers every center of a level from one ball
search at a slightly inflated radius, keeping the candidates whose
``_sq_dist`` value is inside. ``idw_weights`` ranks k + 1 tree neighbors by
``_sq_dist``, and the PCA labels rank k + ``_SPARE`` by the expanded form
(|a|^2 - 2 a.b) + |b|^2 of a chunked brute force (``_knn_indices``); a row
whose ranking ``_certify`` cannot settle falls back to its brute-force row.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyObservationError, ShapeError, SizeError, text_lines

CURVATURE_MAX = 1.0 / 3.0
PCA_K = 30  # points per PCA neighbourhood, the point itself included

# Rows per pairwise-distance block: a 512 x 2,048 float64 block is 8 MB, a
# 512 x 20k one 82 MB. The PCA labels' bits follow the gemm of these blocks.
_CHUNK = 512
# Tree candidates per point beyond the k that a PCA label needs.
_SPARE = 8


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
            if not np.isfinite(self.curvature).all():
                raise ShapeError("curvature contains non-finite values")
            if n and (self.curvature.min() < -1e-12 or self.curvature.max() > CURVATURE_MAX + 1e-9):
                raise ShapeError("curvature out of [0, 1/3] range")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class HeightMap:
    """Regular x/y grid of surface heights.

    ``heights[i, j]`` covers the cell with x index ``i`` and y index ``j``;
    flat row-major order therefore scans x first, then y.
    """

    origin: np.ndarray  # (2,) lower corner (x_min, y_min)
    resolution: float
    heights: np.ndarray  # (nx, ny)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = int(np.floor((x - self.origin[0]) / self.resolution))
        j = int(np.floor((y - self.origin[1]) / self.resolution))
        nx, ny = self.heights.shape
        return min(max(i, 0), nx - 1), min(max(j, 0), ny - 1)

    def height_at(self, x: float, y: float) -> float:
        i, j = self.cell_of(x, y)
        return float(self.heights[i, j])


def _as_points(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"expected (N, 3) points, got {pts.shape}")
    return pts


def fps(cloud, n: int) -> np.ndarray:
    """Farthest point sampling: greedy max-min-distance subset of ``n`` indices.

    The first index is 0; each following index maximizes the minimum
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
    x, y, z = (np.ascontiguousarray(pts[:, k]) for k in range(3))
    bisect = bool((x[1:] >= x[:-1]).all())
    d2_buf, d_buf = np.empty(total), np.empty(total)
    # From inf, the first update (always the whole cloud) sets the distances
    # to point 0 exactly.
    min_d2 = np.full(total, np.inf)
    selected = np.empty(n, dtype=np.int64)
    selected[0] = nxt = 0
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

    A point is inside when its ``_sq_dist`` value is at most radius^2, and
    the rows rank by that value, as a brute force over the whole cloud
    would. A KD-tree offers the candidates, from one ball search at a radius
    inflated past the rounding of either distance. ``_sq_dist`` and the
    tree's squared distance each lie within about 8 eps of the exact value,
    relative. The tree's box bounds, updated level by level, gather a few
    eps of radius^2 per level on the way to an in-ball point, since every
    box holding that point lies within the radius of the center along each
    axis. The inflation, 1e-9 of the radius (2e-9 of radius^2), clears both
    by five orders of magnitude, so no point ``_sq_dist`` puts inside is
    missed; the candidates outside are dropped by their ``_sq_dist`` value.
    """
    pts = _as_points(cloud)
    ctr = np.asarray(centers, dtype=np.float64)
    if ctr.ndim != 2 or ctr.shape[1] != 3:
        raise ShapeError(f"centers must be (G, 3), got {ctr.shape}")
    if len(pts) == 0:
        raise SizeError("ball_query on an empty cloud")
    if radius <= 0 or max_k <= 0:
        raise SizeError("radius and max_k must be positive")
    found = cKDTree(pts).query_ball_point(ctr, radius * (1.0 + 1e-9), return_sorted=False)
    lengths = np.fromiter(map(len, found), np.int64, len(ctr))
    cols = np.fromiter(itertools.chain.from_iterable(found), np.int64, lengths.sum())
    rows = np.repeat(np.arange(len(ctr)), lengths)
    d2 = _sq_dist(pts[cols], ctr[rows])
    inside = d2 <= radius * radius
    rows, cols, d2 = rows[inside], cols[inside], d2[inside]
    # The brute force's order: by (row, d2), equal distances by point index.
    order = np.lexsort((cols, d2, rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=len(ctr))
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = rank < max_k
    out = np.full((len(ctr), max_k), -1, dtype=np.int64)
    out[rows[keep], rank[keep]] = cols[keep]
    # An empty ball (only a center off the cloud has one) takes the nearest
    # point by brute force, in blocks of at most 2**17 distances.
    empty = np.flatnonzero(counts == 0)
    step = max(1, 2**17 // len(pts))
    for lo in range(0, len(empty), step):
        block = empty[lo : lo + step]
        out[block, 0] = np.argmin(_sq_dist(pts[None, :, :], ctr[block, None, :]), axis=1)
    return out


def _certify(vals: np.ndarray, cand: np.ndarray, k: int, last: np.ndarray, tol: np.ndarray):
    """Rank each row's tree candidates by ``vals`` and flag the rows that ranking settles.

    ``vals`` (R, kk) are the candidates' values in the arithmetic of the
    brute force being matched, ``last`` each row's squared tree distance to
    its last candidate (inf when the candidates are every point), and
    ``tol`` a per-row bound on the rounding of a value and of a squared
    tree distance. A row is settled when its first k + 1 ranked values
    strictly increase, so there is no tie for ``argpartition`` to break,
    and its k-th value plus ``tol`` lies below ``last`` minus ``tol``, so no
    point outside the candidates can rank among its k. Returns the ranked
    (R, k) indices, the ranked (R, kk) values and the settled mask.
    """
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    ok = (np.diff(vals[:, : k + 1], axis=1) > 0.0).all(axis=1)
    ok &= vals[:, k - 1] + tol < last - tol
    return np.take_along_axis(cand, order[:, :k], axis=1), vals, ok


def _knn_indices(pts: np.ndarray, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest neighbors (self included), nearest first.

    The rows are those of a chunked brute force: rank every point by the
    expanded form (|a|^2 - 2 a.b) + |b|^2, with 2 a.b from one gemm per
    ``_CHUNK`` block, take the k smallest with ``argpartition`` and order
    them with a stable ``argsort``. A KD-tree offers each point k +
    ``_SPARE`` candidates, ranked by their expanded values read from that
    gemm. A row keeps this ranking when ``_certify`` settles it; every other
    row is rebuilt in full and ranked the brute-force way.
    """
    n = len(pts)
    kk = min(k + _SPARE, n)
    dist, cand = (a.reshape(n, kk) for a in cKDTree(pts).query(pts, kk))
    sq = np.sum(pts**2, axis=1)
    # The rounding bound: an expanded value is off by at most about
    # 6 eps (|a|^2 + |b|^2), a tree distance r^2 by about 8 eps r^2, and
    # r^2 <= 2 (|a|^2 + |b|^2).
    tol = 32.0 * np.finfo(np.float64).eps * (sq + sq.max())
    last = dist[:, -1] ** 2 if kk < n else np.full(n, np.inf)
    out = np.empty((n, k), dtype=np.int64)
    # OpenBLAS's bits depend on the product's shape, so every row takes its
    # 2 a.b from the same block gemm as the brute force, into one buffer.
    gram = np.empty((min(_CHUNK, n), n))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        g = np.matmul(2.0 * pts[lo:hi], pts.T, out=gram[: hi - lo])
        c = cand[lo:hi]
        e = sq[lo:hi, None] - np.take_along_axis(g, c, axis=1) + sq[c]
        out[lo:hi], _, ok = _certify(e, c, k, last[lo:hi], tol[lo:hi])
        redo = np.flatnonzero(~ok)
        if len(redo):
            # The full rows, with the bits of (|a|^2 - 2 a.b) + |b|^2.
            d2 = g[redo]
            d2 *= -1.0
            d2 += sq[lo + redo, None]
            d2 += sq
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            rows = np.arange(len(redo))[:, None]
            out[lo + redo] = part[rows, np.argsort(d2[rows, part], kind="stable", axis=1)]
    return out


def estimate_normals_curvature(cloud) -> tuple[np.ndarray, np.ndarray]:
    """Per-point PCA surface labels from k-neighborhoods, k = ``PCA_K``.

    A neighborhood is a point's k nearest points, itself included, ranked as
    the chunked brute force ranks them, ties and all: tree candidates where
    they certify that ranking, the brute-force row elsewhere (see
    ``_knn_indices``). The normal is the eigenvector of the neighborhood
    covariance with the smallest eigenvalue, flipped so its z component is
    non-negative. The curvature is the surface variation lam0 / (lam0 +
    lam1 + lam2), which lives in [0, 1/3]. Neighborhoods that collapse to a
    point get normal (0, 0, 1) and curvature 0.

    Returns (normals (N,3), curvature (N,)).
    """
    pts = _as_points(cloud)
    n = len(pts)
    if n == 0:
        raise SizeError("cannot label an empty cloud")
    k = PCA_K
    if k > n:
        raise SizeError(f"k={k} out of range for cloud of {n}")
    idx = _knn_indices(pts, k)
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
    return normals, curvature


def idw_weights(src_points, dst_points, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-squared-distance interpolation stencil from src onto dst points.

    Returns (idx (D,k), weights (D,k)); weights per row sum to 1. A dst point
    coinciding with a source point copies that source exactly (weight 1).

    Needs ``0 < k < n`` for n sources. Sources rank by their ``_sq_dist``
    value, as a brute force over every source would: the k smallest by
    ``argpartition``, ordered by a stable ``argsort``. The difference form,
    not the expanded quadratic, cancels any common translation exactly,
    which keeps the stencils (and everything downstream) bitwise
    translation invariant. A KD-tree offers each row k + 1 candidates, and
    a row keeps their ranking when ``_certify`` settles it. Its tolerance,
    32 eps of the squared distance to the last candidate, covers the
    relative rounding of ``_sq_dist`` (about 5 eps) and of the tree's
    squared distance (about 8 eps) on either side. Every other row is
    rebuilt by the brute force.
    """
    src = _as_points(src_points)
    dst = _as_points(dst_points)
    n = len(src)
    if not 0 < k < n:
        raise SizeError(f"k={k} out of range for {n} source points")
    dist, cand = cKDTree(src).query(dst, k + 1)
    tol = 32.0 * np.finfo(np.float64).eps * dist[:, -1] ** 2
    last = dist[:, -1] ** 2 if k + 1 < n else np.full(len(dst), np.inf)
    d2 = _sq_dist(dst[:, None, :], src[cand])
    idx, d2, ok = _certify(d2, cand, k, last, tol)
    nd2 = d2[:, :k]
    redo = np.flatnonzero(~ok)
    for lo in range(0, len(redo), _CHUNK):
        rows = redo[lo : lo + _CHUNK]
        d2 = _sq_dist(dst[rows, None, :], src[None, :, :])
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        near = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(near, kind="stable", axis=1)
        idx[rows] = np.take_along_axis(part, order, axis=1)
        nd2[rows] = np.take_along_axis(near, order, axis=1)
    exact = nd2[:, 0] == 0.0
    with np.errstate(divide="ignore"):
        weights = 1.0 / nd2
    weights[exact] = 0.0
    weights[exact, 0] = 1.0
    weights /= weights.sum(axis=1, keepdims=True)
    return idx, weights


_XYZL_HEADER = re.compile(r"# digrl point cloud, (\d+) points, labeled\n")


def save_xyzl(path, cloud: PointCloud) -> None:
    """Write a cloud with normals and curvature as text, ``x y z nx ny nz c`` per line."""
    table = np.column_stack([cloud.points, cloud.normals, cloud.curvature])
    line = " ".join(["%.9g"] * 7) + "\n"
    with open(path, "w") as fh:
        fh.write("# digrl point cloud, %d points, labeled\n" % len(cloud))
        fh.write(line * len(table) % tuple(table.ravel().tolist()))


def load_xyzl(path) -> PointCloud:
    """Read a cloud written by :func:`save_xyzl`.

    Every line carries 7 fields, a point, its normal and its curvature;
    ``#`` starts a comment. A truncated file raises ShapeError: every line
    must end in a newline, and when the first line is :func:`save_xyzl`'s
    header the point count must match the one it records. So do bytes that
    are not UTF-8, a point that is not finite, a normal whose length is zero
    or not finite, and a curvature that is not finite.
    """
    points, normals, curvature = [], [], []
    declared = None
    for lineno, raw in text_lines(path):
        if not raw.endswith("\n"):
            raise ShapeError(f"{path}:{lineno}: truncated line (no newline)")
        if lineno == 1 and (header := _XYZL_HEADER.fullmatch(raw)):
            declared = int(header.group(1))
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ShapeError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise ShapeError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values[:3])):
            raise ShapeError(f"{path}:{lineno}: point {values[:3]} is not finite")
        # Renormalizing below divides by this length.
        if not 0.0 < math.hypot(*values[3:6]) < math.inf:
            raise ShapeError(f"{path}:{lineno}: normal {values[3:6]} has no direction")
        if not math.isfinite(values[6]):
            raise ShapeError(f"{path}:{lineno}: curvature {values[6]} is not finite")
        points.append(values[:3])
        normals.append(values[3:6])
        curvature.append(values[6])
    if declared is not None and declared != len(points):
        raise ShapeError(f"{path}: header records {declared} points, file holds {len(points)}")
    if not points:
        raise EmptyObservationError(f"{path} holds no points")
    nrm = np.asarray(normals)
    # Renormalize against text round-off so the unit invariant holds exactly.
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(np.asarray(points), nrm, np.clip(np.asarray(curvature), 0.0, CURVATURE_MAX))
