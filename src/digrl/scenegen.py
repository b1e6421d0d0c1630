"""Synthetic cluttered scenes: convex rigid objects dropped into a tray.

A scene's meshes are built in batches. :func:`gen_objects` draws each
object's hull seeds from the generator in turn, and Qhull accepts or
rejects each draw before the next; the winding fix, the watertight check
and the volumes then run once over all the accepted hulls laid end to end.
:func:`load_scene` reads every record first and measures the volumes the
same way. A settle computes each object's rotation, world vertices, face
planes, edges and xy box once, into one scene-wide table (``_Pile``) that
every wavefront pass gathers its rows from, and that lowers each object's
own rows in place when it rests. Each of these steps works per vertex, face
or edge, so every object gets the bits it would get on its own.

Settling is quasi-static drop-and-rest without rotation on contact: each
object falls straight down, in placement order, onto the tray floor or onto
whatever already lies there, with a declared interpenetration tolerance of
2 mm. Rest heights are exact: the vertical clearance between convex hulls is
minimized over projected vertices of both bodies and crossings of projected
edges, which together contain the true contact column.

Each drop is branch and bound. The floor and the incoming vertices above
one seed support, the highest rested body under the object's box, give an
attained clearance, an upper bound on the drop. A rested body whose top lies
more than that bound, plus a rounding margin, below the incoming object
cannot hold a smaller gap, so it is skipped before its upper envelope is
evaluated at all; the incoming and rested vertices of the bodies kept lower
the bound further. Each crossing of projected edges is then bounded from
below by one face plane of each body, computed with the envelopes' own
arithmetic, so the bound never exceeds the gap those envelopes give to the
bit; only crossings whose bound is at most the drop get both full
envelopes. Only gaps above the minimum are skipped, so the settled scene is
the same to the last bit as without pruning (see ``_Pile``).

An object can only rest on an earlier object whose xy box meets its own, so
objects settle in dependency wavefronts: an object's wavefront is one more
than the latest wavefront of an earlier object whose box meets its own.
Each wavefront drops in one batched pass onto the wavefronts before it.
Every earlier object that meets an object is then on the pile when it
drops, and no other object that meets it is, so it sees the candidate
supports of a one-by-one drop in placement order and gets the same rest
height to the last bit. After a dig, :func:`resettle` settles the kept
objects with their known drops under one rule, ``_Pile.moved``: an object
searches only if its xy box meets an earlier object that was removed or
came to rest at a new height; every other one rests at its known drop, the
height a re-drop would give it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .config import ATTACK_RANGES
from .errors import (
    BlobReader,
    DegenerateGeometryError,
    PlacementError,
    ShapeError,
    SizeError,
    TopologyError,
)

DEFAULT_DENSITY = 2700.0  # kg/m^3
VERTEX_RADIUS_RANGE = (0.01, 0.07)  # m, sampled distance of hull seeds from the centroid
VERTEX_COUNT_RANGE = (8, 24)  # inclusive
INTERPENETRATION_TOL = 0.002  # m, declared settling tolerance
PLACEMENT_RETRIES = 50


# ---------------------------------------------------------------------------
# Rotations


def quat_from_euler(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Unit quaternion (w, x, y, z) for Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    return np.array(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ]
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    # Python floats round like float64 scalars and skip numpy's per-scalar cost.
    w, x, y, z = (q / np.linalg.norm(q)).tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# Convex meshes


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis: np.cross's arithmetic, bit for bit.

    np.cross spends most of its time on generic axis handling when it is
    given a few dozen rows.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _check_watertight(faces: np.ndarray) -> None:
    """Raise TopologyError unless every directed edge occurs once and so does its reverse."""
    # Below 2**31 distinct indices the keys a * n + b fit in int64.
    if len(faces) and (n := int(faces.max() - faces.min()) + 1) < 2**31:
        a = faces - faces.min()
        b = a[:, [1, 2, 0]]
        keys = np.sort((a * n + b).ravel())
        # Distinct keys make the reversed keys distinct too, so equal sorted
        # arrays mean every edge's reverse occurs exactly once.
        if (keys[1:] != keys[:-1]).all() and (np.sort((b * n + a).ravel()) == keys).all():
            return
    edges = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    for (a, b), count in edges.items():
        if count != 1 or edges.get((b, a), 0) != 1:
            raise TopologyError(f"mesh is not watertight at edge ({a}, {b})")


def _mesh_volumes(verts: np.ndarray, faces: np.ndarray, n_faces: np.ndarray) -> list[float]:
    """Volumes of watertight, outward-wound triangle meshes via signed tetrahedra.

    The meshes are laid end to end: ``faces`` index the shared ``verts``,
    and mesh ``k`` owns the next ``n_faces[k]`` faces. A face index of one
    mesh must not reach another mesh's vertices. Meshes that share no
    vertex make a watertight whole exactly when each is watertight.
    """
    _check_watertight(faces)
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    # Huge finite vertices overflow to an inf or NaN volume, which callers reject.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.einsum("ij,ij->i", v0, _cross(v1, v2))
        # One pairwise sum per mesh over its own rows: the bits of a lone mesh.
        ends = np.cumsum(n_faces)
        return [float(rows[e - n : e].sum() / 6.0) for n, e in zip(n_faces.tolist(), ends.tolist())]


def _laid_end_to_end(verts: list[np.ndarray], faces: list[np.ndarray]):
    """One vertex array of several meshes, faces shifted onto their own vertices.

    Returns (vertices, faces, first vertex of each mesh, faces per mesh).
    """
    n_faces = np.array([len(f) for f in faces])
    vert_starts = _run_starts(np.array([len(v) for v in verts]))
    shifted = np.concatenate(faces) + np.repeat(vert_starts, n_faces)[:, None]
    return np.concatenate(verts), shifted, vert_starts, n_faces


def face_planes(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets so that inside points satisfy n.p <= d."""
    v0 = vertices[faces[:, 0]]
    n = _cross(vertices[faces[:, 1]] - v0, vertices[faces[:, 2]] - v0)
    lengths = np.linalg.norm(n, axis=1, keepdims=True)
    if (lengths <= 1e-16).any():
        raise DegenerateGeometryError("zero-area face")
    n = n / lengths
    return n, np.einsum("ij,ij->i", n, v0)


def vertical_envelopes(
    normals: np.ndarray, offsets: np.ndarray, xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection of vertical lines with a convex polytope given as planes.

    For each (x, y) column returns (z_low, z_high, feasible); infeasible
    columns miss the body entirely.
    """
    xy = np.asarray(xy, dtype=np.float64)
    c = offsets[:, None] - normals[:, 0:1] * xy[:, 0] - normals[:, 1:2] * xy[:, 1]
    z_low, z_high, feasible = _grouped_envelopes(c, normals[:, 2:3], np.zeros(1, dtype=np.int64))
    return z_low[0], z_high[0], feasible[0]


def _grouped_envelopes(
    c: np.ndarray, nz: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`vertical_envelopes` of several bodies whose planes are laid end to end.

    ``c`` holds the column offsets ``(o - x*nx) - y*ny`` with planes along
    its first axis, ``nz`` the matching plane z normals, shaped to broadcast
    against ``c``, and ``starts`` the first plane of each run. Every run is
    one convex body, and the result is (z_low, z_high, feasible) per body
    and column.
    """
    up = nz > 1e-12
    down = nz < -1e-12
    side = ~(up | down)
    z = c / np.where(side, 1.0, nz)
    z_high = _reduce_runs(np.minimum, np.where(up, z, np.inf), starts)
    z_low = _reduce_runs(np.maximum, np.where(down, z, -np.inf), starts)
    feasible = z_low <= z_high + 1e-9
    if side.any():
        feasible &= _reduce_runs(np.logical_and, (c >= -1e-9) | ~side, starts)
    return z_low, z_high, feasible


def _reduce_runs(op: np.ufunc, a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``op`` over each run along the first axis; one run takes the faster plain reduce."""
    if len(starts) == 1:
        return op.reduce(a, axis=0, keepdims=True)
    return op.reduceat(a, starts, axis=0)


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    """First index of each run when runs of ``lengths`` are laid end to end."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


# ---------------------------------------------------------------------------
# Objects, tray, scene


@dataclass
class RigidObject:
    """A convex rigid body in its own frame.

    The body frame is centered on the generation centroid (the point hull
    seeds were sampled around), so every vertex lies within the sampling
    radius of the origin, and a placed object's centroid is its translation.
    """

    vertices: np.ndarray
    faces: np.ndarray
    volume: float
    density: float = DEFAULT_DENSITY

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if not 0 < self.volume < np.inf:
            raise DegenerateGeometryError(
                f"object volume must be positive and finite, got {self.volume}"
            )


def _hull_objects(hulls: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[RigidObject]:
    """Convex objects of Qhull's accepted ``hulls``, each (points, simplices, normals), in order.

    The winding fix, the watertight check and the volumes run once over all
    the hulls laid end to end; every step is elementwise or per face, so
    each object gets the bits it would get alone. A hull whose volume is
    not positive and finite raises DegenerateGeometryError.
    """
    point_sets, facets, planes = zip(*hulls)
    n_faces = np.array([len(f) for f in facets])
    pt_starts = _run_starts(np.array([len(p) for p in point_sets]))
    offsets = np.repeat(pt_starts, n_faces)[:, None]
    simplices = np.concatenate(facets) + offsets
    # A hull's vertices are the points its facets use, in input order.
    hull_points = np.unique(simplices)
    pts = np.concatenate(point_sets)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[hull_points] = np.arange(len(hull_points))
    verts = pts[hull_points]
    faces = remap[simplices]
    # Qhull does not guarantee consistent winding; fix it against the outward
    # plane normals it reports.
    v0, v1, v2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    normals = np.concatenate(planes)
    flip = np.einsum("ij,ij->i", _cross(v1 - v0, v2 - v0), normals) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    vert_starts = np.searchsorted(hull_points, pt_starts)
    vert_ends = np.append(vert_starts[1:], len(verts))
    face_ends = np.cumsum(n_faces)
    volumes = _mesh_volumes(verts, faces, n_faces)
    return [
        RigidObject(verts[v_lo:v_hi], faces[f_lo:f_hi] - v_lo, vol)
        for vol, v_lo, v_hi, f_lo, f_hi in zip(
            volumes, vert_starts, vert_ends, face_ends - n_faces, face_ends
        )
    ]


def gen_objects(rng: np.random.Generator, count: int) -> list[RigidObject]:
    """Sample ``count`` convex objects, each the hull of 8..24 points at radii 1..7 cm.

    Each object in turn gets up to 64 attempts: its points are redrawn
    while a direction is too short to normalise or Qhull rejects them, so
    the generator ends where drawing the objects one at a time leaves it.
    :func:`_hull_objects` then builds the accepted hulls in one batch.
    """
    lo, hi = VERTEX_COUNT_RANGE
    r_lo, r_hi = VERTEX_RADIUS_RANGE
    hulls = []
    for _ in range(count):
        for _ in range(64):
            n = int(rng.integers(lo, hi + 1))
            dirs = rng.normal(size=(n, 3))
            lens = np.linalg.norm(dirs, axis=1, keepdims=True)
            if (lens < 1e-12).any():
                continue
            points = dirs / lens * rng.uniform(r_lo, r_hi, size=(n, 1))
            try:
                hull = ConvexHull(points)
            except QhullError:
                continue
            # Only these two arrays of the Qhull result are kept; the rest is freed at once.
            hulls.append((points, hull.simplices, hull.equations[:, :3]))
            break
        else:
            raise DegenerateGeometryError("could not sample a non-degenerate hull")
    return _hull_objects(hulls) if hulls else []


@dataclass
class Tray:
    """Open-top rectangular tray; the world frame sits at the floor center."""

    inner_length: float = 0.80  # x extent of the floor
    inner_width: float = 0.50  # y extent of the floor
    wall_height: float = 0.10
    wall_thickness: float = 0.02
    floor_z: float = 0.0

    @property
    def x_range(self) -> tuple[float, float]:
        return (-self.inner_length / 2.0, self.inner_length / 2.0)

    @property
    def y_range(self) -> tuple[float, float]:
        return (-self.inner_width / 2.0, self.inner_width / 2.0)

    def wall_boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Axis-aligned (center, half_extents) boxes for the 4 walls."""
        hx, hy = self.inner_length / 2.0, self.inner_width / 2.0
        t, h = self.wall_thickness, self.wall_height
        zc = self.floor_z + h / 2.0
        return [
            (np.array([-(hx + t / 2), 0.0, zc]), np.array([t / 2, hy + t, h / 2])),
            (np.array([hx + t / 2, 0.0, zc]), np.array([t / 2, hy + t, h / 2])),
            (np.array([0.0, -(hy + t / 2), zc]), np.array([hx + t, t / 2, h / 2])),
            (np.array([0.0, hy + t / 2, zc]), np.array([hx + t, t / 2, h / 2])),
        ]


@dataclass
class PlacedObject:
    """A rigid object with a world pose (rotation quaternion + translation)."""

    obj: RigidObject
    quat: np.ndarray
    translation: np.ndarray

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

    def world_vertices(self) -> np.ndarray:
        return self.obj.vertices @ self.rotation().T + self.translation


@dataclass
class Scene:
    """A tray plus settled objects; ``seed`` allows regeneration."""

    tray: Tray
    placed: list[PlacedObject]
    seed: int | None = None

    @property
    def object_count(self) -> int:
        return len(self.placed)


def mesh_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges (E, 2) of a triangle mesh, sorted by (low, high) vertex.

    Also returns two faces (E, 2) that hold each edge: the first and the
    last in the sort, so the same face twice when only one holds it.
    """
    pairs = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    # One integer key per pair keeps the row-wise unique's (low, high) order.
    n = int(pairs.max()) + 1 if len(pairs) else 1
    keys = pairs[:, 0] * n + pairs[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    last = np.append(first[1:], len(keys))[: len(first)] - 1
    # Pair p of the three stacked blocks comes from face p mod F.
    face = order % len(faces)
    keys = keys[first]
    return np.stack([keys // n, keys % n], axis=1), np.stack([face[first], face[last]], axis=1)


def _segment_crossings(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Interior intersection points of 2-D segments ``a`` and ``b`` paired by broadcasting.

    ``a`` and ``b`` are (..., 2, 2) arrays whose leading axes broadcast
    together, so ``a[:, None]`` against ``b[None]`` pairs every segment of
    one batch with every segment of the other. Returns the (M, 2) crossing
    points, each on its ``a`` segment, and their indices into the broadcast
    leading shape. Parallel or endpoint-touching pairs are skipped: those
    contacts are already covered by vertex columns.
    """
    # One array per coordinate: numpy loops over a trailing axis of 2 slowly.
    px, py = a[..., 0, 0], a[..., 0, 1]
    rx, ry = a[..., 1, 0] - px, a[..., 1, 1] - py
    sx, sy = b[..., 1, 0] - b[..., 0, 0], b[..., 1, 1] - b[..., 0, 1]
    denom = rx * sy - ry * sx
    ok = np.abs(denom) > 1e-14
    denom = np.where(ok, denom, 1.0)
    qpx, qpy = b[..., 0, 0] - px, b[..., 0, 1] - py
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    ok &= (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
    hit = np.flatnonzero(ok)
    x, y = (px + t * rx).ravel()[hit], (py + t * ry).ravel()[hit]
    return np.stack([x, y], axis=1), np.unravel_index(hit, ok.shape)


def _gather_runs(starts: np.ndarray, lengths: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """Indices of the runs ``starts[i] + range(lengths[i])`` laid end to end at ``run_starts``."""
    return np.arange(lengths.sum()) + np.repeat(starts - run_starts, lengths)


# Slack of the keep tests that compare an envelope value with its body's
# vertex extremes: the settle's ``aabb_min_z - hi_k_z <= bound + margin``
# (``_Pile``) and the render's ``height < top + margin``
# (``sensor._surface_grid``). Two effects let a computed envelope pass them.
#
# Rounding. Coordinates stay within 4 m of the origin (the tray is 0.8 x 0.5 m,
# and a 300-object pile stands below 1.5 m), so a column offset
# ``c = (o - x*nx) - y*ny`` of a unit normal, its offset ``o`` included, is
# off by ``|dc| < 8 * 2**-53 * 4 m``, about 3.6e-15 m. An envelope's z is
# ``c / nz`` with ``|nz| > 1e-12`` (flatter planes are side planes and give no
# z), so it is off by at most 3.6 mm, and a gap, a difference of two, by 7.2 mm.
#
# Tolerance. A feasible column passes ``z_low <= z_high + 1e-9`` and, on side
# planes, ``c >= -1e-9``, so (x, y, z_high) may break each face plane by 1e-9 m.
# It lies in the body grown by 1e-9 m, whose top is higher by 1e-9 m times the
# top vertex's summed dual weights (1 / cos of the face tilt for a symmetric cone).
#
# ``2**-7`` m (7.8 mm) is exact in binary and leaves 0.6 mm over the rounding,
# enough for the tolerance unless those weights reach 6e5, a spike far sharper
# than a hull of 8 to 24 points at radii of 1 to 7 cm.
#
# The settle's test holds for any attained ``bound``, however it was found: an
# incoming vertex's z is exact and at least ``aabb_min_z``, and a computed upper
# envelope of body k stays below ``hi_k_z`` plus the margin, so even a body's
# incoming-vertex gaps exceed ``bound`` when it fails the test. So the test can
# run on the seed bound, before the full vertex pass.
_PRUNE_MARGIN = 2.0**-7


class _Pile:
    """Exact vertical-drop support model: the scene's meshes, rested in place.

    A falling convex hull comes to rest where the vertical clearance between
    it and the pile (or the floor) first reaches zero. For convex polytopes
    that clearance is a piecewise-linear function of (x, y) whose minimum sits
    at a projected vertex of either body or at a crossing of projected edges,
    so evaluating exactly these candidate columns gives the exact rest height
    and zero interpenetration by construction.

    The meshes of ``placed``, at the world vertices ``wverts`` they drop
    from, are laid end to end in order, once per settle: ``planes`` holds
    the face planes (nx, ny, nz, offset), ``verts`` the world vertices and
    ``segs`` the edges projected to xy, with their xy boxes ``seg_lo`` and
    ``seg_hi``. Object ``k`` owns ``counts[k]`` rows of each, in that column
    order, from row ``starts[k]`` on. ``seg_planes`` gives each edge two
    plane rows of its own object for the crossing bound (see
    :func:`_crossing_bounds`): below, a face of the edge with
    ``nz < -1e-12``, else the object's most downward-facing plane; above, a
    face of the edge with ``nz > 1e-12``, else its most upward-facing plane.
    ``lo`` and ``hi`` are the objects' AABB corners, and ``meets`` is the
    (n, n) matrix of which objects' xy boxes meet, boundaries included, as
    the drop tests. ``face_planes`` and ``mesh_edges`` work face by face and
    edge by edge, so each object's rows have the bits they would have alone.
    When an object rests, its own vertex, plane and box rows are lowered in
    place and its ``rested`` bit is set; the rested objects are the pile. An
    xy never moves, and lowering keeps each plane's normal, so ``segs``,
    their boxes, ``seg_planes`` and ``meets`` hold for the whole settle.
    ``moved`` marks the objects whose rows differ from those of the settled
    scene that known drops come from (see :meth:`settle`).

    :meth:`_rest` drops a batch of objects with pairwise-disjoint xy boxes
    onto the pile as it stands, in one vectorised pass. The incoming bodies'
    vertices, planes and edges are padded to one length by repeating each
    body's first row, which only repeats a gap. The ``meets`` rows of the
    incoming objects pick every (body, candidate support) pair, and one
    fancy index gathers the candidates' rows. Each body's drop is then a
    branch and bound over three gap families, each gap evaluated against the
    planes of its own two bodies, with the bound ``drop`` lowered as each
    step attains a smaller gap:

    1. The floor gap and the incoming vertices against the upper envelope of
       one seed candidate, the one with the highest top. Every gap found is
       attained, so the drop is at most ``drop``.
    2. The incoming vertices against every other candidate ``k`` with
       ``aabb_min_z - hi_k_z <= drop + _PRUNE_MARGIN``. Every gap of a body
       ``k`` is a point of the incoming body, at least ``aabb_min_z``, above
       a point of ``k``, at most ``hi_k_z``; a body that fails the test has
       no gap below ``drop`` and cannot set the minimum. The margin covers
       the envelopes' rounding and feasibility tolerance (see
       ``_PRUNE_MARGIN``).
    3. Over the candidates that still pass that test: the nearby rested
       vertices under the incoming lower envelope. Then, over the
       candidates that pass it with the drop those give, the crossings of
       projected edges. Each crossing is first bounded from below by one
       plane per body (:func:`_crossing_bounds`), and both full envelopes
       run only where that bound is at most ``drop``.

    Pruning only drops gaps that exceed an attained clearance, and the drop
    is the minimum of the rest, each computed with the same elementwise float
    operations as in a per-body loop over every candidate; so rest heights,
    and the settled scene bytes, depend neither on the pruning nor on how
    bodies and candidates are grouped.
    """

    def __init__(self, placed: list[PlacedObject], wverts: list[np.ndarray], floor: float):
        self.placed, self.floor = placed, floor
        faces = [p.obj.faces for p in placed]
        verts, faces, vert_starts, n_planes = _laid_end_to_end(wverts, faces)
        self.planes = np.column_stack(face_planes(verts, faces))
        edges, edge_faces = mesh_edges(faces)
        self.segs = verts[:, :2][edges]
        self.seg_lo, self.seg_hi = self.segs.min(axis=1), self.segs.max(axis=1)
        self.verts = verts
        n_verts = np.diff(vert_starts, append=len(verts))
        n_segs = np.diff(np.searchsorted(edges[:, 0], vert_starts), append=len(edges))
        self.counts = np.column_stack([n_planes, n_verts, n_segs])
        self.starts = np.cumsum(self.counts, axis=0) - self.counts
        # Faces are laid end to end like the planes, so a face index is a plane row.
        nz = self.planes[:, 2]
        owner = np.repeat(np.arange(len(placed)), n_segs)
        fz = nz[edge_faces]
        lower = np.where(fz[:, 0] <= fz[:, 1], edge_faces[:, 0], edge_faces[:, 1])
        upper = np.where(fz[:, 0] >= fz[:, 1], edge_faces[:, 0], edge_faces[:, 1])
        lowest = _run_extremes(np.minimum, nz, self.starts[:, 0], n_planes)
        highest = _run_extremes(np.maximum, nz, self.starts[:, 0], n_planes)
        self.seg_planes = np.column_stack(
            [
                np.where(nz[lower] < -1e-12, lower, lowest[owner]),
                np.where(nz[upper] > 1e-12, upper, highest[owner]),
            ]
        )
        self.lo = np.minimum.reduceat(verts, vert_starts)
        self.hi = np.maximum.reduceat(verts, vert_starts)
        # One (n, n) test per coordinate: numpy loops over a trailing axis of 2 slowly.
        (x0, y0), (x1, y1) = self.lo[:, :2].T, self.hi[:, :2].T
        x_meets = (x0[:, None] <= x1) & (x1[:, None] >= x0)
        self.meets = x_meets & (y0[:, None] <= y1) & (y1[:, None] >= y0)
        self.rested = np.zeros(len(placed), dtype=bool)
        self.moved = np.zeros(len(placed), dtype=bool)

    def settle(self, members, drops: list[float | None]) -> list[float]:
        """Rest objects ``members``, one wavefront per :meth:`_rest` pass; returns their z offsets.

        An object's wavefront is one more than the latest wavefront of an
        earlier member whose xy box meets its own, and 0 without one. Every
        earlier member that meets an object lies in an earlier wavefront, so
        it is on the pile when that object drops. A later member never is: it
        lies in a later wavefront than the earlier one it meets. Objects of
        one wavefront meet no other. So each object drops onto exactly the
        candidate supports, with the same rows, that dropping the members one
        by one in order gives it, and gets the same rest height to the last
        bit.

        ``None`` in ``drops`` searches its object. A known drop, taken from a
        settled scene, rests its object that far down unless its xy box meets
        an earlier object marked in ``moved``; then it searches. An object
        that did not rest at its known drop, to the bit (so a -0 for a +0
        counts), is marked in ``moved`` as it rests. An object whose earlier
        neighbours all kept their rows has the candidates, with the rows,
        that it settled on, so a search would give its known drop again.
        """
        members = np.asarray(members, dtype=np.int64)
        meets = self.meets[np.ix_(members, members)]
        wave = np.zeros(len(members), dtype=np.int64)
        for j in range(1, len(members)):
            below = wave[:j][meets[j, :j]]
            wave[j] = below.max() + 1 if len(below) else 0
        # A NaN matches no rest, so an object without a known drop counts as moved.
        known = np.array([np.nan if d is None else d for d in drops]).view(np.int64)
        rests = np.zeros(len(members))
        order = np.arange(len(self.placed))
        for w in range(wave.max(initial=-1) + 1):
            at = np.flatnonzero(wave == w)
            objs = members[at]
            # The earlier objects whose boxes meet an object's are all it can rest on.
            stale = (self.meets[objs] & self.moved & (order < objs[:, None])).any(axis=1)
            wave_drops = [None if s else drops[i] for i, s in zip(at.tolist(), stale.tolist())]
            rests[at] = self._rest(objs, wave_drops)
            # ``_rest`` returns minus the drops, so negating gives back their bits.
            self.moved[objs] = (-rests[at]).view(np.int64) != known[at]
        return rests.tolist()

    def _rest(self, members: np.ndarray, drops: list[float | None]) -> np.ndarray:
        """Drop objects ``members``, whose xy boxes are pairwise disjoint, and rest them all.

        Returns the rest z offsets.
        """
        counts, starts = self.counts[members], self.starts[members]
        search = [i for i, d in enumerate(drops) if d is None]
        drops = np.array([0.0 if d is None else d for d in drops])
        if search:
            drops[search] = self._lowest_gaps(members[search])
        planes, verts = (
            _gather_runs(starts[:, col], counts[:, col], _run_starts(counts[:, col]))
            for col in (0, 1)
        )
        self.verts[verts, 2] -= np.repeat(drops, counts[:, 1])  # now at rest
        # Translating a plane set by -drop along z shifts each offset by -nz*drop.
        self.planes[planes, 3] -= self.planes[planes, 2] * np.repeat(drops, counts[:, 0])
        # Rounding is monotonic, so the lowered extremes are the extremes of the lowered vertices.
        self.lo[members, 2] -= drops
        self.hi[members, 2] -= drops
        self.rested[members] = True
        for i, drop in zip(members.tolist(), drops):
            p = self.placed[i]
            p.translation = p.translation + np.array([0.0, 0.0, -drop])
        return -drops

    def _lowest_gaps(self, members: np.ndarray) -> np.ndarray:
        """The smallest clearance below each object ``members`` onto the rested objects: its drop.

        The incoming objects' rows are gathered from the table, padded; none is changed.
        """
        counts, starts = self.counts[members], self.starts[members]
        tables = ((0, self.planes), (1, self.verts), (2, self.segs), (2, self.seg_planes))
        planes, wverts, segs, seg_planes = (
            _padded(rows, starts[:, col], counts[:, col]) for col, rows in tables
        )
        aabb_min, aabb_max = self.lo[members], self.hi[members]
        drop = aabb_min[:, 2] - self.floor
        meets = self.meets[members] & self.rested
        body, cand = np.nonzero(meets)
        if not len(body):
            return drop
        top = self.hi[:, 2]
        # The highest candidate is the likeliest support: its gaps seed the bound.
        seeded = np.flatnonzero(meets.any(axis=1))
        seed = np.full(len(members), -1)
        seed[seeded] = np.where(meets[seeded], top, -np.inf).argmax(axis=1)
        drop[seeded] = np.minimum(drop[seeded], self._vertices_above(wverts, seeded, seed[seeded]))
        # An attained clearance bounds each drop; a body whose top lies deeper
        # than that (plus rounding) holds no smaller gap.
        depth = aabb_min[body, 2] - top[cand]
        keep = depth <= drop[body] + _PRUNE_MARGIN
        full = np.flatnonzero(keep & (cand != seed[body]))
        if len(full):
            gaps = self._vertices_above(wverts, body[full], cand[full])
            np.minimum.at(drop, body[full], gaps)
        keep &= depth <= drop[body] + _PRUNE_MARGIN
        if not keep.any():
            return drop
        body, cand = body[keep], cand[keep]
        # Nearby rested vertices under the incoming lower envelope.
        n_verts = self.counts[cand, 1]
        r_verts = self.verts[_gather_runs(self.starts[cand, 1], n_verts, _run_starts(n_verts))]
        pt_body = np.repeat(body, n_verts)
        near = (r_verts[:, :2] >= aabb_min[pt_body, :2]) & (r_verts[:, :2] <= aabb_max[pt_body, :2])
        near = np.flatnonzero(near.all(axis=1))
        if len(near):
            pts, pt_body = r_verts[near], pt_body[near]
            low, ok = _lower_envelopes(planes, pt_body, pts[:, :2])
            np.minimum.at(drop, pt_body[ok], low[ok] - pts[ok, 2])
            keep = aabb_min[body, 2] - top[cand] <= drop[body] + _PRUNE_MARGIN
            body, cand = body[keep], cand[keep]
        # Crossings of incoming edges with rested edges whose xy box meets the incoming AABB.
        n_segs = self.counts[cand, 2]
        rows = _gather_runs(self.starts[cand, 2], n_segs, _run_starts(n_segs))
        pair = np.repeat(np.arange(len(body)), n_segs)
        hits = (self.seg_lo[rows] <= aabb_max[body[pair], :2]) & (
            self.seg_hi[rows] >= aabb_min[body[pair], :2]
        )
        hits = np.flatnonzero(hits.all(axis=1))
        rows, pair = rows[hits], pair[hits]
        cross, (seg, edge) = _segment_crossings(segs[body[pair]], self.segs[rows][:, None])
        if not len(cross):
            return drop
        pair, rows = pair[seg], rows[seg]
        at = body[pair]
        # Both full envelopes only where one plane per body leaves room for a smaller gap.
        below, above = seg_planes[at, edge, 0], self.seg_planes[rows, 1]
        live = np.flatnonzero(_crossing_bounds(self.planes, below, above, cross) <= drop[at])
        if len(live):
            gaps, at = self._crossing_gaps(planes, at[live], cand[pair[live]], cross[live])
            np.minimum.at(drop, at, gaps)
        return drop

    def _vertices_above(self, wverts: np.ndarray, body: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Per (body, cand) pair, the smallest gap from an incoming vertex down to the candidate.

        ``wverts`` holds the incoming bodies' padded vertices, and ``cand``
        indexes the table. A pair with no vertex over the candidate gives inf.
        """
        n_planes = self.counts[cand, 0]
        plane_starts = _run_starts(n_planes)
        pl = self.planes[_gather_runs(self.starts[cand, 0], n_planes, plane_starts)]
        row = np.repeat(body, n_planes)
        c = pl[:, 3:4] - pl[:, 0:1] * wverts[row, :, 0] - pl[:, 1:2] * wverts[row, :, 1]
        _, high, ok = _grouped_envelopes(c, pl[:, 2:3], plane_starts)
        return np.where(ok, wverts[body, :, 2] - high, np.inf).min(axis=1)

    def _crossing_gaps(
        self, planes: np.ndarray, at: np.ndarray, cand: np.ndarray, xy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The gap at each crossing ``xy`` from incoming body ``at`` down to rested object ``cand``.

        ``planes`` holds the incoming bodies' padded planes, and ``cand``
        indexes the table. Returns the gaps where both envelopes are
        feasible, and their bodies.
        """
        low, low_ok = _lower_envelopes(planes, at, xy)
        # Pair each crossing with the planes of its own rested body only.
        n_pair = self.counts[cand, 0]
        pair_starts = _run_starts(n_pair)
        pp = self.planes[_gather_runs(self.starts[cand, 0], n_pair, pair_starts)]
        point = np.repeat(np.arange(len(xy)), n_pair)
        c = pp[:, 3] - xy[point, 0] * pp[:, 0] - xy[point, 1] * pp[:, 1]
        _, high, ok = _grouped_envelopes(c, pp[:, 2], pair_starts)
        both = low_ok & ok
        return low[both] - high[both], at[both]


def _lower_envelopes(
    planes: np.ndarray, at: np.ndarray, xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(z_low, feasible) of the padded plane sets ``planes[at]``, one per column ``xy``."""
    own = planes[at].transpose(1, 0, 2)  # (F, columns, 4)
    c = own[..., 3] - own[..., 0] * xy[:, 0] - own[..., 1] * xy[:, 1]
    low, _, ok = _grouped_envelopes(c, own[..., 2], np.zeros(1, dtype=np.int64))
    return low[0], ok[0]


def _crossing_bounds(
    planes: np.ndarray, below: np.ndarray, above: np.ndarray, xy: np.ndarray
) -> np.ndarray:
    """A lower bound on the gap at each crossing ``xy``, from one plane per body.

    It is the z of ``planes`` row ``below``, of the incoming body, minus the
    z of row ``above``, of the rested one, both at the crossing's column.

    Each plane's z is the envelopes' own ``((o - nx*x) - ny*y) / nz``. A
    plane with ``nz < -1e-12`` is one of the terms whose maximum is the
    incoming lower envelope, and one with ``nz > 1e-12`` one of the terms
    whose minimum is the rested upper envelope; the maximum and minimum are
    exact, and subtraction rounds monotonically, so the bound is at most the
    computed gap, bit for bit. Where a plane fails its ``nz`` test the bound
    is -inf, and its crossing is never pruned.
    """
    pb, pa = planes[below], planes[above]
    ok = (pb[:, 2] < -1e-12) & (pa[:, 2] > 1e-12)
    z_below = (pb[:, 3] - pb[:, 0] * xy[:, 0] - pb[:, 1] * xy[:, 1]) / np.where(ok, pb[:, 2], -1.0)
    z_above = (pa[:, 3] - pa[:, 0] * xy[:, 0] - pa[:, 1] * xy[:, 1]) / np.where(ok, pa[:, 2], 1.0)
    return np.where(ok, z_below - z_above, -np.inf)


def _run_extremes(
    op: np.ufunc, a: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Index of the first smallest (``np.minimum``) or largest (``np.maximum``) of each run."""
    hit = np.flatnonzero(a == np.repeat(op.reduceat(a, starts), lengths))
    return hit[np.searchsorted(hit, starts)]


def _padded(rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Runs ``rows[start : start + length]`` as (B, longest, ...), padded with their first rows."""
    col = np.arange(lengths.max())
    return rows[np.where(col < lengths[:, None], col, 0) + starts[:, None]]


def settle_scene(
    objects: list[RigidObject],
    tray: Tray,
    rng: np.random.Generator,
    seed: int | None = None,
) -> Scene:
    """Drop objects at random poses inside the attack ranges, in order.

    Each object gets a uniform yaw-pitch-roll rotation and up to 50 draws of
    (x, y) until its footprint fits inside the tray walls; it then falls
    straight down onto the objects before it. Raises PlacementError when an
    object exhausts its retries.

    A pose never depends on the pile, so every pose is drawn first, in the
    same rng order as one drop at a time. The objects then settle in
    dependency wavefronts (see :meth:`_Pile.settle`), each in one
    batched pass, with the rest heights of one-by-one drops.
    """
    placed_list: list[PlacedObject] = []
    wverts: list[np.ndarray] = []
    (wx0, wx1), (wy0, wy1) = tray.x_range, tray.y_range
    for index, obj in enumerate(objects):
        yaw, pitch, roll = rng.uniform(0.0, 2.0 * np.pi, size=3)
        quat = quat_from_euler(yaw, pitch, roll)
        rot_verts = obj.vertices @ quat_to_matrix(quat).T
        (lo_x, lo_y, _), (hi_x, hi_y, _) = rot_verts.min(axis=0), rot_verts.max(axis=0)
        for attempt in range(PLACEMENT_RETRIES + 1):
            if attempt == PLACEMENT_RETRIES:
                raise PlacementError(
                    f"object {index} does not fit after {PLACEMENT_RETRIES} (x, y) retries"
                )
            x = rng.uniform(*ATTACK_RANGES.x)
            y = rng.uniform(*ATTACK_RANGES.y)
            if (
                x + lo_x >= wx0
                and x + hi_x <= wx1
                and y + lo_y >= wy0
                and y + hi_y <= wy1
            ):
                break
        placed_list.append(PlacedObject(obj, quat, np.array([x, y, 0.0])))
        # What PlacedObject.world_vertices gives, without a second rotation.
        wverts.append(rot_verts + placed_list[-1].translation)
    if placed_list:
        n = len(placed_list)
        _Pile(placed_list, wverts, tray.floor_z).settle(range(n), [None] * n)
    return Scene(tray, placed_list, seed)


def resettle(scene: Scene, removed=None) -> Scene:
    """Re-drop the objects vertically, in order, keeping (x, y) and rotation.

    Used after an excavation removes support from under the pile: pass the
    pre-dig ``scene``, which must be settled already, as :func:`settle_scene`
    and this function leave it, and the ``removed`` indices. The removed
    objects are marked moved, and the kept ones settle in wavefronts with
    their known drops (see :meth:`_Pile.settle`): one searches only if its
    box meets an earlier object that was removed or that came to rest at a
    new height, and every other one rests at its known drop.
    ``removed=None`` re-drops every object, which is the reference that a
    resettle matches byte for byte.
    """
    if not scene.placed:
        return Scene(scene.tray, [], scene.seed)
    # Every pre-dig object posed at z offset 0; the removed ones only lend their boxes.
    placed = [
        PlacedObject(p.obj, p.quat.copy(), np.array([p.translation[0], p.translation[1], 0.0]))
        for p in scene.placed
    ]
    n = len(placed)
    pile = _Pile(placed, [p.world_vertices() for p in placed], scene.tray.floor_z)
    if removed is None:
        pile.settle(range(n), [None] * n)
        return Scene(scene.tray, placed, scene.seed)
    pile.moved[list(removed)] = True
    kept = np.flatnonzero(~pile.moved)
    pile.settle(kept, [-float(scene.placed[i].translation[2]) for i in kept])
    return Scene(scene.tray, [placed[i] for i in kept], scene.seed)


def spawn_scene(seed: int, count_range: tuple[int, int]) -> Scene:
    """Generate and settle a full scene from one seed (count drawn inclusive)."""
    lo, hi = count_range
    if not 0 < lo <= hi:
        raise SizeError(f"bad object count range {count_range}")
    rng = np.random.default_rng(seed)
    count = int(rng.integers(lo, hi + 1))
    return settle_scene(gen_objects(rng, count), Tray(), rng, seed=seed)


# ---------------------------------------------------------------------------
# SCENE v1 serialization

_SCENE_MAGIC = b"SCN1"
_SCENE_VERSION = 1


def save_scene(scene: Scene, path) -> None:
    """Binary little-endian scene snapshot; byte-exact across round trips."""
    t = scene.tray
    with open(path, "wb") as fh:
        fh.write(_SCENE_MAGIC)
        fh.write(struct.pack("<I", _SCENE_VERSION))
        fh.write(
            struct.pack(
                "<5d", t.inner_length, t.inner_width, t.wall_height, t.wall_thickness, t.floor_z
            )
        )
        fh.write(struct.pack("<q", -1 if scene.seed is None else int(scene.seed)))
        fh.write(struct.pack("<I", scene.object_count))
        for p in scene.placed:
            fh.write(struct.pack("<II", len(p.obj.vertices), len(p.obj.faces)))
            fh.write(struct.pack("<d", p.obj.density))
            fh.write(np.ascontiguousarray(p.obj.vertices, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(p.obj.faces, dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(p.quat, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(p.translation, dtype="<f8").tobytes())


def load_scene(path) -> Scene:
    with open(path, "rb") as fh:
        rd = BlobReader(fh.read(), path)
    if rd.take(4) != _SCENE_MAGIC:
        raise ShapeError(f"{path} is not a scene file (bad magic)")
    (version,) = rd.unpack("<I")
    if version != _SCENE_VERSION:
        raise ShapeError(f"unsupported scene version {version}")
    fields = rd.unpack("<5d")
    if not (np.isfinite(fields).all() and fields[0] > 0 and fields[1] > 0):
        raise ShapeError(f"{path}: tray {fields} is not finite with a positive length and width")
    tray = Tray(*fields)
    seed, count = rd.unpack("<qI")
    verts, faces, poses = [], [], []
    for index in range(count):
        nv, nf, density = rd.unpack("<IId")
        verts.append(rd.array("<f8", nv * 3).reshape(nv, 3))
        faces.append(rd.array("<u4", nf * 3).reshape(nf, 3).astype(np.int64))
        # Laid end to end, an index past its own object would read the next one's vertices.
        if nf and faces[-1].max() >= nv:
            raise ShapeError(f"{path}: object {index} has a face index beyond its {nv} vertices")
        poses.append((density, rd.array("<f8", 4), rd.array("<f8", 3)))
    rd.finish()
    volumes = []
    if count:
        joined, shifted, starts, n_faces = _laid_end_to_end(verts, faces)
        quats, trans = np.array([p[1] for p in poses]), np.array([p[2] for p in poses])
        vertex_rows = np.flatnonzero(~np.isfinite(joined).all(axis=1))
        for what, bad in (
            ("a non-finite vertex", np.searchsorted(starts, vertex_rows, "right") - 1),
            ("a non-finite quaternion", np.flatnonzero(~np.isfinite(quats).all(axis=1))),
            ("a non-finite translation", np.flatnonzero(~np.isfinite(trans).all(axis=1))),
            ("a zero quaternion", np.flatnonzero(~(np.linalg.norm(quats, axis=1) > 0))),
        ):
            if len(bad):
                raise ShapeError(f"{path}: object {bad[0]} has {what}")
        volumes = _mesh_volumes(joined, shifted, n_faces)
    placed = []
    for index, (vol, v, f, (density, quat, trans)) in enumerate(zip(volumes, verts, faces, poses)):
        if not 0 < vol < np.inf:
            raise DegenerateGeometryError(f"{path}: object {index} has volume {vol}")
        placed.append(PlacedObject(RigidObject(v, f, vol, density), quat, trans))
    return Scene(tray, placed, None if seed < 0 else int(seed))
