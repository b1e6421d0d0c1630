"""Hierarchical point-cloud encoder-decoder with geometric self-supervision.

The encoder stacks five grouping levels. Each level picks centers by farthest
point sampling, gathers the neighbors inside a radius ball around every
center with one batched query (capped per group), runs a small shared
two-layer tanh MLP on the members' center-relative coordinates concatenated
with their features, and max-pools each group over its run of member rows.
The last level's features plus center positions, flattened, form the
fixed-size code consumed by the digging policy. As in PointNet++, the code comes from set abstraction
alone, so the policy's encode runs the encoder and no decoder.

The decoder walks back up: features are interpolated onto the next finer
level by inverse-squared-distance weighting over the three nearest coarse
centers, concatenated with that level's encoder features, and mixed by
another two-layer MLP. Each step's interpolation is one
``nn.weighted_gather`` node, and the plan stores its IDW weights in the
store's dtype, so a float32 net multiplies float32 weights. At the finest
step the skip input is each point's offset to its nearest first-level
center, so the whole per-point path sees only relative geometry and is
exactly translation invariant.

The sampling, grouping and interpolation depend on the coordinates alone,
so :meth:`RepNet.plan` computes them once as a :class:`GroupingPlan`: per
encoder level the FPS centers, the ball-query members with the start of
each group's run and the radius-scaled offsets, and per decoder step the
IDW indices and weights (in the store's dtype), plus the finest skip
offsets. :meth:`RepNet.forward` and :meth:`RepNet.predict` run on a plan,
and :meth:`RepNet.encoder` on the encoder levels alone
(:meth:`RepNet.levels`), so the policy's encode computes no decoder
stencil. ``train_rep`` builds the plans of its evaluation clouds once per
call; nothing caches them across calls.

Per-point heads predict the surface normal and the curvature; a global head
max-pools the coarsest features into an object-count estimate. Training is
self-supervised: the targets are PCA labels computed on the observed cloud
itself plus the known ground-truth object count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import OBJECT_COUNT_RANGE, Profile, seed_stream
from .errors import FRACTION, NON_NEGATIVE, POSITIVE, DigrlError, ShapeError, SizeError
from .errors import require, require_positive, text_lines
from .geometry import (
    CURVATURE_MAX,
    PointCloud,
    ball_query,
    fps,
    idw_weights,
    load_xyzl,
    save_xyzl,
)
from .scenegen import load_scene, save_scene, spawn_scene
from .sensor import label_observation, observe

NORMAL_LOSS_WEIGHT = 10.0
COUNT_SCALE = 300.0  # object counts are regressed as count / COUNT_SCALE
INTERP_K = 3
# Decoder output columns: 3 for the normal, then 1 for the curvature.
LABEL_WIDTH = 4
# Ball-query radius (m) and member cap of each encoder level, at every profile.
LEVEL_RADII = (0.05, 0.10, 0.20, 0.30, 0.40)
LEVEL_GROUP_SIZES = (32, 32, 32, 16, 8)
SPLITS = ("train", "val")


@dataclass(frozen=True)
class Level:
    """One encoder level's grouping of the previous level's points.

    ``members`` lists the grouped points one row per member, each group's
    members as one run of consecutive rows, nearest first; ``starts`` holds
    the first row of each group's run, so its max pool is
    ``nn.max_pool_groups(h, starts)``. ``offsets`` are the members' offsets
    to their centers divided by the level's radius, in the store's dtype.
    """

    centers: np.ndarray
    members: np.ndarray
    starts: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class GroupingPlan:
    """Everything :meth:`RepNet.forward` needs from the coordinates alone.

    ``levels`` holds each encoder level's :class:`Level`, its groups laid
    out as runs of member rows. ``stencils`` holds the decoder's IDW
    (indices, weights), coarsest step first, and ``skip`` each point's
    offset to its nearest first-level center over the first radius. The
    weights and ``skip`` are in the store's dtype.
    """

    levels: tuple[Level, ...]
    stencils: tuple[tuple[np.ndarray, np.ndarray], ...]
    skip: np.ndarray


class RepNet:
    """Encoder-decoder over one observed cloud, built on the autodiff graph.

    With a ``seed`` the network is new and draws its parameters from the
    ``repnet-init`` stream; without one it reads them from ``store``, as
    loaded from a checkpoint (see :func:`nn.bind`).
    """

    def __init__(
        self,
        profile: Profile,
        store: nn.ParamStore | None = None,
        seed: int | None = None,
    ) -> None:
        self.profile = profile
        rng = None if seed is None else seed_stream(seed, "repnet-init")
        self.store = nn.bind(store, self._draw, rng)

    def _draw(self, store: nn.ParamStore, rng: np.random.Generator) -> None:
        p = self.profile
        f_prev = 0
        for i, width in enumerate(p.level_widths):
            store.add_linear(f"sa{i + 1}_l1", 3 + f_prev, width, rng)
            store.add_linear(f"sa{i + 1}_l2", width, width, rng)
            f_prev = width
        # Decoder, coarsest first: fp5 refines onto level-4 points, ..., fp1
        # onto the raw cloud, whose skip input is its 3 offsets. The last
        # stage keeps a hidden layer at the last decoder width before the
        # label output.
        skips = (*p.level_widths[-2::-1], 3)
        for j, skip in enumerate(skips):
            width = p.fp_widths[min(j, len(p.fp_widths) - 1)]
            out = width if j + 1 < len(skips) else LABEL_WIDTH
            store.add_linear(f"fp{len(skips) - j}_l1", f_prev + skip, width, rng)
            store.add_linear(f"fp{len(skips) - j}_l2", width, out, rng)
            f_prev = out
        store.add_linear("cnt_l1", p.level_widths[-1], 64, rng)
        store.add_linear("cnt_l2", 64, 32, rng)
        store.add_linear("cnt_l3", 32, 1, rng)

    def _layer(self, x: nn.Tensor, name: str) -> nn.Tensor:
        return nn.linear(x, self.store.tensor(name + ".w"), self.store.tensor(name + ".b"))

    def _norm_layer(self, x: nn.Tensor, name: str) -> nn.Tensor:
        """Linear layer followed by per-channel standardization over points.

        The standardization removes any constant-across-points component
        per channel, so the trunk cannot satisfy the losses with a cloud
        wide constant prediction, and it keeps pre-activations in the
        responsive range of the squashing nonlinearity. Output and
        single-row layers stay plain linear.
        """
        return nn.standardize_cols(self._layer(x, name))

    def levels(self, points) -> tuple[Level, ...]:
        """FPS centers and ball-query groups of every encoder level of one (N, 3) cloud."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeError(f"expected (N, 3) points, got {pts.shape}")
        p = self.profile
        if len(pts) < p.level_points[0]:
            raise SizeError(
                f"cloud of {len(pts)} points is below the first grouping level "
                f"({p.level_points[0]}); profile {p.name!r} expects denser input"
            )
        levels = []
        prev = pts
        for i in range(len(p.level_points)):
            centers = prev[fps(prev, p.level_points[i])]
            groups = ball_query(prev, centers, LEVEL_RADII[i], LEVEL_GROUP_SIZES[i])
            # Row-major order lays each group's members out as one run; no
            # group is empty.
            valid = groups >= 0
            members = groups[valid]
            sizes = np.count_nonzero(valid, axis=1)
            starts = np.cumsum(sizes) - sizes
            rows = np.repeat(np.arange(len(groups)), sizes)
            # Offsets are divided by the grouping radius so every level sees
            # inputs near unit scale; raw meter offsets are too small for the
            # tanh layers to train on.
            rel = (prev[members] - centers[rows]) / LEVEL_RADII[i]
            levels.append(Level(centers, members, starts, rel.astype(self.store.dtype)))
            prev = centers
        return tuple(levels)

    def plan(self, points) -> GroupingPlan:
        """The weight-free geometry a :meth:`forward` on these points needs."""
        levels = self.levels(points)
        pts = np.asarray(points, dtype=np.float64)
        positions = [pts] + [lv.centers for lv in levels]
        dtype = self.store.dtype
        stencils = []
        for j in range(len(levels), 0, -1):
            idx, wts = idw_weights(positions[j], positions[j - 1], k=INTERP_K)
            stencils.append((idx, wts.astype(dtype)))
        nearest = positions[1][stencils[-1][0][:, 0]]
        skip = (pts - nearest) / LEVEL_RADII[0]
        return GroupingPlan(levels, tuple(stencils), skip.astype(dtype))

    def encoder(self, levels: tuple[Level, ...]) -> dict:
        """Set abstraction over one cloud's :meth:`levels`: the encoder half of :meth:`forward`.

        Returns the flattened ``code`` tensor and each level's pooled ``feats``.
        """
        dtype = self.store.dtype
        level_feats: list[nn.Tensor] = []
        feats: nn.Tensor | None = None
        for i, lv in enumerate(levels):
            rel_t = nn.Tensor.const(lv.offsets)
            if feats is None:
                x = rel_t
            else:
                x = nn.concat([rel_t, nn.gather_rows(feats, lv.members)], axis=1)
            h = nn.tanh(self._norm_layer(x, f"sa{i + 1}_l1"))
            h = nn.tanh(self._norm_layer(h, f"sa{i + 1}_l2"))
            feats = nn.max_pool_groups(h, lv.starts)
            level_feats.append(feats)

        code = nn.reshape(
            nn.concat([feats, nn.Tensor.const(levels[-1].centers, dtype=dtype)], axis=1), (-1,)
        )
        return {"code": code, "feats": level_feats}

    def forward(self, plan: GroupingPlan) -> dict:
        """Run the full network on one cloud's :meth:`plan`: :meth:`encoder`, then the decoder.

        Returns a dict of graph tensors: per-point raw ``normals`` (N, 3) and
        ``curvature`` (N, 1), the scalar-normalized ``count`` (1, 1), and
        the flattened ``code``.
        """
        enc = self.encoder(plan.levels)
        level_feats = enc["feats"]
        cur = level_feats[-1]
        for j, (idx, wts) in zip(range(len(level_feats), 0, -1), plan.stencils):
            skip = level_feats[j - 2] if j > 1 else nn.Tensor.const(plan.skip)
            x = nn.concat([nn.weighted_gather(cur, idx, wts), skip], axis=1)
            cur = nn.tanh(self._norm_layer(x, f"fp{j}_l1"))
            if j > 1:
                cur = nn.tanh(self._norm_layer(cur, f"fp{j}_l2"))
            else:
                cur = self._layer(cur, "fp1_l2")

        normals = nn.col_slice(cur, 0, 3)
        curvature = nn.col_slice(cur, 3, LABEL_WIDTH)
        ch = nn.relu(self._norm_layer(level_feats[-1], "cnt_l1"))
        pooled = nn.max_pool_groups(ch, [0])
        ch = nn.relu(self._layer(pooled, "cnt_l2"))
        count = self._layer(ch, "cnt_l3")
        return {
            "normals": normals,
            "curvature": curvature,
            "count": count,
            "code": enc["code"],
        }

    def encode(self, points) -> np.ndarray:
        """Fixed-size scene code for the policy (no gradients retained)."""
        return np.array(self.encoder(self.levels(points))["code"].value, dtype=np.float64)

    def predict(self, plan: GroupingPlan) -> tuple[np.ndarray, np.ndarray, float]:
        """Evaluated labels of one cloud's :meth:`plan`: unit normals, clipped curvature, count."""
        out = self.forward(plan)
        raw = np.asarray(out["normals"].value, dtype=np.float64)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        normals = raw / np.where(norms <= 1e-8, 1e-8, norms)
        curv = np.clip(
            np.asarray(out["curvature"].value, dtype=np.float64).reshape(-1),
            0.0,
            CURVATURE_MAX,
        )
        count = float(out["count"].value.reshape(())) * COUNT_SCALE
        return normals, curv, count


def rep_loss(out: dict, normals_gt, curvature_gt, count: int) -> nn.Tensor:
    """Combined label loss: weighted normal alignment + curvature + count."""
    n_loss = nn.normal_loss(out["normals"], normals_gt)
    c_loss = nn.smooth_l1(out["curvature"], np.asarray(curvature_gt).reshape(-1, 1))
    o_target = np.array([[count / COUNT_SCALE]])
    o_loss = nn.smooth_l1(out["count"], o_target)
    return nn.add(nn.add(nn.mul(n_loss, NORMAL_LOSS_WEIGHT), c_loss), o_loss)


# ---------------------------------------------------------------------------
# Dataset: labeled observations on disk


@dataclass
class RepSample:
    scene_id: str
    points: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    count: int
    split: str


def gen_scene_files(
    out_dir,
    profile: Profile,
    seed: int = 0,
    n_scenes: int | None = None,
    count_range: tuple[int, int] = OBJECT_COUNT_RANGE,
    progress=None,
) -> list[str]:
    """Spawn settled scenes and write them under ``raw_scenes/NNNN.scene``; returns their paths.

    ``n_scenes`` defaults to the profile's ``rep_scenes``. Each SCENE file
    records its scene's seed and object count, so nothing else is written.
    A ``raw_scenes`` that already holds SCENE files raises DigrlError, since
    ``label`` would mix the old scenes into the new set; nothing is deleted.
    """
    n_scenes = n_scenes if n_scenes is not None else profile.rep_scenes
    require_positive(n_scenes=n_scenes)
    raw_dir = os.path.join(out_dir, "raw_scenes")
    if os.path.isdir(raw_dir) and any(name.endswith(".scene") for name in os.listdir(raw_dir)):
        raise DigrlError(f"{raw_dir} already holds .scene files; generate into a new directory")
    os.makedirs(raw_dir, exist_ok=True)
    paths = []
    for i in range(n_scenes):
        scene_seed = int(seed_stream(seed, f"rep-scene-{i}").integers(0, 2**62))
        paths.append(os.path.join(raw_dir, f"{i:04d}.scene"))
        save_scene(spawn_scene(scene_seed, count_range=count_range), paths[-1])
        if progress is not None:
            progress(i + 1, n_scenes)
    return paths


def label_scene_files(
    root_dir,
    profile: Profile,
    out_dir=None,
    seed: int = 0,
    val_fraction: float = 0.1,
    progress=None,
) -> list[str]:
    """Observe and label every ``raw_scenes/<id>.scene`` into ``scenes/<id>.xyzl``.

    Scenes go in the integer order of their ids. The ``manifest.txt`` written
    next to them, whose lines are returned, carries each scene's object count
    and train/val split. A missing or empty ``raw_scenes`` raises SizeError,
    and a scene file whose id is not decimal digits raises ShapeError.
    """
    require(FRACTION, val_fraction=val_fraction)
    out_dir = out_dir or root_dir
    raw_dir = os.path.join(root_dir, "raw_scenes")
    names = os.listdir(raw_dir) if os.path.isdir(raw_dir) else []
    ids = sorted(name[: -len(".scene")] for name in names if name.endswith(".scene"))
    if not ids:
        raise SizeError(f"no .scene files in {raw_dir}")
    bad = [i for i in ids if not (i.isascii() and i.isdigit())]
    if bad:
        raise ShapeError(f"{os.path.join(raw_dir, bad[0])}.scene: the id is not a number")
    ids.sort(key=int)
    split_rng = seed_stream(seed, "rep-split")
    splits = np.where(split_rng.random(len(ids)) < val_fraction, "val", "train")
    if len(ids) == 1:  # a lone scene is all there is to train on
        splits[0] = "train"
    elif (splits == "train").all():  # both splits must be inhabited
        splits[-1] = "val"
    elif (splits == "val").all():
        splits[-1] = "train"
    scene_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scene_dir, exist_ok=True)
    lines = []
    for k, scene_id in enumerate(ids):
        scene = load_scene(os.path.join(raw_dir, f"{scene_id}.scene"))
        obs = label_observation(observe(scene, profile.fps_target))
        save_xyzl(os.path.join(scene_dir, f"{scene_id}.xyzl"), obs.cloud)
        lines.append(f"{scene_id} count={scene.object_count} split={splits[k]}")
        if progress is not None:
            progress(k + 1, len(ids))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("# labeled observation dataset, one line per scene\n")
        fh.write("\n".join(lines) + "\n")
    return lines


def _read_manifest(path) -> list[tuple[str, dict]]:
    """The ``(scene_id, {key: value})`` entries of a manifest, one per line.

    A line is a scene id followed by ``key=value`` tokens; blank lines and
    ``#`` comments are skipped. Every entry needs a ``count`` of decimal
    digits, which is returned as an int, and a ``split`` tag of ``train`` or
    ``val``. A malformed or non-UTF-8 line raises ShapeError naming
    ``path:line``.
    """
    entries = []
    for lineno, line in text_lines(path):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        scene_id, *kvs = tokens
        where = f"{path}:{lineno}"
        bad = [kv for kv in kvs if "=" not in kv]
        if bad:
            raise ShapeError(f"{where}: expected key=value, got {bad[0]!r}")
        meta = dict(kv.split("=", 1) for kv in kvs)
        count = meta.get("count", "")
        if not (count.isascii() and count.isdigit()):
            raise ShapeError(f"{where}: needs an integer count=, got {meta.get('count')!r}")
        meta["count"] = int(count)
        if meta.get("split") not in SPLITS:
            raise ShapeError(f"{where}: split={meta.get('split')!r} is not one of {SPLITS}")
        entries.append((scene_id, meta))
    return entries


def load_rep_dataset(data_dir) -> list[RepSample]:
    samples = []
    for scene_id, meta in _read_manifest(os.path.join(data_dir, "manifest.txt")):
        cloud = load_xyzl(os.path.join(data_dir, "scenes", f"{scene_id}.xyzl"))
        samples.append(
            RepSample(
                scene_id=scene_id,
                points=cloud.points,
                normals=cloud.normals,
                curvature=cloud.curvature,
                count=meta["count"],
                split=meta["split"],
            )
        )
    if not samples:
        raise SizeError(f"no samples found under {data_dir}")
    return samples


# ---------------------------------------------------------------------------
# Training and evaluation


def eval_rep(net: RepNet, samples: list[RepSample], plans: list[GroupingPlan]) -> dict:
    """Aggregate label metrics over a sample list, given each sample's :meth:`RepNet.plan`."""
    if not samples:
        raise SizeError("eval_rep needs at least one sample")
    if len(plans) != len(samples):
        raise SizeError(f"{len(plans)} plans for {len(samples)} samples")
    cos_sum, cos_n = 0.0, 0
    curv_sum = 0.0
    count_err = []
    for s, plan in zip(samples, plans):
        normals, curv, count = net.predict(plan)
        cos_sum += float(np.sum(np.sum(normals * s.normals, axis=1)))
        cos_n += len(s.points)
        curv_sum += float(np.sum(np.abs(curv - s.curvature)))
        count_err.append(abs(count - s.count))
    cos_mean = cos_sum / cos_n
    return {
        "normal_cos": cos_mean,
        "normal_deg": float(np.degrees(np.arccos(np.clip(cos_mean, -1.0, 1.0)))),
        "curv_mae": curv_sum / cos_n,
        "count_mae": float(np.mean(count_err)),
    }


def eval_splits(net: RepNet, samples: list[RepSample], plans: list[GroupingPlan]) -> list[dict]:
    """One :func:`eval_rep` row, tagged ``split``, per split of ``SPLITS`` that holds a sample.

    ``plans[i]`` is the :meth:`RepNet.plan` of ``samples[i]``. Each row also
    carries, on its split, the constant predictor's score on each metric:
    ``normal_cos_floor`` is the mean cos of (0, 0, 1) against the labels,
    ``curv_mae_floor`` the curvature MAE of the training labels' median and
    ``count_mae_floor`` the count MAE of the training mean count. The
    constants are fit on the training samples passed in, or on all of them
    if none is a training sample.
    """
    if len(plans) != len(samples):
        raise SizeError(f"{len(plans)} plans for {len(samples)} samples")
    fit = [s for s in samples if s.split == "train"] or samples
    curv_median = float(np.median(np.concatenate([s.curvature for s in fit])))
    count_mean = float(np.mean([s.count for s in fit]))
    rows = []
    for split in SPLITS:
        keep = [i for i, s in enumerate(samples) if s.split == split]
        if keep:
            part = [samples[i] for i in keep]
            n_points = sum(len(s.points) for s in part)
            cos_sum = sum(float(np.sum(s.normals[:, 2])) for s in part)
            curv_sum = sum(float(np.sum(np.abs(curv_median - s.curvature))) for s in part)
            rows.append(
                {
                    "split": split,
                    **eval_rep(net, part, [plans[i] for i in keep]),
                    "normal_cos_floor": cos_sum / n_points,
                    "curv_mae_floor": curv_sum / n_points,
                    "count_mae_floor": float(np.mean([abs(count_mean - s.count) for s in part])),
                }
            )
    return rows


def format_metrics(row: dict) -> str:
    """One printed line of an :func:`eval_splits` row, each floor after its metric."""
    return (
        "{split} cos={normal_cos:.4f} (floor {normal_cos_floor:.4f}) deg={normal_deg:.2f} "
        "curv_mae={curv_mae:.4f} (floor {curv_mae_floor:.4f}) "
        "count_mae={count_mae:.2f} (floor {count_mae_floor:.2f})".format_map(row)
    )


def train_rep(
    samples: list[RepSample],
    profile: Profile,
    seed: int = 0,
    epochs: int = 10,
    batch_size: int = 16,
    lr: float = 0.01,
    weight_decay: float = 1e-4,
    translate_jitter: float = 0.1,
    log=None,
) -> tuple[RepNet, list[dict]]:
    """Train the label heads; returns the net and per-epoch split metrics.

    Each optimizer step averages gradients over a batch of clouds; every
    cloud is jittered by one shared planar translation, which the network
    must ignore by construction. A jittered cloud is new at every step, so
    each training forward groups it afresh. The end-of-epoch evaluation
    sees the same unjittered clouds every epoch: their grouping plans hold
    no weights, so they are built once, before the first epoch, and kept
    for this call only. Training aborts on a non-finite loss.
    """
    require_positive(epochs=epochs, batch_size=batch_size)
    require(POSITIVE, lr=lr)
    require(NON_NEGATIVE, weight_decay=weight_decay, translate_jitter=translate_jitter)
    net = RepNet(profile, seed=seed)
    rng = seed_stream(seed, "rep-train")
    train = [s for s in samples if s.split == "train"]
    if not train:
        raise SizeError("no training split")
    plans = [net.plan(s.points) for s in samples]
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train))
        for lo in range(0, len(order), batch_size):
            batch = [train[i] for i in order[lo : lo + batch_size]]
            net.store.zero_grads()
            for s in batch:
                shift = np.zeros(3)
                shift[:2] = rng.uniform(-translate_jitter, translate_jitter, size=2)
                out = net.forward(net.plan(s.points + shift))
                loss = nn.mul(rep_loss(out, s.normals, s.curvature, s.count), 1.0 / len(batch))
                if not np.isfinite(loss.value):
                    raise DigrlError(f"non-finite loss at epoch {epoch}")
                nn.backward(loss)
            net.store.adam_step(lr, weight_decay=weight_decay)
        for row in eval_splits(net, samples, plans):
            history.append({"epoch": epoch, **row})
            if log is not None:
                log(f"epoch {epoch} " + format_metrics(row))
    return net, history


METRIC_FIELDS = (
    "epoch",
    "split",
    "normal_cos",
    "normal_cos_floor",
    "normal_deg",
    "curv_mae",
    "curv_mae_floor",
    "count_mae",
    "count_mae_floor",
)
