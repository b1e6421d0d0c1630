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
another two-layer MLP. At the finest step the skip input is each point's
offset to its nearest first-level center, so the whole per-point path sees
only relative geometry and is exactly translation invariant.

The sampling, grouping and interpolation depend on the coordinates alone,
so :meth:`RepNet.plan` computes them once as a :class:`GroupingPlan`: per
encoder level the FPS centers, the ball-query members with the start of
each group's run and the radius-scaled offsets, and per decoder step the
IDW indices and weights, plus the finest skip offsets. :meth:`RepNet.forward`
and :meth:`RepNet.predict` run on a plan, and :meth:`RepNet.encoder` on the
encoder levels alone (:meth:`RepNet.levels`), so the policy's encode computes
no decoder stencil. ``train_rep`` builds the plans of its evaluation clouds
once per call; nothing caches them across calls.

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
from .config import OBJECT_COUNT_RANGE, Profile, get_profile, seed_stream
from .errors import DigrlError, ShapeError, SizeError, require_positive, text_lines
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
from .sensor import SensorConfig, label_observation, observe

NORMAL_LOSS_WEIGHT = 10.0
COUNT_SCALE = 300.0  # object counts are regressed as count / COUNT_SCALE
INTERP_K = 3
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
    offset to its nearest first-level center over the first radius, in the
    store's dtype.
    """

    levels: tuple[Level, ...]
    stencils: tuple[tuple[np.ndarray, np.ndarray], ...]
    skip: np.ndarray


class RepNet:
    """Encoder-decoder over one observed cloud, built on the autodiff graph."""

    def __init__(
        self,
        profile: Profile | None = None,
        store: nn.ParamStore | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile or get_profile()
        p = self.profile
        if store is None:
            store = nn.ParamStore()
        if "sa1_l1.w" not in store:
            rng = seed_stream(seed, "repnet-init")
            f_prev = 0
            for i, width in enumerate(p.level_widths):
                store.add_linear(f"sa{i + 1}_l1", 3 + f_prev, width, rng)
                store.add_linear(f"sa{i + 1}_l2", width, width, rng)
                f_prev = width
            # Decoder, coarsest first: fp5 refines onto level-4 points, ...,
            # fp1 onto the raw cloud. The last stage keeps a hidden layer at
            # the second-to-last decoder width before the 4-channel output.
            w = p.level_widths
            fpw = p.fp_widths
            ins = [w[4] + w[3], fpw[0] + w[2], fpw[1] + w[1], fpw[2] + w[0], fpw[3] + 3]
            for j in range(4):
                store.add_linear(f"fp{5 - j}_l1", ins[j], fpw[j], rng)
                store.add_linear(f"fp{5 - j}_l2", fpw[j], fpw[j], rng)
            store.add_linear("fp1_l1", ins[4], fpw[3], rng)
            store.add_linear("fp1_l2", fpw[3], fpw[4], rng)
            store.add_linear("cnt_l1", w[4], 64, rng)
            store.add_linear("cnt_l2", 64, 32, rng)
            store.add_linear("cnt_l3", 32, 1, rng)
        self.store = store

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
            groups = ball_query(prev, centers, p.level_radii[i], p.level_group_sizes[i])
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
            rel = (prev[members] - centers[rows]) / p.level_radii[i]
            levels.append(Level(centers, members, starts, rel.astype(self.store.dtype)))
            prev = centers
        return tuple(levels)

    def plan(self, points) -> GroupingPlan:
        """The weight-free geometry a :meth:`forward` on these points needs."""
        levels = self.levels(points)
        pts = np.asarray(points, dtype=np.float64)
        positions = [pts] + [lv.centers for lv in levels]
        stencils = tuple(
            idw_weights(positions[j], positions[j - 1], k=min(INTERP_K, len(positions[j])))
            for j in range(len(levels), 0, -1)
        )
        nearest = positions[1][stencils[-1][0][:, 0]]
        skip = (pts - nearest) / self.profile.level_radii[0]
        return GroupingPlan(levels, stencils, skip.astype(self.store.dtype))

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
        dtype = self.store.dtype
        level_feats = enc["feats"]
        cur = level_feats[-1]
        for j, (idx, wts) in zip(range(len(level_feats), 0, -1), plan.stencils):
            parts = [
                nn.scale_rows(nn.gather_rows(cur, idx[:, kk]), wts[:, kk].astype(dtype))
                for kk in range(idx.shape[1])
            ]
            interp = parts[0]
            for extra in parts[1:]:
                interp = nn.add(interp, extra)
            skip = level_feats[j - 2] if j > 1 else nn.Tensor.const(plan.skip)
            x = nn.concat([interp, skip], axis=1)
            cur = nn.tanh(self._norm_layer(x, f"fp{j}_l1"))
            if j > 1:
                cur = nn.tanh(self._norm_layer(cur, f"fp{j}_l2"))
            else:
                cur = self._layer(cur, "fp1_l2")

        normals = nn.col_slice(cur, 0, 3)
        curvature = nn.col_slice(cur, 3, 4)
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
    profile: Profile | None = None,
    seed: int = 0,
    n_scenes: int | None = None,
    count_range: tuple[int, int] = OBJECT_COUNT_RANGE,
    progress=None,
) -> list[str]:
    """Spawn settled scenes and write them under ``raw_scenes/NNNN.scene``.

    A ``raw_manifest.txt`` records each scene's seed and object count.
    """
    profile = profile or get_profile()
    n_scenes = n_scenes if n_scenes is not None else profile.rep_scenes
    require_positive(n_scenes=n_scenes)
    raw_dir = os.path.join(out_dir, "raw_scenes")
    os.makedirs(raw_dir, exist_ok=True)
    lines = []
    for i in range(n_scenes):
        scene_seed = int(seed_stream(seed, f"rep-scene-{i}").integers(0, 2**62))
        scene = spawn_scene(scene_seed, count_range=count_range)
        save_scene(scene, os.path.join(raw_dir, f"{i:04d}.scene"))
        lines.append(f"{i:04d} seed={scene_seed} count={scene.object_count}")
        if progress is not None:
            progress(i + 1, n_scenes)
    with open(os.path.join(out_dir, "raw_manifest.txt"), "w") as fh:
        fh.write("# settled scenes, one line per file\n")
        fh.write("\n".join(lines) + "\n")
    return lines


def label_scene_files(
    root_dir,
    out_dir=None,
    profile: Profile | None = None,
    seed: int = 0,
    val_fraction: float = 0.1,
    progress=None,
) -> list[str]:
    """Observe and label every raw scene into ``scenes/NNNN.xyzl``.

    The ``manifest.txt`` written next to them carries each scene's seed, true
    object count, and train/val split tag.
    """
    profile = profile or get_profile()
    out_dir = out_dir or root_dir
    cfg = SensorConfig(fps_target=profile.fps_target)
    raw_manifest = os.path.join(root_dir, "raw_manifest.txt")
    entries = _read_manifest(raw_manifest)
    if not entries:
        raise SizeError(f"no scenes listed in {raw_manifest}")
    split_rng = seed_stream(seed, "rep-split")
    splits = np.where(split_rng.random(len(entries)) < val_fraction, "val", "train")
    if len(entries) == 1:  # a lone scene is all there is to train on
        splits[0] = "train"
    elif (splits == "train").all():  # both splits must be inhabited
        splits[-1] = "val"
    elif (splits == "val").all():
        splits[-1] = "train"
    scene_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scene_dir, exist_ok=True)
    lines = []
    for k, (scene_id, meta) in enumerate(entries):
        scene = load_scene(os.path.join(root_dir, "raw_scenes", f"{scene_id}.scene"))
        obs = label_observation(observe(scene, cfg))
        save_xyzl(os.path.join(scene_dir, f"{scene_id}.xyzl"), obs.cloud)
        lines.append(
            f"{scene_id} seed={meta.get('seed', -1)} count={obs.object_count} "
            f"split={splits[k]}"
        )
        if progress is not None:
            progress(k + 1, len(entries))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("# labeled observation dataset, one line per scene\n")
        fh.write("\n".join(lines) + "\n")
    return lines


def _read_manifest(path) -> list[tuple[str, dict]]:
    """The ``(scene_id, {key: value})`` entries of a manifest, one per line.

    A line is a scene id followed by ``key=value`` tokens; blank lines and
    ``#`` comments are skipped. Every entry needs a ``count`` of decimal
    digits, which is returned as an int, and a ``split`` tag, if present,
    must be ``train`` or ``val``. A malformed or non-UTF-8 line raises
    ShapeError naming ``path:line``.
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
        if meta.get("split", "train") not in SPLITS:
            raise ShapeError(f"{where}: split={meta['split']!r} is not one of {SPLITS}")
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
                split=meta.get("split", "train"),
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


def train_rep(
    samples: list[RepSample],
    profile: Profile | None = None,
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
    profile = profile or get_profile()
    net = RepNet(profile, seed=seed)
    rng = seed_stream(seed, "rep-train")
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    if not train:
        raise SizeError("no training split")
    splits = {"train": train, "val": val}
    plans = {name: [net.plan(s.points) for s in split] for name, split in splits.items()}
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
        for split_name, split_samples in splits.items():
            if not split_samples:
                continue
            row = {"epoch": epoch, "split": split_name}
            row.update(eval_rep(net, split_samples, plans[split_name]))
            history.append(row)
            if log is not None:
                log(
                    "epoch %d %s cos=%.4f deg=%.2f curv=%.4f count=%.2f"
                    % (
                        epoch,
                        split_name,
                        row["normal_cos"],
                        row["normal_deg"],
                        row["curv_mae"],
                        row["count_mae"],
                    )
                )
    return net, history


METRIC_FIELDS = ("epoch", "split", "normal_cos", "normal_deg", "curv_mae", "count_mae")
