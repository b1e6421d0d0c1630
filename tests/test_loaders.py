"""Loaders reject truncated and corrupt files with the package's own errors.

Binary files raise ShapeError on every truncation and on trailing bytes.
An xyzl file records its point count and ends every line in a newline, so
every strict prefix raises ShapeError (or EmptyObservationError while the
cut is inside its comment line). EPI files record no length: a prefix either
loads the records before the cut or raises ShapeError.
"""

import numpy as np
import pytest

from digrl import nn
from digrl.errors import EmptyObservationError, ShapeError
from digrl.excavation import load_episodes, save_episodes
from digrl.geometry import PointCloud, load_xyzl, save_xyzl
from digrl.scenegen import load_scene, save_scene, spawn_scene


def scene_file(path):
    save_scene(spawn_scene(5, (3, 3)), path)


def ckpt_file(path):
    store = nn.ParamStore(dtype=np.float32)
    store.add_linear("enc.l1", 3, 2, np.random.default_rng(0))
    store.add("scalar", np.float32(1.5))
    nn.save_ckpt(store, path)


KINDS = [
    pytest.param(scene_file, load_scene, id="scene"),
    pytest.param(ckpt_file, nn.load_ckpt, id="ckpt"),
]


@pytest.mark.parametrize("write, load", KINDS)
def test_every_truncation_raises_shape_error(write, load, tmp_path):
    path = tmp_path / "whole"
    write(path)
    blob = path.read_bytes()
    load(path)  # the whole file loads
    cut = tmp_path / "cut"
    foreign = []
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        try:
            load(cut)
        except ShapeError:
            continue
        except Exception as exc:
            foreign.append((size, type(exc).__name__))
        else:
            foreign.append((size, "loaded"))
    assert foreign == [], f"{len(foreign)} of {len(blob)} truncations: {foreign[:5]}"


@pytest.mark.parametrize("write, load", KINDS)
def test_trailing_bytes_raise_shape_error(write, load, tmp_path):
    path = tmp_path / "whole"
    write(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ShapeError, match="trailing"):
        load(path)


@pytest.mark.parametrize("index", range(3))
def test_face_index_beyond_its_object_raises_shape_error(index, tmp_path):
    # Vertex 0 renumbered to one past the last vertex: laid end to end, the
    # face would read the next object's first vertex.
    scene = spawn_scene(3, (3, 3))
    obj = scene.placed[index].obj
    obj.faces = np.where(obj.faces == 0, len(obj.vertices), obj.faces)
    save_scene(scene, tmp_path / "bad.scene")
    with pytest.raises(ShapeError, match=f"object {index} has a face index beyond"):
        load_scene(tmp_path / "bad.scene")


def xyzl_file(path):
    normals = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.6, 0.8]])
    points = np.array([[0.1, -0.25, -1.5e-5], [1e-3, 2.5, -7.0], [-0.5, 0.0, 3.25]])
    save_xyzl(path, PointCloud(points, normals, np.array([0.0, 1e-5, 0.3])))


def epi_file(path):
    save_episodes(
        [
            {"episode": 0, "dig": 1, "reward": 216.5, "plan_ok": True, "kind": "ok"},
            {"episode": 0, "dig": 2, "reward": -1.0, "plan_ok": False, "kind": None},
        ],
        path,
    )


TEXT_KINDS = [
    pytest.param(xyzl_file, load_xyzl, True, id="xyzl"),
    pytest.param(epi_file, load_episodes, False, id="epi"),
]


@pytest.mark.parametrize("write, load, must_raise", TEXT_KINDS)
def test_text_truncation_loads_or_raises_shape_error(write, load, must_raise, tmp_path):
    path = tmp_path / "whole"
    write(path)
    blob = path.read_bytes()
    load(path)
    cut = tmp_path / "cut"
    foreign = []
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        try:
            load(cut)
        except ShapeError:
            continue
        except EmptyObservationError:
            # A cut inside the comment line leaves an empty cloud, not a malformed one.
            if size <= blob.index(b"\n") + 1:
                continue
            foreign.append((size, "EmptyObservationError"))
        except Exception as exc:
            foreign.append((size, type(exc).__name__))
        else:
            if must_raise:
                foreign.append((size, "loaded"))
    assert foreign == [], f"{len(foreign)} of {len(blob)} truncations: {foreign[:5]}"


def test_xyzl_header_count_mismatch_raises(tmp_path):
    path = tmp_path / "short.xyzl"
    path.write_text("# digrl point cloud, 3 points, bare\n1 2 3\n4 5 6\n")
    with pytest.raises(ShapeError, match="3 points"):
        load_xyzl(path)
    path.write_text("# digrl point cloud, 1 points, bare\n1 2 3\n4 5 6\n")
    with pytest.raises(ShapeError, match="1 points"):
        load_xyzl(path)
    path.write_text("# a hand-written cloud\n1 2 3\n4 5 6\n")
    assert len(load_xyzl(path)) == 2


def test_xyzl_final_line_without_newline_raises(tmp_path):
    path = tmp_path / "cut.xyzl"
    path.write_text("1 2 3\n4 5 6")
    with pytest.raises(ShapeError, match="cut.xyzl:2"):
        load_xyzl(path)


def test_xyzl_corrupt_field_names_line(tmp_path):
    path = tmp_path / "bad.xyzl"
    path.write_text("# cloud\n1 2 3\n4 5 six\n")
    with pytest.raises(ShapeError, match=r"bad\.xyzl:3"):
        load_xyzl(path)


def test_epi_corrupt_line_names_line(tmp_path):
    path = tmp_path / "bad.epi"
    epi_file(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + '{"episode": 0, "dig": \n' + lines[2])
    with pytest.raises(ShapeError, match=r"bad\.epi:2"):
        load_episodes(path)


@pytest.mark.parametrize("text", ["", "\n", "[1, 2]\n", '{"format": "EPI", "version": 1}\n7\n'])
def test_epi_empty_or_foreign_json_raises_shape_error(text, tmp_path):
    path = tmp_path / "odd.epi"
    path.write_text(text)
    with pytest.raises(ShapeError):
        load_episodes(path)
