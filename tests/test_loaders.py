"""Loaders reject truncated and corrupt files with the package's own errors.

Binary files raise ShapeError on every truncation and on trailing bytes.
An xyzl file records its point count and ends every line in a newline, so
every strict prefix raises ShapeError (or EmptyObservationError while the
cut is inside its comment line). A malformed dataset manifest line raises
ShapeError naming the file and line, and so does a text line that is not
UTF-8, an xyzl point that is not finite, normal without a direction or
curvature that is not finite, and a metrics row whose field count differs from its header
or whose metric cell does not parse as its number.
A scene file with a non-finite vertex, quaternion, translation or tray
field, a zero quaternion, or a tray length or width that is not positive
raises ShapeError naming the file (and the object). An object whose volume
is NaN or overflows to inf raises DegenerateGeometryError naming both.
"""

import dataclasses
import re

import numpy as np
import pytest

from digrl import nn
from digrl.bench import METRICS_FIELDS, collect_report
from digrl.errors import DegenerateGeometryError, EmptyObservationError, ShapeError
from digrl.geometry import PointCloud, load_xyzl, save_xyzl
from digrl.repnet import load_rep_dataset
from digrl.scenegen import RigidObject, load_scene, save_scene, spawn_scene


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


def set_vertex(value, index=1, row=2):
    def spoil(scene):
        scene.placed[index].obj.vertices[row, 1] = value

    return spoil


def set_pose(attr, value):
    def spoil(scene):
        getattr(scene.placed[1], attr)[...] = value

    return spoil


def set_tray(**fields):
    def spoil(scene):
        scene.tray = dataclasses.replace(scene.tray, **fields)

    return spoil


TRAY = r"tray \(.*\) is not finite with a positive length and width"
SPOILT_SCENES = [
    pytest.param(set_vertex(np.nan), r"object 1 has a non-finite vertex", id="vertex-nan"),
    pytest.param(set_vertex(-np.inf), r"object 1 has a non-finite vertex", id="vertex-inf"),
    pytest.param(set_vertex(np.nan, 2, 0), r"object 2 has a non-finite vertex", id="vertex-first"),
    pytest.param(set_pose("quat", np.nan), r"object 1 has a non-finite quaternion", id="quat-nan"),
    pytest.param(set_pose("quat", 0.0), r"object 1 has a zero quaternion", id="quat-zero"),
    pytest.param(set_pose("quat", 1e-200), r"object 1 has a zero quaternion", id="quat-tiny"),
    pytest.param(
        set_pose("translation", np.inf), r"object 1 has a non-finite translation", id="trans-inf"
    ),
    pytest.param(set_tray(inner_length=np.nan), TRAY, id="tray-length-nan"),
    pytest.param(set_tray(inner_width=0.0), TRAY, id="tray-width-zero"),
    pytest.param(set_tray(inner_length=-0.8), TRAY, id="tray-length-negative"),
    pytest.param(set_tray(wall_height=np.inf), TRAY, id="tray-wall-inf"),
    pytest.param(set_tray(floor_z=np.nan), TRAY, id="tray-floor-nan"),
]


@pytest.mark.parametrize("spoil, message", SPOILT_SCENES)
def test_non_finite_scene_raises_shape_error(spoil, message, tmp_path):
    # Such scenes used to load: a NaN vertex gives a NaN volume, which passed
    # `vol <= 0`, and a NaN tray or a zero quaternion only failed in observe.
    scene = spawn_scene(3, (3, 3))
    spoil(scene)
    save_scene(scene, tmp_path / "bad.scene")
    with pytest.raises(ShapeError, match=rf"bad\.scene: {message}"):
        load_scene(tmp_path / "bad.scene")


def test_nan_volume_raises_degenerate_geometry(tmp_path):
    # Finite vertices this large overflow the signed tetrahedra to a NaN volume.
    scene = spawn_scene(3, (3, 3))
    scene.placed[1].obj.vertices *= 1e110
    save_scene(scene, tmp_path / "huge.scene")
    with pytest.raises(DegenerateGeometryError, match="object 1 has volume nan"):
        load_scene(tmp_path / "huge.scene")
    obj = scene.placed[0].obj
    with pytest.raises(DegenerateGeometryError, match="got nan"):
        RigidObject(obj.vertices, obj.faces, float("nan"))


def test_infinite_volume_raises_degenerate_geometry(tmp_path):
    # At this scale the vertices stay finite but their volume overflows to inf;
    # it used to load, after numpy's overflow warning.
    scene = spawn_scene(3, (3, 3))
    scene.placed[1].obj.vertices *= 1e104
    save_scene(scene, tmp_path / "huge.scene")
    with pytest.raises(DegenerateGeometryError, match=r"huge\.scene: object 1 has volume inf"):
        load_scene(tmp_path / "huge.scene")
    obj = scene.placed[0].obj
    with pytest.raises(DegenerateGeometryError, match="positive and finite, got inf"):
        RigidObject(obj.vertices, obj.faces, float("inf"))


def xyzl_file(path):
    normals = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.6, 0.8]])
    points = np.array([[0.1, -0.25, -1.5e-5], [1e-3, 2.5, -7.0], [-0.5, 0.0, 3.25]])
    save_xyzl(path, PointCloud(points, normals, np.array([0.0, 1e-5, 0.3])))


@pytest.mark.parametrize("write, load", [pytest.param(xyzl_file, load_xyzl, id="xyzl")])
def test_text_truncation_loads_or_raises_shape_error(write, load, tmp_path):
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
            foreign.append((size, "loaded"))
    assert foreign == [], f"{len(foreign)} of {len(blob)} truncations: {foreign[:5]}"


def test_xyzl_header_count_mismatch_raises(tmp_path):
    path = tmp_path / "short.xyzl"
    lines = "1 2 3 0 0 1 0.1\n4 5 6 0 0 1 0.1\n"
    path.write_text("# digrl point cloud, 3 points, labeled\n" + lines)
    with pytest.raises(ShapeError, match="3 points"):
        load_xyzl(path)
    path.write_text("# digrl point cloud, 1 points, labeled\n" + lines)
    with pytest.raises(ShapeError, match="1 points"):
        load_xyzl(path)
    path.write_text("# a hand-written cloud\n" + lines)
    assert len(load_xyzl(path)) == 2


def test_xyzl_final_line_without_newline_raises(tmp_path):
    path = tmp_path / "cut.xyzl"
    path.write_text("1 2 3 0 0 1 0.1\n4 5 6 0 0 1 0.1")
    with pytest.raises(ShapeError, match="cut.xyzl:2"):
        load_xyzl(path)


def test_xyzl_corrupt_field_names_line(tmp_path):
    path = tmp_path / "bad.xyzl"
    path.write_text("# cloud\n1 2 3 0 0 1 0.1\n4 5 six 0 0 1 0.1\n")
    with pytest.raises(ShapeError, match=r"bad\.xyzl:3"):
        load_xyzl(path)



COUNT = "needs an integer count=, got "
BAD_MANIFEST_LINES = [
    pytest.param("0000 seed=1 split=train", COUNT + "None", id="no-count"),
    pytest.param("0000 count=abc split=train", COUNT + "'abc'", id="count-word"),
    pytest.param("0000 count=2.5 split=train", COUNT + "'2.5'", id="count-float"),
    pytest.param("0000 count=3_0 split=train", COUNT + "'3_0'", id="count-digit-groups"),
    pytest.param("0000 seed=1 count=2 train", "expected key=value, got 'train'", id="bare-token"),
    pytest.param("0000 count=2 split=tset", "split='tset' is not one of", id="split-typo"),
    # A line without a split loaded as a training scene.
    pytest.param("0000 seed=1 count=2", "split=None is not one of", id="no-split"),
]


@pytest.mark.parametrize("line, message", BAD_MANIFEST_LINES)
def test_manifest_bad_line_raises_shape_error(line, message, tmp_path):
    (tmp_path / "manifest.txt").write_text(f"# dataset\n{line}\n")
    with pytest.raises(ShapeError, match=re.escape(f"manifest.txt:2: {message}")):
        load_rep_dataset(tmp_path)


def ckpt_with_foreign_name(path):
    ckpt_file(path)
    blob = path.read_bytes()
    assert blob.count(b"scalar") == 1
    path.write_bytes(blob.replace(b"scalar", b"sc\xffl\xe9r"))


def write_bytes(blob):
    return lambda path: path.write_bytes(blob)


HEADER = ",".join(METRICS_FIELDS)
ROW = "rl,2,20,55.5,12.3,60.0,92.5"
FOREIGN_CONTENT = [
    pytest.param(
        "p.ckpt", ckpt_with_foreign_name, nn.load_ckpt, r"p\.ckpt: parameter name is not UTF-8",
        id="ckpt-name-bytes",
    ),
    pytest.param(
        "c.xyzl", write_bytes(b"# cloud\n1 2 3 0 0 1 0.1\n4 5 \xff\n"), load_xyzl,
        r"c\.xyzl:3: not UTF-8",
        id="xyzl-bytes",
    ),
    pytest.param(
        "c.xyzl", write_bytes(b"1 2 3 0 0 1 0.1\n4 5 6 0 0 0 0.1\n"), load_xyzl,
        r"c\.xyzl:2: normal \[0\.0, 0\.0, 0\.0\] has no direction", id="xyzl-zero-normal",
    ),
    pytest.param(
        "c.xyzl", write_bytes(b"0 0 0 0 0 1 nan\n0 0 1 0 0 1 0.1\n"), load_xyzl,
        r"c\.xyzl:1: curvature nan is not finite", id="xyzl-nan-curvature",
    ),
    pytest.param(
        "c.xyzl", write_bytes(b"nan 0 0 0 0 1 0.1\n"), load_xyzl,
        r"c\.xyzl:1: point \[nan, 0\.0, 0\.0\] is not finite", id="xyzl-nan-point",
    ),
    pytest.param(
        "manifest.txt", write_bytes(b"# dataset\n0000 count=2 split=\xe9\n"),
        lambda path: load_rep_dataset(path.parent), r"manifest\.txt:2: not UTF-8",
        id="manifest-bytes",
    ),
    pytest.param(
        "m.csv", write_bytes(b"a,b\n1,2\n"), lambda path: collect_report([str(path)]),
        r"m\.csv: not a metrics table, missing columns \['method'", id="metrics-columns",
    ),
    pytest.param(
        "m.csv", write_bytes(f"{HEADER}\na,1\n".encode()),
        lambda path: collect_report([str(path)]),
        rf"m\.csv:2: expected {len(METRICS_FIELDS)} fields like the header", id="metrics-short-row",
    ),
    pytest.param(
        "m.csv", write_bytes(f"{HEADER}\n{ROW}\n{ROW},1\n".encode()),
        lambda path: collect_report([str(path)]),
        rf"m\.csv:3: expected {len(METRICS_FIELDS)} fields like the header", id="metrics-long-row",
    ),
    pytest.param(
        "m.csv", write_bytes(f"{HEADER}\n{ROW}\nrl,2,20,abc,12.3,60.0,92.5\n".encode()),
        lambda path: collect_report([str(path)]),
        r"m\.csv:3: column avg_v_cm3 = 'abc' is not float", id="metrics-word-cell",
    ),
    pytest.param(
        "m.csv", write_bytes(f"{HEADER}\nrl,2,,55.5,12.3,60.0,92.5\n".encode()),
        lambda path: collect_report([str(path)]),
        r"m\.csv:2: column digs = '' is not int", id="metrics-empty-cell",
    ),
]


@pytest.mark.parametrize("name, write, load, message", FOREIGN_CONTENT)
def test_foreign_content_raises_shape_error(name, write, load, message, tmp_path):
    path = tmp_path / name
    write(path)
    with pytest.raises(ShapeError, match=message):
        load(path)
