"""Binary loaders reject every truncation and trailing bytes with ShapeError."""

import numpy as np
import pytest

from digrl import nn
from digrl.errors import ShapeError
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
