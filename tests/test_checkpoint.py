"""RBNC checkpoint format: bitwise roundtrip and corruption handling."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rebasin.model import build_model, forward, mlp_descriptor
from helpers import bits_equal, models_bit_equal, rand_batch, seed_params, small_cnn_desc


def test_roundtrip_mlp_bitwise(tmp_path):
    m = seed_params(build_model(mlp_descriptor(12, [7, 5], 4)), seed=1)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert models_bit_equal(m, back)
    assert back.boundary_map == m.boundary_map
    assert back.input_shape == m.input_shape
    assert [l.kind for l in back.layers] == [l.kind for l in m.layers]


def test_roundtrip_cnn_with_norm_state(tmp_path):
    m = seed_params(build_model(small_cnn_desc()), seed=2)
    path = tmp_path / "c.rbnc"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert models_bit_equal(m, back)
    x = rand_batch((2, 8, 8), 4, seed=3)
    assert bits_equal(forward(m, x), forward(back, x))


def test_bad_magic_rejected(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=4)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=5)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=6)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])  # drop part of the last tensor
    with pytest.raises(CheckpointError, match="truncat"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=7)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _short_bias(m):
    m.params["dense0.b"] = np.zeros(1, dtype=np.float32)


def _tracked_stats_of_wrong_width(m):
    m.params["stats.b0.mean"] = np.zeros(4, dtype=np.float32)


def _boundary_map_disagrees(m):
    m.boundary_map = [("b0", 4), ("b1", 4)]


def _fan_in_disagrees(m):
    m.layers[2].n_in = 7


def _unknown_kind(m):
    m.layers[1].kind = "gelu"


@pytest.mark.parametrize("corrupt, message", [
    (_short_bias, r"dense0\.b has shape \(1,\)"),
    (lambda m: m.params.pop("dense1.w"), r"missing tensors \['dense1\.w'\]"),
    (lambda m: m.params.update({"dense9.w": m.params["dense0.w"]}), "belongs to no layer"),
    (_tracked_stats_of_wrong_width, r"stats\.b0\.mean has shape \(4,\)"),
    (_boundary_map_disagrees, "boundary map"),
    (_fan_in_disagrees, "do not compose"),
    (_unknown_kind, "unknown layer kind"),
], ids=["short_bias", "missing_tensor", "stray_tensor", "tracked_stats_width",
        "boundary_map", "fan_in", "unknown_kind"])
def test_load_rejects_tensors_that_disagree_with_layers(tmp_path, corrupt, message):
    m = seed_params(build_model(mlp_descriptor(6, [5, 4], 3)), seed=10)
    corrupt(m)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_load_accepts_tracked_boundary_stats(tmp_path):
    m = seed_params(build_model(mlp_descriptor(6, [5, 4], 3)), seed=11)
    for bid, n in m.boundary_map:
        m.params[f"stats.{bid}.mean"] = np.zeros(n, dtype=np.float32)
        m.params[f"stats.{bid}.var"] = np.ones(n, dtype=np.float32)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    assert models_bit_equal(load_checkpoint(path), m)


def test_save_rejects_non_float32(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=8)
    m.params["dense0.w"] = m.params["dense0.w"].astype(np.float64)
    with pytest.raises(CheckpointError, match="float32"):
        save_checkpoint(m, tmp_path / "m.rbnc")


class _Unwritable:
    """Passes save_checkpoint's dtype check, then fails as its payload is written."""
    dtype = np.dtype(np.float32)
    shape = (3,)


def test_failed_save_leaves_earlier_file_intact(tmp_path):
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=9)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    before = path.read_bytes()
    broken = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=10)
    broken.params["zz.unwritable"] = _Unwritable()
    with pytest.raises(TypeError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rbnc"]
    del broken.params["zz.unwritable"]
    save_checkpoint(broken, path)          # a whole write still replaces the file
    assert models_bit_equal(load_checkpoint(path), broken)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rbnc"]


@settings(max_examples=20, deadline=None)
@given(widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       seed=st.integers(0, 100))
def test_roundtrip_property(tmp_path_factory, widths, seed):
    m = seed_params(build_model(mlp_descriptor(6, widths, 3, norm="batchnorm")), seed=seed)
    path = tmp_path_factory.mktemp("ckpt") / "m.rbnc"
    save_checkpoint(m, path)
    assert models_bit_equal(m, load_checkpoint(path))
