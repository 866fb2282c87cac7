"""RBNC checkpoint format: bitwise roundtrip and corruption handling."""
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rebasin.model import (
    PRE, LayerSpec, build_model, cnn_descriptor, forward, layer_tensors, mlp_descriptor)
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


def _hidden_layer_without_boundary(m):
    m.layers[0].boundary = None
    m.boundary_map = [("b1", 4)]


def _boundary_named_twice(m):
    m.layers[2].boundary = "b0"
    m.boundary_map = [("b0", 5), ("b0", 4)]


def _norm_after_relu(m):      # MLP_BN: dense0 bn0 relu0 dense1 ...
    m.layers[1], m.layers[2] = m.layers[2], m.layers[1]


def _norm_after_final_layer(m):
    m.layers.append(LayerSpec("batchnorm", "bn9", channels=3))
    m.params.update({k: np.full(shape, fill, dtype=np.float32)
                     for k, (shape, fill) in layer_tensors(m.layers[-1]).items()})


def _set(index, **fields):
    def corrupt(m):
        for k, v in fields.items():
            setattr(m.layers[index], k, v)
    return corrupt


MLP = mlp_descriptor(6, [5, 4], 3)
MLP_BN = mlp_descriptor(6, [5, 4], 3, norm="batchnorm")
CNN = small_cnn_desc()    # conv0 bn0 relu0 pool0 conv1 bn1 relu1 pool1 flatten dense0


@pytest.mark.parametrize("desc, corrupt, message", [
    (MLP, _short_bias, r"dense0\.b has shape \(1,\)"),
    (MLP, lambda m: m.params.pop("dense1.w"), r"missing tensors \['dense1\.w'\]"),
    (MLP, lambda m: m.params.update({"dense9.w": m.params["dense0.w"]}),
     "belongs to no layer"),
    (MLP, _tracked_stats_of_wrong_width, r"stats\.b0\.mean has shape \(4,\)"),
    (MLP, _boundary_map_disagrees, "boundary map"),
    (MLP, _fan_in_disagrees, "do not compose"),
    (MLP, _unknown_kind, "unknown layer kind"),
    (CNN, _set(3, stride=0), "pool0: stride must be an integer >= 1"),
    (CNN, _set(0, stride=0), "conv0: stride must be an integer >= 1"),
    (CNN, _set(7, kernel=5), "pool1: maxpool2d output would be empty"),
    (MLP_BN, _norm_after_relu, "bn0: batchnorm must directly follow"),
    (MLP_BN, _norm_after_final_layer, "after the final weight layer"),
    (MLP_BN, _set(1, eps=0.0), "bn0: eps must be positive"),
    (MLP, _hidden_layer_without_boundary, "hidden weight layers carry a boundary"),
    (MLP, _boundary_named_twice, "boundary map"),
    (MLP, _set(0, has_bias="false"), "dense0: has_bias must be a bool"),
    (MLP_BN, _set(1, affine="no"), "bn0: affine must be a bool"),
    (MLP_BN, _set(1, batch_stats_in_eval="yes"), "bn0: batch_stats_in_eval must be a bool"),
    (MLP_BN, _set(1, eps="0.001"), "bn0: eps must be a number"),
    (CNN, _set(0, kernel=True), "conv0: kernel must be an integer"),
], ids=["short_bias", "missing_tensor", "stray_tensor", "tracked_stats_width",
        "boundary_map", "fan_in", "unknown_kind", "pool_stride_0", "conv_stride_0",
        "pool_kernel_exceeds_input", "norm_after_relu", "norm_after_final_layer",
        "eps_0", "hidden_layer_without_boundary", "boundary_named_twice",
        "has_bias_string", "affine_string", "batch_stats_in_eval_string",
        "eps_string", "kernel_true"])
def test_load_rejects_tensors_that_disagree_with_layers(tmp_path, desc, corrupt, message):
    m = seed_params(build_model(desc), seed=10)
    corrupt(m)
    path = tmp_path / "m.rbnc"
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def _edit_header(path, edit):
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.dumps(edit(json.loads(blob[16:16 + hlen]))).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header
                     + blob[16 + hlen:])


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: {**h, "layers": 5},
    lambda h: {**h, "layers": [5] + h["layers"][1:]},
    lambda h: {**h, "tensors": [{k: v for k, v in t.items() if k != "shape"}
                                for t in h["tensors"]]},
    lambda h: {**h, "boundary_map": [["b0"]]},
], ids=["header_is_array", "layers_not_a_list", "layer_not_an_object",
        "tensor_without_shape", "boundary_map_entry_not_a_pair"])
def test_load_rejects_malformed_header(tmp_path, edit):
    path = tmp_path / "m.rbnc"
    save_checkpoint(seed_params(build_model(MLP), seed=12), path)
    _edit_header(path, edit)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(path)


def test_single_field_header_corruptions_load_whole_or_raise_checkpoint_error(tmp_path):
    """Every header field of a convnet with BatchNorm and a hidden dense layer,
    set to each odd value in turn: loading raises CheckpointError, or the
    model it returns runs forward with every tap."""
    desc = cnn_descriptor((2, 8, 8), [{"out": 3, "k": 3, "pool": 2},
                                      {"out": 4, "k": 3, "stride": 2}], 3, dense_hidden=[5])
    path = tmp_path / "m.rbnc"
    save_checkpoint(seed_params(build_model(desc), seed=13), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    sites = [(sec, i, f) for sec in ("layers", "tensors")
             for i, entry in enumerate(header[sec]) for f in entry]
    sites += [(key, None, None) for key in ("input_shape", "boundary_map")]
    x = rand_batch((2, 8, 8), 4, seed=14)
    escaped = []
    for sec, i, f in sites:
        for value in (None, -1, 0, 2.5, "x", [], 1e300):
            def edit(h):
                if i is None:
                    h[sec] = value
                else:
                    h[sec][i][f] = value
                return h
            path.write_bytes(blob)
            _edit_header(path, edit)
            try:
                m = load_checkpoint(path)
                with np.errstate(over="ignore"):    # eps 1e300 overflows float32
                    forward(m, x, taps=[(b, PRE) for b, _ in m.boundary_map])
            except CheckpointError:
                pass
            except Exception as e:  # collected, so one run lists every escape
                escaped.append((sec, i, f, value, type(e).__name__))
    assert escaped == []


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
