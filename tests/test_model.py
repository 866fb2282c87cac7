"""Model construction, forward evaluation, taps, and affine folding.

The forward oracles here are loop-based scalar reimplementations, written
independently of the vectorized engine. The kernel oracles are the earlier
vectorized formulations: argmax pooling, window-view im2col and einsum dw,
plus a float64 scatter for the conv input gradient.
"""
import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from rebasin import ops
from rebasin.model import (
    BuildError,
    NonFiniteError,
    build_model,
    fold_affine,
    forward,
    mlp_descriptor,
)
from helpers import bits_equal, rand_batch, seed_params, small_cnn_desc


# ---------------------------------------------------------------- oracles

def dense_oracle(x, w, b):
    n, fin = x.shape
    fout = w.shape[0]
    out = np.zeros((n, fout))
    for ni in range(n):
        for o in range(fout):
            acc = float(b[o]) if b is not None else 0.0
            for i in range(fin):
                acc += float(w[o, i]) * float(x[ni, i])
            out[ni, o] = acc
    return out


def conv_oracle(x, w, b, stride, pad):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = float(b[co]) if b is not None else 0.0
                    for ci in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i * stride + ki - pad
                                jj = j * stride + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(w[co, ci, ki, kj]) * float(x[ni, ci, ii, jj])
                    out[ni, co, i, j] = acc
    return out


def maxpool_oracle(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    patch = x[ni, ci, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[ni, ci, i, j] = float(np.max(patch.astype(np.float64)))
    return out


def argmax_maxpool_fwd(x, k, stride):
    """Pooling by argmax over each window's flattened k*k elements: (y, arg)."""
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, ho, wo, k * k)
    arg = win.argmax(axis=-1)
    y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return y, arg


def argmax_maxpool_bwd(x_shape, arg, k, stride, dy):
    """Scatter-add each window's dy onto its argmax, windows in row-major order."""
    n, c, h, w = x_shape
    ho, wo = arg.shape[2], arg.shape[3]
    ii = (np.arange(ho) * stride)[None, None, :, None] + arg // k
    jj = (np.arange(wo) * stride)[None, None, None, :] + arg % k
    dx = np.zeros(x_shape, dtype=dy.dtype)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, ii, jj), dy)
    return dx


def window_im2col(x, k, stride, pad):
    """im2col as one copy of a transposed 6-D sliding-window view: (N, C*k*k, Ho*Wo)."""
    n, c, h, w = x.shape
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, ho * wo))


def einsum_conv_dw(cols, dy):
    """Conv weight gradient as one einsum over samples and positions, from
    (N, C*k*k, Ho*Wo) patches: (Cout, C*k*k)."""
    n, cout = dy.shape[:2]
    return np.einsum("npo,npk->ok", dy.reshape(n, cout, -1).transpose(0, 2, 1),
                     cols.transpose(0, 2, 1))


def scatter_conv_dx(x_shape, w, dy, stride, pad):
    """Conv input gradient in float64: each dy entry times each weight, added
    one product at a time onto the input position its tap reads."""
    n, c, h, wd = x_shape
    cout, _, k, _ = w.shape
    ho, wo = dy.shape[2:]
    dx = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    i = np.arange(ho)[:, None] * stride
    j = np.arange(wo)[None, :] * stride
    for o in range(cout):
        for ci in range(c):
            for ki in range(k):
                for kj in range(k):
                    np.add.at(dx, (slice(None), ci, i + ki, j + kj),
                              float(w[o, ci, ki, kj]) * dy[:, o].astype(np.float64))
    return dx[:, :, pad:pad + h, pad:pad + wd]


def bn_eval_oracle(x, gamma, beta, mean, var, eps):
    out = np.zeros(x.shape)
    it = np.ndindex(*x.shape)
    for idx in it:
        c = idx[1]
        xhat = (float(x[idx]) - float(mean[c])) / np.sqrt(float(var[c]) + eps)
        out[idx] = float(gamma[c]) * xhat + float(beta[c])
    return out


def layernorm_oracle(x, gamma, beta, eps):
    # per-sample normalization over every feature axis, per-channel affine
    n = x.shape[0]
    out = np.zeros(x.shape)
    for ni in range(n):
        flat = x[ni].astype(np.float64)
        m = float(np.mean(flat))
        v = float(np.mean((flat - m) ** 2))
        for idx in np.ndindex(*x[ni].shape):
            c = idx[0] if x.ndim > 2 else idx[0]
            xhat = (float(x[ni][idx]) - m) / np.sqrt(v + eps)
            out[(ni,) + idx] = float(gamma[c]) * xhat + float(beta[c])
    return out


# ---------------------------------------------------------------- building

def test_build_mlp_boundaries():
    m = build_model(mlp_descriptor(784, [120, 84], 10))
    assert m.boundary_map == [("b0", 120), ("b1", 84)]
    assert m.params["dense0.w"].shape == (120, 784)
    assert m.params["dense1.w"].shape == (84, 120)
    assert m.params["dense2.w"].shape == (10, 84)


def test_build_single_dense_has_no_boundary():
    m = build_model({"input_shape": [4], "layers": [{"kind": "dense", "out": 2}]})
    assert m.boundary_map == []


def test_build_rejects_dense_straight_after_conv():
    desc = {"input_shape": [3, 8, 8], "layers": [
        {"kind": "conv2d", "out": 4, "k": 3},
        {"kind": "dense", "out": 2},
    ]}
    with pytest.raises(BuildError):
        build_model(desc)


def test_build_rejects_wrong_declared_fan_in():
    desc = {"input_shape": [3, 8, 8], "layers": [
        {"kind": "conv2d", "out": 8, "k": 3},
        {"kind": "flatten"},
        {"kind": "dense", "in": 99, "out": 2},
    ]}
    with pytest.raises(BuildError):
        build_model(desc)


def test_build_rejects_norm_without_producer():
    with pytest.raises(BuildError):
        build_model({"input_shape": [4], "layers": [
            {"kind": "batchnorm"}, {"kind": "dense", "out": 2}]})


def test_build_rejects_norm_on_final_output():
    with pytest.raises(BuildError):
        build_model({"input_shape": [4], "layers": [
            {"kind": "dense", "out": 2}, {"kind": "batchnorm"}]})


def test_build_rejects_detached_affine():
    desc = {"input_shape": [4], "layers": [
        {"kind": "dense", "out": 3},
        {"kind": "relu"},
        {"kind": "channel_affine"},
        {"kind": "dense", "out": 2},
    ]}
    with pytest.raises(BuildError):
        build_model(desc)


def test_build_rejects_unknown_layer_key():
    with pytest.raises(BuildError):
        build_model({"input_shape": [4], "layers": [{"kind": "dense", "out": 2, "outt": 3}]})


def _conv_net(*middle, first=None):
    first = first or {"kind": "conv2d", "out": 4, "k": 3}
    return {"input_shape": [2, 8, 8],
            "layers": [first, *middle, {"kind": "flatten"}, {"kind": "dense", "out": 2}]}


def _dense_net(first, *middle):
    return {"input_shape": [4],
            "layers": [first, *middle, {"kind": "relu"}, {"kind": "dense", "out": 2}]}


@pytest.mark.parametrize("desc", [
    _conv_net(first={"kind": "conv2d", "out": 4, "k": 3, "stride": 0}),
    _conv_net(first={"kind": "conv2d", "k": 3}),
    _conv_net({"kind": "relu"}, {"kind": "maxpool2d", "k": 2, "stride": 0}),
    _conv_net({"kind": "relu"}, {"kind": "maxpool2d", "k": 7}),
    _conv_net({"kind": "batchnorm", "eps": 0}, {"kind": "relu"}),
    _dense_net({"kind": "dense", "out": 2.7, "bias": "false"}),
    _dense_net({"kind": "dense", "out": 2.7}),
    _dense_net({"kind": "dense", "out": 2, "bias": "false"}),
    _dense_net({"kind": "dense", "out": True}),
    _dense_net({"kind": "dense", "out": "3"}),
    _dense_net({"kind": "dense", "out": 3}, {"kind": "batchnorm", "affine": "false"}),
    _dense_net({"kind": "dense", "out": 3}, {"kind": "batchnorm", "eps": "0.001"}),
    _conv_net(first={"kind": "conv2d", "out": 4, "k": True}),
    {**_dense_net({"kind": "dense", "out": 2}), "input_shape": [4.9]},
    {**_dense_net({"kind": "dense", "out": 2}), "input_shape": ["4"]},
], ids=["conv_stride_0", "conv_without_out", "pool_stride_0", "pool_exceeds_input",
        "eps_0", "out_float_bias_string", "out_float", "bias_string", "out_true",
        "out_string", "affine_string", "eps_string", "kernel_true", "input_float",
        "input_string"])
def test_build_rejects_bad_geometry(desc):
    with pytest.raises(BuildError):
        build_model(desc)


def test_build_converts_numpy_scalars():
    desc = _dense_net({"kind": "dense", "out": np.int64(3), "bias": np.bool_(False)},
                      {"kind": "batchnorm", "eps": np.float32(0.5), "affine": np.True_})
    m = build_model(desc)
    assert m.layers[0] == build_model(_dense_net(
        {"kind": "dense", "out": 3, "bias": False}, {"kind": "batchnorm"})).layers[0]
    assert type(m.layers[0].n_out) is int and m.layers[0].has_bias is False
    assert type(m.layers[1].eps) is float and m.layers[1].affine is True


def test_cnn_boundaries_and_shapes():
    m = build_model(small_cnn_desc())
    assert [u for _, u in m.boundary_map] == [5, 4]
    assert m.params["conv0.w"].shape == (5, 2, 3, 3)
    # 8x8 -> pool -> 4x4 -> pool -> 2x2, flatten 4*2*2 = 16
    assert m.params["dense0.w"].shape == (3, 16)


# ---------------------------------------------------------------- forward

def test_zero_model_gives_zero_logits():
    m = build_model(mlp_descriptor(6, [5], 3))
    x = rand_batch((6,), 4, seed=0)
    assert np.all(forward(m, x) == 0.0)


def test_identity_dense_passthrough():
    m = build_model({"input_shape": [3], "layers": [{"kind": "dense", "out": 3}]})
    m.params["dense0.w"] = np.eye(3, dtype=np.float32)
    x = rand_batch((3,), 5, seed=1)
    assert np.allclose(forward(m, x), x)


def test_mlp_forward_matches_scalar_oracle():
    m = seed_params(build_model(mlp_descriptor(8, [6], 3)), seed=7)
    x = rand_batch((8,), 3, seed=2)
    got = forward(m, x)
    h = dense_oracle(x, m.params["dense0.w"], m.params["dense0.b"])
    h = np.maximum(h, 0.0)
    want = dense_oracle(h, m.params["dense1.w"], m.params["dense1.b"])
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def test_cnn_forward_matches_scalar_oracle():
    m = seed_params(build_model(small_cnn_desc()), seed=3)
    x = rand_batch((2, 8, 8), 2, seed=4)
    got = forward(m, x, mode="eval")

    p = m.params
    h = conv_oracle(x, p["conv0.w"], p["conv0.b"], stride=1, pad=1)
    h = bn_eval_oracle(h, p["bn0.gamma"], p["bn0.beta"],
                       p["bn0.running_mean"], p["bn0.running_var"], 1e-5)
    h = np.maximum(h, 0.0)
    h = maxpool_oracle(h, 2, 2)
    h = conv_oracle(h, p["conv1.w"], p["conv1.b"], stride=1, pad=1)
    h = bn_eval_oracle(h, p["bn1.gamma"], p["bn1.beta"],
                       p["bn1.running_mean"], p["bn1.running_var"], 1e-5)
    h = np.maximum(h, 0.0)
    h = maxpool_oracle(h, 2, 2)
    h = h.reshape(h.shape[0], -1)
    want = dense_oracle(h, p["dense0.w"], p["dense0.b"])
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_strided_padded_conv_matches_scalar_oracle():
    desc = {"input_shape": [2, 7, 7], "layers": [
        {"kind": "conv2d", "out": 3, "k": 3, "stride": 2, "pad": 1},
        {"kind": "flatten"},
        {"kind": "dense", "out": 2},
    ]}
    m = seed_params(build_model(desc), seed=11)
    x = rand_batch((2, 7, 7), 2, seed=12)
    got = forward(m, x)
    h = conv_oracle(x, m.params["conv0.w"], m.params["conv0.b"], stride=2, pad=1)
    want = dense_oracle(h.reshape(2, -1), m.params["dense0.w"], m.params["dense0.b"])
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_layernorm_and_affine_match_scalar_oracle():
    desc = {"input_shape": [6], "layers": [
        {"kind": "dense", "out": 5},
        {"kind": "layernorm"},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "dense", "out": 3},
    ]}
    m = seed_params(build_model(desc), seed=5)
    x = rand_batch((6,), 4, seed=6)
    got = forward(m, x)

    p = m.params
    h = dense_oracle(x, p["dense0.w"], p["dense0.b"])
    h = layernorm_oracle(h, p["ln0.gamma"], p["ln0.beta"], 1e-5)
    h = h * p["affine0.scale"][None, :] + p["affine0.shift"][None, :]
    h = np.maximum(h, 0.0)
    want = dense_oracle(h, p["dense1.w"], p["dense1.b"])
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_forward_is_deterministic_bitwise():
    m = seed_params(build_model(small_cnn_desc()), seed=8)
    x = rand_batch((2, 8, 8), 3, seed=9)
    assert bits_equal(forward(m, x), forward(m, x))


def test_forward_rejects_wrong_input_shape():
    m = build_model(mlp_descriptor(6, [5], 3))
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 7), dtype=np.float32))


def test_nonfinite_error_names_layer():
    m = seed_params(build_model(mlp_descriptor(4, [3], 2)), seed=1)
    m.params["dense1.w"] = np.full((2, 3), 1e30, dtype=np.float32)
    x = np.full((2, 4), 1e10, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="dense1"):
        forward(m, x)


# ---------------------------------------------------------------- taps

def test_taps_capture_requested_boundaries():
    m = seed_params(build_model(mlp_descriptor(6, [5, 4], 3)), seed=10)
    x = rand_batch((6,), 7, seed=11)
    req = [("b0", "pre_activation"), ("b0", "post_activation"), ("b1", "pre_activation")]
    logits, taps = forward(m, x, taps=req)
    assert logits.shape == (7, 3)
    got = {(t.boundary_id, t.phase) for t in taps}
    assert got == set(req)
    by_key = {(t.boundary_id, t.phase): t.value for t in taps}
    assert by_key[("b0", "pre_activation")].shape == (7, 5)
    np.testing.assert_array_equal(
        by_key[("b0", "post_activation")],
        np.maximum(by_key[("b0", "pre_activation")], 0.0))


def test_tap_includes_norm_in_pre_activation():
    desc = {"input_shape": [4], "layers": [
        {"kind": "dense", "out": 3},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "dense", "out": 2},
    ]}
    m = seed_params(build_model(desc), seed=12)
    x = rand_batch((4,), 5, seed=13)
    _, taps = forward(m, x, taps=[("b0", "pre_activation")])
    pre = taps[0].value
    p = m.params
    raw = x @ p["dense0.w"].T + p["dense0.b"]
    normed = (raw - p["bn0.running_mean"]) / np.sqrt(p["bn0.running_var"] + 1e-5)
    normed = normed * p["bn0.gamma"] + p["bn0.beta"]
    np.testing.assert_allclose(pre, normed, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("tap, named", [(("b9", "pre_activation"), "'b9'"),
                                        (("b0", "bogus"), "'bogus'")],
                         ids=["boundary", "phase"])
def test_unknown_tap_request_is_a_value_error_naming_it(tap, named):
    m = seed_params(build_model(mlp_descriptor(6, [5, 4], 3)), seed=10)
    with pytest.raises(ValueError, match=named):
        forward(m, rand_batch((6,), 3, seed=11), taps=[tap])


def test_conv_tap_keeps_spatial_layout():
    m = seed_params(build_model(small_cnn_desc()), seed=14)
    x = rand_batch((2, 8, 8), 2, seed=15)
    _, taps = forward(m, x, taps=[("b0", "post_activation")])
    assert taps[0].value.shape == (2, 5, 8, 8)


# ---------------------------------------------------------------- batchnorm modes

def test_batchnorm_train_mode_uses_batch_stats():
    desc = {"input_shape": [4], "layers": [
        {"kind": "dense", "out": 3},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "dense", "out": 2},
    ]}
    m = seed_params(build_model(desc), seed=16)
    x = rand_batch((4,), 8, seed=17)
    _, taps = forward(m, x, taps=[("b0", "pre_activation")], mode="train", update_stats=False)
    pre = taps[0].value
    p = m.params
    raw = (x @ p["dense0.w"].T + p["dense0.b"]).astype(np.float64)
    mu = raw.mean(axis=0)
    var = raw.var(axis=0)  # biased, as used for normalization
    want = (raw - mu) / np.sqrt(var + 1e-5) * p["bn0.gamma"] + p["bn0.beta"]
    np.testing.assert_allclose(pre, want, rtol=1e-4, atol=1e-5)


def test_batchnorm_running_stats_update_rule():
    desc = {"input_shape": [4], "layers": [
        {"kind": "dense", "out": 3},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "dense", "out": 2},
    ]}
    m = seed_params(build_model(desc), seed=18)
    x = rand_batch((4,), 16, seed=19)
    p = m.params
    rm0 = p["bn0.running_mean"].copy()
    rv0 = p["bn0.running_var"].copy()
    raw = (x @ p["dense0.w"].T + p["dense0.b"]).astype(np.float64)
    forward(m, x, mode="train")
    mu = raw.mean(axis=0)
    var_unbiased = raw.var(axis=0, ddof=1)
    np.testing.assert_allclose(p["bn0.running_mean"], 0.9 * rm0 + 0.1 * mu, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(p["bn0.running_var"], 0.9 * rv0 + 0.1 * var_unbiased, rtol=1e-5, atol=1e-6)


def test_batchnorm_batch_of_one_rejected_in_train_mode():
    desc = {"input_shape": [4], "layers": [
        {"kind": "dense", "out": 3},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "dense", "out": 2},
    ]}
    m = seed_params(build_model(desc), seed=20)
    with pytest.raises(ValueError, match="more than one"):
        forward(m, np.ones((1, 4), dtype=np.float32), mode="train")


# ---------------------------------------------------------------- fold_affine

def _affine_model(seed):
    desc = {"input_shape": [5], "layers": [
        {"kind": "dense", "out": 4},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "dense", "out": 3},
    ]}
    return seed_params(build_model(desc), seed=seed)


def test_fold_identity_affine_is_noop_on_function():
    m = _affine_model(seed=21)
    m.params["affine0.scale"] = np.ones(4, dtype=np.float32)
    m.params["affine0.shift"] = np.zeros(4, dtype=np.float32)
    folded = fold_affine(m)
    assert all(l.kind != "channel_affine" for l in folded.layers)
    assert bits_equal(folded.params["dense0.w"], m.params["dense0.w"])
    assert bits_equal(folded.params["dense0.b"], m.params["dense0.b"])
    x = rand_batch((5,), 6, seed=22)
    assert bits_equal(forward(folded, x), forward(m, x))


def test_fold_matches_unfolded_on_100_inputs():
    m = _affine_model(seed=23)
    folded = fold_affine(m)
    x = rand_batch((5,), 100, seed=24)
    np.testing.assert_allclose(forward(folded, x), forward(m, x), atol=1e-5)


def test_fold_into_batchnorm_affine():
    desc = {"input_shape": [2, 8, 8], "layers": [
        {"kind": "conv2d", "out": 4, "k": 3, "pad": 1},
        {"kind": "batchnorm"},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": 3},
    ]}
    m = seed_params(build_model(desc), seed=25)
    folded = fold_affine(m)
    assert all(l.kind != "channel_affine" for l in folded.layers)
    x = rand_batch((2, 8, 8), 20, seed=26)
    np.testing.assert_allclose(forward(folded, x), forward(m, x), atol=1e-5)


def test_fold_twice_is_noop():
    m = _affine_model(seed=27)
    once = fold_affine(m)
    twice = fold_affine(once)
    assert [l.kind for l in once.layers] == [l.kind for l in twice.layers]
    assert all(bits_equal(once.params[k], twice.params[k]) for k in once.params)


def test_fold_adds_missing_bias():
    desc = {"input_shape": [5], "layers": [
        {"kind": "dense", "out": 4, "bias": False},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "dense", "out": 3},
    ]}
    m = seed_params(build_model(desc), seed=28)
    assert "dense0.b" not in m.params
    folded = fold_affine(m)
    assert "dense0.b" in folded.params
    x = rand_batch((5,), 30, seed=29)
    np.testing.assert_allclose(forward(folded, x), forward(m, x), atol=1e-5)


def test_fold_rejects_affine_after_non_foldable_layer():
    m = _affine_model(seed=30)
    # hand-build an invalid placement (build_model refuses it), then fold must too
    layers = list(m.layers)
    aff = layers.pop(1)
    layers.insert(2, replace(aff))
    bad = type(m)(layers=layers, params=dict(m.params), boundary_map=list(m.boundary_map),
                  input_shape=m.input_shape, meta=dict(m.meta))
    with pytest.raises(ValueError):
        fold_affine(bad)


# ---------------------------------------------------------------- kernels

def tied_batch(shape, seed):
    """Small integers, so most pooling windows hold ties; half the zeros are -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(np.float32)
    zeros = x == 0
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, np.float32(-0.0), np.float32(0.0))
    return x


@pytest.mark.parametrize("k, stride", [(2, 2), (3, 3), (2, 1), (3, 1), (3, 2)])
def test_maxpool_matches_argmax_oracle_bitwise(k, stride):
    x = tied_batch((4, 3, 9, 10), seed=k * 10 + stride)
    y, arg = argmax_maxpool_fwd(x, k, stride)
    got = ops.maxpool_fwd(x, k, stride)
    assert bits_equal(got, y)
    dy = np.random.default_rng(stride).standard_normal(y.shape).astype(np.float32)
    assert bits_equal(ops.maxpool_bwd(x, got, k, stride, dy),
                      argmax_maxpool_bwd(x.shape, arg, k, stride, dy))


@pytest.mark.parametrize("k, stride", [(2, 2), (2, 1)])
def test_maxpool_nan_anywhere_in_a_window_gives_nan(k, stride):
    base = np.random.default_rng(0).standard_normal((1, 1, 4, 4)).astype(np.float32)
    for i in range(k):
        for j in range(k):
            x = base.copy()
            x[0, 0, i, j] = np.nan
            y = ops.maxpool_fwd(x, k, stride)
            want_y, arg = argmax_maxpool_fwd(x, k, stride)
            assert np.isnan(y[0, 0, 0, 0])
            assert np.array_equal(np.isnan(y), np.isnan(want_y))
            # argmax sends the window's gradient to the NaN; so does the backward
            dy = np.ones_like(y)
            dx = ops.maxpool_bwd(x, y, k, stride, dy)
            assert bits_equal(dx, argmax_maxpool_bwd(x.shape, arg, k, stride, dy))
            assert dx[0, 0, i, j] >= 1


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0), (3, 1, 0)])
def test_im2col_matches_window_view_bitwise(k, stride, pad):
    x = rand_batch((3, 7, 6), 2, seed=k + stride + pad)
    cols, (ho, wo) = ops.im2col(x, k, stride, pad)
    assert bits_equal(cols, window_im2col(x, k, stride, pad))
    assert cols.shape[2] == ho * wo


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0), (3, 1, 0)])
def test_im2col_never_shares_memory_with_its_input(k, stride, pad):
    # an eval walk overwrites activations in place; patches cached for a
    # backward must not change with them
    x = rand_batch((3, 7, 6), 2, seed=k + stride + pad)
    cols, _ = ops.im2col(x, k, stride, pad)
    assert not np.shares_memory(cols, x)
    before = cols.copy()
    x[...] = np.nan
    assert bits_equal(cols, before)


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0), (3, 1, 0)])
def test_conv_dx_matches_float64_scatter_to_float32_rounding(k, stride, pad):
    rng = np.random.default_rng(10 * k + stride + pad)
    x_shape = (4, 3, 7, 6)
    w = rng.standard_normal((5, 3, k, k)).astype(np.float32)
    ho, wo = ops.conv_out_hw(7, 6, k, stride, pad)
    dy = rng.standard_normal((4, 5, ho, wo)).astype(np.float32)
    dx = ops.conv2d_dx(x_shape, w, dy, stride, pad)
    assert dx.dtype == np.float32 and dx.shape == x_shape and dx.flags.c_contiguous
    want = scatter_conv_dx(x_shape, w, dy, stride, pad)
    # each entry sums at most Cout*k*k products, rounded in float32 once
    # each and added in some order: within m * eps32 * sum|w * dy| of exact
    m = 5 * k * k
    bound = m * np.finfo(np.float32).eps * scatter_conv_dx(x_shape, np.abs(w), np.abs(dy),
                                                           stride, pad)
    assert np.all(np.abs(dx - want) <= bound)


@pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (1, 0)])
def test_conv_dw_matches_float64_oracle_to_float32_rounding(stride, pad):
    rng = np.random.default_rng(stride + 2 * pad)
    x = rng.standard_normal((16, 4, 9, 9)).astype(np.float32)
    w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
    cols, (ho, wo) = ops.im2col(x, 3, stride, pad)
    dy = rng.standard_normal((16, 6, ho, wo)).astype(np.float32)
    _, dw, _ = ops.conv2d_bwd(cols, x.shape, w, dy, stride, pad)
    assert dw.dtype == np.float32 and dw.shape == w.shape
    want = einsum_conv_dw(cols.astype(np.float64), dy.astype(np.float64))
    # Any float32 summation order over m = N*Ho*Wo products stays within
    # m * eps32 * sum|dy * cols| of the exact value.
    m = dy.shape[0] * ho * wo
    bound = m * np.finfo(np.float32).eps * einsum_conv_dw(np.abs(cols.astype(np.float64)),
                                                          np.abs(dy.astype(np.float64)))
    assert np.all(np.abs(dw.reshape(6, -1) - want) <= bound)


def test_conv_sq_grad_matches_per_sample_loop():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3, 6, 6)).astype(np.float32)
    cols, (ho, wo) = ops.im2col(x, 3, 1, 1)
    dy = rng.standard_normal((5, 4, ho, wo)).astype(np.float32)
    want = np.zeros((4, 27))
    for i in range(5):
        g = einsum_conv_dw(cols[i:i + 1].astype(np.float64), dy[i:i + 1].astype(np.float64))
        want += g ** 2
    got = ops.conv2d_sq_grad(cols, (4, 3, 3, 3), dy)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got.reshape(4, -1), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, ops.SQ_GRAD_BLOCK - 3, 2 * ops.SQ_GRAD_BLOCK + 5])
def test_conv_sq_grad_blocks_are_bitwise_the_whole_batch(n):
    # conv1's shape in the pipeline benchmark's convnet; the samples add in
    # order whatever the block size, as one reduction over the batch adds them
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 16, 8, 8)).astype(np.float32)
    cols, (ho, wo) = ops.im2col(x, 3, 1, 1)
    dy = rng.standard_normal((n, 32, ho, wo)).astype(np.float32)
    g = dy.reshape(n, 32, -1).astype(np.float64) @ \
        cols.transpose(0, 2, 1).astype(np.float64, order="C")
    want = (g ** 2).sum(axis=0).reshape(32, 16, 3, 3)
    assert bits_equal(ops.conv2d_sq_grad(cols, (32, 16, 3, 3), dy), want)


@pytest.mark.parametrize("kind", ["batchnorm_running", "batchnorm_batch", "layernorm",
                                  "channel_affine"])
def test_norm_backward_without_param_grads_keeps_dx(kind):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3, 4, 4)).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    gamma, beta = np.float32([0.5, 1.5, 2.0]), np.float32([0.1, -0.2, 0.3])
    if kind == "channel_affine":
        def bwd(flag):
            return ops.channel_affine_bwd(x, gamma, dy.copy(), flag)
    else:
        if kind == "layernorm":
            _, cache = ops.layernorm_fwd(x, gamma, beta, 1e-5)
        else:
            _, cache, *_ = ops.batchnorm_fwd(x, gamma, beta, np.zeros(3, np.float32),
                                             np.ones(3, np.float32), 1e-5,
                                             kind == "batchnorm_batch")
        op = ops.layernorm_bwd if kind == "layernorm" else ops.batchnorm_bwd

        def bwd(flag):
            return op(cache, dy.copy(), flag)
    full, dx_only = bwd(True), bwd(False)
    assert bits_equal(dx_only[0], full[0])
    assert dx_only[1:] == (None, None) and all(g is not None for g in full[1:])


@pytest.mark.parametrize("shape", [(16, 5), (8, 4, 6, 6)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_batch_stats_equal_two_pass_var_bitwise(shape, dtype):
    x = (np.random.default_rng(1).standard_normal(shape) * 3 + 50).astype(dtype)
    c = shape[1]
    gamma, beta = np.full(c, 1.5, np.float32), np.full(c, 0.25, np.float32)
    y, (xhat, inv, *_), bm, bv = ops.batchnorm_fwd(
        x, gamma, beta, np.zeros(c, np.float32), np.ones(c, np.float32), 1e-5, True)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    mu, v = x.mean(axis=axes), x.var(axis=axes)
    n_eff = x.size // c
    want_xhat = (x - ops.chanview(mu, x.ndim)) * ops.chanview(1.0 / np.sqrt(v + 1e-5), x.ndim)
    assert bits_equal(bm, mu)
    assert bits_equal(bv, v * (n_eff / (n_eff - 1.0)))
    assert bits_equal(xhat, want_xhat)
    assert bits_equal(y, want_xhat * ops.chanview(gamma, x.ndim) + ops.chanview(beta, x.ndim))


# ---------------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(widths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       n=st.integers(1, 4), seed=st.integers(0, 50))
def test_forward_shape_and_tap_completeness(widths, n, seed):
    m = seed_params(build_model(mlp_descriptor(5, widths, 3)), seed=seed)
    x = rand_batch((5,), n, seed=seed + 1)
    req = [(b, ph) for b, _ in m.boundary_map
           for ph in ("pre_activation", "post_activation")]
    logits, taps = forward(m, x, taps=req)
    assert logits.shape == (n, 3)
    assert len(taps) == 2 * len(m.boundary_map)
    units = dict(m.boundary_map)
    for t in taps:
        assert t.value.shape[1] == units[t.boundary_id]
