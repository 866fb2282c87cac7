"""Magnitude / Fisher scoring, mask construction, and post-pruning repair.

Fisher oracles come from two independent directions: exact per-sample
backprop on norm-free nets, and central finite differences of the
per-sample eval-mode loss on a batchnorm CNN.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from rebasin import ops
from rebasin.data import synth_blobs
from rebasin.model import build_model, fold_affine, forward, mlp_descriptor
from rebasin.prune import (PruneMask, ScoreMap, apply_mask, mask_from_scores,
                           post_prune_repair, prunable_keys, score)
from rebasin.renorm import interpolate
from rebasin.train import (TrainConfig, evaluate, init_params, loss_and_grads,
                           train)

from helpers import (as_float64, bits_equal, models_bit_equal, seed_params,
                     small_cnn_desc)


def tiny_mlp(hidden=(6, 5), in_dim=4, classes=3, seed=0):
    m = build_model(mlp_descriptor(in_dim, list(hidden), classes))
    seed_params(m, seed)
    return m


def single_dense(weights):
    """1-layer dense net whose only prunable tensor holds `weights`."""
    w = np.asarray(weights, dtype=np.float32)
    m = build_model(mlp_descriptor(w.shape[1], [], w.shape[0]))
    m.params["dense0.w"] = w.copy()
    m.params["dense0.b"] = np.zeros(w.shape[0], dtype=np.float32)
    return m


# ---------------------------------------------------------------- prunable set

def test_prunable_keys_are_weight_tensors_in_layer_order():
    m = build_model(small_cnn_desc())
    keys = prunable_keys(m)
    assert keys == ["conv0.w", "conv1.w", "dense0.w"]


def test_prunable_keys_exclude_bias_and_norm_tensors():
    m = build_model(small_cnn_desc(norm="batchnorm"))
    for k in prunable_keys(m):
        assert k.endswith(".w")


def test_prunable_keys_first_layer_exemption():
    m = build_model(small_cnn_desc())
    assert prunable_keys(m, exempt_first=True) == ["conv1.w", "dense0.w"]


# ---------------------------------------------------------------- magnitude

def test_magnitude_scores_are_absolute_values():
    m = single_dense([[1.0, -2.0, 3.0, -4.0]])
    smap = score(m, method="magnitude")
    assert smap.method == "magnitude"
    np.testing.assert_array_equal(smap.scores["dense0.w"],
                                  [[1.0, 2.0, 3.0, 4.0]])


def test_magnitude_covers_exactly_the_prunable_tensors():
    m = build_model(small_cnn_desc(norm="batchnorm"))
    seed_params(m, 3)
    smap = score(m, method="magnitude")
    assert list(smap.scores) == prunable_keys(m)
    for k, s in smap.scores.items():
        assert s.dtype == np.float64
        assert s.shape == m.params[k].shape
        assert np.all(s >= 0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        score(tiny_mlp(), method="hessian")


# ---------------------------------------------------------------- diag fisher

def fisher_ds(n=12, dims=4, classes=3, image_shape=None):
    return synth_blobs(seed=5, n=n, dims=dims, classes=classes, spread=0.6,
                       image_shape=image_shape)


def test_fisher_requires_dataset():
    with pytest.raises(ValueError, match="dataset"):
        score(tiny_mlp(), method="diag_fisher")


def test_fisher_single_sample_matches_analytic():
    # one sample through a bias-free dense layer: the per-sample gradient is
    # (softmax(logits) - onehot) outer x, and the Fisher estimate is its square
    m = build_model({"input_shape": [4],
                     "layers": [{"kind": "dense", "out": 3, "bias": False}]})
    seed_params(m, 7)
    m = as_float64(m)
    ds = fisher_ds(n=1)
    x, y = ds.inputs, ds.labels

    logits = (x.astype(np.float64) @ m.params["dense0.w"].astype(np.float64).T)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[0, y[0]] -= 1.0
    g = p.T @ x.astype(np.float64)

    smap = score(m, method="diag_fisher", dataset=ds, batch_size=1,
                 scale_by_weight_sq=False)
    err = np.abs(smap.scores["dense0.w"] - g ** 2).max()
    assert err <= 1e-7 * max(1.0, np.abs(g ** 2).max())

    scaled = score(m, method="diag_fisher", dataset=ds, batch_size=1)
    np.testing.assert_allclose(
        scaled.scores["dense0.w"],
        smap.scores["dense0.w"] * m.params["dense0.w"].astype(np.float64) ** 2,
        rtol=1e-12)


def every_kind_cnn(seed):
    """Strided conv, layernorm, stride-1 maxpool and channel_affine in one
    batchnorm-free net, so per-sample backprop is an exact Fisher oracle."""
    desc = {"input_shape": [2, 6, 6], "layers": [
        {"kind": "conv2d", "out": 3, "k": 3, "stride": 2, "pad": 1},
        {"kind": "layernorm"},
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2, "stride": 1},
        {"kind": "conv2d", "out": 4, "k": 3, "pad": 1},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "out": 3},
    ]}
    return seed_params(build_model(desc), seed)


@pytest.mark.parametrize("make, ds_kw", [
    (tiny_mlp, {}),
    (every_kind_cnn, {"dims": 2 * 6 * 6, "image_shape": (2, 6, 6)}),
], ids=["mlp", "every_kind_cnn"])
def test_fisher_matches_per_sample_backprop_loop(make, ds_kw):
    m = as_float64(make(seed=2))
    ds = fisher_ds(n=8, **ds_kw)
    smap = score(m, method="diag_fisher", dataset=ds, batch_size=4,
                 scale_by_weight_sq=False)

    acc = {k: np.zeros(m.params[k].shape, dtype=np.float64)
           for k in prunable_keys(m)}
    for i in range(8):
        _, grads = loss_and_grads(m, ds.inputs[i:i + 1], ds.labels[i:i + 1])
        for k in acc:
            acc[k] += grads[k].astype(np.float64) ** 2
    for k in acc:
        np.testing.assert_allclose(smap.scores[k], acc[k] / 8, rtol=1e-9,
                                   atol=1e-15)


def test_fisher_on_batchnorm_cnn_matches_finite_differences():
    # eval-mode forward keeps samples independent, so the per-sample loss is
    # differentiable coordinate by coordinate with central differences
    m = build_model(small_cnn_desc(norm="batchnorm"))
    seed_params(m, 4)
    m = as_float64(m)
    ds = fisher_ds(n=6, dims=2 * 8 * 8, image_shape=(2, 8, 8))
    x64, y = ds.inputs.astype(np.float64), ds.labels
    ds64 = dataclasses.replace(ds, inputs=x64)

    def sample_loss(i):
        logits = forward(m, x64[i:i + 1], mode="eval")
        loss, _ = ops.softmax_cross_entropy(logits, y[i:i + 1])
        return loss

    smap = score(m, method="diag_fisher", dataset=ds64,
                 batch_size=3, scale_by_weight_sq=False)

    eps = 1e-6
    for k in ["conv0.w", "dense0.w"]:
        w = m.params[k]
        want = np.zeros(w.shape, dtype=np.float64)
        flat = w.reshape(-1)
        for j in range(flat.size):
            old = flat[j]
            per = np.zeros(6)
            for i in range(6):
                flat[j] = old + eps
                up = sample_loss(i)
                flat[j] = old - eps
                dn = sample_loss(i)
                per[i] = (up - dn) / (2 * eps)
            flat[j] = old
            want.reshape(-1)[j] = (per ** 2).mean()
        np.testing.assert_allclose(smap.scores[k], want, rtol=1e-4, atol=1e-10)


def test_fisher_first_layer_exemption_scores_the_rest():
    m = tiny_mlp(seed=3)
    full = score(m, method="diag_fisher", dataset=fisher_ds(), batch_size=4)
    exempt = score(m, method="diag_fisher", dataset=fisher_ds(), batch_size=4,
                   exempt_first=True)
    assert list(exempt.scores) == ["dense1.w", "dense2.w"]
    for k, v in exempt.scores.items():
        assert bits_equal(v, full.scores[k])


def test_fisher_zero_weight_model_scores_zero():
    m = tiny_mlp()
    for k in prunable_keys(m):
        m.params[k] = np.zeros_like(m.params[k])
    smap = score(m, method="diag_fisher", dataset=fisher_ds(), batch_size=4)
    for s in smap.scores.values():
        assert np.all(s == 0.0)


def test_fisher_max_batches_limits_the_pass():
    m = as_float64(tiny_mlp(seed=9))
    ds = fisher_ds(n=12)
    one = score(m, method="diag_fisher", dataset=ds, batch_size=4,
                max_batches=1, scale_by_weight_sq=False)
    # first batch only: oracle over the first 4 samples
    acc = np.zeros(m.params["dense0.w"].shape, dtype=np.float64)
    for i in range(4):
        _, grads = loss_and_grads(m, ds.inputs[i:i + 1], ds.labels[i:i + 1])
        acc += grads["dense0.w"].astype(np.float64) ** 2
    np.testing.assert_allclose(one.scores["dense0.w"], acc / 4, rtol=1e-9)


# ---------------------------------------------------------------- masks

def test_mask_sparsity_zero_keeps_everything():
    m = tiny_mlp(seed=1)
    mask = mask_from_scores(score(m), 0.0)
    assert mask.count_dropped() == 0
    assert models_bit_equal(apply_mask(m, mask), m)


def test_mask_sparsity_one_drops_everything():
    m = tiny_mlp(seed=1)
    mask = mask_from_scores(score(m), 1.0)
    pruned = apply_mask(m, mask)
    for k in prunable_keys(m):
        assert np.all(pruned.params[k] == 0.0)


@pytest.mark.parametrize("s", [0.1, 0.25, 1 / 3, 0.5, 0.77])
@pytest.mark.parametrize("granularity", ["global", "layerwise"])
def test_mask_drop_count_is_floor_of_requested(s, granularity):
    m = tiny_mlp(seed=6)
    smap = score(m)
    mask = mask_from_scores(smap, s, granularity=granularity)
    if granularity == "global":
        total = sum(v.size for v in smap.scores.values())
        assert mask.count_dropped() == math.floor(s * total)
        assert s * total - mask.count_dropped() < 1
    else:
        for k, v in smap.scores.items():
            assert (~mask.keep[k]).sum() == math.floor(s * v.size)


def test_mask_drops_smallest_magnitudes():
    m = single_dense([[1.0, -2.0, 3.0, -4.0]])
    mask = mask_from_scores(score(m), 0.5)
    np.testing.assert_array_equal(mask.keep["dense0.w"],
                                  [[False, False, True, True]])
    pruned = apply_mask(m, mask)
    np.testing.assert_array_equal(pruned.params["dense0.w"],
                                  [[0.0, 0.0, 3.0, -4.0]])


def test_global_quota_crosses_tensors_layerwise_does_not():
    m = tiny_mlp(hidden=(4,), in_dim=4, classes=4)
    m.params["dense0.w"] = np.full((4, 4), 0.01, dtype=np.float32)
    m.params["dense1.w"] = np.full((4, 4), 10.0, dtype=np.float32)
    smap = score(m)
    g = mask_from_scores(smap, 0.5, granularity="global")
    assert (~g.keep["dense0.w"]).sum() == 16
    assert (~g.keep["dense1.w"]).sum() == 0
    l = mask_from_scores(smap, 0.5, granularity="layerwise")
    assert (~l.keep["dense0.w"]).sum() == 8
    assert (~l.keep["dense1.w"]).sum() == 8


def test_tie_break_is_tensor_order_then_flat_index():
    m = tiny_mlp(hidden=(4,), in_dim=4, classes=4)
    m.params["dense0.w"] = np.ones((4, 4), dtype=np.float32)
    m.params["dense1.w"] = np.ones((4, 4), dtype=np.float32)
    mask = mask_from_scores(score(m), 3 / 32, granularity="global")
    k0 = mask.keep["dense0.w"].reshape(-1)
    assert not k0[:3].any() and k0[3:].all()
    assert mask.keep["dense1.w"].all()


def lexsort_keep(scores, sparsity):
    """Keep-masks of one group by a full ranking: a lexsort on (score, tensor
    index, flat index), NaN last, the floor(sparsity * count) first dropped."""
    pooled = np.concatenate([v.reshape(-1) for v in scores])
    tensor = np.repeat(np.arange(len(scores)), [v.size for v in scores])
    order = np.lexsort((np.arange(pooled.size), tensor, pooled))
    keep = np.ones(pooled.size, dtype=bool)
    keep[order[:math.floor(sparsity * pooled.size)]] = False
    return np.split(keep, np.cumsum([v.size for v in scores])[:-1])


@pytest.mark.parametrize("s", [0.0, 0.1, 1 / 3, 0.5, 0.77, 0.9, 1.0])
@pytest.mark.parametrize("granularity", ["global", "layerwise"])
def test_mask_matches_full_ranking_on_ties_signed_zeros_and_nan(s, granularity):
    # scores on a 0.5 grid tie often; half the zeros are -0.0; a fifth are
    # NaN, so at high sparsities the cut falls among the NaNs
    rng = np.random.default_rng(int(s * 100))
    scores = {}
    for name, shape in (("a.w", (6, 5)), ("b.w", (7,)), ("c.w", (3, 4, 2))):
        v = np.round(rng.normal(0.0, 1.0, shape) * 2) / 2
        zeros = v == 0
        v[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        v[rng.random(shape) < 0.2] = np.nan
        scores[name] = v
    mask = mask_from_scores(ScoreMap("magnitude", scores), s, granularity=granularity)
    groups = [list(scores)] if granularity == "global" else [[k] for k in scores]
    for group in groups:
        for k, want in zip(group, lexsort_keep([scores[k] for k in group], s)):
            assert np.array_equal(mask.keep[k].reshape(-1), want), k


def test_global_equals_layerwise_for_single_prunable_tensor():
    m = single_dense(np.random.default_rng(0).normal(size=(5, 7)))
    smap = score(m)
    g = mask_from_scores(smap, 0.4, granularity="global")
    l = mask_from_scores(smap, 0.4, granularity="layerwise")
    np.testing.assert_array_equal(g.keep["dense0.w"], l.keep["dense0.w"])


@pytest.mark.parametrize("s", [-0.1, 1.0001, float("nan")])
def test_sparsity_outside_unit_interval_rejected(s):
    with pytest.raises(ValueError, match="sparsity"):
        mask_from_scores(score(tiny_mlp()), s)


def test_unknown_granularity_rejected():
    with pytest.raises(ValueError, match="granularity"):
        mask_from_scores(score(tiny_mlp()), 0.5, granularity="row")


# ---------------------------------------------------------------- apply

def test_apply_mask_exact_zeros_and_untouched_survivors():
    m = tiny_mlp(seed=8)
    before = {k: v.copy() for k, v in m.params.items()}
    mask = mask_from_scores(score(m), 0.6)
    pruned = apply_mask(m, mask)
    for k, keep in mask.keep.items():
        assert np.all(pruned.params[k][~keep] == 0.0)
        assert bits_equal(pruned.params[k][keep], before[k][keep])
    for k in m.params:
        if k not in mask.keep:
            assert bits_equal(pruned.params[k], before[k])
        assert bits_equal(m.params[k], before[k])  # input model untouched


def test_apply_mask_shape_mismatch_rejected():
    m = tiny_mlp()
    mask = mask_from_scores(score(m), 0.5)
    mask.keep["dense0.w"] = mask.keep["dense0.w"][:, :2]
    with pytest.raises(ValueError, match="shape"):
        apply_mask(m, mask)


def test_apply_mask_unknown_tensor_rejected():
    m = tiny_mlp()
    mask = mask_from_scores(score(m), 0.5)
    mask.keep["dense9.w"] = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="dense9.w"):
        apply_mask(m, mask)


def test_masked_model_is_an_interpolation_fixed_point():
    # kept coordinates: 0.5*w + 0.5*w == w exactly; dropped: lambda 1 picks the
    # masked (zero) value, so interpolation reproduces the pruned model bitwise
    m = tiny_mlp(seed=12)
    mask = mask_from_scores(score(m), 0.5)
    pruned = apply_mask(m, mask)
    lam = {k: np.where(keep, 0.5, 1.0) for k, keep in mask.keep.items()}
    mid = interpolate(m, pruned, lam)
    assert models_bit_equal(mid, pruned)


# ---------------------------------------------------------------- serialization

def test_scoremap_json_roundtrip():
    m = build_model(small_cnn_desc())
    seed_params(m, 5)
    smap = score(m)
    back = ScoreMap.from_jsonable(json.loads(json.dumps(smap.to_jsonable())))
    assert back.method == smap.method
    assert list(back.scores) == list(smap.scores)
    for k in smap.scores:
        assert bits_equal(back.scores[k], smap.scores[k])


def test_prunemask_roundtrip_uses_packed_bitmask():
    m = single_dense(np.random.default_rng(3).normal(size=(3, 7)))  # 21 bits
    mask = mask_from_scores(score(m), 0.37)
    blob = json.dumps(mask.to_jsonable())
    assert "packed" in blob
    back = PruneMask.from_jsonable(json.loads(blob))
    assert back.sparsity == mask.sparsity
    assert back.granularity == mask.granularity
    for k in mask.keep:
        np.testing.assert_array_equal(back.keep[k], mask.keep[k])


def test_externally_authored_scoremap_is_usable():
    payload = {"method": "magnitude",
               "scores": {"dense0.w": {"shape": [1, 4],
                                       "data": [4.0, 3.0, 2.0, 1.0]}}}
    smap = ScoreMap.from_jsonable(payload)
    mask = mask_from_scores(smap, 0.5)
    np.testing.assert_array_equal(mask.keep["dense0.w"],
                                  [[True, True, False, False]])


# ---------------------------------------------------------------- behaviour

def train_small(seed, norm=None, epochs=15):
    ds = synth_blobs(seed=21, n=512, dims=8, classes=4, spread=0.45,
                     clusters_per_class=2)
    m = init_params(build_model(mlp_descriptor(8, [24, 24], 4, norm=norm)),
                    "kaiming_uniform", seed)
    cfg = TrainConfig(base_lr=0.1, batch_size=64, epochs=epochs, seed=seed)
    m, _ = train(m, ds, cfg)
    return m, ds


def test_accuracy_degrades_with_sparsity_on_average():
    accs = np.zeros(3)
    for seed in (0, 1):
        m, ds = train_small(seed)
        smap = score(m)
        for j, s in enumerate((0.0, 0.5, 0.9)):
            pruned = apply_mask(m, mask_from_scores(smap, s))
            accs[j] += evaluate(pruned, ds)[1]
    assert accs[0] >= accs[1] >= accs[2]
    assert accs[0] - accs[2] > 0.1


def test_sparsity_zero_changes_nothing():
    m, ds = train_small(0)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.0))
    assert models_bit_equal(pruned, m)
    assert evaluate(pruned, ds)[1] == evaluate(m, ds)[1]


# ---------------------------------------------------------------- repair

def test_post_prune_repair_reset_requires_batchnorm():
    m, ds = train_small(0)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.5))
    with pytest.raises(ValueError, match="batchnorm"):
        post_prune_repair(pruned, m, ds, mode="reset")


def test_post_prune_repair_rejects_unknown_mode():
    m, ds = train_small(0)
    with pytest.raises(ValueError, match="mode"):
        post_prune_repair(m, m, ds, mode="rewind")


def test_post_prune_repair_rejects_arch_mismatch():
    m, ds = train_small(0)
    other = build_model(mlp_descriptor(8, [16], 4))
    with pytest.raises(ValueError):
        post_prune_repair(m, other, ds)


def test_reset_recalibrates_pruned_batchnorm_net():
    m, ds = train_small(0, norm="batchnorm", epochs=4)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.8))
    fixed = post_prune_repair(pruned, m, ds, mode="reset", batch_size=64)
    acc_p = evaluate(pruned, ds)[1]
    acc_f = evaluate(fixed, ds)[1]
    assert acc_f >= acc_p
    # repair touches only running statistics, never the masked weights
    for k in prunable_keys(m):
        assert bits_equal(fixed.params[k], pruned.params[k])


@pytest.mark.filterwarnings("ignore:.*dead channels.*")
def test_repair_mode_corrections_fold_away():
    m, ds = train_small(1)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.6))
    fixed = post_prune_repair(pruned, m, ds, mode="repair", batch_size=64)
    assert any(s.kind == "channel_affine" for s in fixed.layers)
    folded = fold_affine(fixed)
    assert not any(s.kind == "channel_affine" for s in folded.layers)
    xb = ds.inputs[:64]
    np.testing.assert_allclose(forward(folded, xb, mode="eval"),
                               forward(fixed, xb, mode="eval"),
                               atol=1e-5)


@pytest.mark.filterwarnings("ignore:.*dead channels.*")
def test_repair_mode_restores_original_channel_stats():
    # channels whose producer row was pruned away are constants: a correction
    # can move their mean back to goal but no affine resurrects variance,
    # so the std check applies to live channels only
    from rebasin.renorm import measure_stats
    m, ds = train_small(2)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.7))
    fixed = post_prune_repair(pruned, m, ds, mode="repair", batch_size=64,
                              sequential=True)
    goals = measure_stats(m, ds, batch_size=64)
    broken = measure_stats(pruned, ds, batch_size=64)
    got = measure_stats(fixed, ds, batch_size=64)
    for bid in goals.means:
        live = broken.stds[bid] > 1e-8
        assert live.any()
        tol_m = 1e-3 * np.maximum(np.abs(goals.means[bid]),
                                  goals.stds[bid]) + 1e-9
        assert np.all(np.abs(got.means[bid] - goals.means[bid]) <= tol_m)
        tol_s = 1e-3 * goals.stds[bid] + 1e-9
        assert np.all(np.abs(got.stds[bid] - goals.stds[bid])[live]
                      <= tol_s[live])


@pytest.mark.filterwarnings("ignore:.*dead channels.*")
@pytest.mark.parametrize("sequential", [False, True])
def test_repair_mode_on_one_batch_lands_on_the_one_batch_goal(sequential):
    # goals and the pruned net's statistics both come from the first batch,
    # so every live channel of the first boundary lands on its goal
    from rebasin.renorm import measure_stats
    m, ds = train_small(2)
    pruned = apply_mask(m, mask_from_scores(score(m), 0.7))
    fixed = post_prune_repair(pruned, m, ds, mode="repair", batch_size=64,
                              sequential=sequential, max_batches=1)
    one = dict(batch_size=64, max_batches=1)
    goals, broken, got = (measure_stats(n, ds, boundaries=["b0"], **one)
                          for n in (m, pruned, fixed))
    live = broken.stds["b0"] > ops.DEAD_STD
    assert live.any()
    scale = float(np.max(goals.stds["b0"]))
    np.testing.assert_allclose(got.stds["b0"][live], goals.stds["b0"][live],
                               rtol=1e-5, atol=1e-6 * scale)
    np.testing.assert_allclose(got.means["b0"][live], goals.means["b0"][live],
                               rtol=1e-5, atol=1e-6 * scale)
