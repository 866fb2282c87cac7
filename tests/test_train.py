"""Training engine: init schemes, schedules, the SGD update (against analytic
gradients and finite differences), and the model-producing recipes."""
import math
from dataclasses import replace

import numpy as np
import pytest

from rebasin import ops, prune
from rebasin.data import synth_blobs
from rebasin.model import _backward, _forward_cached, build_model, mlp_descriptor, stat_key
from rebasin.probes import l2_distance
from rebasin.train import (
    DivergedError,
    TrainConfig,
    evaluate,
    init_params,
    loss_and_grads,
    lr_at,
    remove_bias_finetune,
    retrain_same_basin,
    spawn_pair,
    train,
)
from helpers import (
    as_float64,
    bits_equal,
    models_bit_equal,
    numeric_grad,
    rand_batch,
    rel_err,
    seed_params,
    small_cnn_desc,
)


def blobs(seed=0, n=512, dims=8, classes=4, spread=0.4, **kw):
    return synth_blobs(seed=seed, n=n, dims=dims, classes=classes, spread=spread, **kw)


def fresh_mlp(widths=(32,), in_dim=8, classes=4):
    return build_model(mlp_descriptor(in_dim, list(widths), classes))


def quick_config(**kw):
    base = dict(base_lr=0.1, schedule="constant", momentum=0.9, weight_decay=0.0,
                batch_size=64, epochs=3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- init schemes

def test_init_uniform_dense_bound_and_std():
    m = init_params(fresh_mlp(widths=(100,), in_dim=100), "kaiming_uniform", seed=0)
    w = m.params["dense0.w"]
    bound = 1 / math.sqrt(100)
    assert np.max(np.abs(w)) <= bound
    assert abs(w.std() - bound / math.sqrt(3)) <= 0.05 * bound / math.sqrt(3)
    b = m.params["dense0.b"]
    assert np.max(np.abs(b)) <= bound and np.any(b != 0)


def test_init_normal_dense_std_and_zero_bias():
    m = init_params(fresh_mlp(widths=(100,), in_dim=100), "kaiming_normal", seed=1)
    w = m.params["dense0.w"]
    assert abs(w.std() - 0.1) <= 0.005
    assert np.all(m.params["dense0.b"] == 0)


def test_init_normal_conv_std_and_zero_bias():
    m = init_params(build_model(small_cnn_desc(norm=None, in_shape=(8, 16, 16))),
                    "kaiming_normal", seed=2)
    w = m.params["conv0.w"]  # (5, 8, 3, 3)
    want = math.sqrt(2.0 / (5 * 9))
    assert abs(w.std() - want) <= 0.1 * want
    assert np.all(m.params["conv0.b"] == 0)


def test_init_uniform_conv_uses_fan_in_kernel_area():
    m = init_params(build_model(small_cnn_desc(norm=None)), "kaiming_uniform", seed=3)
    bound = 1 / math.sqrt(2 * 9)
    assert np.max(np.abs(m.params["conv0.w"])) <= bound


def test_init_deterministic_and_seed_sensitive():
    a = init_params(fresh_mlp(), "kaiming_uniform", seed=7)
    b = init_params(fresh_mlp(), "kaiming_uniform", seed=7)
    c = init_params(fresh_mlp(), "kaiming_uniform", seed=8)
    assert models_bit_equal(a, b)
    assert not models_bit_equal(a, c)


def test_init_leaves_norm_params_alone():
    m = init_params(build_model(small_cnn_desc()), "kaiming_normal", seed=4)
    assert np.all(m.params["bn0.gamma"] == 1)
    assert np.all(m.params["bn0.running_var"] == 1)


def test_init_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        init_params(fresh_mlp(), "xavier", seed=0)


# ---------------------------------------------------------------- schedules

def test_lr_constant():
    cfg = quick_config(base_lr=0.05)
    assert lr_at(cfg, 0) == 0.05
    assert lr_at(cfg, 10_000) == 0.05


def test_lr_step_decay_milestones():
    cfg = quick_config(base_lr=0.1, schedule="step", milestones=(32000, 48000),
                       decay_factor=10.0)
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 31999) == pytest.approx(0.1)
    assert lr_at(cfg, 32000) == pytest.approx(0.01)
    assert lr_at(cfg, 48000) == pytest.approx(0.001)


def test_lr_warmup_midpoint():
    cfg = quick_config(base_lr=0.1, warmup_iters=100)
    assert abs(lr_at(cfg, 50) - (1e-6 + 0.1) / 2) <= 1e-9


def test_lr_warmup_composes_with_step():
    cfg = quick_config(base_lr=0.1, schedule="step", milestones=(200,),
                       decay_factor=10.0, warmup_iters=100)
    assert lr_at(cfg, 0) == pytest.approx(1e-6)
    assert lr_at(cfg, 100) == pytest.approx(0.1)
    assert lr_at(cfg, 250) == pytest.approx(0.01)


def test_lr_cosine_endpoints():
    cfg = quick_config(base_lr=0.2, schedule="cosine")
    assert lr_at(cfg, 0, total_iters=1000) == pytest.approx(0.2)
    assert lr_at(cfg, 500, total_iters=1000) == pytest.approx(0.1)
    assert abs(lr_at(cfg, 1000, total_iters=1000)) <= 1e-12


def test_lr_cosine_needs_total():
    with pytest.raises(ValueError, match="total"):
        lr_at(quick_config(schedule="cosine"), 5)


def test_lr_positive_throughout_run():
    cfg = quick_config(base_lr=0.1, schedule="cosine", warmup_iters=10)
    assert all(lr_at(cfg, i, total_iters=500) > 0 for i in range(500))


@pytest.mark.parametrize("bad", [
    dict(momentum=1.0), dict(momentum=-0.1), dict(weight_decay=-1e-3),
    dict(base_lr=-0.1), dict(schedule="linear"), dict(init="xavier"),
    dict(batch_size=0), dict(epochs=-1), dict(decay_factor=0.0),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError):
        quick_config(**bad)


# ---------------------------------------------------------------- SGD core

def test_train_lr_zero_keeps_params():
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=0)
    out, _ = train(m, blobs(), quick_config(base_lr=0.0, epochs=2, weight_decay=0.01))
    assert models_bit_equal(out, m)


def test_one_step_matches_analytic_update():
    # single dense layer, no bias: dW = (softmax(Wx) - onehot) x^T / n, then
    # v = g + wd*W, W' = W - lr*v
    ds = blobs(n=64, dims=5, classes=3)
    desc = {"input_shape": [5], "layers": [{"kind": "dense", "out": 3, "bias": False}]}
    m = seed_params(build_model(desc), seed=5, scale=0.3)
    lr, wd = 0.05, 0.1
    cfg = quick_config(base_lr=lr, weight_decay=wd, batch_size=64, epochs=1,
                       momentum=0.9, shuffle=False)
    out, _ = train(m, ds, cfg)

    w = m.params["dense0.w"].astype(np.float64)
    x = ds.inputs.astype(np.float64)
    z = x @ w.T
    p = np.exp(z - z.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    p[np.arange(64), ds.labels] -= 1.0
    g = (p / 64).T @ x
    want = w - lr * (g + wd * w)
    np.testing.assert_allclose(out.params["dense0.w"], want, atol=1e-6)


def test_two_steps_apply_momentum_in_order():
    ds = blobs(n=32, dims=4, classes=3)
    desc = {"input_shape": [4], "layers": [{"kind": "dense", "out": 3, "bias": False}]}
    m = seed_params(build_model(desc), seed=6, scale=0.3)
    lr, mom, wd = 0.05, 0.9, 0.01
    cfg = quick_config(base_lr=lr, momentum=mom, weight_decay=wd, batch_size=32,
                       epochs=2, shuffle=False)
    out, _ = train(m, ds, cfg)

    def grad(w64):
        z = ds.inputs.astype(np.float64) @ w64.T
        p = np.exp(z - z.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        p[np.arange(32), ds.labels] -= 1.0
        return (p / 32).T @ ds.inputs.astype(np.float64)

    w0 = m.params["dense0.w"].astype(np.float64)
    v1 = grad(w0) + wd * w0
    w1 = w0 - lr * v1
    v2 = mom * v1 + grad(w1) + wd * w1
    w2 = w1 - lr * v2
    np.testing.assert_allclose(out.params["dense0.w"], w2, atol=1e-5)


def test_backward_matches_analytic_dense_gradient():
    ds = blobs(n=16, dims=5, classes=3)
    desc = {"input_shape": [5], "layers": [{"kind": "dense", "out": 3, "bias": False}]}
    m = as_float64(seed_params(build_model(desc), seed=7, scale=0.3))
    x = ds.inputs.astype(np.float64)
    _, grads = loss_and_grads(m, x, ds.labels)
    w = m.params["dense0.w"]
    z = x @ w.T
    p = np.exp(z - z.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    p[np.arange(16), ds.labels] -= 1.0
    want = (p / 16).T @ x
    assert rel_err(grads["dense0.w"], want) <= 1e-12


def reference_train(model, ds, cfg, frozen=()):
    """train's parameter updates as a plain loop: the whole backward walk,
    input gradient included, then the out-of-place float32 update."""
    model = model.copy()
    if cfg.track_boundary_stats:
        for bid, n in model.boundary_map:
            model.params[f"stats.{bid}.mean"] = np.zeros(n, dtype=np.float32)
            model.params[f"stats.{bid}.var"] = np.ones(n, dtype=np.float32)
    total = cfg.epochs * ds.num_batches(cfg.batch_size, drop_last=cfg.drop_last)
    if cfg.max_iters:
        total = min(total, cfg.max_iters)
    keys = [k for k in model.params if not stat_key(k) and k not in frozen]
    vel = {k: np.zeros_like(model.params[k]) for k in keys}
    it = 0
    for epoch in range(cfg.epochs):
        for xb, yb in ds.batches(cfg.batch_size, seed=cfg.seed, epoch=epoch,
                                 shuffle=cfg.shuffle, drop_last=cfg.drop_last):
            if it >= total:
                return model
            if cfg.track_boundary_stats:   # loss_and_grads does not track
                logits, caches = _forward_cached(model, xb, track=True)
                grads = _backward(model, caches, ops.softmax_cross_entropy(logits, yb)[1])
            else:
                _, grads = loss_and_grads(model, xb, yb, update_stats=True)
            assert grads["x"].shape == xb.shape
            lr = lr_at(cfg, it, total_iters=total)
            for k in keys:
                g = grads[k]
                if cfg.weight_decay:
                    g = g + cfg.weight_decay * model.params[k]
                vel[k] = (cfg.momentum * vel[k] + g).astype(np.float32)
                model.params[k] = (model.params[k] - lr * vel[k]).astype(np.float32)
            it += 1
    return model


@pytest.mark.parametrize("net", ["mlp", "mlp_float64", "bn_cnn"])
def test_train_equals_reference_loop_bitwise(net):
    if net == "bn_cnn":
        ds = blobs(seed=2, n=128, dims=64, image_shape=(1, 8, 8))
        m = init_params(build_model(small_cnn_desc(in_shape=(1, 8, 8), classes=4)),
                        "kaiming_normal", seed=3)
        cfg, frozen = quick_config(batch_size=32, epochs=2, track_boundary_stats=True,
                                   schedule="cosine"), ()
    else:
        ds = blobs(seed=4, n=256)
        m = init_params(fresh_mlp(widths=(16, 16)), "kaiming_uniform", seed=1)
        if net == "mlp_float64":
            m = as_float64(m)   # the first update turns every tensor float32
        cfg = quick_config(weight_decay=5e-3, momentum=0.8, epochs=3, max_iters=10,
                           schedule="step", milestones=(6,))
        frozen = ("dense1.b",)
    out, _ = train(m, ds, cfg, frozen=frozen)
    want = reference_train(m, ds, cfg, frozen=frozen)
    assert models_bit_equal(out, want)
    assert not bits_equal(out.params["dense0.w"], m.params["dense0.w"].astype(np.float32))
    if frozen:
        assert bits_equal(out.params["dense1.b"], m.params["dense1.b"])
    if net != "mlp":
        assert {v.dtype for k, v in out.params.items()
                if not stat_key(k) and k not in frozen} == {np.dtype(np.float32)}


FIRST_LAYER_NETS = {
    "dense_first": ({"input_shape": [8],
                     "layers": [{"kind": "dense", "out": 6}, {"kind": "relu"},
                                {"kind": "dense", "out": 3}]}, (8,)),
    "flatten_first": ({"input_shape": [1, 2, 4],
                       "layers": [{"kind": "flatten"}, {"kind": "dense", "out": 6},
                                  {"kind": "relu"}, {"kind": "dense", "out": 3}]},
                      (1, 2, 4)),
    "conv_first": (small_cnn_desc(in_shape=(1, 8, 8)), (1, 8, 8)),
}


@pytest.mark.parametrize("net", sorted(FIRST_LAYER_NETS))
def test_first_layer_stop_changes_no_gradient(net):
    desc, shape = FIRST_LAYER_NETS[net]
    m = seed_params(build_model(desc), seed=11, scale=0.4)
    x = rand_batch(shape, 12, seed=12)
    y = np.arange(12) % 3

    def walk(weight_hook=None, **kw):
        # the Fisher pass runs batchnorm on running statistics
        logits, caches = _forward_cached(m, x, update_stats=False,
                                         bn_batch_stats=weight_hook is None)
        return _backward(m, caches, ops.softmax_cross_entropy(logits, y)[1],
                         weight_hook=weight_hook, **kw)

    full, stop = walk(), walk(input_grad=False)
    assert set(full) - set(stop) == {"x"}
    assert all(bits_equal(stop[k], full[k]) for k in stop)
    sq_full, sq_stop = {}, {}
    walk(weight_hook=sq_full.__setitem__)
    walk(weight_hook=sq_stop.__setitem__, input_grad=False)
    assert sq_full.keys() == sq_stop.keys() == {
        f"{l.name}.w" for l in m.layers if l.kind in ("dense", "conv2d")}
    assert all(bits_equal(sq_stop[k], sq_full[k]) for k in sq_full)
    _, lg = loss_and_grads(m, x, y)
    assert lg["x"].shape == x.shape and set(lg) == set(full)


def test_diag_fisher_equals_the_full_backward_walk(monkeypatch):
    ds = blobs(seed=2, n=96, dims=64, image_shape=(1, 8, 8))
    m = init_params(build_model(small_cnn_desc(in_shape=(1, 8, 8), classes=4)),
                    "kaiming_normal", seed=3)
    keys = prune.prunable_keys(m)
    got = prune._diag_fisher(m, keys, ds, 32, None)
    monkeypatch.setattr(prune, "_backward", lambda *a, input_grad, **kw:
                        _backward(*a, **kw))
    want = prune._diag_fisher(m, keys, ds, 32, None)
    assert got.keys() == want.keys() == set(keys)
    assert all(bits_equal(got[k], want[k]) for k in keys)


def test_train_reaches_99_on_separable_blobs():
    ds = blobs(seed=1, spread=0.25)
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=0)
    out, log = train(m, ds, quick_config(epochs=5))
    assert log.epoch_train_acc[-1] >= 0.99
    _, acc = evaluate(out, ds)
    assert acc >= 0.99


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_names_iteration():
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=0)
    with pytest.raises(DivergedError, match=r"iteration \d+"):
        train(m, blobs(), quick_config(base_lr=1e8, epochs=2))


def test_train_reproducible_bits_with_batchnorm():
    ds = blobs(seed=2, n=256, dims=64, image_shape=(1, 8, 8))
    desc = small_cnn_desc(in_shape=(1, 8, 8), classes=4)
    cfg = quick_config(batch_size=32, epochs=1)
    runs = []
    for _ in range(2):
        m = init_params(build_model(desc), "kaiming_normal", seed=3)
        out, _ = train(m, ds, cfg)
        runs.append(out)
    assert models_bit_equal(runs[0], runs[1])


def test_batchnorm_running_stats_move_during_training():
    ds = blobs(seed=2, n=256, dims=64, image_shape=(1, 8, 8))
    m = init_params(build_model(small_cnn_desc(in_shape=(1, 8, 8), classes=4)),
                    "kaiming_normal", seed=3)
    out, _ = train(m, ds, quick_config(batch_size=32, epochs=1))
    assert not bits_equal(out.params["bn0.running_mean"], m.params["bn0.running_mean"])


def test_larger_weight_decay_compresses_weights():
    ds = blobs(seed=3)
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=1)
    small, _ = train(m, ds, quick_config(weight_decay=0.005, epochs=4))
    large, _ = train(m, ds, quick_config(weight_decay=0.01, epochs=4))
    mean_abs = lambda mod: np.mean([np.abs(mod.params[k]).mean()
                                    for k in mod.params if k.endswith(".w")])
    assert mean_abs(large) < mean_abs(small)


def test_frozen_keys_stay_put():
    ds = blobs(seed=4)
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=2)
    out, _ = train(m, ds, quick_config(epochs=1), frozen={"dense0.b"})
    assert bits_equal(out.params["dense0.b"], m.params["dense0.b"])
    assert not bits_equal(out.params["dense0.w"], m.params["dense0.w"])


def test_max_iters_cuts_run_short():
    ds = blobs(n=128)
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=0)
    _, log = train(m, ds, quick_config(batch_size=32, epochs=3, max_iters=5))
    assert len(log.losses) == 5


def test_trainlog_monotone_finite_and_csv(tmp_path):
    ds = blobs(n=128)
    m = init_params(fresh_mlp(), "kaiming_uniform", seed=0)
    _, log = train(m, ds, quick_config(batch_size=32, epochs=2, l2_every=3),
                   test_ds=blobs(seed=9, n=128))
    assert log.iterations == sorted(log.iterations)
    assert len(set(log.iterations)) == len(log.iterations)
    assert all(np.isfinite(v) for v in log.losses)
    assert all(lr > 0 for lr in log.lrs)
    assert len(log.epoch_train_acc) == 2 and len(log.epoch_test_acc) == 2
    assert log.l2_snaps and all(np.isfinite(v) for _, v in log.l2_snaps)

    csv_path = tmp_path / "log.csv"
    log.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,lr,loss"
    assert len(lines) == 1 + len(log.losses)
    s = log.summary()
    assert s["iters"] == len(log.losses) and np.isfinite(s["final_loss"])


# ---------------------------------------------------------------- gradient checks

def test_gradcheck_mlp_layers():
    m = as_float64(seed_params(build_model(mlp_descriptor(5, [6], 3)), seed=8))
    x = rand_batch((5,), 4, seed=9).astype(np.float64)
    y = np.array([0, 1, 2, 1])
    _, grads = loss_and_grads(m, x, y)
    f = lambda: loss_and_grads(m, x, y)[0]
    for k in sorted(m.params):
        assert rel_err(grads[k], numeric_grad(f, m.params[k])) <= 1e-3, k
    fx = lambda: loss_and_grads(m, x, y)[0]
    assert rel_err(grads["x"], numeric_grad(fx, x)) <= 1e-3


def test_gradcheck_every_layer_kind():
    desc = {"input_shape": [2, 6, 6], "layers": [
        {"kind": "conv2d", "out": 4, "k": 3, "stride": 2, "pad": 1},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2, "stride": 1},
        {"kind": "conv2d", "out": 3, "k": 2, "pad": 0},
        {"kind": "layernorm"},
        {"kind": "channel_affine"},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "out": 3},
    ]}
    m = as_float64(seed_params(build_model(desc), seed=10))
    x = rand_batch((2, 6, 6), 3, seed=11).astype(np.float64)
    y = np.array([0, 1, 2])
    _, grads = loss_and_grads(m, x, y)
    f = lambda: loss_and_grads(m, x, y)[0]
    for k in sorted(m.params):
        if k.endswith("running_mean") or k.endswith("running_var"):
            continue  # not gradient-trained
        assert rel_err(grads[k], numeric_grad(f, m.params[k])) <= 1e-3, k
    assert rel_err(grads["x"], numeric_grad(f, x)) <= 1e-3


# ---------------------------------------------------------------- recipes

def test_spawn_pair_full_pretrain_gives_identical_children():
    ds = blobs(seed=5)
    m = fresh_mlp()
    cfg = quick_config(epochs=2)
    a, b = spawn_pair(m, ds, cfg, pretrain_epochs=2)
    assert models_bit_equal(a, b)


def test_spawn_pair_zero_pretrain_children_differ():
    ds = blobs(seed=5)
    m = fresh_mlp()
    a, b = spawn_pair(m, ds, quick_config(epochs=2), pretrain_epochs=0,
                      child_seeds=(11, 12))
    assert not models_bit_equal(a, b)
    assert l2_distance(a, b) > 0


def test_spawn_pair_validates_budget():
    with pytest.raises(ValueError):
        spawn_pair(fresh_mlp(), blobs(), quick_config(epochs=2), pretrain_epochs=3)


def test_retrain_same_basin_zero_epochs_identity():
    ds = blobs(seed=6)
    m, _ = train(init_params(fresh_mlp(), "kaiming_uniform", seed=0), ds,
                 quick_config(epochs=2))
    again = retrain_same_basin(m, ds, quick_config(), 0, 0)
    assert models_bit_equal(again, m)
    assert l2_distance(again, m) == 0.0


def test_retrain_same_basin_moves_weights():
    ds = blobs(seed=6)
    m, _ = train(init_params(fresh_mlp(), "kaiming_uniform", seed=0), ds,
                 quick_config(epochs=2))
    other = retrain_same_basin(m, ds, quick_config(), 1, 1, big_lr=0.2, seed=5)
    assert l2_distance(other, m) > 0


def test_remove_bias_finetune_zeroes_and_freezes():
    ds = blobs(seed=7, spread=0.25)
    m, _ = train(init_params(fresh_mlp(), "kaiming_uniform", seed=0), ds,
                 quick_config(epochs=3))
    out = remove_bias_finetune(m, ds, epochs=4, lr=0.01, batch_size=64)
    for k in out.params:
        if k.endswith(".b"):
            assert np.all(out.params[k] == 0.0), k
    assert not out.meta.get("bias_free_warning", False)
    _, acc = evaluate(out, ds)
    assert acc >= 0.9


def test_remove_bias_finetune_warns_at_cap():
    ds = blobs(seed=8, spread=3.0)  # too noisy to hit the target immediately
    m = init_params(fresh_mlp(widths=(4,)), "kaiming_uniform", seed=0)
    with pytest.warns(UserWarning, match="90"):
        out = remove_bias_finetune(m, ds, epochs=0, lr=0.01)
    assert out.meta.get("bias_free_warning") is True


def test_remove_bias_finetune_on_biasfree_model():
    desc = {"input_shape": [8], "layers": [
        {"kind": "dense", "out": 16, "bias": False},
        {"kind": "relu"},
        {"kind": "dense", "out": 4, "bias": False},
    ]}
    ds = blobs(seed=9, spread=0.25)
    m = init_params(build_model(desc), "kaiming_uniform", seed=1)
    out = remove_bias_finetune(m, ds, epochs=4, lr=0.05, batch_size=64)
    assert not any(k.endswith(".b") for k in out.params)


def test_batchnorm_training_backward_keeps_float32(monkeypatch):
    # every layer's backward, BatchNorm's and the ones below it included,
    # returns float32 for a float32 net; the Fisher pass's squared gradients
    # are float64 by design and do not run here
    m = init_params(build_model(small_cnn_desc(in_shape=(1, 8, 8), classes=4)),
                    "kaiming_normal", seed=3)
    ds = blobs(seed=2, n=64, dims=64, image_shape=(1, 8, 8))
    seen = []
    for name in ("dense_bwd", "conv2d_bwd", "relu_bwd", "maxpool_bwd", "batchnorm_bwd"):
        def record(*args, fn=getattr(ops, name), name=name):
            out = fn(*args)
            seen.extend((name, a.dtype) for a in (out if isinstance(out, tuple) else (out,)))
            return out
        monkeypatch.setattr(ops, name, record)
    _, grads = loss_and_grads(m, ds.inputs[:32], ds.labels[:32])
    assert {name for name, _ in seen} == {"dense_bwd", "conv2d_bwd", "relu_bwd",
                                           "maxpool_bwd", "batchnorm_bwd"}
    assert all(dtype == np.float32 for _, dtype in seen), seen
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
