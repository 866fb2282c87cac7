"""Channel-scale probes, parameter distances, and the retraining clock."""
import json

import numpy as np
import pytest

from dataclasses import replace

from rebasin import ops, prune
from rebasin.data import synth_blobs
from rebasin.match import apply_perm, random_perm
from rebasin.model import (NonFiniteError, build_model, cnn_descriptor, forward,
                           mlp_descriptor, wiring)
from rebasin.probes import LayerProbe, channel_probe, l2_distance, retrain_probe
from rebasin.renorm import data_independent_correct, measure_stats
from rebasin.train import TrainConfig, evaluate, init_params, train

from helpers import bits_equal, large_mean, models_bit_equal, seed_params, small_cnn_desc


def blobs(seed=3, n=256, dims=8, classes=4, spread=0.5, **kw):
    return synth_blobs(seed=seed, n=n, dims=dims, classes=classes,
                       spread=spread, **kw)


def mlp(seed=0, widths=(12, 10), in_dim=8, classes=4):
    return seed_params(build_model(mlp_descriptor(in_dim, list(widths),
                                                  classes)), seed)


# ---------------------------------------------------------------- distances

def test_l2_distance_self_is_zero():
    a = mlp(0)
    assert l2_distance(a, a) == 0.0
    assert l2_distance(a, a, include_norm_stats=True) == 0.0


def test_l2_distance_of_negated_model():
    a = mlp(1)
    neg = a.copy()
    for k in neg.params:
        neg.params[k] = -neg.params[k]
    norm = np.sqrt(sum(float((v.astype(np.float64) ** 2).sum())
                       for v in a.params.values()))
    assert abs(l2_distance(a, neg) - 2 * norm) <= 1e-9 * norm


def test_l2_distance_permutation_isometry():
    a, b = mlp(2), mlp(3)
    d = l2_distance(a, b)
    p = random_perm(a, seed=7)
    dp = l2_distance(apply_perm(a, p), apply_perm(b, p))
    assert abs(d - dp) <= 1e-9 * max(d, 1.0)


def test_l2_distance_architecture_mismatch_rejected():
    with pytest.raises(ValueError):
        l2_distance(mlp(0), mlp(0, widths=(12, 9)))


def test_l2_distance_norm_stats_flag():
    a = seed_params(build_model(small_cnn_desc(norm="batchnorm")), 4)
    b = a.copy()
    b.params["bn0.running_mean"] = b.params["bn0.running_mean"] + 1.0
    assert l2_distance(a, b) == 0.0
    assert l2_distance(a, b, include_norm_stats=True) > 0.9


# ---------------------------------------------------------------- channel probe

def test_channel_probe_all_zero_model():
    m = build_model(mlp_descriptor(8, [16], 4))  # zero-initialized
    probe = channel_probe(m, blobs(), with_fisher=False)
    row = probe.rows["b0"]
    assert row["post_scale"] == 0.0
    assert row["zero_frac"] == 1.0
    assert row["weight_scale"] == 0.0


def test_channel_probe_identity_layer_keeps_unit_std():
    m = build_model(mlp_descriptor(8, [8], 4))
    m.params["dense0.w"] = np.eye(8, dtype=np.float32)
    probe = channel_probe(m, blobs(n=512), with_fisher=False)
    assert abs(probe.rows["b0"]["pre_std"] - 1.0) < 0.05


def test_channel_probe_matches_two_pass_oracle():
    from rebasin.model import POST, PRE
    plain = seed_params(build_model(small_cnn_desc(norm="batchnorm")), 5)
    ds = blobs(n=96, dims=2 * 8 * 8, image_shape=(2, 8, 8))
    for m in (plain, large_mean(plain.copy())):
        probe = channel_probe(m, ds, batch_size=32, with_fisher=False)

        wir = wiring(m)
        taps = [(b.bid, ph) for b in wir.values() for ph in (PRE, POST)]
        chunks = {t: [] for t in taps}
        for lo in range(0, 96, 32):
            _, tl = forward(m, ds.inputs[lo:lo + 32], taps=taps)
            for tap in tl:
                chunks[(tap.boundary_id, tap.phase)].append(
                    tap.value.astype(np.float64).reshape(-1))
        for bid, b in wir.items():
            pre = np.concatenate(chunks[(bid, PRE)])
            post = np.concatenate(chunks[(bid, POST)])
            row = probe.rows[bid]
            assert abs(row["pre_scale"] - np.abs(pre).mean()) <= 1e-10
            assert abs(row["pre_std"] - pre.std()) <= 1e-10
            assert abs(row["post_scale"] - np.abs(post).mean()) <= 1e-10
            assert abs(row["post_std"] - post.std()) <= 1e-10
            assert abs(row["zero_frac"] - (post == 0).mean()) <= 1e-12
            w = m.params[f"{m.layers[b.producer].name}.w"]
            assert abs(row["weight_scale"] -
                       np.abs(w.astype(np.float64)).mean()) <= 1e-12


def test_channel_probe_is_side_effect_free_and_deterministic():
    m = seed_params(build_model(small_cnn_desc(norm="batchnorm")), 6)
    before = m.copy()
    ds = blobs(n=64, dims=2 * 8 * 8, classes=3, image_shape=(2, 8, 8))
    p1 = channel_probe(m, ds, batch_size=32)
    p2 = channel_probe(m, ds, batch_size=32)
    assert models_bit_equal(m, before)
    assert p1.rows == p2.rows
    assert p1.fisher == p2.fisher


def test_channel_probe_invariants_and_fisher():
    m = mlp(7)
    ds = blobs()
    probe = channel_probe(m, ds, batch_size=64)
    for row in probe.rows.values():
        assert 0.0 <= row["zero_frac"] <= 1.0
        assert row["pre_std"] >= 0.0 and row["post_std"] >= 0.0
    assert list(probe.fisher) == ["dense0.w", "dense1.w", "dense2.w"]
    assert all(v >= 0.0 for v in probe.fisher.values())


def test_channel_probe_csv_and_json(tmp_path):
    m = mlp(8)
    probe = channel_probe(m, blobs(), batch_size=64)
    path = tmp_path / "probe.csv"
    probe.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("boundary,pre_scale,pre_std,post_scale,post_std,"
                        "zero_frac,weight_scale")
    assert len(lines) == 1 + len(probe.rows)
    back = json.loads(json.dumps(probe.to_jsonable()))
    assert set(back["rows"]) == set(probe.rows)
    assert back["fisher"]["dense0.w"] == probe.fisher["dense0.w"]


def test_channel_probe_halves_read_the_same_rows(monkeypatch):
    # 100 rows at batch 64: the probe walks each of the first 64 rows once,
    # its activation rows and Fisher means both reading that walk, and drops
    # the 36-row tail, while pruning scores still read every row
    m, ds = mlp(9), blobs(n=100)
    first, walked = m.params["dense0.w"], []

    def counting(x, w, b, dense_fwd=ops.dense_fwd):
        if w is first:
            walked.append(x.copy())
        return dense_fwd(x, w, b)
    monkeypatch.setattr(ops, "dense_fwd", counting)
    probe = channel_probe(m, ds, batch_size=64)
    assert len(walked) == 1 and bits_equal(walked[0], ds.inputs[:64])
    assert probe.batch_count == 1
    head = replace(ds, inputs=ds.inputs[:64], labels=ds.labels[:64])
    assert probe.fisher == channel_probe(m, head, batch_size=64).fisher
    walked.clear()
    prune.score(m, "diag_fisher", ds, batch_size=64)
    assert [len(x) for x in walked] == [64, 36]


LN_AFFINE_DESC = {"input_shape": [8], "layers": [
    {"kind": "dense", "out": 12}, {"kind": "layernorm"}, {"kind": "channel_affine"},
    {"kind": "relu"}, {"kind": "dense", "out": 10}, {"kind": "channel_affine"},
    {"kind": "relu"}, {"kind": "dense", "out": 4}]}


def probe_nets():
    """(model, dataset) per net the one-pass probe must keep bitwise: the
    pipeline benchmark's BatchNorm convnet, an MLP, and layernorm and
    channel_affine nets, dense and conv."""
    convnet = cnn_descriptor((1, 16, 16), [{"out": c, "k": 3, "pool": 2}
                                           for c in (16, 32)], 10)
    images = blobs(n=100, dims=256, classes=10, image_shape=(1, 16, 16))
    small = blobs(n=100, dims=2 * 8 * 8, classes=3, image_shape=(2, 8, 8))
    return {
        "cnn_prune": (seed_params(build_model(convnet), 21, scale=0.3), images),
        "mlp": (mlp(22), blobs(n=100)),
        "ln_affine": (seed_params(build_model(LN_AFFINE_DESC), 23), blobs(n=100)),
        "cnn_layernorm": (seed_params(build_model(small_cnn_desc(norm="layernorm")), 24),
                          small),
    }


def two_pass(m, ds, batch_size, max_batches=None):
    """The probe as two passes: the eval walk's rows, then _diag_fisher's
    means over the same full batches."""
    rows = channel_probe(m, ds, batch_size, max_batches, with_fisher=False)
    raw = prune._diag_fisher(m, prune.prunable_keys(m), ds, batch_size, max_batches,
                             drop_last=True)
    return rows, {k: float(v.mean()) for k, v in raw.items()}


@pytest.mark.parametrize("net", ["cnn_prune", "mlp", "ln_affine", "cnn_layernorm"])
def test_channel_probe_is_bitwise_the_two_pass_oracle(net):
    m, ds = probe_nets()[net]
    for max_batches in (None, 2):
        probe = channel_probe(m, ds, batch_size=32, max_batches=max_batches)
        rows, fisher = two_pass(m, ds, 32, max_batches)
        assert probe.batch_count == rows.batch_count == (max_batches or 3)
        assert probe.rows == rows.rows
        assert probe.fisher == fisher and list(fisher) == prune.prunable_keys(m)


def test_channel_probe_keeps_eval_rows_of_a_batch_stats_model():
    # data_independent_correct's batchnorm layers normalize with each batch's
    # own statistics in eval, so the Fisher walk (running statistics) reads
    # other values there: the rows must come from an eval walk
    ds = blobs(n=100, dims=2 * 8 * 8, classes=3, image_shape=(2, 8, 8))
    m = seed_params(build_model(small_cnn_desc()), 25)
    other = seed_params(build_model(small_cnn_desc()), 26, scale=1.5)
    fixed = data_independent_correct(m, measure_stats(other, ds, batch_size=32))
    probe = channel_probe(fixed, ds, batch_size=32)
    rows, fisher = two_pass(fixed, ds, 32)
    assert probe.rows == rows.rows and probe.fisher == fisher
    assert probe.batch_count == rows.batch_count == 3
    running = fixed.copy()
    running.layers = [replace(s, batch_stats_in_eval=False) for s in running.layers]
    assert channel_probe(running, ds, batch_size=32, with_fisher=False).rows != probe.rows


@pytest.mark.parametrize("with_fisher", [True, False])
@pytest.mark.parametrize("where", ["input", "conv1"])
def test_channel_probe_names_the_first_non_finite_layer(where, with_fisher):
    m = seed_params(build_model(small_cnn_desc()), 27)
    ds = blobs(n=100, dims=2 * 8 * 8, classes=3, image_shape=(2, 8, 8))
    if where == "input":
        ds = replace(ds, inputs=ds.inputs.copy())
        ds.inputs[40, 1, 3, 3] = np.nan     # in the second batch
    else:
        m.params["conv1.w"][0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError) as err:
        channel_probe(m, ds, batch_size=32, with_fisher=with_fisher)
    assert err.value.layer_name == {"input": "conv0", "conv1": "conv1"}[where]


def test_channel_probe_needs_one_batch():
    with pytest.raises(ValueError, match="batch"):
        channel_probe(mlp(0), blobs(n=16), batch_size=64, with_fisher=False)


# ---------------------------------------------------------------- retrain probe

def trained(seed=0, epochs=8):
    ds = blobs(seed=31, n=384, dims=8, classes=4, spread=0.35)
    m = init_params(build_model(mlp_descriptor(8, [24], 4)), "kaiming_uniform",
                    seed)
    m, _ = train(m, ds, TrainConfig(base_lr=0.1, batch_size=64, epochs=epochs,
                                    seed=seed))
    return m, ds


def test_retrain_probe_zero_steps_when_already_there():
    m, ds = trained()
    assert evaluate(m, ds)[1] >= 0.9
    rep = retrain_probe(m, ds, target_train_acc=0.9, cap_epochs=2)
    assert rep.steps == 0
    assert not rep.capped
    assert rep.curve[0][0] == 0 and rep.curve[0][1] >= 0.9


def test_retrain_probe_lr_zero_hits_the_cap():
    m, ds = trained(epochs=0)
    rep = retrain_probe(m, ds, target_train_acc=0.9, lr=0.0, cap_epochs=2,
                        batch_size=64)
    assert rep.capped
    assert rep.steps == 2 * (384 // 64)
    assert all(acc < 0.9 for _, acc in rep.curve)


def test_retrain_probe_counts_minibatches():
    m, ds = trained(epochs=1)
    rep = retrain_probe(m, ds, target_train_acc=0.9, lr=0.05, cap_epochs=40,
                        batch_size=64)
    assert not rep.capped
    assert rep.steps > 0
    # curve rows are (iteration, accuracy) per mini-batch, last one at target
    assert rep.curve[-1][0] == rep.steps
    assert rep.curve[-1][1] >= 0.9
    again = retrain_probe(m, ds, target_train_acc=0.9, lr=0.05, cap_epochs=40,
                          batch_size=64)
    assert again.steps == rep.steps


def test_retrain_probe_leaves_model_alone():
    m, ds = trained(epochs=1)
    before = m.copy()
    retrain_probe(m, ds, target_train_acc=0.95, lr=0.05, cap_epochs=3,
                  batch_size=64)
    assert models_bit_equal(m, before)
