"""Interpolation, barrier curves, and the re-normalization family, checked
against two-pass statistics oracles and re-measurement after correction."""
import contextlib
import warnings

import numpy as np
import pytest

from rebasin import ops, renorm
from rebasin.data import Dataset, synth_blobs
from rebasin.model import (POST, PRE, LayerSpec, NonFiniteError, build_model, forward,
                           mlp_descriptor)
from rebasin.renorm import (
    RENORM_MODES,
    REPAIR_MODES,
    ChannelStats,
    _SharedPrefix,
    _correction,
    _insert_after_pre_tap,
    _next_name,
    data_independent_correct,
    eval_curve,
    goal_stats,
    interpolate,
    measure_stats,
    mix_stats,
    repair,
    reset_bn,
    tracked_stats,
)
from rebasin.probes import channel_probe
from rebasin.prune import score
from rebasin.train import TrainConfig, evaluate, init_params, train
from helpers import large_mean, models_bit_equal, rand_batch, seed_params, small_cnn_desc

_cache = {}


def blobs(seed=0, n=512, dims=8, classes=4, spread=0.4, **kw):
    return synth_blobs(seed=seed, n=n, dims=dims, classes=classes, spread=spread, **kw)


def trained_pair(track=False):
    key = ("pair", track)
    if key not in _cache:
        ds = blobs(seed=11)
        cfg = TrainConfig(base_lr=0.1, batch_size=64, epochs=4, seed=0,
                          schedule="constant", track_boundary_stats=track)
        model = build_model(mlp_descriptor(8, [32, 32], 4))
        a, _ = train(init_params(model, "kaiming_uniform", 1), ds, cfg)
        b, _ = train(init_params(model, "kaiming_uniform", 2), ds, cfg)
        _cache[key] = (a, b, ds)
    return _cache[key]


def random_mlp(seed, widths=(10, 8), in_dim=8, classes=4):
    return seed_params(build_model(mlp_descriptor(in_dim, list(widths), classes)), seed)


# ---------------------------------------------------------------- interpolate

def test_interpolate_endpoints_bitwise():
    a, b = random_mlp(0), random_mlp(1)
    assert models_bit_equal(interpolate(a, b, 0.0), a)
    assert models_bit_equal(interpolate(a, b, 1.0), b)


def test_interpolate_opposite_models_cancel():
    a = random_mlp(2)
    neg = a.copy()
    for k in neg.params:
        neg.params[k] = -neg.params[k]
    mid = interpolate(a, neg, 0.5)
    assert all(np.all(v == 0) for v in mid.params.values())


def test_interpolate_mixes_running_stats():
    a = seed_params(build_model(small_cnn_desc()), 3)
    b = seed_params(build_model(small_cnn_desc()), 4)
    mid = interpolate(a, b, 0.5)
    want = (a.params["bn0.running_var"].astype(np.float64)
            + b.params["bn0.running_var"]) / 2
    np.testing.assert_allclose(mid.params["bn0.running_var"], want, rtol=1e-6)


def test_interpolate_per_tensor_lambda_selects_coordinates():
    a, b = random_mlp(5), random_mlp(6)
    lam = {k: np.zeros(v.shape, dtype=np.float64) for k, v in a.params.items()}
    lam["dense0.w"][0] = 1.0  # first row from b, everything else from a
    out = interpolate(a, b, lam)
    assert np.array_equal(out.params["dense0.w"][0], b.params["dense0.w"][0])
    assert np.array_equal(out.params["dense0.w"][1:], a.params["dense0.w"][1:])
    assert np.array_equal(out.params["dense1.w"], a.params["dense1.w"])


def test_interpolate_validates():
    a = random_mlp(7)
    with pytest.raises(ValueError):
        interpolate(a, a, 1.5)
    with pytest.raises(ValueError):
        interpolate(a, random_mlp(8, widths=(9, 8)), 0.5)


def test_interpolate_rejects_a_different_head_width():
    # same tensor names and boundaries, but a 1-class head against a 3-class one
    a, b = random_mlp(7, classes=1), random_mlp(8, classes=3)
    with pytest.raises(ValueError, match="shape mismatch at dense2"):
        interpolate(a, b, 0.5)


# ---------------------------------------------------------------- statistics

def test_measured_stats_match_two_pass_oracle():
    ds = blobs(seed=1, n=256)
    for m in (random_mlp(9), large_mean(random_mlp(9))):
        stats = measure_stats(m, ds, batch_size=64)
        for bid, _ in m.boundary_map:
            acts = []
            for xb, _ in ds.batches(64, shuffle=False, drop_last=True):
                _, taps = forward(m, xb, taps=[(bid, PRE)])
                acts.append(taps[0].value.astype(np.float64))
            full = np.concatenate(acts)
            np.testing.assert_allclose(stats.means[bid], full.mean(0), atol=1e-10)
            np.testing.assert_allclose(stats.stds[bid], full.std(0), atol=1e-10)
        assert stats.batch_count == 4 and stats.phase == PRE


def test_measured_conv_stats_are_per_channel():
    m = seed_params(build_model(small_cnn_desc()), 10)
    ds = blobs(seed=2, n=128, dims=2 * 64, image_shape=(2, 8, 8))
    stats = measure_stats(m, ds, batch_size=32)
    assert stats.means["b0"].shape == (5,)
    assert np.all(stats.stds["b0"] >= 0)


def test_goal_stats_endpoint_and_identical():
    a, b = random_mlp(11), random_mlp(12)
    ds = blobs(seed=3, n=256)
    sa = measure_stats(a, ds, batch_size=64)
    g0 = goal_stats(a, b, 0.0, ds, batch_size=64)
    for bid in sa.means:
        np.testing.assert_array_equal(g0.means[bid], sa.means[bid])
        np.testing.assert_array_equal(g0.stds[bid], sa.stds[bid])
    g_same = goal_stats(a, a, 0.7, ds, batch_size=64)
    for bid in sa.means:
        np.testing.assert_allclose(g_same.stds[bid], sa.stds[bid], rtol=1e-12)


def test_goal_stats_midpoint_is_elementwise_mean():
    a, b = random_mlp(13), random_mlp(14)
    ds = blobs(seed=4, n=256)
    sa = measure_stats(a, ds, batch_size=64)
    sb = measure_stats(b, ds, batch_size=64)
    g = goal_stats(a, b, 0.5, ds, batch_size=64)
    for bid in sa.means:
        np.testing.assert_allclose(
            g.means[bid], (sa.means[bid] + sb.means[bid]) / 2, atol=1e-12)
        np.testing.assert_allclose(
            g.stds[bid], (sa.stds[bid] + sb.stds[bid]) / 2, atol=1e-12)


def test_channel_stats_json_roundtrip():
    a = random_mlp(15)
    stats = measure_stats(a, blobs(seed=5, n=128), batch_size=64)
    back = ChannelStats.from_jsonable(stats.to_jsonable())
    for bid in stats.means:
        np.testing.assert_array_equal(back.means[bid], stats.means[bid])
    assert back.batch_count == stats.batch_count and back.phase == stats.phase


def test_mix_stats_requires_matching_boundaries():
    a = random_mlp(16)
    ds = blobs(seed=6, n=128)
    sa = measure_stats(a, ds, batch_size=64)
    other = ChannelStats(means={"b9": np.zeros(3)}, stds={"b9": np.ones(3)},
                         batch_count=1, phase=PRE)
    with pytest.raises(ValueError):
        mix_stats(sa, other, 0.5)


# ---------------------------------------------------------------- eval_curve

def test_default_grid_is_eleven_points():
    a, _, ds = trained_pair()
    rep = eval_curve(a, a, ds, grid=None)
    np.testing.assert_allclose(rep.lams, np.linspace(0, 1, 11), atol=1e-15)


def test_quick_grid():
    a, _, ds = trained_pair()
    rep = eval_curve(a, a, ds, quick=True)
    assert list(rep.lams) == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("mode", ["none", "reset", "repair", "rescale",
                                  "rescale_avg", "reshift"])
def test_self_barrier_is_zero(mode):
    a, _, ds = trained_pair()
    ctx = (pytest.warns(UserWarning, match="no batchnorm") if mode == "reset"
           else contextlib.nullcontext())
    with ctx:
        rep = eval_curve(a, a, ds, quick=True, mode=mode)
    assert rep.barriers["train_loss"] == 0.0
    assert rep.barriers["train_acc"] == 0.0


def test_convex_model_has_no_loss_barrier():
    ds = blobs(seed=7, spread=0.5)
    desc = {"input_shape": [8], "layers": [{"kind": "dense", "out": 4}]}
    cfg = TrainConfig(base_lr=0.2, batch_size=64, epochs=4, schedule="constant")
    a, _ = train(init_params(build_model(desc), "kaiming_uniform", 1), ds, cfg)
    b, _ = train(init_params(build_model(desc), "kaiming_uniform", 2), ds, cfg)
    rep = eval_curve(a, b, ds)
    assert rep.barriers["train_loss"] <= 1e-6


def test_barrier_symmetric_under_reversal():
    a, b, ds = trained_pair()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    fwd = eval_curve(a, b, ds, grid=grid)
    rev = eval_curve(b, a, ds, grid=grid)
    np.testing.assert_allclose(fwd.train_loss, rev.train_loss[::-1], atol=1e-9)
    assert abs(fwd.barriers["train_loss"] - rev.barriers["train_loss"]) <= 1e-9


def test_midpoint_barrier_positive_for_independent_models():
    a, b, ds = trained_pair()
    rep = eval_curve(a, b, ds, quick=True)
    assert rep.barriers["train_loss"] > 0.01


def test_eval_curve_validates():
    a, _, ds = trained_pair()
    with pytest.raises(ValueError, match="mode"):
        eval_curve(a, a, ds, quick=True, mode="magic")
    with pytest.raises(ValueError, match="endpoint"):
        eval_curve(a, a, ds, grid=[0.2, 0.5])
    with pytest.raises(ValueError):
        eval_curve(a, a, ds, grid=[0.0, 0.5, 1.5])


def test_curve_report_csv_and_summary(tmp_path):
    a, b, ds = trained_pair()
    rep = eval_curve(a, b, ds, quick=True, test_ds=blobs(seed=12, n=128))
    path = tmp_path / "curve.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,train_loss,train_acc,test_loss,test_acc"
    assert len(lines) == 4
    s = rep.summary()
    assert s["mode"] == "none" and "train_loss" in s["barriers"]


# ---------------------------------------------------------------- reset_bn

def _bn_cnn_and_data():
    if "bn_cnn" not in _cache:
        ds = blobs(seed=8, n=192, dims=3 * 36, image_shape=(3, 6, 6))
        desc = {"input_shape": [3, 6, 6], "layers": [
            {"kind": "conv2d", "out": 4, "k": 3, "pad": 1},
            {"kind": "batchnorm"},
            {"kind": "relu"},
            {"kind": "flatten"},
            {"kind": "dense", "out": 4},
        ]}
        _cache["bn_cnn"] = (seed_params(build_model(desc), 20), ds)
    return _cache["bn_cnn"]


def test_reset_bn_matches_batch_average_oracle():
    m, ds = _bn_cnn_and_data()
    out = reset_bn(m, ds, batch_size=32)
    w = m.params["conv0.w"].astype(np.float64)
    b = m.params["conv0.b"].astype(np.float64)
    mus, vs = [], []
    for xb, _ in ds.batches(32, shuffle=False, drop_last=True):
        y, _ = ops.conv2d_fwd(xb.astype(np.float64), w, b, 1, 1)
        mus.append(y.mean(axis=(0, 2, 3)))
        vs.append(y.var(axis=(0, 2, 3), ddof=1))
    np.testing.assert_allclose(out.params["bn0.running_mean"], np.mean(mus, 0),
                               atol=1e-6)
    np.testing.assert_allclose(out.params["bn0.running_var"], np.mean(vs, 0),
                               rtol=1e-5)


def test_reset_bn_deterministic():
    m, ds = _bn_cnn_and_data()
    r1 = reset_bn(m, ds, batch_size=32)
    r2 = reset_bn(m, ds, batch_size=32)
    assert models_bit_equal(r1, r2)


def test_reset_bn_one_batch_uses_first_batch_only():
    m, ds = _bn_cnn_and_data()
    out = reset_bn(m, ds, batch_size=64, max_batches=1)
    xb, _ = next(ds.batches(64, shuffle=False, drop_last=True))
    y, _ = ops.conv2d_fwd(xb.astype(np.float64),
                          m.params["conv0.w"].astype(np.float64),
                          m.params["conv0.b"].astype(np.float64), 1, 1)
    np.testing.assert_allclose(out.params["bn0.running_mean"],
                               y.mean(axis=(0, 2, 3)), atol=1e-6)


def test_reset_bn_without_batchnorm_warns_noop():
    m = random_mlp(21)
    with pytest.warns(UserWarning, match="no batchnorm"):
        out = reset_bn(m, blobs(seed=9, n=128), batch_size=64)
    assert models_bit_equal(out, m)


def test_reset_bn_leaves_weights_untouched():
    m, ds = _bn_cnn_and_data()
    out = reset_bn(m, ds, batch_size=32)
    assert np.array_equal(out.params["conv0.w"], m.params["conv0.w"])
    assert np.array_equal(out.params["bn0.gamma"], m.params["bn0.gamma"])


# ---------------------------------------------------------------- repair family

def test_repair_with_own_stats_is_identity():
    a, _, ds = trained_pair()
    goals = measure_stats(a, ds, batch_size=64)
    fixed = repair(a, goals, ds, mode="repair", sequential=False)
    x = ds.inputs[:100]
    assert np.max(np.abs(forward(fixed, x) - forward(a, x))) <= 1e-4


def test_sequential_repair_hits_goals_on_remeasure():
    a, b, ds = trained_pair()
    goals = goal_stats(a, b, 0.5, ds, batch_size=64)
    mid = interpolate(a, b, 0.5)
    fixed = repair(mid, goals, ds, mode="repair", sequential=True)
    seen = measure_stats(fixed, ds, batch_size=64)
    for bid in goals.means:
        tol_m = 1e-3 * np.maximum(np.abs(goals.means[bid]), goals.stds[bid]) + 1e-9
        assert np.all(np.abs(seen.means[bid] - goals.means[bid]) <= tol_m), bid
        tol_s = 1e-3 * goals.stds[bid] + 1e-9
        assert np.all(np.abs(seen.stds[bid] - goals.stds[bid]) <= tol_s), bid


def test_single_pass_repair_fixes_first_boundary():
    a, b, ds = trained_pair()
    goals = goal_stats(a, b, 0.5, ds, batch_size=64)
    mid = interpolate(a, b, 0.5)
    fixed = repair(mid, goals, ds, mode="repair", sequential=False)
    seen = measure_stats(fixed, ds, batch_size=64)
    np.testing.assert_allclose(seen.stds["b0"], goals.stds["b0"], rtol=1e-3)
    np.testing.assert_allclose(seen.means["b0"], goals.means["b0"],
                               atol=1e-3 * float(np.max(goals.stds["b0"])) + 1e-6)


def test_reshift_preserves_std():
    a, b, ds = trained_pair()
    goals = goal_stats(a, b, 0.5, ds, batch_size=64)
    mid = interpolate(a, b, 0.5)
    before = measure_stats(mid, ds, batch_size=64)
    fixed = repair(mid, goals, ds, mode="reshift", sequential=False)
    after = measure_stats(fixed, ds, batch_size=64)
    np.testing.assert_allclose(after.stds["b0"], before.stds["b0"], atol=1e-6)
    np.testing.assert_allclose(after.means["b0"], goals.means["b0"], atol=1e-5)


def test_rescale_matches_goal_std_not_mean():
    a, b, ds = trained_pair()
    goals = goal_stats(a, b, 0.5, ds, batch_size=64)
    mid = interpolate(a, b, 0.5)
    fixed = repair(mid, goals, ds, mode="rescale", sequential=True)
    seen = measure_stats(fixed, ds, batch_size=64)
    for bid in goals.means:
        np.testing.assert_allclose(seen.stds[bid], goals.stds[bid],
                                   rtol=1e-3, atol=1e-9)
    # means are only scaled, so generically they miss the goal
    assert np.max(np.abs(seen.means["b0"] - goals.means["b0"])) > 1e-4


def test_rescale_avg_sets_uniform_scalar_std():
    a, b, ds = trained_pair()
    goals = goal_stats(a, b, 0.5, ds, batch_size=64)
    mid = interpolate(a, b, 0.5)
    fixed = repair(mid, goals, ds, mode="rescale_avg", sequential=True)
    seen = measure_stats(fixed, ds, batch_size=64)
    for bid in goals.means:
        want = float(np.mean(goals.stds[bid]))
        np.testing.assert_allclose(seen.stds[bid], want, rtol=1e-3)


def test_repair_dead_channel_substitutes_eps():
    a = random_mlp(22)
    a.params["dense0.w"][3] = 0.0
    a.params["dense0.b"][3] = -5.0  # constant pre-activation, zero variance
    ds = blobs(seed=10, n=128)
    goals = measure_stats(a, ds, batch_size=64)
    goals.stds["b0"][3] = 1.0  # ask the dead channel to have spread
    with pytest.warns(UserWarning, match="dead"):
        fixed = repair(a, goals, ds, mode="repair", sequential=False, batch_size=64)
    out = forward(fixed, ds.inputs[:32])
    assert np.all(np.isfinite(out))


def test_repair_validates():
    a, _, ds = trained_pair()
    goals = measure_stats(a, ds, batch_size=64)
    with pytest.raises(ValueError, match="mode"):
        repair(a, goals, ds, mode="undo", sequential=False)
    partial = ChannelStats(means={"b0": goals.means["b0"]},
                           stds={"b0": goals.stds["b0"]},
                           batch_count=1, phase=PRE)
    with pytest.raises(ValueError, match="b1"):
        repair(a, partial, ds, mode="repair", sequential=False)


def test_eval_curve_with_repair_lowers_midpoint_loss():
    a, b, ds = trained_pair()
    plain = eval_curve(a, b, ds, quick=True)
    fixed = eval_curve(a, b, ds, quick=True, mode="repair", sequential=True)
    assert fixed.train_loss[1] < plain.train_loss[1]


# ---------------------------------------------------------------- sequential repair in one pass

def _per_boundary_repair(model, goals, ds, mode, batch_size):
    """Sequential repair as one measure_stats pass per boundary, each from the
    input to the logits: the reference the one-pass walk must equal bitwise."""
    out = model.copy()
    for bid, units in out.boundary_map:
        cur = measure_stats(out, ds, batch_size=batch_size, boundaries=[bid])
        s, t = _correction(mode, cur.means[bid], cur.stds[bid],
                           goals.means[bid], goals.stds[bid])
        name = _next_name(out, "affine")
        _insert_after_pre_tap(out, bid, LayerSpec("channel_affine", name, channels=units),
                              {f"{name}.scale": s.astype(np.float32),
                               f"{name}.shift": t.astype(np.float32)})
    return out


def _sequential_case(name):
    """(model, goals, dataset, batch size) for one of the oracle's nets."""
    if name == "mlp":
        a, b, ds = trained_pair()
        return interpolate(a, b, 0.5), goal_stats(a, b, 0.5, ds, batch_size=64), ds, 64
    if name == "bn_cnn":
        ds = blobs(seed=12, n=96, dims=2 * 64, image_shape=(2, 8, 8))
        m = seed_params(build_model(small_cnn_desc()), 30)
        goals = measure_stats(seed_params(build_model(small_cnn_desc()), 31), ds,
                              batch_size=32)
        return m, goals, ds, 32
    if name == "batch_stats_in_eval":
        a, b, ds = trained_pair(track=True)
        mid = interpolate(a, b, 0.5)
        di = data_independent_correct(mid, mix_stats(tracked_stats(a),
                                                     tracked_stats(b), 0.5))
        return di, goal_stats(a, b, 0.5, ds, batch_size=64), ds, 64
    # every unit of b0 is dead: a constant pre-activation of zero spread
    ds = blobs(seed=13, n=192)
    m = random_mlp(23)
    m.params["dense0.w"][:] = 0.0
    m.params["dense0.b"][:] = np.linspace(-0.5, 0.5, 10, dtype=np.float32)
    return m, measure_stats(random_mlp(24), ds, batch_size=64), ds, 64


@pytest.mark.parametrize("mode", REPAIR_MODES)
@pytest.mark.parametrize("case", ["mlp", "bn_cnn", "batch_stats_in_eval", "dead_b0"])
def test_sequential_repair_equals_per_boundary_reference_bitwise(case, mode):
    m, goals, ds, bs = _sequential_case(case)
    got, want = [], []
    for fn, seen in ((repair, got), (_per_boundary_repair, want)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if fn is repair:
                fixed = repair(m, goals, ds, mode=mode, sequential=True, batch_size=bs)
            else:
                fixed = _per_boundary_repair(m, goals, ds, mode, bs)
        seen += [fixed, [str(w.message) for w in caught]]
    assert got[0].layers == want[0].layers
    assert models_bit_equal(got[0], want[0])
    assert got[1] == want[1]        # the same dead-channel warnings, in order
    if case == "dead_b0" and mode != "reshift":
        assert "10 dead channels" in got[1][0]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_sequential_repair_raises_where_the_head_overflows():
    a, b, ds = trained_pair()
    goals = measure_stats(a, ds, batch_size=64)
    blown = a.copy()
    blown.params["dense2.w"][:] = np.float32(3e38)
    with pytest.raises(NonFiniteError) as err:
        repair(blown, goals, ds, mode="repair", sequential=True, batch_size=64)
    assert err.value.layer_name == "dense2"


@pytest.mark.parametrize("sequential", [False, True])
def test_repair_on_less_than_one_batch_raises(sequential):
    a, _, ds = trained_pair()
    goals = measure_stats(a, ds, batch_size=64)
    with pytest.raises(ValueError, match="dataset smaller than one batch"):
        repair(a, goals, blobs(seed=14, n=32), sequential=sequential, batch_size=64)


def _repair_from_own_goals(m, ds, sequential):
    goals = measure_stats(m, blobs(seed=14), batch_size=64)
    return repair(m, goals, ds, sequential=sequential, batch_size=64)


# passes that keep a short last batch read none only from 0 rows
_EMPTY_PASSES = {
    "evaluate": (0, lambda m, ds: evaluate(m, ds, batch_size=64)),
    "diag_fisher": (0, lambda m, ds: score(m, method="diag_fisher", dataset=ds,
                                           batch_size=64)),
    "measure_stats": (32, lambda m, ds: measure_stats(m, ds, batch_size=64)),
    "reset_bn": (32, lambda m, ds: reset_bn(m, ds, batch_size=64)),
    "repair": (32, lambda m, ds: _repair_from_own_goals(m, ds, False)),
    "sequential_repair": (32, lambda m, ds: _repair_from_own_goals(m, ds, True)),
    "channel_probe": (32, lambda m, ds: channel_probe(m, ds, batch_size=64)),
}


@pytest.mark.parametrize("name", list(_EMPTY_PASSES))
def test_every_unshuffled_pass_that_reads_no_batch_raises(name):
    rows, run = _EMPTY_PASSES[name]
    m = seed_params(build_model(mlp_descriptor(8, [10, 8], 4, norm="batchnorm")), 0)
    full = blobs(seed=14, n=32)
    ds = Dataset(full.inputs[:rows], full.labels[:rows], full.num_classes)
    with pytest.raises(ValueError, match="dataset smaller than one batch"):
        run(m, ds)


# ---------------------------------------------------------------- shared first-layer outputs

def _prefix_pair(norm):
    """A trained MLP pair (norm after each hidden dense layer, or none) with
    train and test data; the test split ends in a partial batch of 128."""
    key = ("prefix", norm)
    if key not in _cache:
        ds = blobs(seed=11)
        cfg = TrainConfig(base_lr=0.1, batch_size=64, epochs=3, seed=0)
        model = build_model(mlp_descriptor(8, [32, 32], 4, norm=norm))
        a, b = (train(init_params(model, "kaiming_uniform", s), ds, cfg)[0] for s in (1, 2))
        _cache[key] = (a, b, ds, blobs(seed=11, n=200))
    return _cache[key]


def _point_reference(a, b, lam, ds, test_ds, mode, sequential, batch_size,
                     stats_batch_size):
    """One grid point computed from its own model: interpolated, reset or
    repaired, and evaluated from the input."""
    m = interpolate(a, b, lam)
    if mode == "reset":
        m = reset_bn(m, ds, batch_size=stats_batch_size)
    elif mode in REPAIR_MODES:
        goals = mix_stats(measure_stats(a, ds, batch_size=stats_batch_size),
                          measure_stats(b, ds, batch_size=stats_batch_size), lam)
        m = repair(m, goals, ds, mode=mode, sequential=sequential,
                   batch_size=stats_batch_size)
    return evaluate(m, ds, batch_size=batch_size) + evaluate(m, test_ds, batch_size=batch_size)


def _rows(rep):
    return list(zip(rep.train_loss, rep.train_acc, rep.test_loss, rep.test_acc))


_CURVE_MODES = [(m, False) for m in RENORM_MODES] + [(m, True) for m in REPAIR_MODES]


@pytest.mark.filterwarnings("ignore:no batchnorm")
@pytest.mark.parametrize("mode, sequential", _CURVE_MODES)
@pytest.mark.parametrize("norm", [None, "batchnorm"])
def test_shared_prefix_curve_matches_the_per_point_models(norm, mode, sequential):
    # without a norm b0's pre-activation tap is the first dense layer itself
    a, b, ds, te = _prefix_pair(norm)
    grid = [0.0, 0.3, 0.5, 1.0]
    rep = eval_curve(a, b, ds, test_ds=te, grid=grid, mode=mode, sequential=sequential,
                     batch_size=128, stats_batch_size=64)
    for lam, got in zip(grid, _rows(rep)):
        want = _point_reference(a, b, lam, ds, te, mode, sequential, 128, 64)
        if lam in (0.0, 1.0):
            assert got == want
        else:      # float32 rounding of the mixed first-layer output
            assert got[0] == pytest.approx(want[0], rel=1e-6, abs=0)
            assert got[2] == pytest.approx(want[2], rel=1e-6, abs=0)


def test_curve_runs_the_first_dense_layer_once_per_batch_and_endpoint(monkeypatch):
    a, b, ds, te = _prefix_pair(None)
    shapes = []
    dense_fwd = ops.dense_fwd

    def counted(x, w, bias):
        shapes.append(w.shape)
        return dense_fwd(x, w, bias)
    monkeypatch.setattr(ops, "dense_fwd", counted)
    eval_curve(a, b, ds, test_ds=te, mode="repair", sequential=True, batch_size=128,
               stats_batch_size=64)
    # 4 train and 2 test batches of 128, 8 statistics batches of 64
    assert shapes.count(a.params["dense0.w"].shape) == 2 * (4 + 2 + 8)
    assert shapes.count(a.params["dense1.w"].shape) > 11 * (4 + 2)


def test_shared_prefix_computes_each_batch_a_pass_reads_once(monkeypatch):
    a, b, ds, te = _prefix_pair(None)
    fed = []
    make = _SharedPrefix._endpoint_outputs

    def counted(self, x):
        fed.append(x.copy())
        return make(self, x)
    monkeypatch.setattr(_SharedPrefix, "_endpoint_outputs", counted)
    eval_curve(a, b, ds, test_ds=te, grid=[0.0, 0.3, 0.5, 1.0], mode="repair",
               batch_size=128, stats_batch_size=64)
    # the statistics pass runs first (the endpoints' goals), then train, then test
    want = [xb for xb, _ in ds.batches(64, shuffle=False, drop_last=True)]
    want += [xb for d in (ds, te) for xb, _ in d.batches(128, shuffle=False,
                                                         drop_last=False)]
    assert len(fed) == len(want) == 8 + 4 + 2
    assert all(np.array_equal(got, x) for got, x in zip(fed, want))


@pytest.mark.parametrize("mode, sequential", [("reset", False), ("repair", False),
                                              ("repair", True)])
def test_convnet_curve_is_bitwise_the_per_point_models(mode, sequential):
    image = {"dims": 2 * 64, "image_shape": (2, 8, 8), "classes": 3}
    ds, te = blobs(seed=12, n=96, **image), blobs(seed=12, n=40, **image)
    a, b = (seed_params(build_model(small_cnn_desc()), s) for s in (30, 31))
    grid = [0.0, 0.5, 1.0]
    rep = eval_curve(a, b, ds, test_ds=te, grid=grid, mode=mode, sequential=sequential,
                     batch_size=32, stats_batch_size=32)
    assert _rows(rep) == [_point_reference(a, b, lam, ds, te, mode, sequential, 32, 32)
                          for lam in grid]


def test_nan_first_weight_raises_at_the_first_interior_point(monkeypatch):
    a, b, ds, te = _prefix_pair(None)
    b = b.copy()
    b.params["dense0.w"][0, 0] = np.nan
    seen = []
    interp = renorm.interpolate
    monkeypatch.setattr(renorm, "interpolate",
                        lambda m1, m2, lam: seen.append(lam) or interp(m1, m2, lam))
    with pytest.raises(NonFiniteError) as err:
        eval_curve(a, b, ds, test_ds=te, batch_size=128)
    assert err.value.layer_name == "dense0"
    assert seen == [0.0, 0.1]


def test_linspace_grid_reports_as_its_python_floats(tmp_path):
    a, b, ds, te = _prefix_pair(None)
    grid = np.linspace(0.0, 1.0, 11)
    reps = [eval_curve(a, b, ds, test_ds=te, grid=g, mode="repair", sequential=True,
                       batch_size=128, stats_batch_size=64)
            for g in (grid, [float(l) for l in grid])]
    for i, rep in enumerate(reps):
        rep.write_csv(tmp_path / f"{i}.csv")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert reps[0].summary() == reps[1].summary()
    # a NumPy lam mixes in float64 and still feeds float32 activations
    prefix = _SharedPrefix(a, b)
    xb, _ = next(ds.batches(128, shuffle=False, drop_last=False))
    assert prefix.feed("train", np.float64(0.3))[1](0, xb).dtype == np.float32


# ---------------------------------------------------------------- data-independent

def test_tracked_stats_created_and_finite():
    a, _, _ = trained_pair(track=True)
    assert "stats.b0.mean" in a.params
    stats = tracked_stats(a)
    assert set(stats.means) == {"b0", "b1"}
    assert np.all(np.isfinite(stats.stds["b0"])) and np.all(stats.stds["b0"] >= 0)


def test_data_independent_identity_keeps_accuracy():
    a, _, _ = trained_pair(track=True)
    ds = blobs(seed=11)
    _, base_acc = evaluate(a, ds, batch_size=256)
    fixed = data_independent_correct(a, tracked_stats(a))
    _, acc = evaluate(fixed, ds, batch_size=256)
    assert abs(acc - base_acc) <= 0.005


def test_data_independent_rejects_batch_of_one():
    a, _, _ = trained_pair(track=True)
    fixed = data_independent_correct(a, tracked_stats(a))
    with pytest.raises(ValueError, match="more than one"):
        forward(fixed, blobs(seed=11).inputs[:1])


def test_data_independent_missing_boundary_errors():
    a, _, _ = trained_pair(track=True)
    stats = tracked_stats(a)
    del stats.means["b1"], stats.stds["b1"]
    with pytest.raises(ValueError, match="b1"):
        data_independent_correct(a, stats)


def test_data_independent_close_to_standard_repair():
    a, b, ds = trained_pair(track=True)
    mid = interpolate(a, b, 0.5)
    goals_meas = goal_stats(a, b, 0.5, ds, batch_size=64)
    std_fixed = repair(mid, goals_meas, ds, mode="repair", sequential=False)
    di_fixed = data_independent_correct(mid, mix_stats(tracked_stats(a),
                                                       tracked_stats(b), 0.5))
    _, acc_std = evaluate(std_fixed, ds, batch_size=256)
    _, acc_di = evaluate(di_fixed, ds, batch_size=256)
    assert abs(acc_std - acc_di) <= 0.05
