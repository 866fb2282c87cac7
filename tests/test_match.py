"""Permutation algebra and the two matchers, checked against planted
permutations, brute-force enumeration, and a two-pass correlation oracle."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin.data import synth_blobs
from rebasin.lap import solve_lap
from rebasin.match import (
    _score_matrix,
    PermSpec,
    activation_match,
    apply_perm,
    compose,
    identity_perm,
    invert,
    multi_match,
    random_perm,
    streaming_activation_stats,
    weight_match,
)
from rebasin.model import build_model, forward, mlp_descriptor, wiring
from rebasin.probes import l2_distance
from rebasin.renorm import REPAIR_MODES, goal_stats, interpolate, measure_stats, repair
from helpers import large_mean, models_bit_equal, rand_batch, seed_params, small_cnn_desc


def mlp(seed, widths=(6, 5), in_dim=7, classes=3, norm=None):
    return seed_params(build_model(mlp_descriptor(in_dim, list(widths), classes, norm=norm)), seed)


# ---------------------------------------------------------------- algebra

def test_identity_perm_is_noop():
    m = mlp(0)
    assert models_bit_equal(apply_perm(m, identity_perm(m)), m)


def test_apply_then_invert_restores_bitwise():
    m = mlp(1)
    p = random_perm(m, seed=3)
    back = apply_perm(apply_perm(m, p), invert(p))
    assert models_bit_equal(back, m)


def test_invert_cycle_example():
    m = mlp(2, widths=(3,))
    p = PermSpec(perms={"b0": np.array([2, 0, 1])})
    np.testing.assert_array_equal(invert(p).perms["b0"], [1, 2, 0])


def test_invert_identity_is_identity():
    m = mlp(3)
    ident = identity_perm(m)
    assert all(np.array_equal(v, invert(ident).perms[k]) for k, v in ident.perms.items())


def test_compose_with_inverse_is_identity():
    m = mlp(4)
    p = random_perm(m, seed=5)
    c = compose(p, invert(p))
    assert all(np.array_equal(v, np.arange(len(v))) for v in c.perms.values())


def test_compose_matches_sequential_application():
    m = mlp(5)
    p = random_perm(m, seed=6)
    q = random_perm(m, seed=7)
    lhs = apply_perm(apply_perm(m, q), p)
    rhs = apply_perm(m, compose(p, q))
    assert models_bit_equal(lhs, rhs)


@settings(max_examples=20, deadline=None)
@given(s1=st.integers(0, 99), s2=st.integers(0, 99), s3=st.integers(0, 99))
def test_compose_associative(s1, s2, s3):
    m = mlp(6)
    p, q, r = (random_perm(m, seed=s) for s in (s1, s2, s3))
    a = compose(compose(p, q), r)
    b = compose(p, compose(q, r))
    assert all(np.array_equal(a.perms[k], b.perms[k]) for k in a.perms)


def test_apply_perm_rejects_boundary_mismatch():
    m = mlp(7)
    with pytest.raises(ValueError):
        apply_perm(m, PermSpec(perms={"b0": np.arange(6)}))  # missing b1


# ---------------------------------------------------------------- function preservation

def test_apply_perm_preserves_function_mlp():
    m = mlp(8)
    x = rand_batch((7,), 100, seed=9)
    base = forward(m, x)
    for s in range(5):
        out = forward(apply_perm(m, random_perm(m, seed=s)), x)
        assert np.max(np.abs(out - base)) <= 1e-5


def test_apply_perm_preserves_function_cnn_with_bn():
    m = seed_params(build_model(small_cnn_desc()), seed=10)
    x = rand_batch((2, 8, 8), 50, seed=11)
    base = forward(m, x)
    for s in range(5):
        out = forward(apply_perm(m, random_perm(m, seed=s)), x)
        assert np.max(np.abs(out - base)) <= 1e-5


def test_apply_perm_preserves_function_across_flatten():
    # conv boundary consumed by a dense layer: spatial fan-out must follow channels
    desc = {"input_shape": [2, 6, 6], "layers": [
        {"kind": "conv2d", "out": 4, "k": 3, "pad": 1},
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": 3},
    ]}
    m = seed_params(build_model(desc), seed=12)
    x = rand_batch((2, 6, 6), 40, seed=13)
    base = forward(m, x)
    out = forward(apply_perm(m, random_perm(m, seed=1)), x)
    assert np.max(np.abs(out - base)) <= 1e-5


# ---------------------------------------------------------------- weight matching

def test_weight_match_recovers_planted_inverse_mlp():
    a = mlp(14)
    pi = random_perm(a, seed=15)
    b = apply_perm(a, pi)
    perm, report = weight_match(a, b)
    want = invert(pi)
    assert all(np.array_equal(perm.perms[k], want.perms[k]) for k in perm.perms)
    assert report.residual_l2 <= 1e-5
    assert report.converged


def test_weight_match_recovers_planted_inverse_cnn():
    a = seed_params(build_model(small_cnn_desc()), seed=16)
    pi = random_perm(a, seed=17)
    b = apply_perm(a, pi)
    perm, report = weight_match(a, b)
    want = invert(pi)
    assert all(np.array_equal(perm.perms[k], want.perms[k]) for k in perm.perms)
    assert report.residual_l2 <= 1e-5


def test_weight_match_self_gives_identity():
    a = mlp(18)
    perm, report = weight_match(a, a)
    assert all(np.array_equal(v, np.arange(len(v))) for v in perm.perms.values())
    assert report.residual_l2 <= 1e-7


def test_weight_match_single_boundary_equals_brute_force():
    a = mlp(19, widths=(4,), in_dim=3, classes=2)
    b = mlp(20, widths=(4,), in_dim=3, classes=2)
    perm, report = weight_match(a, b)
    dists = {}
    for cand in itertools.permutations(range(4)):
        p = PermSpec(perms={"b0": np.array(cand)})
        dists[cand] = l2_distance(a, apply_perm(b, p))
    best = min(dists.values())
    assert abs(report.residual_l2 - best) <= 1e-9
    np.testing.assert_array_equal(perm.perms["b0"], min(k for k, v in dists.items() if v <= best + 1e-12))


def test_weight_match_objective_non_increasing():
    a = mlp(21, widths=(8, 8, 8))
    b = mlp(22, widths=(8, 8, 8))
    _, report = weight_match(a, b)
    assert all(x >= y - 1e-9 for x, y in zip(report.objective, report.objective[1:]))
    assert report.residual_l2 <= l2_distance(a, b) + 1e-12


def cold_weight_match(a, b, seed, max_sweeps):
    """weight_match without skips or warm starts: every boundary is solved
    from scratch on every sweep."""
    wir = wiring(a)
    pa = {k: v.astype(np.float64) for k, v in a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in b.params.items()}
    bids = [bid for bid, _ in a.boundary_map]
    perms = {bid: np.arange(n) for bid, n in a.boundary_map}
    rng = np.random.default_rng(seed)

    def residual():
        return l2_distance(a, apply_perm(b, PermSpec(perms=dict(perms))))

    objective = [residual()]
    for _ in range(max_sweeps):
        changed = False
        for bid in rng.permutation(bids):
            res = solve_lap(_score_matrix(a.layers, pa, pb, wir, bid, perms),
                            sense="maximize")
            if not np.array_equal(res.perm, perms[bid]):
                perms[bid] = res.perm
                changed = True
        objective.append(residual())
        if not changed:
            break
    return perms, objective


def _deep_mlp(seed):
    return mlp(seed, widths=(32, 32, 32), in_dim=20, classes=5)


def _bn_cnn(seed):
    """Conv consumers with k*k > 1, a flatten-then-dense consumer, BatchNorm."""
    return seed_params(build_model(small_cnn_desc()), seed)


@pytest.mark.parametrize("make, seeds, max_sweeps", [
    (_deep_mlp, (25, 26), 100), (_deep_mlp, (25, 26), 3),
    (_bn_cnn, (27, 28), 100), (_bn_cnn, (27, 28), 3),
], ids=["100", "3", "bn_cnn-100", "bn_cnn-3"])
def test_skips_and_warm_starts_match_cold_reference(make, seeds, max_sweeps):
    """Skipped solves, warm starts and the per-term score memo give bitwise
    the perms and exactly the objectives of solving every visit cold from
    _score_matrix."""
    a, b = make(seeds[0]), make(seeds[1])
    perm, report = weight_match(a, b, seed=4, max_sweeps=max_sweeps)
    want, objective = cold_weight_match(a, b, seed=4, max_sweeps=max_sweeps)
    assert report.converged == (max_sweeps == 100)
    assert report.skipped > 0
    assert report.solves + report.skipped == len(a.boundary_map) * report.sweeps
    for bid, v in want.items():
        assert perm.perms[bid].tobytes() == v.tobytes()
    assert report.objective == objective


@pytest.mark.parametrize("max_sweeps", [0, -1, 2.0, True])
def test_weight_match_rejects_a_sweep_cap_that_is_no_count(max_sweeps):
    a, b = mlp(25), mlp(26)
    with pytest.raises(ValueError, match="max_sweeps"):
        weight_match(a, b, max_sweeps=max_sweeps)


# ---------------------------------------------------------------- activation matching

def _dataset_for(in_dim, seed=0, n=256):
    return synth_blobs(seed=seed, n=n, dims=in_dim, classes=3, spread=1.0)


def test_activation_match_recovers_planted_inverse():
    a = mlp(23)
    pi = random_perm(a, seed=24)
    b = apply_perm(a, pi)
    perm, _ = activation_match(a, b, _dataset_for(7), batch_size=64)
    want = invert(pi)
    assert all(np.array_equal(perm.perms[k], want.perms[k]) for k in perm.perms)


def test_activation_match_self_identity():
    a = mlp(25)
    perm, _ = activation_match(a, a, _dataset_for(7, seed=1), batch_size=64)
    assert all(np.array_equal(v, np.arange(len(v))) for v in perm.perms.values())


def test_streaming_correlation_matches_two_pass_oracle():
    ds = _dataset_for(7, seed=2, n=192)
    for a, b in ((mlp(26), mlp(27)), (large_mean(mlp(26)), large_mean(mlp(27)))):
        stats = streaming_activation_stats(a, b, ds, batch_size=64)
        for bid, _ in a.boundary_map:
            acts_a, acts_b = [], []
            for xb, _ in ds.batches(64, shuffle=False, drop_last=True):
                _, ta = forward(a, xb, taps=[(bid, "post_activation")])
                _, tb = forward(b, xb, taps=[(bid, "post_activation")])
                acts_a.append(ta[0].value.astype(np.float64))
                acts_b.append(tb[0].value.astype(np.float64))
            xa = np.concatenate(acts_a)
            xb_ = np.concatenate(acts_b)
            ca = xa.shape[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                full = np.corrcoef(xa.T, xb_.T)[:ca, ca:]
            # units that never move (relu held at 0) have their rows/columns zeroed
            full[xa.std(axis=0) == 0, :] = 0.0
            full[:, xb_.std(axis=0) == 0] = 0.0
            np.testing.assert_allclose(stats[bid]["corr"], full, atol=1e-10)
            np.testing.assert_allclose(stats[bid]["mean_a"], xa.mean(axis=0), atol=1e-10)
            np.testing.assert_allclose(stats[bid]["std_a"], xa.std(axis=0), atol=1e-10)


def test_activation_match_dead_unit_gets_zero_correlation():
    a = mlp(28, widths=(5,))
    b = mlp(29, widths=(5,))
    for m in (a, b):
        m.params["dense0.w"][2] = 0.0
        m.params["dense0.b"][2] = -5.0  # unit 2 never fires
    ds = _dataset_for(7, seed=3)
    with pytest.warns(UserWarning, match="zero variance"):
        stats = streaming_activation_stats(a, b, ds, batch_size=64)
    assert np.all(stats["b0"]["corr"][2, :] == 0.0)
    assert np.all(stats["b0"]["corr"][:, 2] == 0.0)
    perm, _ = activation_match(a, b, ds, batch_size=64)
    assert sorted(perm.perms["b0"]) == list(range(5))


def test_matching_and_repair_share_the_dead_unit_rule():
    # a unit whose spread is rounding noise (pre std ~4e-9, post ~2e-9)
    a, b = mlp(28, widths=(5,)), mlp(29, widths=(5,))
    a.params["dense0.w"][2] = 2e-9
    a.params["dense0.b"][2] = 0.0
    ds = _dataset_for(7, seed=3)
    with pytest.warns(UserWarning, match="zero variance"):
        stats = streaming_activation_stats(a, b, ds, batch_size=64)
    assert stats["b0"]["dead_a"][2]
    assert np.all(stats["b0"]["corr"][2, :] == 0.0)
    with pytest.warns(UserWarning, match="dead channels"):
        repair(a, measure_stats(a, ds, batch_size=64), ds, batch_size=64)


@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.filterwarnings("ignore:.*(zero variance|dead channels)")
def test_boundary_with_every_unit_dead(layer):
    # fault injection: no unit of one boundary ever fires in either net
    a, b = mlp(40, widths=(48, 40)), mlp(41, widths=(48, 40))
    for m in (a, b):
        m.params[f"dense{layer}.w"][:] = 0.0
        m.params[f"dense{layer}.b"][:] = -5.0
    bid = f"b{layer}"
    ds = _dataset_for(7, seed=5)
    assert np.all(streaming_activation_stats(a, b, ds, batch_size=64)[bid]["corr"] == 0.0)
    x = rand_batch((7,), 16, seed=6)
    for spec, _ in (weight_match(a, b), activation_match(a, b, ds, batch_size=64)):
        for other, perm in spec.perms.items():
            assert sorted(perm) == list(range(dict(b.boundary_map)[other]))
        aligned = apply_perm(b, spec)
        np.testing.assert_array_equal(forward(aligned, x), forward(b, x))
        mid = interpolate(a, aligned, 0.5)
        goals = goal_stats(a, aligned, 0.5, ds, batch_size=64)
        for mode in REPAIR_MODES:
            for sequential in (False, True):
                fixed = repair(mid, goals, ds, mode=mode, sequential=sequential,
                               batch_size=64)
                assert all(np.all(np.isfinite(t)) for t in fixed.params.values())
                assert np.all(np.isfinite(forward(fixed, ds.inputs[:32])))


def test_activation_match_needs_two_batches():
    a = mlp(30)
    ds = _dataset_for(7, seed=4, n=64)
    with pytest.raises(ValueError, match="batch"):
        activation_match(a, a, ds, batch_size=64)


def test_activation_match_names_the_rows_and_batch_size_it_lacks():
    a = mlp(30)
    with pytest.raises(ValueError, match="300 rows at batch_size 256 give 1$"):
        activation_match(a, a, _dataset_for(7, seed=4, n=300), batch_size=256)


# ---------------------------------------------------------------- multi-model merging

def test_multi_match_single_model_unchanged():
    a = mlp(31)
    merged, perms = multi_match([a], strategy="reference")
    assert models_bit_equal(merged, a)
    assert len(perms) == 1


def test_multi_match_two_models_reference_equals_sequential():
    a, b = mlp(32), mlp(33)
    m_ref, p_ref = multi_match([a, b], strategy="reference")
    m_seq, p_seq = multi_match([a, b], strategy="sequential")
    assert models_bit_equal(m_ref, m_seq)
    assert all(np.array_equal(p_ref[1].perms[k], p_seq[1].perms[k]) for k in p_ref[1].perms)


@pytest.mark.parametrize("strategy", ["reference", "sequential", "iterative"])
def test_multi_match_recovers_eight_planted_copies(strategy):
    base = mlp(34)
    models = [apply_perm(base, random_perm(base, seed=100 + i)) for i in range(8)]
    merged, perms = multi_match(models, strategy=strategy, seed=0)
    for mi, pi in zip(models, perms):
        assert models_bit_equal(apply_perm(mi, pi), apply_perm(models[0], perms[0]))
    x = rand_batch((7,), 50, seed=35)
    assert np.max(np.abs(forward(merged, x) - forward(base, x))) <= 1e-5


def test_multi_match_iterative_respects_cap():
    models = [mlp(40 + i) for i in range(3)]
    merged, _ = multi_match(models, strategy="iterative", iter_cap=2, seed=1)
    assert merged.meta["merge"]["iterations"] <= 2
