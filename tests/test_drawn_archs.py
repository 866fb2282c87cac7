"""Permutation properties over drawn architectures: dense and strided, padded
convs, max pooling (stride below the kernel included), flatten into dense
layers, batchnorm with and without affine, layernorm, channel_affine,
bias-free weight layers and tracked boundary statistics."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin.data import Dataset
from rebasin.lap import solve_lap
from rebasin.match import (_gather, _others, _perm_axes, _score_matrix, _unit_view, apply_perm,
                           invert, random_perm, weight_match)
from rebasin.model import POST, PRE, _walk, build_model, fold_affine, forward, stat_key, wiring
from rebasin.ops import conv_out_hw
from rebasin.probes import l2_distance
from rebasin.renorm import measure_stats, repair
from helpers import bits_equal, models_bit_equal, rand_batch, seed_params

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
NORMS = [[], [{"kind": "batchnorm"}], [{"kind": "batchnorm", "affine": False}],
         [{"kind": "layernorm"}], [{"kind": "layernorm", "affine": False}],
         [{"kind": "channel_affine"}],
         [{"kind": "batchnorm", "affine": False}, {"kind": "channel_affine"}]]


@st.composite
def conv_block(draw, side):
    """(layers, output side) of one conv, its norm chain, a relu and
    an optional pooling layer, fitted to a side x side input."""
    k = draw(st.integers(1, min(3, side)))
    pad = draw(st.integers(0, k // 2))
    stride = draw(st.integers(1, 2))
    side = conv_out_hw(side, side, k, stride, pad)[0]
    layers = [{"kind": "conv2d", "out": draw(st.integers(2, 4)), "k": k,
               "stride": stride, "pad": pad, "bias": draw(st.booleans())},
              *draw(st.sampled_from(NORMS)), {"kind": "relu"}]
    if side >= 2 and draw(st.booleans()):
        pk = draw(st.integers(2, min(3, side)))
        ps = draw(st.integers(1, pk))
        layers.append({"kind": "maxpool2d", "k": pk, "stride": ps})
        side = conv_out_hw(side, side, pk, ps, 0)[0]
    return layers, side


@st.composite
def models(draw):
    """A seeded model of a drawn architecture, tracked statistics or not."""
    layers = []
    if draw(st.booleans()):
        side = draw(st.integers(3, 7))
        input_shape = [draw(st.integers(1, 2)), side, side]
        for _ in range(draw(st.integers(1, 2))):
            block, side = draw(conv_block(side))
            layers += block
        layers.append({"kind": "flatten"})
    else:
        input_shape = [draw(st.integers(2, 5))]
    for _ in range(draw(st.integers(0 if layers else 1, 2))):
        layers += [{"kind": "dense", "out": draw(st.integers(2, 5)),
                    "bias": draw(st.booleans())},
                   *draw(st.sampled_from(NORMS)), {"kind": "relu"}]
    layers.append({"kind": "dense", "out": 3})
    m = build_model({"input_shape": input_shape, "layers": layers})
    if draw(st.booleans()):
        for bid, n in m.boundary_map:
            m.params[f"stats.{bid}.mean"] = np.zeros(n, dtype=np.float32)
            m.params[f"stats.{bid}.var"] = np.ones(n, dtype=np.float32)
    return seed_params(m, draw(st.integers(0, 1000)))


@SETTINGS
@given(m=models(), seed=st.integers(0, 1000))
def test_apply_perm_keeps_function_and_inverts_bitwise(m, seed):
    p = random_perm(m, seed=seed)
    moved = apply_perm(m, p)
    x = rand_batch(m.input_shape, 8, seed=seed)
    np.testing.assert_allclose(forward(moved, x), forward(m, x), rtol=1e-4, atol=1e-5)
    assert models_bit_equal(apply_perm(moved, invert(p)), m)
    assert all(v.flags.c_contiguous for v in moved.params.values())
    for bid, v in p.perms.items():      # tracked statistics follow their units
        for key in (f"stats.{bid}.mean", f"stats.{bid}.var"):
            if key in m.params:
                assert bits_equal(moved.params[key], m.params[key][v])


@SETTINGS
@given(a=models(), seed=st.integers(0, 1000))
def test_score_matrix_is_the_distance_change_of_each_boundary(a, seed):
    """With the other boundaries held, |a - P(b)|^2 + 2 sum_i score[i, q_i]
    does not depend on the boundary's own permutation q."""
    b = seed_params(a.copy(), seed)
    pa = {k: v.astype(np.float64) for k, v in a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in b.params.items()}
    wir = wiring(a)
    base = random_perm(a, seed=seed + 1)
    rng = np.random.default_rng(seed)
    for bid, n in a.boundary_map:
        score = _score_matrix(a.layers, pa, pb, wir, bid, base.perms)
        vals = []
        for _ in range(4):
            q = rng.permutation(n)
            spec = random_perm(a, seed=seed + 1)
            spec.perms[bid] = q
            vals.append(l2_distance(a, apply_perm(b, spec)) ** 2
                        + 2 * score[np.arange(n), q].sum())
        assert max(vals) - min(vals) <= 1e-12 * max(abs(v) for v in vals)


def einsum_score(layers, pa, pb, wir, bid, perms):
    """The score matrix with its consumer term as einsum("ouk,ovk->uv"),
    as it was computed before that term became one GEMM."""
    axes = _perm_axes(layers, wir)
    units = wir[bid].units
    score = np.zeros((units, units))
    for name, axis in axes[bid]:
        if name not in pa or stat_key(name):
            continue
        b = pb[name]
        for ob, ax in _others(axes, bid, name):
            b = _gather(b, ax, wir[ob].units, perms[ob])
        a, b = _unit_view(pa[name], axis, units), _unit_view(b, axis, units)
        score += a @ b.T if axis == 0 else np.einsum("ouk,ovk->uv", a, b)
    return score


@SETTINGS
@given(a=models(), seed=st.integers(0, 1000))
def test_score_matrix_gemm_is_the_einsum_formula(a, seed):
    """Every boundary's score under random perms of all boundaries stays
    within 1e-12 of the einsum formula, relative to its largest entry."""
    b = seed_params(a.copy(), seed)
    pa = {k: v.astype(np.float64) for k, v in a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in b.params.items()}
    wir = wiring(a)
    perms = random_perm(a, seed=seed + 1).perms
    for bid, _ in a.boundary_map:
        got = _score_matrix(a.layers, pa, pb, wir, bid, perms)
        want = einsum_score(a.layers, pa, pb, wir, bid, perms)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@SETTINGS
@given(a=models(), seed=st.integers(0, 1000))
def test_weight_match_recovers_planted_perm_bitwise(a, seed):
    """The planted permutation is each boundary's exact solve once the other
    boundaries hold it, and weight_match returns it bitwise whenever it
    reaches zero residual. From its identity start, coordinate descent can
    stop at a local optimum on nets this small (a few percent of draws);
    the residual then stays far from zero."""
    pi = random_perm(a, seed=seed)
    b = apply_perm(a, pi)
    want = invert(pi).perms
    pa = {k: v.astype(np.float64) for k, v in a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in b.params.items()}
    wir = wiring(a)
    for bid in want:
        res = solve_lap(_score_matrix(a.layers, pa, pb, wir, bid, want), sense="maximize")
        assert res.perm.tobytes() == want[bid].tobytes()
    perm, report = weight_match(a, b, seed=seed)
    recovered = all(perm.perms[k].tobytes() == want[k].tobytes() for k in want)
    assert recovered == (report.residual_l2 <= 1e-5)
    assert report.converged


@SETTINGS
@given(m=models(), seed=st.integers(0, 1000))
def test_walk_split_at_any_layer_is_the_whole_forward_bitwise(m, seed):
    """_walk(stop=k) then _walk(start=k) gives forward's logits and taps."""
    x = rand_batch(m.input_shape, 6, seed=seed)
    taps = [(bid, phase) for bid, _ in m.boundary_map for phase in (PRE, POST)]
    want, want_taps = forward(m, x, taps=taps)
    for k in range(len(m.layers) + 1):
        h, head = _walk(m, x, None, False, True, taps=taps, stop=k)
        out, tail = _walk(m, h, None, False, True, taps=taps, start=k)
        assert bits_equal(out, want)
        got = {**head, **tail}
        assert len(got) == len(head) + len(tail) == len(want_taps)
        for tap in want_taps:
            assert bits_equal(got[(tap.boundary_id, tap.phase)], tap.value)


@pytest.mark.filterwarnings("ignore:.*dead channels")
@SETTINGS
@given(m=models(), seed=st.integers(0, 1000))
def test_fold_affine_removes_repair_corrections_and_keeps_logits(m, seed):
    """repair inserts a channel_affine at every boundary, after any norm layer
    (batchnorm or layernorm, affine or not) or drawn channel_affine, and
    fold_affine merges each into the layer before it. The goals lie near the
    model's own statistics (each correction scales by 0.5-2), so the fold is
    well conditioned and the logits move by float32 rounding only."""
    ds = Dataset(inputs=rand_batch(m.input_shape, 32, seed=seed),
                 labels=np.zeros(32, dtype=np.int64), num_classes=3)
    own = measure_stats(m, ds, batch_size=16)
    rng = np.random.default_rng(seed)
    goals = replace(own,
                    means={b: v + rng.normal(0.0, 1.0, v.shape) for b, v in own.means.items()},
                    stds={b: v * rng.uniform(0.5, 2.0, v.shape) for b, v in own.stds.items()})
    fixed = repair(m, goals, ds, batch_size=16)
    assert sum(s.kind == "channel_affine" for s in fixed.layers) == \
        len(m.boundary_map) + sum(s.kind == "channel_affine" for s in m.layers)
    folded = fold_affine(fixed)
    assert [s.kind for s in folded.layers] == [s.kind for s in m.layers
                                               if s.kind != "channel_affine"]
    assert all(v.dtype == np.float32 for v in folded.params.values())
    x = rand_batch(m.input_shape, 8, seed=seed + 2)
    want, got = forward(fixed, x), forward(folded, x)
    assert np.abs(got - want).max() <= 1e-4 * max(1.0, np.abs(want).max())
