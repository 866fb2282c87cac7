"""Permutation properties over drawn architectures: dense and strided, padded
convs, max pooling (stride below the kernel included), flatten into dense
layers, batchnorm with and without affine, layernorm, channel_affine,
bias-free weight layers and tracked boundary statistics."""
import numpy as np
from hypothesis import given, settings, strategies as st

from rebasin.lap import solve_lap
from rebasin.match import _score_matrix, apply_perm, invert, random_perm, weight_match
from rebasin.model import build_model, forward, wiring
from rebasin.ops import conv_out_hw
from rebasin.probes import l2_distance
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
