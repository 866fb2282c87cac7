"""Buffer layout and ownership of the layer walk: every activation and
gradient on the conv path is C-contiguous, and the in-place writes of eval
walks never reach the caller's batch, a feed, a tapped value or a parameter."""
import numpy as np
import pytest

from rebasin import renorm
from rebasin.data import synth_blobs
from rebasin.model import (POST, PRE, _backward, _walk, build_model, cnn_descriptor,
                           forward, wiring)
from rebasin.ops import softmax_cross_entropy
from rebasin.probes import channel_probe
from rebasin.renorm import (RENORM_MODES, REPAIR_MODES, eval_curve, measure_stats,
                            repair, reset_bn)
from rebasin.train import evaluate
from helpers import as_float64, bits_equal, seed_params

# the pipeline benchmark's cnn_prune convnet: conv 16/32, batchnorm, relu, 2x2 pool
CNN_PRUNE = cnn_descriptor((1, 16, 16), [{"out": c, "k": 3, "pool": 2} for c in (16, 32)], 10)
STRIDED = cnn_descriptor((2, 11, 11), [{"out": 6, "k": 3, "stride": 2, "pad": 0},
                                       {"out": 5, "k": 3, "stride": 2, "pad": 0}], 4)
AFFINE_MLP = {"input_shape": [8], "layers": [
    {"kind": "dense", "out": 12}, {"kind": "batchnorm"}, {"kind": "channel_affine"},
    {"kind": "relu"},
    {"kind": "dense", "out": 10}, {"kind": "channel_affine"}, {"kind": "relu"},
    {"kind": "dense", "out": 4}]}
# a flatten's output is a view of its input, so the relu after it holds the batch
FLAT_FIRST = {"input_shape": [2, 4, 4], "layers": [
    {"kind": "flatten"}, {"kind": "relu"}, {"kind": "dense", "out": 12},
    {"kind": "batchnorm"}, {"kind": "relu"}, {"kind": "dense", "out": 4}]}


def seeded(desc, seed):
    return seed_params(build_model(desc), seed)


def dataset_for(desc, seed, n=96):
    shape = tuple(desc["input_shape"])
    return synth_blobs(seed=seed, n=n, dims=int(np.prod(shape)), classes=4, spread=0.5,
                       image_shape=shape if len(shape) == 3 else None)


# ---------------------------------------------------------------- ownership

def every_walk(a, b, ds, test_ds, monkeypatch):
    """Run every eval-walk user on the pair; returns the endpoint outputs the
    curves' shared prefixes handed out, each with a copy taken when made."""
    fed = []
    make = renorm._SharedPrefix._endpoint_outputs

    def recorded(self, x):
        out = make(self, x)
        fed.extend((h, h.copy()) for h in out)
        return out
    monkeypatch.setattr(renorm._SharedPrefix, "_endpoint_outputs", recorded)

    evaluate(a, ds)
    goals = measure_stats(b, ds, batch_size=32)
    measure_stats(a, ds, batch_size=32, phase=POST)
    if any(s.kind == "batchnorm" for s in a.layers):
        reset_bn(a, ds, batch_size=32)
    for sequential in (False, True):
        repair(a, goals, ds, sequential=sequential, batch_size=32)
    channel_probe(a, ds, batch_size=32)
    for mode in RENORM_MODES:
        if mode == "reset" and not any(s.kind == "batchnorm" for s in a.layers):
            continue
        for sequential in ((False, True) if mode in REPAIR_MODES else (False,)):
            eval_curve(a, b, ds, test_ds=test_ds, quick=True, mode=mode,
                       sequential=sequential, batch_size=32, stats_batch_size=32)
    return fed


@pytest.mark.parametrize("desc", [CNN_PRUNE, AFFINE_MLP, FLAT_FIRST],
                         ids=["cnn_prune", "affine_mlp", "flatten_first"])
def test_no_in_place_write_escapes_a_walk(desc, monkeypatch):
    a, b = seeded(desc, 1), seeded(desc, 2)
    ds, test_ds = dataset_for(desc, 3), dataset_for(desc, 4, n=64)
    before = {name: [arr.copy() for arr in (d.inputs, d.labels)]
              for name, d in (("train", ds), ("test", test_ds))}
    params = [{k: v.copy() for k, v in m.params.items()} for m in (a, b)]

    fed = every_walk(a, b, ds, test_ds, monkeypatch)

    for name, d in (("train", ds), ("test", test_ds)):
        assert bits_equal(d.inputs, before[name][0]) and bits_equal(d.labels, before[name][1])
    for m, saved in zip((a, b), params):
        assert set(m.params) == set(saved)
        assert all(bits_equal(m.params[k], saved[k]) for k in saved)
    if desc is not CNN_PRUNE:      # a dense first weight layer: the curves ran on feeds
        assert fed
    assert all(bits_equal(h, copy) for h, copy in fed)


@pytest.mark.parametrize("desc", [CNN_PRUNE, AFFINE_MLP], ids=["cnn_prune", "affine_mlp"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_taps_at_every_boundary_hold_their_layer_output(desc, mode):
    m = seeded(desc, 5)
    x = dataset_for(desc, 6, n=32).inputs
    x_before = x.copy()
    wir = wiring(m)
    taps = [(bid, ph) for bid in wir for ph in (PRE, POST)]
    _, got = forward(m, x, taps=taps, mode=mode, update_stats=False)
    for tap in got:
        b = wir[tap.boundary_id]
        stop = (b.pre_tap if tap.phase == PRE else b.post_tap) + 1
        want, _ = _walk(m, x, batch_stats=True if mode == "train" else None,
                        update_stats=False, track=False, stop=stop)
        assert bits_equal(tap.value, want), (tap.boundary_id, tap.phase)
    assert bits_equal(x, x_before)


# ---------------------------------------------------------------- layout

def layer_outputs(model, x, how):
    """Each layer's output on x: `cached` walks as training does, `train` as
    a train-mode forward does, `eval` as an eval pass does."""
    outs = []
    for i in range(len(model.layers)):
        caches = [] if how == "cached" else None
        y, _ = _walk(model, x, batch_stats={"cached": True, "train": True, "eval": None}[how],
                     update_stats=False, track=False, caches=caches, stop=i + 1)
        outs.append((model.layers[i].name, y))
    return outs


def passed_down(model, x, labels):
    """The gradient _backward passes below each layer of a training step."""
    caches = []
    logits, _ = _walk(model, x, batch_stats=True, update_stats=False, track=False,
                      caches=caches)
    _, dlogits = softmax_cross_entropy(logits, labels)
    out = []
    for i in range(len(caches)):
        grads = _backward(model, caches[i:], dlogits.copy())
        out.append((model.layers[i].name, grads.pop("x")))
        out.extend(grads.items())
    return out


@pytest.mark.parametrize("desc", [CNN_PRUNE, STRIDED], ids=["cnn_prune", "stride2_pad0"])
@pytest.mark.parametrize("dtype", ["float32", "float64", "float64_params"])
def test_every_activation_and_gradient_is_c_contiguous(desc, dtype):
    m = seeded(desc, 7)
    if dtype == "float64_params":
        m = as_float64(m)
    want = np.float32 if dtype == "float32" else np.float64
    ds = dataset_for(desc, 8, n=16)
    x = ds.inputs.astype(want)
    for how in ("cached", "train", "eval"):
        for name, y in layer_outputs(m, x, how):
            assert y.flags.c_contiguous, (how, name)
            assert y.dtype == want, (how, name, y.dtype)
    for name, g in passed_down(m, x, ds.labels):
        assert g.flags.c_contiguous, name
        assert g.dtype == want, (name, g.dtype)

