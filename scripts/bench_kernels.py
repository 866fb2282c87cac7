"""Time each layer's forward and backward on the benchmark's BatchNorm convnet.

The net is the `cnn_prune` convnet of the pipeline benchmark: 1x16x16 inputs,
conv 16 and conv 32 (3x3, pad 1), each followed by batchnorm, relu and a 2x2
maxpool, then flatten and a 10-way dense head. For each batch size it runs one
training step on random inputs and labels, layer by layer through the model's
own layer table, and times each layer: `fwd` is its forward with batch
statistics (and its backward cache), `bwd` its backward from the gradient the
layer above passed down, and `fisher` the backward of the diagonal-Fisher
pass, which sums squared per-sample weight gradients. `dx` and `dw` split a
weight layer's `bwd` into its input-gradient kernel and its weight-and-bias
gradient kernel (`fisher`, `dx` and `dw`: weight layers only).
A second table times `repair` of the same net to its own statistics on 4
random batches of each size: `sequential` (one corrected boundary after
another) against `single` (one measurement pass for all boundaries).
A last table splits one training step of the 784-input MLPs with 3 and 6
hidden layers of 256 into `fwd` (the cached forward), `bwd` (loss gradient
and backward, without the input gradient train skips) and `update` (the
momentum step), as `train` runs them. A `score` table times one
`weight_match` score matrix (`_score_matrix`, every term computed from
scratch) per boundary of two 784-input MLPs, 3x256 and 2x512, under random
permutations. A `curve` table times `eval_curve` over the default 11-point
grid between two freshly initialized 784-input 3x256 MLPs, on 1200 train and
600 test rows (the `pair_tour` sizes of the pipeline benchmark), without
re-normalization (`none`), with single-pass `repair` and with sequential
`repair`.
Each figure is the median of N calls in ms.

    python3 scripts/bench_kernels.py [--batches 32 256 512] [--repeats 7]
"""
import argparse
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rebasin import ops
from rebasin.data import Dataset, hold_out, synth_embedded
from rebasin.match import _score_matrix, random_perm
from rebasin.model import (WEIGHT_KINDS, _backward, _forward_cached, _layer_fwd, build_model,
                           cnn_descriptor, mlp_descriptor, wiring)
from rebasin.ops import softmax_cross_entropy
from rebasin.renorm import eval_curve, measure_stats, repair
from rebasin.train import _sgd_update, init_params

REPAIR_BATCHES = 4
STEP_NETS = {"3x256": [256] * 3, "6x256": [256] * 6}
SCORE_NETS = {"3x256": [256] * 3, "2x512": [512] * 2}
CURVES = (("none", False), ("repair", False), ("repair", True))


def convnet():
    desc = cnn_descriptor((1, 16, 16), [{"out": c, "k": 3, "pool": 2} for c in (16, 32)], 10)
    return init_params(build_model(desc), "kaiming_uniform", 0)


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def split_bwd(spec, p, cache, dy):
    """(dx, dw) kernel calls of a weight layer's backward, as _backward makes them."""
    w = p[f"{spec.name}.w"]
    if spec.kind == "dense":
        return lambda: ops.dense_dx(w, dy), lambda: ops.dense_wgrad(cache, dy)
    cols, x_shape = cache
    return (lambda: ops.conv2d_dx(x_shape, w, dy, spec.stride, spec.pad),
            lambda: ops.conv2d_wgrad(cols, w.shape, dy))


def layer_rows(model, batch, repeats):
    """(spec, input shape, [fwd, bwd(, fisher, dx, dw)] ms) per layer, in layer order.

    Each backward starts from the gradient the layer above passed down, so
    it sees the dtypes and the pooling ties of a real training step."""
    rng = np.random.default_rng(batch)
    p = model.params
    x = rng.standard_normal((batch,) + tuple(model.input_shape)).astype(np.float32)
    rows, caches = [], []
    for spec in model.layers:
        def fwd(x=x, spec=spec):
            return _layer_fwd(spec, p, x, True, False, None)
        rows.append([spec, x.shape[1:], [median_ms(fwd, repeats)]])
        x, cache = fwd()
        caches.append((spec, cache))
    _, dy = softmax_cross_entropy(x, rng.integers(0, x.shape[1], size=batch))
    hook = lambda key, sq: None
    for (spec, cache), row in zip(reversed(caches), reversed(rows)):
        one = [(spec, cache)]
        row[2].append(median_ms(lambda: _backward(model, one, dy), repeats))
        if spec.kind in WEIGHT_KINDS:
            row[2].append(median_ms(lambda: _backward(model, one, dy, weight_hook=hook),
                                    repeats))
            row[2].extend(median_ms(fn, repeats) for fn in split_bwd(spec, p, cache, dy))
        dy = _backward(model, one, dy)["x"]
    return rows


def repair_ms(model, batch, repeats):
    """[sequential, single] repair ms on REPAIR_BATCHES random batches."""
    rng = np.random.default_rng(batch)
    n = REPAIR_BATCHES * batch
    ds = Dataset(rng.standard_normal((n,) + tuple(model.input_shape)).astype(np.float32),
                 np.zeros(n, dtype=np.int64), 10)
    goals = measure_stats(model, ds, batch_size=batch)
    return [median_ms(lambda: repair(model, goals, ds, sequential=seq, batch_size=batch),
                      repeats) for seq in (True, False)]


def step_ms(hidden, batch, repeats):
    """[fwd, bwd, update] ms of one training step of a 784-input MLP."""
    model = init_params(build_model(mlp_descriptor(784, hidden, 10)), "kaiming_uniform", 0)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 784)).astype(np.float32)
    y = rng.integers(0, 10, size=batch)
    logits, caches = _forward_cached(model, x)

    def bwd():
        return _backward(model, caches, softmax_cross_entropy(logits, y)[1],
                         input_grad=False)
    grads = bwd()
    vel = {k: np.zeros_like(g) for k, g in grads.items()}
    return [median_ms(lambda: _forward_cached(model, x), repeats),
            median_ms(bwd, repeats),
            median_ms(lambda: _sgd_update(model.params, vel, grads, 0.01, 0.9, 0.0),
                      repeats)]


def score_rows(hidden, repeats):
    """(boundary, units, ms) of one _score_matrix call per boundary of a
    784-input MLP pair, the other boundaries under random permutations."""
    a, b = (init_params(build_model(mlp_descriptor(784, hidden, 10)), "kaiming_uniform", s)
            for s in (0, 1))
    pa = {k: v.astype(np.float64) for k, v in a.params.items()}
    pb = {k: v.astype(np.float64) for k, v in b.params.items()}
    wir, perms = wiring(a), random_perm(a, seed=2).perms
    return [(bid, n, median_ms(lambda: _score_matrix(a.layers, pa, pb, wir, bid, perms),
                               repeats))
            for bid, n in a.boundary_map]


def curve_rows(repeats):
    """(mode, sequential, ms) of eval_curve on a 784-input 3x256 MLP pair."""
    pool = synth_embedded(seed=0, n=1800, dims=784, d_eff=16, classes=10, spread=0.4,
                          clusters_per_class=8)
    tr, te = hold_out(pool, 600)
    a, b = (init_params(build_model(mlp_descriptor(784, [256] * 3, 10)),
                        "kaiming_uniform", s) for s in (0, 1))
    return [(mode, seq, median_ms(lambda: eval_curve(a, b, tr, test_ds=te, mode=mode,
                                                     sequential=seq), repeats))
            for mode, seq in CURVES]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--batches", type=int, nargs="+", default=[32, 256, 512])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    model = convnet()
    print(f"# {os.cpu_count()} cores, python {platform.python_version()}, "
          f"numpy {np.__version__}, median of {args.repeats} calls, ms")
    print(f"{'layer':<10}{'kind':<11}{'input':>12}{'batch':>7}"
          f"{'fwd':>9}{'bwd':>9}{'fisher':>9}{'dx':>9}{'dw':>9}")
    for batch in args.batches:
        totals = [0.0, 0.0]
        for spec, shape, row in layer_rows(model, batch, args.repeats):
            totals = [t + r for t, r in zip(totals, row)]
            cells = "".join(f"{v:>9.2f}" for v in row)
            print(f"{spec.name:<10}{spec.kind:<11}{'x'.join(map(str, shape)):>12}"
                  f"{batch:>7}{cells}", flush=True)
        print(f"{'total':<10}{'':<11}{'':>12}{batch:>7}"
              + "".join(f"{v:>9.2f}" for v in totals), flush=True)
    print(f"{'# repair':<10}{'batches':>9}{'batch':>7}{'sequential':>12}{'single':>9}")
    for batch in args.batches:
        seq, single = repair_ms(model, batch, args.repeats)
        print(f"{'repair':<10}{REPAIR_BATCHES:>9}{batch:>7}{seq:>12.2f}{single:>9.2f}",
              flush=True)
    print(f"{'# step':<10}{'net':>9}{'batch':>7}{'fwd':>9}{'bwd':>9}{'update':>9}")
    for name, hidden in STEP_NETS.items():
        for batch in args.batches:
            cells = "".join(f"{v:>9.2f}" for v in step_ms(hidden, batch, args.repeats))
            print(f"{'step':<10}{name:>9}{batch:>7}{cells}", flush=True)
    print(f"{'# score':<10}{'net':>9}{'bound':>7}{'units':>9}{'ms':>9}")
    for name, hidden in SCORE_NETS.items():
        for bid, units, ms in score_rows(hidden, args.repeats):
            print(f"{'score':<10}{name:>9}{bid:>7}{units:>9}{ms:>9.2f}", flush=True)
    print(f"{'# curve':<10}{'mode':>9}{'seq':>7}{'ms':>9}")
    for mode, seq, ms in curve_rows(args.repeats):
        print(f"{'curve':<10}{mode:>9}{'yes' if seq else 'no':>7}{ms:>9.2f}", flush=True)


if __name__ == "__main__":
    main()
