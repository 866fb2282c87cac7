"""Time each layer's forward and backward on the benchmark's BatchNorm convnet.

The net is the `cnn_prune` convnet of the pipeline benchmark: 1x16x16 inputs,
conv 16 and conv 32 (3x3, pad 1), each followed by batchnorm, relu and a 2x2
maxpool, then flatten and a 10-way dense head. For each batch size it runs one
training step on random inputs and labels, layer by layer through the model's
own layer table, and times each layer: `fwd` is its forward with batch
statistics (and its backward cache), `bwd` its backward from the gradient the
layer above passed down, and `fisher` the backward of the diagonal-Fisher
pass, which sums squared per-sample weight gradients (weight layers only).
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

from rebasin.model import WEIGHT_KINDS, _backward, _layer_fwd, build_model, cnn_descriptor
from rebasin.ops import softmax_cross_entropy
from rebasin.train import init_params


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


def layer_rows(model, batch, repeats):
    """(spec, input shape, [fwd, bwd(, fisher)] ms) per layer, in layer order.

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
        dy = _backward(model, one, dy)["x"]
    return rows


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
          f"{'fwd':>9}{'bwd':>9}{'fisher':>9}")
    for batch in args.batches:
        totals = [0.0, 0.0]
        for spec, shape, row in layer_rows(model, batch, args.repeats):
            totals = [t + r for t, r in zip(totals, row)]
            cells = "".join(f"{v:>9.2f}" for v in row)
            print(f"{spec.name:<10}{spec.kind:<11}{'x'.join(map(str, shape)):>12}"
                  f"{batch:>7}{cells}", flush=True)
        print(f"{'total':<10}{'':<11}{'':>12}{batch:>7}"
              + "".join(f"{v:>9.2f}" for v in totals), flush=True)


if __name__ == "__main__":
    main()
