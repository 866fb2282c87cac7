"""Time the library's kernels: `solve_lap` against matrix size, and the
layers, repair, training step, score matrix and curve of the pipeline
benchmark's nets.

The first line printed is the JSON of `cli._run_env()`: the NumPy and BLAS
build, the BLAS thread variables, the CPU count and the usable cores. BLAS
runs one thread, as in the pipeline benchmark, unless one of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set. Each
table after it starts with a `#` line naming its columns, and each of its
rows with its kind. Every time is the median of --repeats calls in ms.
Every input is generated here from a seed, so nothing is downloaded.
--json PATH also writes the environment and every table's columns and rows
to PATH.

LAP, one row per n of --sizes and cost kind: how many shortest-path
searches one `solve_lap` call runs, its time, and the time of
`scipy.optimize.linear_sum_assignment` when scipy is installed (scipy is
never a dependency of the library). The kinds are uniform random costs, the
all-zero cost, a rank-1 cost outer(a, b) of uniform vectors (the last two
are the degenerate shapes dead units produce), `corr`, a synthetic
correlation cost: two ReLU activation sets driven by one shared latent, some
of whose units never fire and get zero rows and columns, `warm`, that `corr`
cost perturbed by 5 % relative noise and solved from the column duals the
`corr` solve ended at, as `weight_match` re-solves a boundary whose cost
moved (scipy, which takes no duals, solves it cold), and `real`, the six
correlation costs `activation_match` maximizes on a pair shaped like the
pipeline benchmark's `deep_cli` one: 784-input MLPs with six hidden layers
of n units, trained here for 9 epochs on 2000 synthetic rows. Its cells are
sums over the six costs. It runs for n up to REAL_MAX_WIDTH only, as the
time to train the pair grows as n^2.

Kernels, one row per batch size of --batches where a table has one. The
convnet is the `cnn_prune` net of the pipeline benchmark: 1x16x16 inputs,
conv 16 and conv 32 (3x3, pad 1), each followed by batchnorm, relu and a 2x2
maxpool, then flatten and a 10-way dense head. Its layer table runs one
training step on random inputs and labels, layer by layer through the
model's own layer table: `fwd` is a layer's forward with batch statistics
(and its backward cache), `bwd` its backward from the gradient the layer
above passed down, and `fisher` the backward of the diagonal-Fisher pass,
which sums squared per-sample weight gradients. `dx` and `dw` split a weight
layer's `bwd` into its input-gradient kernel and its weight-and-bias
gradient kernel (`fisher`, `dx` and `dw`: weight layers only). The `repair`
table repairs the same net to its own statistics on 4 random batches:
`sequential` (one corrected boundary after another) against `single` (one
measurement pass for all boundaries). The `probe` table times
`channel_probe` on the same 4 random batches, of the convnet and of a
784-input 3x256 MLP: `rows` reads the activation rows only, `fisher` adds
the diagonal-Fisher means in the same pass. The `step` table splits one
training step of the 784-input MLPs with 3 and 6 hidden layers of 256 into
`fwd` (the cached forward), `bwd` (loss gradient and backward, without the
input gradient train skips) and `update` (the momentum step), as `train`
runs them. The `score` table times one `weight_match` score matrix
(`_score_matrix`, every term computed from scratch) per boundary of two
784-input MLPs, 3x256 and 2x512, under random permutations. The `curve`
table times `eval_curve` over the default 11-point grid between two freshly
initialized 784-input 3x256 MLPs, on 1200 train and 600 test rows (the
`pair_tour` sizes of the pipeline benchmark), without re-normalization
(`none`), with single-pass `repair` and with sequential `repair`.

An empty --sizes skips the LAP table and an empty --batches the kernel
tables, so either part runs alone.

    python3 scripts/bench.py [--sizes 64 128 256 512 1024] [--batches 32 256 512]
                             [--repeats 7] [--json PATH]
"""
import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
import warnings
from unittest import mock

# One BLAS thread unless the caller sets a thread count, set before NumPy
# loads: a multi-threaded BLAS on a small product can take 100 times longer
# than one thread. The first line printed records the values used. Only a
# run as a script sets them, so importing this file changes no environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__" and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rebasin import lap, ops
from rebasin.cli import _run_env
from rebasin.data import Dataset, hold_out, synth_embedded
from rebasin.lap import solve_lap
from rebasin.match import _score_matrix, random_perm, streaming_activation_stats
from rebasin.model import (WEIGHT_KINDS, _backward, _forward_cached, _layer_fwd, build_model,
                           cnn_descriptor, mlp_descriptor, wiring)
from rebasin.ops import DEAD_STD, softmax_cross_entropy
from rebasin.probes import channel_probe
from rebasin.renorm import eval_curve, measure_stats, repair
from rebasin.train import TrainConfig, _sgd_update, init_params, train

try:
    from scipy.optimize import linear_sum_assignment
except ImportError:
    linear_sum_assignment = None

CORR_SAMPLES = 1024
CORR_DEAD_FRAC = 0.08   # share of each set's units that never fire
WARM_NOISE = 0.05       # relative change of the warm row's cost
REAL_MAX_WIDTH = 512
REAL_SEEDS = (200, 201)
REAL_TRAIN = TrainConfig(base_lr=0.08, batch_size=64, epochs=9, schedule="cosine",
                         warmup_iters=40)
REPAIR_BATCHES = 4
STEP_NETS = {"3x256": [256] * 3, "6x256": [256] * 6}
SCORE_NETS = {"3x256": [256] * 3, "2x512": [512] * 2}
CURVES = (("none", False), ("repair", False), ("repair", True))


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


class Tables(dict):
    """The tables printed so far: name -> {"columns": [...], "rows": [...]}."""

    def show(self, *cells):
        """Print one table line: the first cell left-aligned, the others
        right, floats to two places. A first cell "# name" opens table
        `name`; the lines after it are its rows."""
        text = [f"{c:.2f}" if isinstance(c, float) else str(c) for c in cells]
        print(f"{text[0]:<10}" + "".join(f" {t:>10}" for t in text[1:]), flush=True)
        if text[0].startswith("# "):
            self[text[0][2:]] = {"columns": ["row", *cells[1:]], "rows": []}
        else:
            rows = list(self.values())[-1]["rows"]
            rows.append([round(c, 3) if isinstance(c, float) else c for c in cells])


def mlp(hidden, seed=0):
    return init_params(build_model(mlp_descriptor(784, hidden, 10)), "kaiming_uniform", seed)


# ---------------------------------------------------------------- LAP

def corr_cost(n, rng):
    """Unit correlations of two ReLU activation sets over CORR_SAMPLES inputs.
    Both read one shared latent of n // 8 dimensions, so many units
    correlate with many others; b's input weights are a's, perturbed by
    noise of the same size and permuted. Dead units (std at most DEAD_STD)
    get zero rows and columns, as `match.streaming_activation_stats` gives
    them."""
    d = max(n // 8, 1)
    latent = rng.standard_normal((CORR_SAMPLES, d))
    w_a = rng.standard_normal((d, n)) / np.sqrt(d)
    w_b = (w_a + rng.standard_normal((d, n)) / np.sqrt(d))[:, rng.permutation(n)]
    acts = []
    for w in (w_a, w_b):
        shift = np.where(rng.random(n) < CORR_DEAD_FRAC, -1e3, 0.0)
        acts.append(np.maximum(latent @ w + shift, 0.0))
    a, b = acts
    std_a, std_b = a.std(axis=0), b.std(axis=0)
    cov = (a - a.mean(axis=0)).T @ (b - b.mean(axis=0)) / CORR_SAMPLES
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = cov / np.outer(std_a, std_b)
    corr[std_a <= DEAD_STD, :] = 0.0
    corr[:, std_b <= DEAD_STD] = 0.0
    return corr


def costs(n, seed=0):
    """(kind, cost, sense, duals) tuples: duals are the column duals a warm
    solve starts from, None for a cold one."""
    rng = np.random.default_rng(seed)
    yield "random", rng.random((n, n)), "minimize", None
    yield "zero", np.zeros((n, n)), "minimize", None
    yield "rank1", np.outer(rng.random(n), rng.random(n)), "minimize", None
    corr = corr_cost(n, rng)
    yield "corr", corr, "maximize", None
    moved = corr * (1.0 + WARM_NOISE * rng.standard_normal((n, n)))
    yield "warm", moved, "maximize", solve_lap(corr, "maximize").duals


def real_costs(n):
    """The six correlation costs `activation_match` maximizes on a pair of
    784-input MLPs with six hidden layers of n units, trained as the
    pipeline benchmark's `deep_cli` workload trains its pair."""
    pool = synth_embedded(seed=1, n=2600, dims=784, d_eff=16, classes=10, spread=0.3,
                          clusters_per_class=4)
    tr, _ = hold_out(pool, 600)
    a, b = (train(mlp([n] * 6, k), tr, dataclasses.replace(REAL_TRAIN, seed=k))[0]
            for k in REAL_SEEDS)
    with warnings.catch_warnings():     # the dead units they report are expected
        warnings.simplefilter("ignore")
        stats = streaming_activation_stats(a, b, tr)
    return [stats[bid]["corr"] for bid, _ in a.boundary_map]


def lap_cells(cost, sense, duals, repeats):
    """[searches, solve_lap ms(, scipy ms)] of one cost."""
    with mock.patch.object(lap, "_augment", wraps=lap._augment) as search:
        solve_lap(cost, sense, duals=duals)
    cells = [search.call_count,
             median_ms(lambda: solve_lap(cost, sense, duals=duals), repeats)]
    if linear_sum_assignment is not None:
        cells.append(median_ms(lambda: linear_sum_assignment(
            cost, maximize=sense == "maximize"), repeats))
    return cells


def lap_table(out, sizes, repeats):
    out.show("# lap", "n", "searches", "solve_lap",
             *(["scipy"] if linear_sum_assignment is not None else []))
    for n in sizes:
        for kind, cost, sense, duals in costs(n):
            out.show(kind, n, *lap_cells(cost, sense, duals, repeats))
        if n <= REAL_MAX_WIDTH:
            cells = [lap_cells(cost, "maximize", None, repeats) for cost in real_costs(n)]
            out.show("real", n, *map(sum, zip(*cells)))


# ---------------------------------------------------------------- kernels

def convnet():
    desc = cnn_descriptor((1, 16, 16), [{"out": c, "k": 3, "pool": 2} for c in (16, 32)], 10)
    return init_params(build_model(desc), "kaiming_uniform", 0)


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


def random_batches(model, batch):
    """REPAIR_BATCHES batches of random inputs and labels for model."""
    rng = np.random.default_rng(batch)
    n = REPAIR_BATCHES * batch
    return Dataset(rng.standard_normal((n,) + tuple(model.input_shape)).astype(np.float32),
                   rng.integers(0, 10, size=n), 10)


def repair_ms(model, batch, repeats):
    """[sequential, single] repair ms on REPAIR_BATCHES random batches."""
    ds = random_batches(model, batch)
    goals = measure_stats(model, ds, batch_size=batch)
    return [median_ms(lambda: repair(model, goals, ds, sequential=seq, batch_size=batch),
                      repeats) for seq in (True, False)]


def probe_ms(model, batch, repeats):
    """[rows only, with Fisher] channel_probe ms on REPAIR_BATCHES random batches."""
    ds = random_batches(model, batch)
    return [median_ms(lambda: channel_probe(model, ds, batch_size=batch, with_fisher=fisher),
                      repeats) for fisher in (False, True)]


def step_ms(hidden, batch, repeats):
    """[fwd, bwd, update] ms of one training step of a 784-input MLP."""
    model = mlp(hidden)
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
    a, b = mlp(hidden, 0), mlp(hidden, 1)
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
    a, b = mlp([256] * 3, 0), mlp([256] * 3, 1)
    return [(mode, seq, median_ms(lambda: eval_curve(a, b, tr, test_ds=te, mode=mode,
                                                     sequential=seq), repeats))
            for mode, seq in CURVES]


def kernel_tables(out, batches, repeats):
    model = convnet()
    out.show("# layer", "kind", "input", "batch", "fwd", "bwd", "fisher", "dx", "dw")
    for batch in batches:
        totals = [0.0, 0.0]
        for spec, shape, row in layer_rows(model, batch, repeats):
            totals = [t + r for t, r in zip(totals, row)]
            out.show(spec.name, spec.kind, "x".join(map(str, shape)), batch, *row)
        out.show("total", "", "", batch, *totals)
    out.show("# repair", "batches", "batch", "sequential", "single")
    for batch in batches:
        out.show("repair", REPAIR_BATCHES, batch, *repair_ms(model, batch, repeats))
    out.show("# probe", "net", "batch", "rows", "fisher")
    for name, net in (("convnet", model), ("3x256", mlp([256] * 3))):
        for batch in batches:
            out.show("probe", name, batch, *probe_ms(net, batch, repeats))
    out.show("# step", "net", "batch", "fwd", "bwd", "update")
    for name, hidden in STEP_NETS.items():
        for batch in batches:
            out.show("step", name, batch, *step_ms(hidden, batch, repeats))
    out.show("# score", "net", "bound", "units", "ms")
    for name, hidden in SCORE_NETS.items():
        for bid, units, ms in score_rows(hidden, repeats):
            out.show("score", name, bid, units, ms)
    out.show("# curve", "mode", "seq", "ms")
    for mode, seq, ms in curve_rows(repeats):
        out.show("curve", mode, "yes" if seq else "no", ms)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="*", default=[64, 128, 256, 512, 1024])
    ap.add_argument("--batches", type=int, nargs="*", default=[32, 256, 512])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the environment and every table to PATH")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    env = _run_env()
    print(json.dumps(env))
    print(f"# median of {args.repeats} calls, ms", flush=True)
    out = Tables()
    if args.sizes:
        lap_table(out, args.sizes, args.repeats)
    if args.batches:
        kernel_tables(out, args.batches, args.repeats)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"env": env, "repeats": args.repeats, "tables": out}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
