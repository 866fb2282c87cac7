"""Time `solve_lap` against matrix size on random and degenerate costs.

For each n and cost kind it prints the median wall time of three solves of
one matrix, with `scipy.optimize.linear_sum_assignment` alongside when scipy
is installed (scipy is never a dependency of the library). The kinds are
uniform random costs, the all-zero cost, a rank-1 cost outer(a, b) of
uniform vectors (the last two are the degenerate shapes dead units produce),
and `corr`, a correlation cost like the ones `activation_match` maximizes:
two ReLU activation sets driven by one shared latent, some of whose units
never fire and get zero rows and columns. Every cost is generated here from
a seed, so nothing is downloaded.

    python3 scripts/bench_lap.py [--sizes 64 128 256 512 1024]
"""
import argparse
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rebasin.lap import solve_lap
from rebasin.ops import DEAD_STD

try:
    from scipy.optimize import linear_sum_assignment
except ImportError:
    linear_sum_assignment = None

REPEATS = 3
CORR_SAMPLES = 1024
CORR_DEAD_FRAC = 0.08   # share of each set's units that never fire


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
    """(kind, cost, maximize) triples."""
    rng = np.random.default_rng(seed)
    yield "random", rng.random((n, n)), False
    yield "zero", np.zeros((n, n)), False
    yield "rank1", np.outer(rng.random(n), rng.random(n)), False
    yield "corr", corr_cost(n, rng), True


def median_ms(fn, cost):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(cost)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512, 1024])
    args = ap.parse_args()

    print(f"# {os.cpu_count()} cores, python {platform.python_version()}, "
          f"numpy {np.__version__}, median of {REPEATS} solves, ms")
    header = f"{'kind':<8}{'n':>6}{'solve_lap':>12}"
    if linear_sum_assignment is not None:
        header += f"{'scipy':>10}"
    print(header)
    for n in args.sizes:
        for kind, cost, maximize in costs(n):
            sense = "maximize" if maximize else "minimize"
            ms = median_ms(lambda c: solve_lap(c, sense=sense), cost)
            row = f"{kind:<8}{n:>6}{ms:>12.1f}"
            if linear_sum_assignment is not None:
                ms = median_ms(lambda c: linear_sum_assignment(c, maximize=maximize), cost)
                row += f"{ms:>10.1f}"
            print(row, flush=True)


if __name__ == "__main__":
    main()
