"""Time `solve_lap` against matrix size on random and degenerate costs.

For each n and cost kind it prints the median wall time of three solves of
one matrix, with `scipy.optimize.linear_sum_assignment` alongside when scipy
is installed (scipy is never a dependency of the library). The kinds are
uniform random costs, the all-zero cost, and a rank-1 cost outer(a, b) of
uniform vectors; the last two are the degenerate shapes dead units produce.

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

try:
    from scipy.optimize import linear_sum_assignment
except ImportError:
    linear_sum_assignment = None

REPEATS = 3


def costs(n, seed=0):
    rng = np.random.default_rng(seed)
    yield "random", rng.random((n, n))
    yield "zero", np.zeros((n, n))
    yield "rank1", np.outer(rng.random(n), rng.random(n))


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
        for kind, cost in costs(n):
            row = f"{kind:<8}{n:>6}{median_ms(solve_lap, cost):>12.1f}"
            if linear_sum_assignment is not None:
                row += f"{median_ms(linear_sum_assignment, cost):>10.1f}"
            print(row, flush=True)


if __name__ == "__main__":
    main()
