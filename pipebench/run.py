"""Pipeline benchmark for rebasin.

    python3 pipebench/run.py --workload pair_tour --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports rebasin from its `src/`.
Prints the environment, every metric as `name value unit`, and, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics of
a traced run. See pipebench/README.md.
"""
import argparse
import os
import sys

# Count metrics (LAP solves, sweeps) depend on the BLAS thread count, so it is
# fixed before NumPy loads. One thread keeps them equal on every machine.
BLAS_THREADS = 1


def _pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # eval_curve's grid thread pool; one thread keeps spans strictly nested
    os.environ["REBASIN_THREADS"] = "1"


def _import_rebasin(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rebasin", "__init__.py")):
        raise ImportError(f"no rebasin sources under {src}")
    sys.path.insert(0, src)
    import rebasin
    if os.path.dirname(os.path.dirname(os.path.abspath(rebasin.__file__))) != src:
        raise ImportError(f"rebasin imported from {rebasin.__file__}, not {src}")
    from rebasin import cli  # noqa: F401  (loads every module before timing)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy runs every stage on tiny inputs (self-tests)")
    args = ap.parse_args(argv)

    _pin_threads()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        _import_rebasin(root)
    except ImportError as e:
        print(f"pipebench: {e}", file=sys.stderr)
        return 2
    import json
    import math

    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    log = lambda msg: print(msg, file=sys.stderr)
    env = harness.environment(root, args.seed, BLAS_THREADS)
    print(json.dumps({"env": env}, sort_keys=True))
    size = workloads.SIZES[args.workload][args.size]
    session = harness.Session(root, args.workload, size, log)
    try:
        if args.trace:
            metrics, reps = harness.per_layer(session, args.seed, args.seconds)
            extra = {}
        else:
            metrics, extra, reps = harness.end_to_end(
                session, args.seed, args.seconds, root)
    finally:
        session.close()

    checks = session.checks
    checks.expect("all metrics finite",
                  lambda: all(math.isfinite(v) for v in metrics.values()))
    for r in reps:
        print("rep " + json.dumps({"seed": r.seed, "wall_s": r.wall,
                                   "setup_s": r.setup_times, "stages_s": r.stages,
                                   "values": r.values}))
    for name, value in {**metrics, **extra}.items():
        print(f"{name} {value!r} {harness.unit_of(name)}")
    failed = len(checks.failures)
    print(f"failed_frac {failed / checks.attempted!r} fraction")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": harness.unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
