"""Runs a workload's repetitions for a fixed time and turns them into the
end-to-end metrics (untraced run) or the per-layer metrics (traced run)."""
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np

import tracing
import workloads

E2E_STAGES = {"train_s": "train", "align_s": "align", "curve_s": "curve",
              "probe_s": "probe"}
# Stages only some workloads run; printed for reading, not in the JSON line,
# because every workload reports the same end-to-end metric set.
PARTIAL_STAGES = {"merge_s": "merge", "prune_s": "prune",
                  "checkpoint_s": "checkpoint"}


def unit_of(name):
    if name.endswith("_acc") or name.endswith("_share") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith("_gflop"):
        return "computed_GFLOP"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import rebasin.cli; "
                 "print(time.perf_counter() - t)")


IMPORT_SAMPLES = 5


def import_seconds(root, runs=IMPORT_SAMPLES):
    """Median time a fresh interpreter takes to import the library."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root,
                              env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(proc.stdout))
    return _median(times)


def rep_seed(seed, i):
    return seed * 100 + i


def _median(xs):
    return float(np.median(xs)) if xs else float("nan")


def _total(rep):
    return sum(rep.stages.values())


class Session:
    """A run directory for checkpoints and CLI runs, removed at the end."""

    def __init__(self, root, workload, size, log):
        self.workload, self.size = workload, size
        scratch = os.path.join(root, ".pipebench_out")
        os.makedirs(scratch, exist_ok=True)
        self.out_dir = scratch
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.checks = workloads.Checks(log)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def rep(self, seed, quiet=None):
        """Run one repetition; returns it with its wall time and the number
        of dead-unit warnings the library raised."""
        fn = workloads.WORKLOADS[self.workload]
        tmp = tempfile.mkdtemp(prefix="rep-", dir=self.tmp)
        kw = {"quiet": quiet} if quiet else {}
        rep = workloads.Rep(self.checks, tmp, self.size, **kw)
        rep.seed = seed
        t = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                fn(rep, seed)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.checks.expect(f"{self.workload} repetition completes",
                                   lambda: False)
        rep.wall = time.perf_counter() - t
        rep.dead_units = sum(any(m in str(w.message) for m in tracing.DEAD_UNIT_MARKERS)
                             for w in caught)
        shutil.rmtree(tmp, ignore_errors=True)
        return rep


MIN_REPS = 3


def _loop(seconds, started, run_one, min_reps=MIN_REPS):
    """Closed loop: start another repetition while it is expected to end
    inside the measuring window. At least `min_reps`, so one input draw with
    many dead units (slow tie-heavy LAPs, a poor midpoint) cannot set the
    median."""
    reps = []
    while True:
        reps.append(run_one(len(reps)))
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and \
                elapsed + _median([r.wall for r in reps]) > seconds:
            return reps


def end_to_end(session, seed, seconds, root):
    """Medians over the repetitions. setup_s is the median library import of a
    fresh interpreter plus the median of every set-up sample; the imports run
    inside the measuring window."""
    started = time.perf_counter()
    import_s = import_seconds(root)
    reps = _loop(seconds, started, lambda i: session.rep(rep_seed(seed, i)))
    m = {"setup_s": import_s + _median([t for r in reps for t in r.setup_times]),
         "total_s": _median([_total(r) for r in reps])}
    for name, stage in E2E_STAGES.items():
        m[name] = _median([r.stages.get(stage, 0.0) for r in reps])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in ("mid_test_acc", "repaired_test_acc"):
        m[name] = _median([r.values[name] for r in reps if name in r.values])
    extra = {name: _median([r.stages[stage] for r in reps])
             for name, stage in PARTIAL_STAGES.items() if stage in reps[0].stages}
    return m, extra, reps


def per_layer(session, seed, seconds):
    """Untraced and traced repetitions of the same inputs, alternating until
    the window closes (at least one of each). Per-layer metrics are medians
    over the traced ones; the tracing overhead is the difference of the
    median totals, so machine drift hits both sides alike."""
    started = time.perf_counter()
    seed0 = rep_seed(seed, 0)
    tracer = tracing.Tracer()
    rows, spans, plain, traced_totals = [], [], [], []
    wrapped = 0

    def pair(_):
        nonlocal wrapped
        plain.append(session.rep(seed0))
        with tracing.installed(tracer) as wrapped:
            tracer.reset()
            r = session.rep(seed0, quiet=tracer.paused)
        rows.append(tracing.rep_layer_metrics(tracer.spans, r.dead_units))
        spans.append(tracer.spans)
        traced_totals.append(_total(r))
        r.wall += plain[-1].wall
        return r

    reps = _loop(seconds, started, pair, min_reps=1)
    m = {k: _median([row[k] for row in rows]) for k in rows[0]}
    m.update(tracing.per_call_metrics(spans))
    untraced = _median([_total(r) for r in plain])
    m["trace.overhead_s"] = _median(traced_totals) - untraced
    m["trace.overhead_frac"] = m["trace.overhead_s"] / untraced
    m["trace.wrapped_bindings"] = wrapped
    m["trace.reps"] = len(reps)
    for name, stage in PARTIAL_STAGES.items():
        m[f"stage.{name}"] = _median([r.stages.get(stage, 0.0) for r in plain])
    tracer.spans = spans[-1]
    tracer.write_jsonl(os.path.join(
        session.out_dir, f"spans-{session.workload}-{seed}.jsonl"))
    return m, reps


def environment(root, seed, blas_threads):
    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": blas_threads,
            "rebasin_threads": os.environ.get("REBASIN_THREADS"),
            "workload_seed": seed,
            "git_commit": git_commit(root)}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None
