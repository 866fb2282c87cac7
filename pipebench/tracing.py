"""Spans around every public function of the rebasin modules, for traced runs.

`installed(tracer)` wraps each public function defined in a rebasin module
and rebinds every module attribute that holds it, so names imported with
`from .x import y` (match binds solve_lap, renorm binds evaluate, cli binds
most of the API) are traced too. Spans hold name, start, end and parent; they
stay in memory until `write_jsonl` at the end of the run.

Code that calls rebasin through its own `from rebasin.x import y` bindings
bypasses the wrappers, so the workloads call through module attributes.
"""
import contextlib
import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("data", "model", "ops", "train", "lap", "match", "renorm", "prune",
           "probes", "checkpoint", "cli")

OPS_KERNELS = ("dense_fwd", "dense_bwd", "conv2d_fwd", "conv2d_bwd", "im2col",
               "col2im", "maxpool_fwd", "maxpool_bwd", "batchnorm_fwd",
               "batchnorm_bwd")
CLI_COMMANDS = ("train", "match", "interp", "renorm", "merge", "probe", "prune")
DEAD_UNIT_MARKERS = ("zero variance", "dead channels")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.info = parent, None

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = True

    def reset(self):
        self.spans, self._stack = [], []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, fn, info=None, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(label(args) if label else name, 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "info": s.info}) + "\n")


# ---------------------------------------------------------------- span payloads
# Each returns what a per-layer metric needs from one call; shapes give
# computed (not measured) floating-point operation counts.

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _dense_fwd_flop(args, kwargs, out):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
    return 2 * x.shape[0] * w.shape[0] * w.shape[1]


def _dense_bwd_flop(args, kwargs, out):
    return 2 * _dense_fwd_flop(args, kwargs, out)


def _conv2d_bwd_flop(args, kwargs, out):
    cols, w = _arg(args, kwargs, 0, "cols"), _arg(args, kwargs, 2, "w")
    n, p, k = cols.shape
    return 4 * n * p * k * w.shape[0]     # dw and dcols products


INFO = {
    "lap.solve_lap": lambda a, k, out: int(np.shape(_arg(a, k, 0, "cost"))[0]),
    "match.weight_match": lambda a, k, out: out[1].sweeps,
    "train.train": lambda a, k, out: len(out[1].losses),
    "checkpoint.save_checkpoint":
        lambda a, k, out: os.path.getsize(_arg(a, k, 1, "path")),
    "cli.main": lambda a, k, out: int(out),
    "ops.dense_fwd": _dense_fwd_flop,
    "ops.dense_bwd": _dense_bwd_flop,
    "ops.conv2d_bwd": _conv2d_bwd_flop,
}


def _cli_label(args):
    argv = args[0] if args else None
    return f"cli.main:{argv[0]}" if argv else "cli.main"


@contextlib.contextmanager
def installed(tracer):
    """Route every public rebasin function through `tracer` until exit."""
    mods = [importlib.import_module(f"rebasin.{m}") for m in MODULES]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                qual = f"{short}.{name}"
                wrapped[obj] = tracer.wrap(
                    qual, obj, info=INFO.get(qual),
                    label=_cli_label if qual == "cli.main" else None)
    rebound = []
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
                rebound.append((mod, name, obj))
    try:
        yield len(rebound)
    finally:
        for mod, name, obj in rebound:
            setattr(mod, name, obj)


# ---------------------------------------------------------------- per-layer metrics

def _per_call(durations_s):
    """(median ms, tail ms, tail percentile): the tail is the highest
    percentile with at least ten calls beyond it, 0 when there are too few."""
    if not durations_s:
        return 0.0, 0.0, 0.0
    v = sorted(d * 1e3 for d in durations_s)
    n = len(v)
    med = float(np.median(v))
    if n <= 10:
        return med, 0.0, 0.0
    return med, v[n - 11], 100.0 * (n - 10) / n


def rep_layer_metrics(spans, dead_unit_warnings):
    """Per-layer metrics of one traced pipeline repetition."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    self_time = [s.dur - sum(spans[c].dur for c in children[i])
                 for i, s in enumerate(spans)]

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield spans[p].name
            p = spans[p].parent

    def pick(*names, outermost=True):
        names = set(names)
        return [i for i, s in enumerate(spans) if s.name in names
                and not (outermost and names & set(ancestors(i)))]

    def busy(*names):
        return sum(spans[i].dur for i in pick(*names))

    def calls(*names):
        return len(pick(*names, outermost=False))

    def info_sum(name):
        return sum(spans[i].info or 0 for i in pick(name, outermost=False))

    m = {}
    solves = pick("lap.solve_lap", outermost=False)
    m["lap.solve_calls"] = len(solves)
    m["lap.solve_s"] = sum(spans[i].dur for i in solves)
    m["lap.solve_n_median"] = (float(np.median([spans[i].info for i in solves]))
                               if solves else 0.0)

    wm_s = busy("match.weight_match")
    wm_lap = sum(spans[i].dur for i in solves
                 if "match.weight_match" in set(ancestors(i)))
    m["match.weight_match_s"] = wm_s
    m["match.activation_match_s"] = busy("match.activation_match")
    m["match.self_s"] = sum(self_time[i] for i, s in enumerate(spans)
                            if s.name.startswith("match."))
    m["match.sweeps"] = info_sum("match.weight_match")
    m["match.apply_perm_calls"] = calls("match.apply_perm")
    m["match.apply_perm_s"] = busy("match.apply_perm")
    m["match.lap_share"] = wm_lap / wm_s if wm_s else 0.0

    m["probes.l2_distance_calls"] = calls("probes.l2_distance")
    m["probes.l2_distance_s"] = busy("probes.l2_distance")
    m["probes.channel_probe_s"] = busy("probes.channel_probe")

    fwd = pick("model.forward")
    m["model.forward_calls"] = calls("model.forward")
    m["model.forward_s"] = sum(spans[i].dur for i in fwd)
    m["model.forward_self_s"] = sum(self_time[i] for i in fwd)
    m["model.wiring_calls"] = calls("model.wiring")
    m["model.wiring_s"] = busy("model.wiring")

    for k in OPS_KERNELS:
        m[f"ops.{k}_calls"] = calls(f"ops.{k}")
        m[f"ops.{k}_s"] = busy(f"ops.{k}")
    m["ops.conv2d_bwd_gflop"] = info_sum("ops.conv2d_bwd") / 1e9
    m["ops.dense_gflop"] = (info_sum("ops.dense_fwd")
                            + info_sum("ops.dense_bwd")) / 1e9

    m["train.iters"] = info_sum("train.train")
    m["train.evaluate_calls"] = calls("train.evaluate")
    m["train.evaluate_s"] = busy("train.evaluate")

    m["renorm.measure_stats_calls"] = calls("renorm.measure_stats")
    m["renorm.measure_stats_s"] = busy("renorm.measure_stats")
    m["renorm.repair_s"] = busy("renorm.repair")
    m["renorm.reset_bn_s"] = busy("renorm.reset_bn")
    m["renorm.interpolate_s"] = busy("renorm.interpolate")

    m["prune.score_s"] = busy("prune.score")
    m["prune.mask_s"] = busy("prune.mask_from_scores", "prune.apply_mask")
    m["prune.post_prune_repair_s"] = busy("prune.post_prune_repair")

    synth = pick("data.synth_blobs", "data.synth_embedded")
    m["data.synth_calls"] = len(synth)
    m["data.synth_s"] = sum(spans[i].dur for i in synth)

    m["checkpoint.save_calls"] = calls("checkpoint.save_checkpoint")
    m["checkpoint.save_s"] = busy("checkpoint.save_checkpoint")
    m["checkpoint.load_calls"] = calls("checkpoint.load_checkpoint")
    m["checkpoint.load_s"] = busy("checkpoint.load_checkpoint")
    m["checkpoint.bytes_written"] = info_sum("checkpoint.save_checkpoint")

    cli_spans = [i for i, s in enumerate(spans) if s.name.startswith("cli.main")]
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = busy(f"cli.main:{c}")
    m["cli.self_s"] = sum(self_time[i] for i in cli_spans)
    m["cli.nonzero_exits"] = sum(1 for i in cli_spans if spans[i].info)

    m["warnings.dead_units"] = dead_unit_warnings
    return m


def step_durations(spans):
    """Per-iteration training step times: gaps between successive
    train.lr_at calls inside one train.train span, minus the epoch-end
    evaluation that falls between them."""
    out = []
    by_train = {}
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name == "train.train":
            by_train.setdefault(s.parent, []).append(s)
    for kids in by_train.values():
        marks = [s.start for s in kids if s.name == "train.lr_at"]
        evals = [s for s in kids if s.name == "train.evaluate"]
        for lo, hi in zip(marks, marks[1:]):
            out.append(hi - lo - sum(e.dur for e in evals if lo <= e.start < hi))
    return out


def per_call_metrics(spans_by_rep):
    """Median and tail per-call times, pooled over traced repetitions."""
    solves, steps = [], []
    for spans in spans_by_rep:
        solves += [s.dur for s in spans if s.name == "lap.solve_lap"]
        steps += step_durations(spans)
    m = {}
    for key, vals in (("lap.solve", solves), ("train.step", steps)):
        med, tail, pct = _per_call(vals)
        m[f"{key}_ms_p50"] = med
        m[f"{key}_ms_tail"] = tail
        m[f"{key}_tail_pct"] = pct
        m[f"{key}_samples"] = len(vals)
    return m
