"""Linear interpolation between models, barrier curves over the segment, and
the family of re-normalization repairs for interpolated or pruned networks.

Channel statistics are always pre-activation (after any normalization layers
at the boundary), per output channel, averaged over batch and, for conv maps,
spatial positions.  All statistics mathematics runs in float64; corrections
are stored as float32 model parameters.
"""
import csv
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _atomic_write
from .model import (PRE, WEIGHT_KINDS, LayerSpec, _check_batch, _check_finite,
                    _check_same_arch, _fed, _layer_fwd, _walk, forward, wiring)
from .ops import DEAD_STD, Moments
from .train import _eval_batches, evaluate

REPAIR_MODES = ("repair", "rescale", "rescale_avg", "reshift")
RENORM_MODES = ("none", "reset") + REPAIR_MODES
_DEAD_EPS = 1e-5   # substituted in place of a dead channel's std


@dataclass
class ChannelStats:
    means: dict          # boundary id -> float64 vector
    stds: dict           # boundary id -> float64 vector
    batch_count: int
    phase: str = PRE

    def to_jsonable(self):
        return {
            "phase": self.phase,
            "batch_count": self.batch_count,
            "boundaries": {bid: {"mean": [float(v) for v in self.means[bid]],
                                 "std": [float(v) for v in self.stds[bid]]}
                           for bid in self.means},
        }

    @classmethod
    def from_jsonable(cls, d):
        means = {bid: np.asarray(e["mean"], dtype=np.float64)
                 for bid, e in d["boundaries"].items()}
        stds = {bid: np.asarray(e["std"], dtype=np.float64)
                for bid, e in d["boundaries"].items()}
        return cls(means=means, stds=stds, batch_count=int(d["batch_count"]),
                   phase=d["phase"])


@dataclass
class CurveReport:
    lams: list
    mode: str
    sequential: bool
    train_loss: list
    train_acc: list
    test_loss: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    barriers: dict = field(default_factory=dict)

    def write_csv(self, path):
        with _atomic_write(path) as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "train_loss", "train_acc", "test_loss", "test_acc"])
            for i, lam in enumerate(self.lams):
                row = [lam, self.train_loss[i], self.train_acc[i]]
                row += ([self.test_loss[i], self.test_acc[i]]
                        if self.test_loss else ["", ""])
                w.writerow(row)

    def summary(self):
        return {"mode": self.mode, "sequential": self.sequential,
                "points": len(self.lams), "barriers": dict(self.barriers)}


# ---------------------------------------------------------------- interpolation

def _lerp(a, b, lam):
    """(1-lam)*a + lam*b computed in float64 and cast back to a's dtype."""
    out = a.astype(np.float64)
    out *= 1.0 - lam
    part = b.astype(np.float64)
    part *= lam
    out += part
    return out.astype(a.dtype)


def interpolate(model_a, model_b, lam):
    """Convex combination (1-lam)*a + lam*b of every tensor, running
    statistics included (variances combine elementwise like everything else).

    lam is a scalar in [0, 1], or a dict mapping parameter names to
    per-coordinate lambda arrays for masked/partial combinations; missing
    names stay at model_a's values.
    """
    _check_same_arch(model_a, model_b)
    if isinstance(lam, dict):
        unknown = set(lam) - set(model_a.params)
        if unknown:
            raise ValueError(f"unknown parameter names in lambda map: {sorted(unknown)}")
        out = model_a.copy()
        for k, l in lam.items():
            l = np.asarray(l, dtype=np.float64)
            if np.any(l < 0) or np.any(l > 1):
                raise ValueError(f"lambda for {k} outside [0, 1]")
            out.params[k] = _lerp(model_a.params[k], model_b.params[k], l)
        return out
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return model_a.copy()
    if lam == 1.0:
        return model_b.copy()
    out = model_a.copy()
    for k in out.params:
        out.params[k] = _lerp(model_a.params[k], model_b.params[k], lam)
    return out


# ---------------------------------------------------------------- statistics

def _channel_rows(v):
    """A boundary activation as (samples, channels) rows: a conv map's
    spatial positions count as samples."""
    if v.ndim == 4:
        return v.transpose(0, 2, 3, 1).reshape(-1, v.shape[1])
    return v


def _stat_batches(dataset, batch_size, max_batches):
    """The input batches every statistics pass reads, in order."""
    return (xb for xb, _ in itertools.islice(
        dataset.batches(batch_size, shuffle=False, drop_last=True), max_batches))


def measure_stats(model, dataset, batch_size=256, boundaries=None, phase=PRE,
                  max_batches=None, _feed=None):
    """Per-channel mean and std of boundary activations over the dataset.

    One pass in deterministic batch order over equal-size batches (remainder
    dropped); conv maps count every spatial position as a sample. Batches
    merge through a float64 Moments accumulator, so the result matches a
    two-pass computation over the same batches to rounding. _feed stands
    activations in for the batches' first layers (see model._fed).
    """
    bids = list(boundaries) if boundaries is not None else \
        [bid for bid, _ in model.boundary_map]
    taps = [(bid, phase) for bid in bids]
    moments = {bid: Moments() for bid in bids}
    nb = 0
    for k, xb in enumerate(_stat_batches(dataset, batch_size, max_batches)):
        start, x = _fed(_feed, k, xb)
        _, tap_vals = forward(model, x, taps=taps, _start=start)
        for tap in tap_vals:
            moments[tap.boundary_id].add(_channel_rows(tap.value))
        nb += 1
    if nb == 0:
        raise ValueError("dataset smaller than one batch")
    return ChannelStats(means={bid: moments[bid].mean for bid in bids},
                        stds={bid: moments[bid].std for bid in bids},
                        batch_count=nb, phase=phase)


def mix_stats(stats_a, stats_b, lam):
    """Convex combination of two ChannelStats; stds combine linearly."""
    if set(stats_a.means) != set(stats_b.means):
        raise ValueError("statistics cover different boundaries")
    lam = float(lam)
    means = {bid: (1 - lam) * stats_a.means[bid] + lam * stats_b.means[bid]
             for bid in stats_a.means}
    stds = {bid: (1 - lam) * stats_a.stds[bid] + lam * stats_b.stds[bid]
            for bid in stats_a.stds}
    return ChannelStats(means=means, stds=stds,
                        batch_count=min(stats_a.batch_count, stats_b.batch_count),
                        phase=stats_a.phase)


def goal_stats(model_a, model_b, lam, dataset, batch_size=256):
    """Target statistics for the lam-interpolated model: the convex
    combination of the end models' measured pre-activation stats."""
    sa = measure_stats(model_a, dataset, batch_size=batch_size)
    sb = measure_stats(model_b, dataset, batch_size=batch_size)
    return mix_stats(sa, sb, lam)


def tracked_stats(model):
    """ChannelStats built from statistics tracked during training
    (stats.<bid>.mean / stats.<bid>.var tensors)."""
    means, stds = {}, {}
    for bid, _ in model.boundary_map:
        mkey, vkey = f"stats.{bid}.mean", f"stats.{bid}.var"
        if mkey not in model.params or vkey not in model.params:
            raise ValueError(f"no tracked statistics for boundary {bid}")
        means[bid] = model.params[mkey].astype(np.float64)
        stds[bid] = np.sqrt(np.maximum(model.params[vkey].astype(np.float64), 0.0))
    return ChannelStats(means=means, stds=stds, batch_count=1, phase=PRE)


# ---------------------------------------------------------------- reset

def reset_bn(model, dataset, batch_size=256, max_batches=None, _feed=None):
    """Re-accumulate batchnorm running statistics from scratch.

    Statistics reset to 0/1, then one deterministic train-mode pass stores
    the equal-weight average of per-batch means and per-batch unbiased
    variances.  No-op (with a warning) when the model has no batchnorm.
    _feed stands activations in for the batches' first layers (see
    model._fed).
    """
    out = model.copy()
    bn_names = [s.name for s in out.layers if s.kind == "batchnorm"]
    if not bn_names:
        warnings.warn("no batchnorm layers to reset; returning the model unchanged")
        return out
    for name in bn_names:
        out.params[f"{name}.running_mean"][:] = 0.0
        out.params[f"{name}.running_var"][:] = 1.0
    sink = {}
    nb = 0
    for k, xb in enumerate(_stat_batches(dataset, batch_size, max_batches)):
        start, x = _fed(_feed, k, xb)
        forward(out, x, mode="train", update_stats=False, collect_norm_stats=sink,
                _start=start)
        nb += 1
    if nb == 0:
        raise ValueError("dataset smaller than one batch")
    for name in bn_names:
        pairs = sink[name]
        mean = np.mean([m for m, _ in pairs], axis=0)
        var = np.mean([v for _, v in pairs], axis=0)
        out.params[f"{name}.running_mean"] = mean.astype(np.float32)
        out.params[f"{name}.running_var"] = var.astype(np.float32)
    return out


# ---------------------------------------------------------------- corrections

def _next_name(model, prefix):
    taken = {s.name for s in model.layers}
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def _insert_after_pre_tap(model, bid, spec, tensors):
    """Insert a correction layer at the end of bid's pre-activation chain;
    returns its layer index."""
    pos = wiring(model)[bid].pre_tap + 1
    spec.boundary = bid
    model.layers.insert(pos, spec)
    model.params.update(tensors)
    return pos


def _correction(mode, mu, sigma, goal_mean, goal_std):
    dead = sigma <= DEAD_STD
    if dead.any() and mode != "reshift":
        warnings.warn(f"{int(dead.sum())} dead channels (zero std); "
                      f"substituting eps={_DEAD_EPS}")
        sigma = np.where(dead, _DEAD_EPS, sigma)
    if mode == "repair":
        s = goal_std / sigma
        t = goal_mean - mu * s
    elif mode == "rescale":
        s = goal_std / sigma
        t = np.zeros_like(mu)
    elif mode == "rescale_avg":
        s = float(np.mean(goal_std)) / sigma
        t = np.zeros_like(mu)
    else:  # reshift
        s = np.ones_like(mu)
        t = goal_mean - mu
    return s, t


def _eval_walk(model, x, start=0, stop=None):
    """x walked through layers [start, stop) as an eval forward walks them;
    from layer 0, x is checked as a batch of the model's inputs."""
    if not start:
        x = _check_batch(model, x)
    return _walk(model, x, batch_stats=None, update_stats=False, track=False,
                 start=start, stop=stop)[0]


def repair(model, goals, dataset, mode="repair", sequential=False,
           batch_size=256, max_batches=None, _feed=None):
    """Attach per-channel affine corrections so every hidden boundary's
    pre-activation statistics move toward the goal statistics.

    repair: (x - mu)/sigma * goal_std + goal_mean; rescale: x/sigma * goal_std;
    rescale_avg: rescale with the per-boundary scalar mean of goal_std;
    reshift: x - mu + goal_mean.  (mu, sigma) are measured as measure_stats
    measures them, on the first max_batches batches (all by default).

    One pass measures every boundary before any correction.  sequential
    measures each boundary after correcting the ones before it, still in one
    pass over the data: it keeps every batch's activation at the last
    corrected boundary and resumes the walk there, so it holds one
    boundary's activations over max_batches batches at a time.  Its last
    walk, to the logits, checks every layer of the result for non-finite
    values. _feed stands activations in for the batches' first layers (see
    model._fed).
    """
    if mode not in REPAIR_MODES:
        raise ValueError(f"unknown repair mode {mode!r}")
    bids = [bid for bid, _ in model.boundary_map]
    missing = [bid for bid in bids
               if bid not in goals.means or bid not in goals.stds]
    if missing:
        raise ValueError(f"goals missing boundaries: {missing}")
    out = model.copy()
    units = dict(out.boundary_map)
    if sequential:
        acts = None
    else:
        current = measure_stats(out, dataset, batch_size=batch_size,
                                max_batches=max_batches, _feed=_feed)
    for bid in bids:     # boundary_map lists boundaries in producer order
        if sequential:
            stop = wiring(out)[bid].pre_tap + 1
            if acts is None:     # stream the inputs, keep bid's activations
                acts = []
                for k, xb in enumerate(_stat_batches(dataset, batch_size, max_batches)):
                    fed, x = _fed(_feed, k, xb)
                    acts.append(_eval_walk(out, x, fed, stop))
                if not acts:
                    raise ValueError("dataset smaller than one batch")
            else:        # resume at the last correction, in place
                for k, v in enumerate(acts):
                    acts[k] = _eval_walk(out, v, start, stop)
            moments = Moments()
            for v in acts:
                moments.add(_channel_rows(v))
            mu, sigma = moments.mean, moments.std
        else:
            mu, sigma = current.means[bid], current.stds[bid]
        s, t = _correction(mode, mu, sigma, goals.means[bid], goals.stds[bid])
        name = _next_name(out, "affine")
        spec = LayerSpec(kind="channel_affine", name=name, channels=units[bid])
        start = _insert_after_pre_tap(out, bid, spec, {
            f"{name}.scale": s.astype(np.float32),
            f"{name}.shift": t.astype(np.float32),
        })
    if sequential and bids:     # on to the logits: every layer sees the data
        for v in acts:
            _eval_walk(out, v, start)
    return out


def data_independent_correct(model, recorded_goals):
    """Correct boundary statistics without a statistics pass: insert
    batchnorm layers that normalize with each evaluation batch's own
    statistics and re-color to the recorded goal mean/std.

    The corrected model needs batches of more than one sample to evaluate.
    """
    bids = [bid for bid, _ in model.boundary_map]
    missing = [bid for bid in bids if bid not in recorded_goals.means
               or bid not in recorded_goals.stds]
    if missing:
        raise ValueError(f"recorded goals missing boundaries: {missing}")
    out = model.copy()
    units = dict(out.boundary_map)
    for bid in bids:
        name = _next_name(out, "bn")
        spec = LayerSpec(kind="batchnorm", name=name, channels=units[bid],
                         eps=1e-5, momentum=0.1, affine=True,
                         batch_stats_in_eval=True)
        _insert_after_pre_tap(out, bid, spec, {
            f"{name}.gamma": recorded_goals.stds[bid].astype(np.float32),
            f"{name}.beta": recorded_goals.means[bid].astype(np.float32),
            f"{name}.running_mean": np.zeros(units[bid], dtype=np.float32),
            f"{name}.running_var": np.ones(units[bid], dtype=np.float32),
        })
    return out


# ---------------------------------------------------------------- barrier curve

def _barrier(lams, vals, higher_is_worse):
    v0, v1 = vals[0], vals[-1]
    worst = 0.0
    for lam, v in zip(lams, vals):
        base = v0 + lam * (v1 - v0)
        gap = (v - base) if higher_is_worse else (base - v)
        worst = max(worst, gap)
    return worst


class _SharedPrefix:
    """A curve's prefix, layers [0, start), and both endpoints' outputs of it
    on the batches of each pass the curve makes. The prefix ends at the first
    weight layer when that layer is dense; its output is then affine in lam,
    so each grid point mixes the endpoints' outputs instead of running it.
    When the first weight layer is a conv, start is 0 and nothing is shared.

    passes maps a pass's name to a function yielding its input batches, as
    the function the pass feeds reads them.
    """

    def __init__(self, model_a, model_b, passes):
        first = next(i for i, s in enumerate(model_a.layers) if s.kind in WEIGHT_KINDS)
        self.spec = model_a.layers[first]
        self.start = first + 1 if self.spec.kind == "dense" else 0
        self.models = (model_a, model_b)
        self.passes = passes
        self._ends = {}     # pass -> [(a's output, b's output) per batch]

    def feed(self, name, lam):
        """The feed (see model._fed) of pass name's batches at lam; None when
        the prefix is empty."""
        if not self.start:
            return None
        return self.start, functools.partial(self._output, name, lam)

    def _output(self, name, lam, k):
        """Batch k's prefix output at lam: an endpoint's own at 0 and 1, else
        the two mixed as interpolate mixes tensors, checked as an eval walk
        checks the prefix's last layer. A pass's endpoint outputs are
        computed when it first reads one."""
        if name not in self._ends:
            self._ends[name] = [self._endpoint_outputs(x) for x in self.passes[name]()]
        ha, hb = self._ends[name][k]
        h = ha if lam == 0.0 else hb if lam == 1.0 else _lerp(ha, hb, lam)
        _check_finite(self.spec.name, h)
        return h

    def _endpoint_outputs(self, x):
        u = _eval_walk(self.models[0], x, stop=self.start - 1)   # no parameters
        return tuple(_layer_fwd(self.spec, m.params, u, False, False, None)[0]
                     for m in self.models)


def eval_curve(model_a, model_b, train_ds, test_ds=None, grid=None, quick=False,
               mode="none", sequential=False, batch_size=512,
               stats_batch_size=256):
    """Loss/accuracy along the linear path between two models.

    The default grid is 11 uniform points; quick mode evaluates {0, 0.5, 1}.
    mode selects the per-point re-normalization; repair-family goals are the
    lam-mix of statistics measured once at each endpoint.  The barrier is the
    worst gap to the linear baseline between the endpoints (for accuracy, the
    worst shortfall).

    Grid points share the endpoints' first-dense-layer outputs: each pass
    computes both endpoints' outputs of the layers up to the first dense one
    once per batch, and each point walks on from their lam-mix. Interior
    points therefore match evaluate(interpolate(a, b, lam)) (and its reset
    or repaired model) to float32 rounding, while the endpoints stay bitwise
    equal to it. A model whose first weight layer is a conv takes the
    unshared path.
    """
    if mode not in RENORM_MODES:
        raise ValueError(f"mode must be one of {RENORM_MODES}")
    if quick:
        grid = [0.0, 0.5, 1.0]
    elif grid is None:
        grid = np.linspace(0.0, 1.0, 11)
    lams = sorted(float(l) for l in grid)
    if any(l < 0 or l > 1 for l in lams):
        raise ValueError("grid values must lie in [0, 1]")
    if lams[0] != 0.0 or lams[-1] != 1.0:
        raise ValueError("grid must include both endpoints 0 and 1")
    _check_same_arch(model_a, model_b)

    prefix = _SharedPrefix(model_a, model_b, {
        "train": lambda: (x for x, _ in _eval_batches(train_ds, batch_size)),
        "test": lambda: (x for x, _ in _eval_batches(test_ds, batch_size)),
        "stats": lambda: _stat_batches(train_ds, stats_batch_size, None),
    })
    goals_end = None
    if mode in REPAIR_MODES:
        goals_end = tuple(measure_stats(m, train_ds, batch_size=stats_batch_size,
                                        _feed=prefix.feed("stats", lam))
                          for m, lam in ((model_a, 0.0), (model_b, 1.0)))

    def eval_point(lam):
        m = interpolate(model_a, model_b, lam)
        if mode == "reset":
            m = reset_bn(m, train_ds, batch_size=stats_batch_size,
                         _feed=prefix.feed("stats", lam))
        elif goals_end is not None:
            goals = mix_stats(goals_end[0], goals_end[1], lam)
            m = repair(m, goals, train_ds, mode=mode, sequential=sequential,
                       batch_size=stats_batch_size, _feed=prefix.feed("stats", lam))
        row = evaluate(m, train_ds, batch_size=batch_size,
                       _feed=prefix.feed("train", lam))
        if test_ds is not None:
            row += evaluate(m, test_ds, batch_size=batch_size,
                            _feed=prefix.feed("test", lam))
        return row

    rows = [eval_point(lam) for lam in lams]

    rep = CurveReport(
        lams=lams, mode=mode, sequential=sequential,
        train_loss=[r[0] for r in rows], train_acc=[r[1] for r in rows],
        test_loss=[r[2] for r in rows] if test_ds is not None else [],
        test_acc=[r[3] for r in rows] if test_ds is not None else [],
    )
    rep.barriers = {
        "train_loss": _barrier(lams, rep.train_loss, higher_is_worse=True),
        "train_acc": _barrier(lams, rep.train_acc, higher_is_worse=False),
    }
    if test_ds is not None:
        rep.barriers["test_loss"] = _barrier(lams, rep.test_loss, True)
        rep.barriers["test_acc"] = _barrier(lams, rep.test_acc, False)
    return rep
