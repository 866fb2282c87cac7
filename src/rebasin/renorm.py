"""Linear interpolation between models, barrier curves over the segment, and
the family of re-normalization repairs for interpolated or pruned networks.

Channel statistics are always pre-activation (after any normalization layers
at the boundary), per output channel, averaged over batch and, for conv maps,
spatial positions.  All statistics mathematics runs in float64; corrections
are stored as float32 model parameters.
"""
import csv
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _atomic_write
from .model import PRE, LayerSpec, _check_same_arch, forward, wiring
from .ops import DEAD_STD, Moments
from .train import evaluate

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
            a64 = model_a.params[k].astype(np.float64)
            b64 = model_b.params[k].astype(np.float64)
            out.params[k] = ((1.0 - l) * a64 + l * b64).astype(model_a.params[k].dtype)
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
        a64 = model_a.params[k].astype(np.float64)
        b64 = model_b.params[k].astype(np.float64)
        out.params[k] = ((1.0 - lam) * a64 + lam * b64).astype(model_a.params[k].dtype)
    return out


# ---------------------------------------------------------------- statistics

def measure_stats(model, dataset, batch_size=256, boundaries=None, phase=PRE,
                  max_batches=None):
    """Per-channel mean and std of boundary activations over the dataset.

    One pass in deterministic batch order over equal-size batches (remainder
    dropped); conv maps count every spatial position as a sample. Batches
    merge through a float64 Moments accumulator, so the result matches a
    two-pass computation over the same batches to rounding.
    """
    bids = list(boundaries) if boundaries is not None else \
        [bid for bid, _ in model.boundary_map]
    taps = [(bid, phase) for bid in bids]
    moments = {bid: Moments() for bid in bids}
    nb = 0
    for xb, _ in itertools.islice(
            dataset.batches(batch_size, shuffle=False, drop_last=True), max_batches):
        _, tap_vals = forward(model, xb, taps=taps)
        for tap in tap_vals:
            v = tap.value
            if v.ndim == 4:
                v = v.transpose(0, 2, 3, 1).reshape(-1, v.shape[1])
            moments[tap.boundary_id].add(v)
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

def reset_bn(model, dataset, batch_size=256, max_batches=None):
    """Re-accumulate batchnorm running statistics from scratch.

    Statistics reset to 0/1, then one deterministic train-mode pass stores
    the equal-weight average of per-batch means and per-batch unbiased
    variances.  No-op (with a warning) when the model has no batchnorm.
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
    for xb, _ in itertools.islice(
            dataset.batches(batch_size, shuffle=False, drop_last=True), max_batches):
        forward(out, xb, mode="train", update_stats=False, collect_norm_stats=sink)
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
    """Insert a correction layer at the end of bid's pre-activation chain."""
    pos = wiring(model)[bid].pre_tap + 1
    spec.boundary = bid
    model.layers.insert(pos, spec)
    model.params.update(tensors)


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


def repair(model, goals, dataset, mode="repair", sequential=False,
           batch_size=256):
    """Attach per-channel affine corrections so every hidden boundary's
    pre-activation statistics move toward the goal statistics.

    repair: (x - mu)/sigma * goal_std + goal_mean; rescale: x/sigma * goal_std;
    rescale_avg: rescale with the per-boundary scalar mean of goal_std;
    reshift: x - mu + goal_mean.  sequential re-measures (mu, sigma) boundary
    by boundary, re-running data after each correction; otherwise one
    measurement pass covers all boundaries before any correction.
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
    if not sequential:
        current = measure_stats(out, dataset, batch_size=batch_size)
    for bid in bids:     # boundary_map lists boundaries in producer order
        if sequential:
            current = measure_stats(out, dataset, batch_size=batch_size,
                                    boundaries=[bid])
        s, t = _correction(mode, current.means[bid], current.stds[bid],
                           goals.means[bid], goals.stds[bid])
        name = _next_name(out, "affine")
        spec = LayerSpec(kind="channel_affine", name=name, channels=units[bid])
        _insert_after_pre_tap(out, bid, spec, {
            f"{name}.scale": s.astype(np.float32),
            f"{name}.shift": t.astype(np.float32),
        })
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


def eval_curve(model_a, model_b, train_ds, test_ds=None, grid=None, quick=False,
               mode="none", sequential=False, batch_size=512,
               stats_batch_size=256):
    """Loss/accuracy along the linear path between two models.

    The default grid is 11 uniform points; quick mode evaluates {0, 0.5, 1}.
    mode selects the per-point re-normalization; repair-family goals are the
    lam-mix of statistics measured once at each endpoint.  The barrier is the
    worst gap to the linear baseline between the endpoints (for accuracy, the
    worst shortfall).
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

    goals_end = None
    if mode in REPAIR_MODES:
        goals_end = (measure_stats(model_a, train_ds, batch_size=stats_batch_size),
                     measure_stats(model_b, train_ds, batch_size=stats_batch_size))

    def eval_point(lam):
        m = interpolate(model_a, model_b, lam)
        if mode == "reset":
            m = reset_bn(m, train_ds, batch_size=stats_batch_size)
        elif goals_end is not None:
            goals = mix_stats(goals_end[0], goals_end[1], lam)
            m = repair(m, goals, train_ds, mode=mode, sequential=sequential,
                       batch_size=stats_batch_size)
        row = evaluate(m, train_ds, batch_size=batch_size)
        if test_ds is not None:
            row += evaluate(m, test_ds, batch_size=batch_size)
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
