"""Measurement probes over models and model pairs.

channel_probe reads per-boundary activation scale, and optionally the mean
diagonal Fisher information of each weight tensor, in one streaming pass;
retrain_probe clocks how many mini-batches a model needs to hit a train
accuracy target. Every probe leaves its model untouched.
"""
import csv
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _atomic_write
from .model import POST, PRE, _backward, _forward_cached, _inputs, forward, stat_key, wiring
from .ops import Moments, softmax_cross_entropy
from .prune import _diag_fisher, prunable_keys
from .train import _sgd_update, evaluate

PROBE_COLUMNS = ("pre_scale", "pre_std", "post_scale", "post_std",
                 "zero_frac", "weight_scale")


def l2_distance(model_a, model_b, include_norm_stats=False):
    """Euclidean distance in parameter space.

    Running statistics and tracked boundary statistics are excluded unless
    include_norm_stats is set; learned tensors always count.
    """
    keys_a, keys_b = set(model_a.params), set(model_b.params)
    if keys_a != keys_b:
        raise ValueError(f"models hold different tensors: {sorted(keys_a ^ keys_b)}")
    total = 0.0
    for k in sorted(keys_a):
        if not include_norm_stats and stat_key(k):
            continue
        d = model_a.params[k].astype(np.float64) - model_b.params[k].astype(np.float64)
        total += float(np.sum(d * d))
    return float(np.sqrt(total))


@dataclass
class LayerProbe:
    """Per-boundary activation scales plus per-weight-layer Fisher means."""
    rows: dict = field(default_factory=dict)    # bid -> column dict
    fisher: dict = field(default_factory=dict)  # weight tensor -> mean info
    batch_count: int = 0    # full batches read, by the rows and the Fisher means alike

    def to_jsonable(self):
        return {"rows": {bid: dict(row) for bid, row in self.rows.items()},
                "fisher": dict(self.fisher),
                "batch_count": self.batch_count}

    def write_csv(self, path):
        with _atomic_write(path) as fh:
            w = csv.writer(fh)
            w.writerow(("boundary",) + PROBE_COLUMNS)
            for bid, row in self.rows.items():
                w.writerow([bid] + [repr(row[c]) for c in PROBE_COLUMNS])

    def summary(self):
        parts = [f"{bid}: |pre|={row['pre_scale']:.4g} |post|={row['post_scale']:.4g} "
                 f"zero={row['zero_frac']:.3f}" for bid, row in self.rows.items()]
        return "; ".join(parts)


def channel_probe(model, dataset, batch_size=256, max_batches=None,
                  with_fisher=True):
    """Stream per-boundary activation statistics over the dataset (eval mode).

    Scales are mean absolute values in double precision, pooled over samples,
    spatial positions, and channels; zero_frac counts exactly-zero entries
    after the boundary's post chain. with_fisher adds the mean diagonal
    Fisher information of every conv/dense weight tensor.

    The probe reads the first max_batches full batches, a final short batch
    dropped, in one pass; batch_count counts them. With with_fisher, each
    batch's Fisher walk (batchnorm on running statistics) also yields the
    activation rows, which are then the eval walk's values. A model with a
    layer on batch statistics in eval (renorm.data_independent_correct adds
    them) has its rows read by an eval walk of the same batch instead, as
    has every batch without with_fisher.
    """
    wir = wiring(model)
    taps = [(b.bid, ph) for b in wir.values() for ph in (PRE, POST)]
    abs_sums = {tap: 0.0 for tap in taps}
    moments = {tap: Moments() for tap in taps}
    zeros = {bid: 0 for bid in wir}
    batch_count = 0

    def add(xb, captured):
        nonlocal batch_count
        if captured is None:
            _, tap_list = forward(model, xb, taps=taps, mode="eval")
            captured = {(t.boundary_id, t.phase): t.value for t in tap_list}
        for (bid, phase), value in captured.items():
            v = value.astype(np.float64).reshape(-1)  # one pooled column
            abs_sums[bid, phase] += np.abs(v).sum()
            moments[bid, phase].add(v)
            if phase == POST:
                zeros[bid] += int((v == 0).sum())
        batch_count += 1

    fisher = {}
    if with_fisher:
        eval_equal = not any(s.batch_stats_in_eval for s in model.layers)
        raw = _diag_fisher(model, prunable_keys(model), dataset, batch_size, max_batches,
                           drop_last=True, taps=taps if eval_equal else None, on_batch=add)
        fisher = {k: float(v.mean()) for k, v in raw.items()}
    else:
        for _, xb, _ in _inputs(dataset, batch_size, drop_last=True,
                                max_batches=max_batches):
            add(xb, None)

    rows = {}
    for bid, bnd in wir.items():
        pre, post = (bid, PRE), (bid, POST)
        n = moments[pre].n
        w = model.params[f"{model.layers[bnd.producer].name}.w"]
        rows[bid] = {
            "pre_scale": abs_sums[pre] / n,
            "pre_std": float(moments[pre].std),
            "post_scale": abs_sums[post] / n,
            "post_std": float(moments[post].std),
            "zero_frac": zeros[bid] / n,
            "weight_scale": float(np.abs(w.astype(np.float64)).mean()),
        }
    return LayerProbe(rows=rows, fisher=fisher, batch_count=batch_count)


@dataclass
class RetrainReport:
    steps: int          # mini-batches until train accuracy first hit target
    curve: list         # (iteration, train accuracy) rows, one per step
    capped: bool        # True when the epoch cap ran out below target


def retrain_probe(model, dataset, target_train_acc=0.9, lr=0.01, cap_epochs=5,
                  batch_size=128, momentum=0.9, seed=0):
    """Count mini-batches of fixed-lr SGD until train accuracy reaches target.

    Accuracy is evaluated on the full training set after every step (and once
    before any step, so an already-converged model reports 0). Hitting the
    epoch cap first returns the total step count with capped set.
    """
    cur = model.copy()
    _, acc = evaluate(cur, dataset, batch_size=max(batch_size, 256))
    curve = [(0, acc)]
    if acc >= target_train_acc:
        return RetrainReport(steps=0, curve=curve, capped=False)
    vel = {k: np.zeros_like(v) for k, v in cur.params.items() if not stat_key(k)}
    it = 0
    for epoch in range(cap_epochs):
        for xb, yb in dataset.batches(batch_size, seed=seed, epoch=epoch):
            logits, caches = _forward_cached(cur, xb)
            _, dlogits = softmax_cross_entropy(logits, yb)
            _sgd_update(cur.params, vel, _backward(cur, caches, dlogits, input_grad=False),
                        lr, momentum, weight_decay=0.0)
            it += 1
            _, acc = evaluate(cur, dataset, batch_size=max(batch_size, 256))
            curve.append((it, acc))
            if acc >= target_train_acc:
                return RetrainReport(steps=it, curve=curve, capped=False)
    return RetrainReport(steps=it, curve=curve, capped=True)
