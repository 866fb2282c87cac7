"""Unstructured weight pruning and statistics-based repair of the survivors.

Scoring produces one nonnegative float64 array per conv/dense weight tensor;
masks drop the lowest-scored coordinates (exactly floor(sparsity * count) of
them, globally or per tensor) and survivors keep their bits. Biases and norm
parameters are never pruned.
"""
import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .model import WEIGHT_KINDS, _backward, _check_batch, _check_same_arch, _inputs, _walk
from .renorm import measure_stats, repair, reset_bn

METHODS = ("magnitude", "diag_fisher")
GRANULARITIES = ("global", "layerwise")
POST_PRUNE_MODES = ("reset", "repair")


def prunable_keys(model, exempt_first=False):
    """Weight-tensor names eligible for pruning, in layer order.

    exempt_first drops the first weight layer (its input channels carry raw
    data, and zeroing them is disproportionately destructive).
    """
    keys = [f"{s.name}.w" for s in model.layers if s.kind in WEIGHT_KINDS]
    return keys[1:] if exempt_first else keys


@dataclass
class ScoreMap:
    """Per-coordinate saliency for every prunable tensor (higher = keep)."""
    method: str
    scores: dict = field(default_factory=dict)   # name -> float64 array

    def to_jsonable(self):
        return {"method": self.method,
                "scores": {k: {"shape": list(v.shape),
                               "data": [float(x) for x in v.reshape(-1)]}
                           for k, v in self.scores.items()}}

    @classmethod
    def from_jsonable(cls, obj):
        scores = {}
        for k, rec in obj["scores"].items():
            arr = np.asarray(rec["data"], dtype=np.float64)
            scores[k] = arr.reshape(rec["shape"])
        return cls(method=obj["method"], scores=scores)


@dataclass
class PruneMask:
    """Boolean keep-masks per tensor plus the request that produced them."""
    sparsity: float
    granularity: str
    keep: dict = field(default_factory=dict)     # name -> bool array

    def count_total(self):
        return sum(v.size for v in self.keep.values())

    def count_dropped(self):
        return sum(int((~v).sum()) for v in self.keep.values())

    def to_jsonable(self):
        # raw bitmask blob: packbits over the flat mask, base64 for transport
        masks = {}
        for k, v in self.keep.items():
            packed = np.packbits(v.reshape(-1))
            masks[k] = {"shape": list(v.shape),
                        "packed": base64.b64encode(packed.tobytes()).decode("ascii")}
        return {"sparsity": self.sparsity, "granularity": self.granularity,
                "masks": masks}

    @classmethod
    def from_jsonable(cls, obj):
        keep = {}
        for k, rec in obj["masks"].items():
            raw = np.frombuffer(base64.b64decode(rec["packed"]), dtype=np.uint8)
            n = int(np.prod(rec["shape"]))
            keep[k] = np.unpackbits(raw)[:n].astype(bool).reshape(rec["shape"])
        return cls(sparsity=obj["sparsity"], granularity=obj["granularity"],
                   keep=keep)


# ---------------------------------------------------------------- scoring

def _diag_fisher(model, keys, dataset, batch_size, max_batches, drop_last=False,
                 taps=None, on_batch=None):
    """Mean over the rows read of each key's squared per-sample loss gradient.
    drop_last drops a final short batch, as channel_probe does; scoring reads
    every row.

    Each batch takes one cached walk, with batchnorm on running statistics,
    and one backward. With taps, that walk also captures those boundary
    outputs and checks the batch and every layer's output as an eval walk
    does. on_batch(xb, captured), when given, sees each input batch and its
    captured outputs ({(bid, phase): value}; None without taps) between the
    walk and the backward. channel_probe reads its rows this way."""
    acc = {k: np.zeros(model.params[k].shape, dtype=np.float64) for k in keys}

    def add_sq_grads(key, sq):
        if key in acc:
            acc[key] += sq

    seen = 0
    for _, xb, yb in _inputs(dataset, batch_size, drop_last=drop_last,
                             max_batches=max_batches):
        caches = []
        if taps is not None:
            xb = _check_batch(model, xb)
        # batchnorm on running statistics keeps the samples independent
        logits, captured = _walk(model, xb, batch_stats=False, update_stats=False,
                                 track=False, taps=taps or (), caches=caches,
                                 check=taps is not None)
        if on_batch is not None:
            on_batch(xb, None if taps is None else captured)
        # d(per-sample loss)/dlogits = softmax - onehot, one row per sample
        z = logits.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        prob = np.exp(z)
        prob /= prob.sum(axis=1, keepdims=True)
        prob[np.arange(len(yb)), yb] -= 1.0
        _backward(model, caches, prob.astype(logits.dtype), weight_hook=add_sq_grads,
                  input_grad=False)
        seen += len(yb)
    return {k: v / seen for k, v in acc.items()}


def score(model, method="magnitude", dataset=None, batch_size=64,
          max_batches=None, scale_by_weight_sq=True, exempt_first=False):
    """Build a ScoreMap over the prunable tensors.

    magnitude:   |w|
    diag_fisher: mean over samples of the squared per-sample loss gradient,
                 multiplied by w^2 unless scale_by_weight_sq is off. Needs a
                 dataset; batchnorm runs on its running statistics so the
                 per-sample gradients stay independent.
    """
    if method not in METHODS:
        raise ValueError(f"unknown scoring method {method!r}, "
                         f"expected one of {METHODS}")
    keys = prunable_keys(model, exempt_first=exempt_first)
    if method == "magnitude":
        return ScoreMap(method, {k: np.abs(model.params[k].astype(np.float64))
                                 for k in keys})
    if dataset is None:
        raise ValueError("diag_fisher scoring needs a dataset")
    fisher = _diag_fisher(model, keys, dataset, batch_size, max_batches)
    if scale_by_weight_sq:
        fisher = {k: v * model.params[k].astype(np.float64) ** 2
                  for k, v in fisher.items()}
    return ScoreMap(method, fisher)


# ---------------------------------------------------------------- masks

def _drop_lowest(scores, sparsity):
    """Keep-masks for score arrays ranked as one group: the floor(sparsity *
    count) lowest scores are dropped, ties resolved by tensor order then flat
    index, both ascending, NaN ranked above every number (as np.sort ranks).

    One partition finds the k-th lowest score; every lower score goes, and
    the first of the scores tied with it (by position in the pool) fill
    the rest of the k."""
    sizes = [s.size for s in scores]
    pooled = np.concatenate([s.reshape(-1) for s in scores])
    keep = np.ones(pooled.size, dtype=bool)
    k = math.floor(sparsity * pooled.size)
    if k:
        kth = np.partition(pooled, k - 1)[k - 1]
        nan = np.isnan(pooled)
        lower, tied = (~nan, nan) if np.isnan(kth) else (pooled < kth, pooled == kth)
        keep[lower] = False
        keep[np.flatnonzero(tied)[:k - np.count_nonzero(lower)]] = False
    parts = np.split(keep, np.cumsum(sizes)[:-1])
    return [m.reshape(s.shape) for m, s in zip(parts, scores)]


def mask_from_scores(smap, sparsity, granularity="global"):
    """Keep-mask dropping floor(sparsity * count) coordinates of lowest score.

    global ranks every tensor as one group; layerwise ranks each tensor as a
    group of its own.
    """
    if not isinstance(sparsity, (int, float)) or math.isnan(sparsity) \
            or not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must lie in [0, 1], got {sparsity}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}, "
                         f"expected one of {GRANULARITIES}")
    names = list(smap.scores)
    keep = {}
    for group in [names] if granularity == "global" else [[k] for k in names]:
        keep.update(zip(group, _drop_lowest([smap.scores[k] for k in group], sparsity)))
    return PruneMask(sparsity=float(sparsity), granularity=granularity,
                     keep=keep)


def apply_mask(model, mask):
    """Zero the dropped coordinates; survivors keep their exact bits."""
    out = model.copy()
    for k, keep in mask.keep.items():
        if k not in out.params:
            raise ValueError(f"mask names unknown tensor {k}")
        w = out.params[k]
        if keep.shape != w.shape:
            raise ValueError(f"mask shape {keep.shape} does not match "
                             f"{k} shape {w.shape}")
        out.params[k] = np.where(keep, w, w.dtype.type(0.0))
    return out


# ---------------------------------------------------------------- repair

def post_prune_repair(pruned, original, dataset, mode="reset", batch_size=256,
                      sequential=False, max_batches=None):
    """Recalibrate a pruned network's statistics without touching weights.

    reset:  recompute batchnorm running statistics on the pruned net (errors
            when the architecture has no batchnorm to reset).
    repair: measure per-boundary activation statistics on the original net
            and insert affine corrections that restore them on the pruned
            one; corrections fold away afterwards via fold_affine.
    """
    _check_same_arch(pruned, original)
    if mode == "reset":
        if not any(s.kind == "batchnorm" for s in pruned.layers):
            raise ValueError("reset repair needs batchnorm layers")
        return reset_bn(pruned, dataset, batch_size=batch_size,
                        max_batches=max_batches)
    if mode == "repair":
        goals = measure_stats(original, dataset, batch_size=batch_size,
                              max_batches=max_batches)
        return repair(pruned, goals, dataset, mode="repair",
                      sequential=sequential, batch_size=batch_size,
                      max_batches=max_batches)
    raise ValueError(f"unknown repair mode {mode!r}")
