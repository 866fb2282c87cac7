"""SGD training engine: initialization, schedules, the update loop, and the
recipes that produce model pairs for merging experiments."""
import csv
import math
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .checkpoint import _atomic_write
from .model import WEIGHT_KINDS, _backward, _forward_cached, _inputs, forward, stat_key

_SCHEDULES = ("constant", "step", "cosine")
_INIT_SCHEMES = ("kaiming_uniform", "kaiming_normal")
_WARMUP_FLOOR = 1e-6
_DIVERGE_LOSS = 1e4


class DivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    base_lr: float = 0.1
    schedule: str = "constant"
    milestones: tuple = ()      # absolute iteration indices for step decay
    decay_factor: float = 10.0  # lr is divided by this at each milestone
    warmup_iters: int = 0       # linear ramp 1e-6 -> base_lr, then the schedule
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    epochs: int = 10
    max_iters: int = 0          # 0 = no cap
    seed: int = 0
    init: str = "kaiming_uniform"
    shuffle: bool = True
    drop_last: bool = True
    track_boundary_stats: bool = False
    l2_every: int = 0           # parameter-norm snapshot interval, 0 = off

    def __post_init__(self):
        self.milestones = tuple(map(operator.index, self.milestones))  # a float raises
        if not self.base_lr >= 0:
            raise ValueError("base_lr must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be non-negative")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if self.init not in _INIT_SCHEMES:
            raise ValueError(f"init scheme must be one of {_INIT_SCHEMES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0 or self.max_iters < 0 or self.warmup_iters < 0:
            raise ValueError("epochs, max_iters and warmup_iters must be >= 0")
        if not self.decay_factor > 0:
            raise ValueError("decay_factor must be positive")
        if any(m < 0 for m in self.milestones):
            raise ValueError("milestones must be non-negative iterations")


@dataclass
class TrainLog:
    iterations: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    epoch_train_acc: list = field(default_factory=list)
    epoch_test_acc: list = field(default_factory=list)
    l2_snaps: list = field(default_factory=list)  # (iteration, parameter L2 norm)

    def write_csv(self, path):
        with _atomic_write(path) as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "lr", "loss"])
            for row in zip(self.iterations, self.lrs, self.losses):
                w.writerow(row)

    def summary(self):
        return {
            "iters": len(self.losses),
            "final_loss": self.losses[-1] if self.losses else None,
            "final_train_acc": self.epoch_train_acc[-1] if self.epoch_train_acc else None,
            "final_test_acc": self.epoch_test_acc[-1] if self.epoch_test_acc else None,
            "epochs": len(self.epoch_train_acc),
        }


# ---------------------------------------------------------------- init

def init_params(model, scheme, seed=0):
    """Fresh weight/bias initialization; norm parameters and running
    statistics keep their build-time defaults."""
    if scheme not in _INIT_SCHEMES:
        raise ValueError(f"init scheme must be one of {_INIT_SCHEMES}, got {scheme!r}")
    out = model.copy()
    rng = np.random.default_rng(seed)
    for spec in out.layers:
        if spec.kind not in WEIGHT_KINDS:
            continue
        wkey, bkey = f"{spec.name}.w", f"{spec.name}.b"
        shape = out.params[wkey].shape
        if scheme == "kaiming_uniform":
            fan_in = spec.n_in * (spec.kernel ** 2 if spec.kind == "conv2d" else 1)
            bound = 1.0 / math.sqrt(fan_in)
            out.params[wkey] = rng.uniform(-bound, bound, shape).astype(np.float32)
            if bkey in out.params:
                out.params[bkey] = rng.uniform(
                    -bound, bound, out.params[bkey].shape).astype(np.float32)
        else:
            if spec.kind == "conv2d":
                std = math.sqrt(2.0 / (spec.n_out * spec.kernel ** 2))
            else:
                std = 0.1
            out.params[wkey] = rng.normal(0.0, std, shape).astype(np.float32)
            if bkey in out.params:
                out.params[bkey] = np.zeros_like(out.params[bkey])
    return out


# ---------------------------------------------------------------- schedule

def lr_at(config, iteration, total_iters=None):
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    base = config.base_lr
    if config.warmup_iters and iteration < config.warmup_iters:
        frac = iteration / config.warmup_iters
        return _WARMUP_FLOOR + (base - _WARMUP_FLOOR) * frac
    if config.schedule == "constant":
        return base
    if config.schedule == "step":
        drops = sum(1 for m in config.milestones if iteration >= m)
        return base / config.decay_factor ** drops
    # cosine
    if total_iters is None:
        raise ValueError("cosine schedule needs total_iters")
    t = iteration - config.warmup_iters
    horizon = max(total_iters - config.warmup_iters, 1)
    return 0.5 * base * (1.0 + math.cos(math.pi * t / horizon))


# ---------------------------------------------------------------- forward/backward

def loss_and_grads(model, x, y, update_stats=False):
    """Train-mode cross-entropy loss and parameter gradients for one batch.

    Gradients are keyed by parameter name; the input gradient sits under "x".
    """
    logits, caches = _forward_cached(model, x, update_stats=update_stats)
    loss, dlogits = ops.softmax_cross_entropy(logits, y)
    return loss, _backward(model, caches, dlogits)


# ---------------------------------------------------------------- evaluation

def evaluate(model, dataset, batch_size=512, _feed=None):
    """Eval-mode mean loss and accuracy over the whole dataset.

    _feed stands activations in for the batches' first layers (see
    model._inputs)."""
    losses, hits, total = 0.0, 0, 0
    for start, x, yb in _inputs(dataset, batch_size, drop_last=False, feed=_feed):
        logits = forward(model, x, mode="eval", _start=start)
        loss, _ = ops.softmax_cross_entropy(logits, yb)
        n = len(yb)
        losses += loss * n
        hits += int((logits.argmax(axis=1) == yb).sum())
        total += n
    return losses / total, hits / total


# ---------------------------------------------------------------- training loop

def _sgd_update(params, vel, grads, lr, momentum, weight_decay):
    """One momentum step, in place, on each tensor of vel that has a gradient.

    Float32 tensors are updated in their buffers, which rounds bitwise as
    (momentum * v + g).astype(float32) does, for float64 gradients too. A
    tensor that is not float32 takes that out-of-place path once, which
    turns it and its velocity float32.
    """
    for k, v in vel.items():
        g = grads.get(k)
        if g is None:
            continue
        w = params[k]
        if weight_decay:
            g = g + weight_decay * w
        if v.dtype == w.dtype == np.float32:
            v *= momentum
            v += g
            w -= lr * v
        else:
            vel[k] = (momentum * v + g).astype(np.float32)
            params[k] = (w - lr * vel[k]).astype(np.float32)


def train(model, dataset, config, test_ds=None, frozen=(), stop_at_train_acc=None):
    """SGD with momentum: v <- m*v + g + wd*theta, theta <- theta - lr*v.

    Weight decay touches every gradient-trained tensor, never running or
    tracked statistics.  Deterministic given config.seed.  Raises
    DivergedError when the loss goes non-finite or above 1e4.
    """
    model = model.copy()
    if config.track_boundary_stats:
        for bid, n in model.boundary_map:
            model.params.setdefault(f"stats.{bid}.mean", np.zeros(n, dtype=np.float32))
            model.params.setdefault(f"stats.{bid}.var", np.ones(n, dtype=np.float32))
    frozen = set(frozen)
    ipe = dataset.num_batches(config.batch_size, drop_last=config.drop_last)
    if ipe == 0:
        raise ValueError("dataset smaller than one batch")
    total = config.epochs * ipe
    if config.max_iters:
        total = min(total, config.max_iters)

    keys = [k for k in model.params if not stat_key(k) and k not in frozen]
    vel = {k: np.zeros_like(model.params[k]) for k in keys}
    log = TrainLog()
    it = 0
    for epoch in range(config.epochs):
        if it >= total:
            break
        for xb, yb in dataset.batches(config.batch_size, seed=config.seed,
                                      epoch=epoch, shuffle=config.shuffle,
                                      drop_last=config.drop_last):
            if it >= total:
                break
            lr = lr_at(config, it, total_iters=total)
            logits, caches = _forward_cached(
                model, xb, update_stats=True, track=config.track_boundary_stats)
            loss, dlogits = ops.softmax_cross_entropy(logits, yb)
            if not np.isfinite(loss) or loss > _DIVERGE_LOSS:
                raise DivergedError(
                    f"training diverged at iteration {it}: loss={loss}")
            grads = _backward(model, caches, dlogits, input_grad=False)
            _sgd_update(model.params, vel, grads, lr, config.momentum,
                        config.weight_decay)
            log.iterations.append(it)
            log.lrs.append(lr)
            log.losses.append(loss)
            if config.l2_every and it % config.l2_every == 0:
                norm = math.sqrt(sum(float(np.sum(model.params[k].astype(np.float64) ** 2))
                                     for k in keys))
                log.l2_snaps.append((it, norm))
            it += 1
        _, train_acc = evaluate(model, dataset)
        log.epoch_train_acc.append(train_acc)
        if test_ds is not None:
            _, test_acc = evaluate(model, test_ds)
            log.epoch_test_acc.append(test_acc)
        if stop_at_train_acc is not None and train_acc >= stop_at_train_acc:
            break
    return model, log


# ---------------------------------------------------------------- recipes

def spawn_pair(model, dataset, config, pretrain_epochs, child_seeds=(1, 2),
               test_ds=None):
    """Train a shared parent for pretrain_epochs, then branch two children that
    finish the epoch budget with independent shuffle seeds."""
    if not 0 <= pretrain_epochs <= config.epochs:
        raise ValueError("pretrain_epochs must lie within the epoch budget")
    parent = init_params(model, config.init, config.seed)
    if pretrain_epochs:
        parent, _ = train(parent, dataset,
                          replace(config, epochs=pretrain_epochs), test_ds)
    rest = config.epochs - pretrain_epochs
    out = []
    for s in child_seeds[:2]:
        child, _ = train(parent, dataset, replace(config, epochs=rest, seed=s),
                         test_ds)
        out.append(child)
    return out[0], out[1]


def retrain_same_basin(model, dataset, config, big_lr_epochs, small_lr_epochs,
                       big_lr=0.1, small_lr=0.01, seed=0, test_ds=None):
    """Kick a trained solution with a large constant lr, then settle it with a
    small one; the result stays linearly connected to the input solution."""
    out = model.copy()
    flat = replace(config, schedule="constant", warmup_iters=0, milestones=())
    if big_lr_epochs:
        out, _ = train(out, dataset,
                       replace(flat, base_lr=big_lr, epochs=big_lr_epochs, seed=seed),
                       test_ds)
    if small_lr_epochs:
        out, _ = train(out, dataset,
                       replace(flat, base_lr=small_lr, epochs=small_lr_epochs,
                               seed=seed + 1), test_ds)
    return out


def remove_bias_finetune(model, dataset, epochs=5, lr=0.01, batch_size=128,
                         seed=0, target=0.9):
    """Zero and freeze every dense/conv bias, then fine-tune the weights
    (no weight decay) until train accuracy reaches target or the epoch cap."""
    out = model.copy()
    frozen = set()
    for spec in out.layers:
        key = f"{spec.name}.b"
        if spec.kind in WEIGHT_KINDS and key in out.params:
            out.params[key][:] = 0.0
            frozen.add(key)
    cfg = TrainConfig(base_lr=lr, schedule="constant", momentum=0.9,
                      weight_decay=0.0, batch_size=batch_size, epochs=epochs,
                      seed=seed)
    if epochs:
        out, log = train(out, dataset, cfg, frozen=frozen,
                         stop_at_train_acc=target)
        reached = log.epoch_train_acc and log.epoch_train_acc[-1] >= target
    else:
        _, acc = evaluate(out, dataset)
        reached = acc >= target
    if not reached:
        warnings.warn(f"bias-free fine-tuning stopped below {target:.0%} "
                      "train accuracy")
        out.meta["bias_free_warning"] = True
    return out
