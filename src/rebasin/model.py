"""Sequential model graphs: construction, forward evaluation with activation
taps, and folding of channel-affine corrections.

A ModelGraph is an ordered list of LayerSpec descriptors plus a flat dict of
named tensors. Permutable boundaries (hidden weight-layer outputs) are listed
in boundary_map; normalization/affine layers attach to the boundary of the
weight layer they directly follow.
"""
import copy as _copy
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops

PRE = "pre_activation"
POST = "post_activation"

WEIGHT_KINDS = ("dense", "conv2d")
NORM_KINDS = ("batchnorm", "layernorm", "channel_affine")
TRACKED_MOMENTUM = 0.1


class BuildError(ValueError):
    """Architecture descriptor does not compose."""


class NonFiniteError(FloatingPointError):
    def __init__(self, layer_name):
        super().__init__(f"non-finite values in layer {layer_name}")
        self.layer_name = layer_name


@dataclass
class LayerSpec:
    kind: str
    name: str
    n_in: int | None = None
    n_out: int | None = None
    kernel: int | None = None
    stride: int | None = None
    pad: int = 0
    has_bias: bool = True
    channels: int | None = None
    eps: float = 1e-5
    momentum: float = 0.1
    affine: bool = True
    batch_stats_in_eval: bool = False
    boundary: str | None = None


@dataclass
class ActivationTap:
    boundary_id: str
    phase: str
    value: np.ndarray


@dataclass
class ModelGraph:
    layers: list
    params: dict
    boundary_map: list
    input_shape: tuple
    meta: dict = field(default_factory=dict)

    def copy(self):
        return ModelGraph(
            layers=[replace(l) for l in self.layers],
            params={k: v.copy() for k, v in self.params.items()},
            boundary_map=list(self.boundary_map),
            input_shape=tuple(self.input_shape),
            meta=_copy.deepcopy(self.meta),
        )


@dataclass
class Boundary:
    bid: str
    units: int
    producer: int
    consumer: int
    norms: list
    pre_tap: int
    post_tap: int
    consumer_spatial: int


# ---------------------------------------------------------------- descriptors

def stat_key(name):
    """True for tensors holding measured statistics rather than learned weights."""
    return (name.endswith(".running_mean") or name.endswith(".running_var")
            or name.startswith("stats."))


def mlp_descriptor(in_dim, hidden, num_classes, norm=None):
    layers = []
    for h in hidden:
        layers.append({"kind": "dense", "out": h})
        if norm:
            layers.append({"kind": norm})
        layers.append({"kind": "relu"})
    layers.append({"kind": "dense", "out": num_classes})
    return {"input_shape": [in_dim], "layers": layers}


def cnn_descriptor(input_shape, convs, num_classes, norm="batchnorm", dense_hidden=()):
    """convs: list of dicts with keys out, k, and optional stride/pad/pool."""
    layers = []
    for c in convs:
        k = c.get("k", 3)
        layers.append({"kind": "conv2d", "out": c["out"], "k": k,
                       "stride": c.get("stride", 1), "pad": c.get("pad", k // 2)})
        if norm:
            layers.append({"kind": norm})
        layers.append({"kind": "relu"})
        if c.get("pool"):
            layers.append({"kind": "maxpool2d", "k": c["pool"]})
    layers.append({"kind": "flatten"})
    for h in dense_hidden:
        layers.append({"kind": "dense", "out": h})
        layers.append({"kind": "relu"})
    layers.append({"kind": "dense", "out": num_classes})
    return {"input_shape": list(input_shape), "layers": layers}


_LAYER_KEYS = {
    "dense": {"kind", "out", "in", "bias"},
    "conv2d": {"kind", "out", "in", "k", "stride", "pad", "bias"},
    "relu": {"kind"},
    "maxpool2d": {"kind", "k", "stride"},
    "flatten": {"kind"},
    "batchnorm": {"kind", "momentum", "eps", "affine"},
    "layernorm": {"kind", "eps", "affine"},
    "channel_affine": {"kind"},
}

_NAME_PREFIX = {
    "dense": "dense", "conv2d": "conv", "relu": "relu", "maxpool2d": "pool",
    "flatten": "flatten", "batchnorm": "bn", "layernorm": "ln",
    "channel_affine": "affine",
}


def layer_tensors(spec):
    """The tensors a layer owns, in storage order: {name: (shape, initial value)}."""
    n, c = spec.name, spec.channels
    if spec.kind in WEIGHT_KINDS:
        k = () if spec.kind == "dense" else (spec.kernel, spec.kernel)
        out = {f"{n}.w": ((spec.n_out, spec.n_in) + k, 0.0)}
        if spec.has_bias:
            out[f"{n}.b"] = ((spec.n_out,), 0.0)
        return out
    if spec.kind == "channel_affine":
        return {f"{n}.scale": ((c,), 1.0), f"{n}.shift": ((c,), 0.0)}
    out = {}
    if spec.kind in ("batchnorm", "layernorm") and spec.affine:
        out = {f"{n}.gamma": ((c,), 1.0), f"{n}.beta": ((c,), 0.0)}
    if spec.kind == "batchnorm":
        out.update({f"{n}.running_mean": ((c,), 0.0), f"{n}.running_var": ((c,), 1.0)})
    return out


def build_model(descriptor):
    """Build a zero-initialized ModelGraph from a JSON-style descriptor.

    Shapes are propagated and validated; boundary ids b0, b1, ... are assigned
    to every hidden weight-layer output in order.
    """
    if not isinstance(descriptor, dict):
        raise BuildError("descriptor must be a dict")
    extra = set(descriptor) - {"input_shape", "layers"}
    if extra:
        raise BuildError(f"unknown descriptor keys: {sorted(extra)}")
    try:
        input_shape = tuple(int(d) for d in descriptor["input_shape"])
        raw_layers = list(descriptor["layers"])
    except (KeyError, TypeError) as e:
        raise BuildError(f"descriptor needs input_shape and layers: {e}") from None
    if len(input_shape) not in (1, 3) or any(d < 1 for d in input_shape):
        raise BuildError(f"unsupported input shape {input_shape}")
    if not raw_layers:
        raise BuildError("empty layer list")

    counters = {}
    specs = []
    cur = input_shape
    chain_open = False           # norm layers may only extend an open producer chain
    attach_to = None             # index of the weight layer an open chain belongs to
    attachments = {}             # weight index -> [norm indices]

    for pos, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise BuildError(f"layer {pos}: each layer needs a 'kind'")
        kind = entry["kind"]
        if kind not in _LAYER_KEYS:
            raise BuildError(f"layer {pos}: unknown kind {kind!r}")
        extra = set(entry) - _LAYER_KEYS[kind]
        if extra:
            raise BuildError(f"layer {pos} ({kind}): unknown keys {sorted(extra)}")
        idx = counters.get(kind, 0)
        counters[kind] = idx + 1
        name = f"{_NAME_PREFIX[kind]}{idx}"

        if kind == "dense":
            if len(cur) != 1:
                raise BuildError(f"layer {pos}: dense needs flat input, got shape {cur}")
            if "in" in entry and int(entry["in"]) != cur[0]:
                raise BuildError(
                    f"layer {pos}: declared fan-in {entry['in']} != actual {cur[0]}")
            out = int(entry["out"])
            if out < 1:
                raise BuildError(f"layer {pos}: out must be >= 1")
            specs.append(LayerSpec(kind, name, n_in=cur[0], n_out=out,
                                   has_bias=bool(entry.get("bias", True))))
            cur = (out,)
            chain_open = True
            attach_to = len(specs) - 1
        elif kind == "conv2d":
            if len(cur) != 3:
                raise BuildError(f"layer {pos}: conv2d needs (C,H,W) input, got {cur}")
            if "in" in entry and int(entry["in"]) != cur[0]:
                raise BuildError(
                    f"layer {pos}: declared in_ch {entry['in']} != actual {cur[0]}")
            out = int(entry["out"])
            k = int(entry["k"])
            stride = int(entry.get("stride", 1))
            pad = int(entry.get("pad", 0))
            if out < 1 or k < 1 or stride < 1 or pad < 0:
                raise BuildError(f"layer {pos}: bad conv2d geometry")
            ho, wo = ops.conv_out_hw(cur[1], cur[2], k, stride, pad)
            if ho < 1 or wo < 1:
                raise BuildError(f"layer {pos}: conv2d output would be empty ({ho}x{wo})")
            specs.append(LayerSpec(kind, name, n_in=cur[0], n_out=out, kernel=k,
                                   stride=stride, pad=pad,
                                   has_bias=bool(entry.get("bias", True))))
            cur = (out, ho, wo)
            chain_open = True
            attach_to = len(specs) - 1
        elif kind == "relu":
            specs.append(LayerSpec(kind, name))
            chain_open = False
        elif kind == "maxpool2d":
            if len(cur) != 3:
                raise BuildError(f"layer {pos}: maxpool2d needs (C,H,W) input, got {cur}")
            k = int(entry["k"])
            stride = int(entry.get("stride", k))
            ho = (cur[1] - k) // stride + 1
            wo = (cur[2] - k) // stride + 1
            if k < 1 or stride < 1 or ho < 1 or wo < 1:
                raise BuildError(f"layer {pos}: bad maxpool2d geometry")
            specs.append(LayerSpec(kind, name, kernel=k, stride=stride))
            cur = (cur[0], ho, wo)
            chain_open = False
        elif kind == "flatten":
            specs.append(LayerSpec(kind, name))
            cur = (int(np.prod(cur)),)
            chain_open = False
        else:  # batchnorm / layernorm / channel_affine
            if not chain_open:
                raise BuildError(
                    f"layer {pos}: {kind} must directly follow a weight layer "
                    "or another normalization layer")
            spec = LayerSpec(kind, name, channels=cur[0],
                             eps=float(entry.get("eps", 1e-5)),
                             momentum=float(entry.get("momentum", 0.1)),
                             affine=bool(entry.get("affine", True)))
            if spec.eps <= 0:
                raise BuildError(f"layer {pos}: eps must be positive")
            specs.append(spec)
            attachments.setdefault(attach_to, []).append(len(specs) - 1)

    weight_idxs = [i for i, s in enumerate(specs) if s.kind in WEIGHT_KINDS]
    if not weight_idxs:
        raise BuildError("model has no weight layers")
    if attachments.get(weight_idxs[-1]):
        raise BuildError("normalization after the final weight layer is unsupported")

    boundary_map = []
    for b, wi in enumerate(weight_idxs[:-1]):
        bid = f"b{b}"
        specs[wi].boundary = bid
        for ni in attachments.get(wi, []):
            specs[ni].boundary = bid
        boundary_map.append((bid, specs[wi].n_out))

    params = {k: np.full(shape, fill, dtype=np.float32)
              for s in specs for k, (shape, fill) in layer_tensors(s).items()}
    return ModelGraph(layers=specs, params=params, boundary_map=boundary_map,
                      input_shape=input_shape,
                      meta={"arch": _copy.deepcopy(descriptor)})


# ---------------------------------------------------------------- wiring

def propagate_shapes(layers, input_shape):
    """Per-layer output shapes (batch axis excluded)."""
    shapes = []
    cur = tuple(input_shape)
    for s in layers:
        if s.kind == "dense":
            if len(cur) != 1 or cur[0] != s.n_in:
                raise BuildError(f"{s.name}: expects ({s.n_in},), got {cur}")
            cur = (s.n_out,)
        elif s.kind == "conv2d":
            if len(cur) != 3 or cur[0] != s.n_in:
                raise BuildError(f"{s.name}: expects ({s.n_in},H,W), got {cur}")
            ho, wo = ops.conv_out_hw(cur[1], cur[2], s.kernel, s.stride, s.pad)
            cur = (s.n_out, ho, wo)
        elif s.kind == "maxpool2d":
            ho = (cur[1] - s.kernel) // s.stride + 1
            wo = (cur[2] - s.kernel) // s.stride + 1
            cur = (cur[0], ho, wo)
        elif s.kind == "flatten":
            cur = (int(np.prod(cur)),)
        elif s.kind in NORM_KINDS:
            if s.channels != cur[0]:
                raise BuildError(f"{s.name}: channels {s.channels} != input {cur[0]}")
        elif s.kind != "relu":
            raise BuildError(f"{s.name}: unknown layer kind {s.kind!r}")
        shapes.append(cur)
    return shapes


def wiring(model):
    """Boundary bookkeeping: producer/consumer/norm indices and tap points."""
    layers = model.layers
    shapes = propagate_shapes(layers, model.input_shape)
    weight_idxs = [i for i, s in enumerate(layers) if s.kind in WEIGHT_KINDS]
    units = dict(model.boundary_map)
    out = {}
    for bid in units:
        producer = next(i for i in weight_idxs
                        if layers[i].boundary == bid and layers[i].kind in WEIGHT_KINDS)
        norms = [i for i, s in enumerate(layers)
                 if s.kind in NORM_KINDS and s.boundary == bid]
        consumer = next(i for i in weight_idxs if i > producer)
        pre_tap = max([producer] + norms)
        post_tap = pre_tap
        if pre_tap + 1 < len(layers) and layers[pre_tap + 1].kind == "relu":
            post_tap = pre_tap + 1
        in_shape = shapes[consumer - 1] if consumer > 0 else model.input_shape
        if layers[consumer].kind == "dense":
            spatial = in_shape[0] // units[bid]
        else:
            spatial = 1
        out[bid] = Boundary(bid=bid, units=units[bid], producer=producer,
                            consumer=consumer, norms=norms, pre_tap=pre_tap,
                            post_tap=post_tap, consumer_spatial=spatial)
    return out


def _check_same_arch(a, b):
    if a.boundary_map != b.boundary_map or tuple(a.input_shape) != tuple(b.input_shape):
        raise ValueError("models differ in boundaries or input shape")
    if set(a.params) != set(b.params):
        raise ValueError("models hold different parameter tensors")
    for k in a.params:
        if a.params[k].shape != b.params[k].shape:
            raise ValueError(f"shape mismatch at {k}")


# ---------------------------------------------------------------- layer table
#
# Each layer kind's forward and backward are written once, here: the eval
# forward with taps, the cached training forward, backprop and the per-sample
# Fisher pass all run through _walk and _backward.

def _layer_fwd(spec, p, x, use_batch, update_stats, collect_norm_stats):
    """One layer's forward: (output, the cache _backward needs)."""
    kind, name = spec.kind, spec.name
    if kind == "dense":
        return ops.dense_fwd(x, p[f"{name}.w"], p.get(f"{name}.b")), x
    if kind == "conv2d":
        y, cols = ops.conv2d_fwd(x, p[f"{name}.w"], p.get(f"{name}.b"),
                                 spec.stride, spec.pad)
        return y, (cols, x.shape)
    if kind == "relu":
        y = ops.relu_fwd(x)
        return y, y     # the next layer may hold y anyway; x can go
    if kind == "maxpool2d":
        y = ops.maxpool_fwd(x, spec.kernel, spec.stride)
        return y, (x, y)
    if kind == "flatten":
        return x.reshape(x.shape[0], -1), x.shape
    if kind == "batchnorm":
        try:
            y, cache, bm, bv = ops.batchnorm_fwd(
                x, p.get(f"{name}.gamma"), p.get(f"{name}.beta"),
                p[f"{name}.running_mean"], p[f"{name}.running_var"], spec.eps,
                use_batch)
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
        if use_batch:
            if collect_norm_stats is not None:
                collect_norm_stats.setdefault(name, []).append(
                    (np.asarray(bm, dtype=np.float64), np.asarray(bv, dtype=np.float64)))
            if update_stats:
                m = spec.momentum
                rm, rv = p[f"{name}.running_mean"], p[f"{name}.running_var"]
                p[f"{name}.running_mean"] = ((1 - m) * rm + m * bm).astype(rm.dtype)
                p[f"{name}.running_var"] = ((1 - m) * rv + m * bv).astype(rv.dtype)
        return y, cache
    if kind == "layernorm":
        return ops.layernorm_fwd(x, p.get(f"{name}.gamma"), p.get(f"{name}.beta"),
                                 spec.eps)
    if kind == "channel_affine":
        return ops.channel_affine_fwd(x, p[f"{name}.scale"], p[f"{name}.shift"]), x
    raise BuildError(f"unknown layer kind {kind!r}")


def _update_tracked(params, bid, value):
    key_m = f"stats.{bid}.mean"
    key_v = f"stats.{bid}.var"
    axes = (0,) if value.ndim == 2 else (0, 2, 3)
    n_eff = int(np.prod([value.shape[a] for a in axes]))
    if n_eff < 2:
        raise ValueError(f"tracked stats at {bid} need more than one value per channel")
    v64 = value.astype(np.float64)
    mu = v64.mean(axis=axes)
    var = v64.var(axis=axes, ddof=1)
    m = TRACKED_MOMENTUM
    params[key_m] = ((1 - m) * params[key_m] + m * mu).astype(np.float32)
    params[key_v] = ((1 - m) * params[key_v] + m * var).astype(np.float32)


def _walk(model, x, batch_stats, update_stats, track, taps=(), caches=None,
          collect_norm_stats=None):
    """The one layer loop: returns (output, {(bid, phase): tapped value}).

    batch_stats puts every batchnorm on batch (True) or running (False)
    statistics; None leaves the choice to each layer's batch_stats_in_eval.
    update_stats moves the running statistics of layers on batch statistics
    and, with track, any tracked boundary statistics. With a caches list,
    each layer's backward cache is appended to it. Without one (an eval pass)
    no cache outlives its layer, and every layer output is checked for
    non-finite values; training leaves that to its loss check, so divergence
    is reported with the iteration.
    """
    p = model.params
    tracked = update_stats and track and any(k.startswith("stats.") for k in p)
    at = {}   # layer index -> [(bid, phase)] to tap or track there
    if taps or tracked:
        for b in wiring(model).values():
            if (b.bid, PRE) in taps or (tracked and f"stats.{b.bid}.mean" in p):
                at.setdefault(b.pre_tap, []).append((b.bid, PRE))
            if (b.bid, POST) in taps:
                at.setdefault(b.post_tap, []).append((b.bid, POST))

    captured = {}
    cur = x
    for idx, spec in enumerate(model.layers):
        use_batch = spec.batch_stats_in_eval if batch_stats is None else batch_stats
        cur, cache = _layer_fwd(spec, p, cur, use_batch, update_stats,
                                collect_norm_stats)
        if caches is None:
            del cache   # conv cols are large; an eval pass drops them at once
            if not np.all(np.isfinite(cur)):
                raise NonFiniteError(spec.name)
        else:
            caches.append((spec, cache))
        for bid, phase in at.get(idx, ()):
            if (bid, phase) in taps:
                captured[(bid, phase)] = cur
            if phase == PRE and tracked and f"stats.{bid}.mean" in p:
                _update_tracked(p, bid, cur)
    return cur, captured


def forward(model, x, taps=None, mode="eval", update_stats=None,
            collect_norm_stats=None):
    """Evaluate the model on a batch.

    taps: optional iterable of (boundary_id, phase) pairs to capture; when
    given, returns (logits, [ActivationTap, ...]) in request order.
    mode "train" makes batchnorm use batch statistics (and, when update_stats
    is true, update running statistics and any tracked boundary statistics).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if update_stats is None:
        update_stats = mode == "train"
    x = np.asarray(x)
    if x.ndim < 2 or tuple(x.shape[1:]) != tuple(model.input_shape):
        raise ValueError(
            f"batch shape {x.shape[1:]} does not match input shape {model.input_shape}")

    requests = [tuple(t) for t in taps] if taps is not None else []
    units = dict(model.boundary_map)
    for bid, phase in requests:
        if bid not in units or phase not in (PRE, POST):
            raise ValueError(f"unknown tap ({bid!r}, {phase!r}): boundaries are "
                             f"{list(units)}, phases {PRE!r} and {POST!r}")
    train = mode == "train"
    cur, captured = _walk(model, x, batch_stats=True if train else None,
                          update_stats=update_stats and train, track=True,
                          taps=requests, collect_norm_stats=collect_norm_stats)
    if taps is None:
        return cur
    return cur, [ActivationTap(bid, phase, captured[(bid, phase)])
                 for (bid, phase) in dict.fromkeys(requests)]


def _forward_cached(model, x, update_stats=True, track=False, bn_batch_stats=True):
    """Forward pass that keeps per-layer caches for _backward: (output, caches).

    Batchnorm uses batch statistics unless bn_batch_stats is false (running
    statistics keep samples independent, which per-sample gradients need).
    """
    caches = []
    cur, _ = _walk(model, x, batch_stats=bn_batch_stats, update_stats=update_stats,
                   track=track, caches=caches)
    return cur, caches


def _backward(model, caches, dy, weight_hook=None):
    """Backprop dy through the cached layers: gradients keyed by tensor name,
    and the input gradient under "x".

    weight_hook(key, sq), when given, stands in for the dense/conv weight and
    bias gradients: it receives each weight's float64 sum over samples of
    squared per-sample gradients. That is exact only when every layer acts
    per sample (batchnorm on running statistics).
    """
    p = model.params
    grads = {}
    for spec, cache in reversed(caches):
        kind, name = spec.kind, spec.name
        if kind == "dense":
            w = p[f"{name}.w"]
            if weight_hook:
                weight_hook(f"{name}.w", ops.dense_sq_grad(cache, dy))
                dy = ops.dense_dx(w, dy)
            else:
                dy, grads[f"{name}.w"], db = ops.dense_bwd(cache, w, dy)
        elif kind == "conv2d":
            w, (cols, x_shape) = p[f"{name}.w"], cache
            if weight_hook:
                weight_hook(f"{name}.w", ops.conv2d_sq_grad(cols, w.shape, dy))
                dy = ops.conv2d_dx(x_shape, w, dy, spec.stride, spec.pad)
            else:
                dy, grads[f"{name}.w"], db = ops.conv2d_bwd(
                    cols, x_shape, w, dy, spec.stride, spec.pad)
        elif kind == "relu":
            dy = ops.relu_bwd(cache, dy)
        elif kind == "maxpool2d":
            dy = ops.maxpool_bwd(*cache, spec.kernel, spec.stride, dy)
        elif kind == "flatten":
            dy = dy.reshape(cache)
        elif kind in ("batchnorm", "layernorm"):
            bwd = ops.batchnorm_bwd if kind == "batchnorm" else ops.layernorm_bwd
            dy, dgamma, dbeta = bwd(cache, dy)
            if f"{name}.gamma" in p:
                grads[f"{name}.gamma"], grads[f"{name}.beta"] = dgamma, dbeta
        else:  # channel_affine
            dy, grads[f"{name}.scale"], grads[f"{name}.shift"] = \
                ops.channel_affine_bwd(cache, p[f"{name}.scale"], dy)
        if kind in WEIGHT_KINDS and not weight_hook and f"{name}.b" in p:
            grads[f"{name}.b"] = db
    grads["x"] = dy
    return grads


# ---------------------------------------------------------------- folding

def fold_affine(model):
    """Fold every channel_affine correction into the layer directly before it
    (dense/conv weights+bias, or a norm layer's affine), preserving function.
    """
    out = model.copy()
    while True:
        idx = next((i for i, s in enumerate(out.layers)
                    if s.kind == "channel_affine"), None)
        if idx is None:
            return out
        if idx == 0:
            raise ValueError("channel_affine at the start of the model cannot be folded")
        spec = out.layers[idx]
        prev = out.layers[idx - 1]
        scale = out.params[f"{spec.name}.scale"]
        shift = out.params[f"{spec.name}.shift"]
        if prev.kind in WEIGHT_KINDS:
            wkey = f"{prev.name}.w"
            w = out.params[wkey]
            view = scale.reshape((-1,) + (1,) * (w.ndim - 1))
            out.params[wkey] = (w * view).astype(w.dtype)
            bkey = f"{prev.name}.b"
            if bkey in out.params:
                b = out.params[bkey]
                out.params[bkey] = (b * scale + shift).astype(b.dtype)
            else:
                out.params[bkey] = shift.astype(np.float32).copy()
                out.layers[idx - 1] = replace(prev, has_bias=True)
        elif prev.kind in ("batchnorm", "layernorm"):
            gkey, bkey = f"{prev.name}.gamma", f"{prev.name}.beta"
            if gkey in out.params:
                g, be = out.params[gkey], out.params[bkey]
                out.params[gkey] = (g * scale).astype(g.dtype)
                out.params[bkey] = (be * scale + shift).astype(be.dtype)
            else:
                out.params[gkey] = scale.astype(np.float32).copy()
                out.params[bkey] = shift.astype(np.float32).copy()
                out.layers[idx - 1] = replace(prev, affine=True)
        else:
            raise ValueError(
                f"channel_affine after {prev.kind} ({prev.name}) cannot be folded")
        del out.params[f"{spec.name}.scale"]
        del out.params[f"{spec.name}.shift"]
        del out.layers[idx]
