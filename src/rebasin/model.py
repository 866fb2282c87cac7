"""Sequential model graphs: construction, forward evaluation with activation
taps, and folding of channel-affine corrections.

A ModelGraph is an ordered list of LayerSpec descriptors plus a flat dict of
named tensors. Permutable boundaries (hidden weight-layer outputs) are listed
in boundary_map; normalization/affine layers attach to the boundary of the
weight layer they directly follow.
"""
import copy as _copy
import itertools
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


# descriptor key -> (LayerSpec field, field type); values of another type are
# kept as given for _out_shape to reject
_SPEC_FIELDS = {
    "in": ("n_in", int), "out": ("n_out", int), "k": ("kernel", int),
    "stride": ("stride", int), "pad": ("pad", int), "bias": ("has_bias", bool),
    "eps": ("eps", float), "momentum": ("momentum", float),
    "affine": ("affine", bool),
}

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


_CONVERTIBLE = {int: (int, np.integer), float: (int, float, np.integer, np.floating),
                bool: (bool, np.bool_)}


def _convert(typ, value):
    """value as typ when it is of a kind typ stands for (NumPy scalars
    included; a bool is no number and a number no bool), else unchanged."""
    is_bool = isinstance(value, (bool, np.bool_))
    if isinstance(value, _CONVERTIBLE[typ]) and is_bool == (typ is bool):
        return typ(value)
    return value


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

    Each weight layer's fan-in and each norm layer's channel count come from
    the shape reaching it. Boundary ids b0, b1, ... are assigned to every
    hidden weight-layer output in order, and to the norm layers extending
    its chain; the result must then pass propagate_shapes, as a loaded
    checkpoint must.
    """
    if not isinstance(descriptor, dict):
        raise BuildError("descriptor must be a dict")
    extra = set(descriptor) - {"input_shape", "layers"}
    if extra:
        raise BuildError(f"unknown descriptor keys: {sorted(extra)}")
    try:
        input_shape = tuple(_convert(int, d) for d in descriptor["input_shape"])
        raw_layers = list(descriptor["layers"])
    except (KeyError, TypeError) as e:
        raise BuildError(f"descriptor needs input_shape and layers: {e}") from None

    counters = {}
    specs = []
    cur = _check_input_shape(input_shape)
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
        spec = LayerSpec(kind, f"{_NAME_PREFIX[kind]}{idx}",
                         **{_SPEC_FIELDS[k][0]: _convert(_SPEC_FIELDS[k][1], v)
                            for k, v in entry.items() if k != "kind"})
        if kind in WEIGHT_KINDS and spec.n_in is None:
            spec.n_in = cur[0]       # a declared fan-in is checked by _out_shape
        if kind in NORM_KINDS:
            spec.channels = cur[0]
        if kind in ("conv2d", "maxpool2d") and spec.stride is None:
            spec.stride = 1 if kind == "conv2d" else spec.kernel
        cur = _out_shape(spec, cur)
        specs.append(spec)

    hidden = [s for s in specs if s.kind in WEIGHT_KINDS][:-1]
    for b, s in enumerate(hidden):
        s.boundary = f"b{b}"
    for prev, s in zip(specs, specs[1:]):
        if s.kind in NORM_KINDS:
            s.boundary = prev.boundary
    propagate_shapes(specs, input_shape)

    params = {k: np.full(shape, fill, dtype=np.float32)
              for s in specs for k, (shape, fill) in layer_tensors(s).items()}
    return ModelGraph(layers=specs, params=params,
                      boundary_map=[(s.boundary, s.n_out) for s in hidden],
                      input_shape=input_shape,
                      meta={"arch": _copy.deepcopy(descriptor)})


# ---------------------------------------------------------------- shape rules and wiring

def _check_input_shape(shape):
    if len(shape) not in (1, 3) or any(isinstance(d, bool) or not isinstance(d, int)
                                       or d < 1 for d in shape):
        raise BuildError(f"unsupported input shape {shape}")
    return shape


def _check_ints(spec, **lows):
    for field, low in lows.items():
        value = getattr(spec, field)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise BuildError(f"{spec.name}: {field} must be an integer >= {low}, "
                             f"got {value!r}")


def _out_shape(spec, shape):
    """One layer's output shape (batch axis excluded) from its input shape:
    the per-kind geometry, written once. Raises BuildError when the layer
    does not fit that input or its own fields are out of range."""
    kind, name = spec.kind, spec.name
    for field in ("has_bias", "affine", "batch_stats_in_eval"):
        if not isinstance(getattr(spec, field), bool):
            raise BuildError(f"{name}: {field} must be a bool, "
                             f"got {getattr(spec, field)!r}")
    rank = {"dense": 1, "conv2d": 3, "maxpool2d": 3}.get(kind)
    if rank is not None and len(shape) != rank:
        raise BuildError(f"{name}: {kind} needs a rank-{rank} input, got {shape}")
    if kind in WEIGHT_KINDS:
        if spec.n_in != shape[0]:
            raise BuildError(f"{name}: fan-in {spec.n_in} != input {shape[0]}")
        _check_ints(spec, n_in=1, n_out=1)
        if kind == "dense":
            return (spec.n_out,)
    if kind in ("conv2d", "maxpool2d"):
        pad = spec.pad if kind == "conv2d" else 0    # pooling never pads
        _check_ints(spec, kernel=1, stride=1, pad=0)
        ho, wo = ops.conv_out_hw(shape[1], shape[2], spec.kernel, spec.stride, pad)
        if ho < 1 or wo < 1:
            raise BuildError(f"{name}: {kind} output would be empty ({ho}x{wo})")
        return (spec.n_out if kind == "conv2d" else shape[0], ho, wo)
    if kind == "flatten":
        return (int(np.prod(shape)),)
    if kind in NORM_KINDS:
        if spec.channels != shape[0]:
            raise BuildError(f"{name}: channels {spec.channels} != input {shape[0]}")
        _check_ints(spec, channels=1)
        for field in ("eps", "momentum"):
            value = getattr(spec, field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BuildError(f"{name}: {field} must be a number, got {value!r}")
        if not spec.eps > 0:
            raise BuildError(f"{name}: eps must be positive, got {spec.eps!r}")
        return shape
    if kind == "relu":
        return shape
    raise BuildError(f"{name}: unknown layer kind {kind!r}")


def propagate_shapes(layers, input_shape):
    """Per-layer output shapes (batch axis excluded), checked against every
    rule a layer list must keep; build_model and load_checkpoint both apply
    them. Each layer must fit the shape reaching it (_out_shape). There must
    be a weight layer; every hidden one carries a boundary and the final one
    none. A norm layer must directly follow a hidden weight layer or a norm
    layer extending its chain, and carry that weight layer's boundary, so
    wiring's pre-activation tap ends the chain. Raises BuildError otherwise.
    """
    cur = _check_input_shape(tuple(input_shape))
    weights = [s for s in layers if s.kind in WEIGHT_KINDS]
    if not weights:
        raise BuildError("model has no weight layers")
    shapes = []
    owner = None       # the weight layer whose normalization chain is open
    for s in layers:
        cur = _out_shape(s, cur)
        shapes.append(cur)
        if s.kind in WEIGHT_KINDS:
            if (s.boundary is None) != (s is weights[-1]):
                raise BuildError(f"{s.name}: hidden weight layers carry a boundary, "
                                 "the final one none")
            owner = s
        elif s.kind in NORM_KINDS:
            if owner is None:
                raise BuildError(f"{s.name}: {s.kind} must directly follow a weight "
                                 "layer or another normalization layer")
            if owner is weights[-1]:
                raise BuildError(f"{s.name}: normalization after the final weight "
                                 "layer is unsupported")
            if s.boundary != owner.boundary:
                raise BuildError(f"{s.name}: boundary {s.boundary!r} is not "
                                 f"{owner.name}'s {owner.boundary!r}")
        else:
            owner = None
    return shapes


def wiring(model):
    """Boundary bookkeeping: producer/consumer/norm indices and tap points.
    Which tensor axes a boundary's permutation moves is match._perm_axes,
    built from these indices."""
    layers = model.layers
    propagate_shapes(layers, model.input_shape)     # the indices assume it holds
    weight_idxs = [i for i, s in enumerate(layers) if s.kind in WEIGHT_KINDS]
    out = {}
    for bid, units in model.boundary_map:
        producer = next(i for i in weight_idxs if layers[i].boundary == bid)
        norms = [i for i, s in enumerate(layers)
                 if s.kind in NORM_KINDS and s.boundary == bid]
        consumer = next(i for i in weight_idxs if i > producer)
        pre_tap = max([producer] + norms)
        post_tap = pre_tap
        if pre_tap + 1 < len(layers) and layers[pre_tap + 1].kind == "relu":
            post_tap = pre_tap + 1
        out[bid] = Boundary(bid=bid, units=units, producer=producer,
                            consumer=consumer, norms=norms, pre_tap=pre_tap,
                            post_tap=post_tap)
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

def _layer_fwd(spec, p, x, use_batch, update_stats, collect_norm_stats, inplace=False):
    """One layer's forward: (output, the cache _backward needs). With
    inplace, a relu, batchnorm or channel_affine may write its output into
    x, and its cache is then no use to _backward."""
    kind, name = spec.kind, spec.name
    if kind == "dense":
        return ops.dense_fwd(x, p[f"{name}.w"], p.get(f"{name}.b")), x
    if kind == "conv2d":
        y, cols = ops.conv2d_fwd(x, p[f"{name}.w"], p.get(f"{name}.b"),
                                 spec.stride, spec.pad)
        return y, (cols, x.shape)
    if kind == "relu":
        y = ops.relu_fwd(x, inplace=inplace)
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
                use_batch, inplace=inplace)
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
        return ops.channel_affine_fwd(x, p[f"{name}.scale"], p[f"{name}.shift"],
                                      inplace=inplace), x
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


# Layer kinds whose output is finite wherever their input is: a walk checks
# their output only when the walk starts at them, as their input's check,
# one layer earlier, already covers it.
_FINITE_KEEPING = ("relu", "maxpool2d", "flatten")


def _walk(model, x, batch_stats, update_stats, track, taps=(), caches=None,
          collect_norm_stats=None, start=0, stop=None, check=None):
    """The one layer loop: returns (output, {(bid, phase): tapped value}).

    start and stop walk layers [start, stop) only (default: all of them): x
    is then the input of layer start, and the output the input of layer stop.
    Splitting a walk at any index gives bitwise the whole walk's values.

    batch_stats puts every batchnorm on batch (True) or running (False)
    statistics; None leaves the choice to each layer's batch_stats_in_eval.
    update_stats moves the running statistics of layers on batch statistics
    and, with track, any tracked boundary statistics. With a caches list,
    each layer's backward cache is appended to it. Without one (an eval pass)
    no cache outlives its layer. check has every layer output checked for
    non-finite values (a relu, maxpool2d or flatten output only at the
    walk's first layer: elsewhere its input was checked, so the first
    non-finite layer is still the one named); by default an eval pass
    checks and a walk with caches does not: training leaves that to its
    loss check, so divergence is reported with the iteration.

    An eval pass also lets a relu, batchnorm or channel_affine layer write
    its output into its input when the walk itself made that input, as the
    output of an earlier layer (a flatten's output is its input's), and no
    tap captured it. So a walk never writes into the caller's x, a feed's
    activations, a tapped value or a parameter.
    """
    p = model.params
    if check is None:
        check = caches is None
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
    own = False     # cur is a buffer this eval walk made and nothing else holds
    layers = model.layers
    for idx in range(start, len(layers) if stop is None else stop):
        spec = layers[idx]
        use_batch = spec.batch_stats_in_eval if batch_stats is None else batch_stats
        cur, cache = _layer_fwd(spec, p, cur, use_batch, update_stats,
                                collect_norm_stats, inplace=own)
        if check and (idx == start or spec.kind not in _FINITE_KEEPING):
            _check_finite(spec.name, cur)
        if caches is None:
            del cache   # conv cols are large; an eval pass drops them at once
            own = own or spec.kind != "flatten"
        else:
            caches.append((spec, cache))
        for bid, phase in at.get(idx, ()):
            if (bid, phase) in taps:
                captured[(bid, phase)] = cur
                own = False
            if phase == PRE and tracked and f"stats.{bid}.mean" in p:
                _update_tracked(p, bid, cur)
    return cur, captured


def _check_finite(layer_name, value):
    """An eval pass's check of one layer's output."""
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(layer_name)


def _inputs(dataset, batch_size, drop_last, max_batches=None, feed=None):
    """One unshuffled pass over dataset: (start layer, walk input, labels)
    for each of its first max_batches batches (all by default), in dataset
    order. drop_last drops a final short batch. Every evaluation and
    statistics pass reads its batches here.

    Without a feed, each walk starts at layer 0 from the input batch. A feed
    (start, act) stands act(k, x), the output of layer start - 1 for batch k
    whose input batch is x, in for the layers before start. A pass that
    reads no batch raises ValueError.
    """
    start, act = (0, None) if feed is None else feed
    k = -1
    for k, (xb, yb) in enumerate(itertools.islice(
            dataset.batches(batch_size, shuffle=False, drop_last=drop_last), max_batches)):
        yield start, xb if act is None else act(k, xb), yb
    if k < 0:
        raise ValueError("dataset smaller than one batch")


def _check_batch(model, x):
    """x as an array, once its shape is a batch of model's inputs."""
    x = np.asarray(x)
    if x.ndim < 2 or tuple(x.shape[1:]) != tuple(model.input_shape):
        raise ValueError(
            f"batch shape {x.shape[1:]} does not match input shape {model.input_shape}")
    return x


def forward(model, x, taps=None, mode="eval", update_stats=None,
            collect_norm_stats=None, _start=0):
    """Evaluate the model on a batch.

    taps: optional iterable of (boundary_id, phase) pairs to capture; when
    given, returns (logits, [ActivationTap, ...]) in request order.
    mode "train" makes batchnorm use batch statistics (and, when update_stats
    is true, update running statistics and any tracked boundary statistics).
    With _start, x is the output of layer _start - 1, not an input batch:
    only the layers from _start on run, and a tap at layer _start - 1
    captures x (see _inputs).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if update_stats is None:
        update_stats = mode == "train"
    if not _start:
        x = _check_batch(model, x)

    requests = [tuple(t) for t in taps] if taps is not None else []
    units = dict(model.boundary_map)
    for bid, phase in requests:
        if bid not in units or phase not in (PRE, POST):
            raise ValueError(f"unknown tap ({bid!r}, {phase!r}): boundaries are "
                             f"{list(units)}, phases {PRE!r} and {POST!r}")
    train = mode == "train"
    cur, captured = _walk(model, x, batch_stats=True if train else None,
                          update_stats=update_stats and train, track=True,
                          taps=requests, collect_norm_stats=collect_norm_stats,
                          start=_start)
    if _start and requests:
        wir = wiring(model)
        for bid, phase in requests:
            b = wir[bid]
            if (b.pre_tap if phase == PRE else b.post_tap) == _start - 1:
                captured[(bid, phase)] = x
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


def _holds_grads(spec, p):
    """Whether _backward writes a gradient for one of the layer's tensors."""
    return spec.kind in WEIGHT_KINDS + ("channel_affine",) or f"{spec.name}.gamma" in p


def _backward(model, caches, dy, weight_hook=None, input_grad=True):
    """Backprop dy through the cached layers: gradients keyed by tensor name,
    and the input gradient under "x".

    weight_hook(key, sq), when given, stands in for the dense/conv weight and
    bias gradients: it receives each weight's float64 sum over samples of
    squared per-sample gradients. That is exact only when every layer acts
    per sample (batchnorm on running statistics). No other gradient is
    computed then: the norm and affine layers pass dy down and nothing more.

    With input_grad false the walk ends once the lowest layer holding
    gradients has them, so no gradient flows below it and "x" is absent;
    every tensor gradient is bitwise the full walk's.

    dy is _backward's to overwrite: a relu masks the gradient in place.
    """
    p = model.params
    grads = {}
    last = 0
    if not input_grad:
        last = next((i for i, (spec, _) in enumerate(caches) if _holds_grads(spec, p)),
                    len(caches))
    for i in range(len(caches) - 1, last - 1, -1):
        spec, cache = caches[i]
        kind, name = spec.kind, spec.name
        need_dx = i > last or input_grad
        if kind == "dense":
            w = p[f"{name}.w"]
            if weight_hook:
                weight_hook(f"{name}.w", ops.dense_sq_grad(cache, dy))
                if need_dx:
                    dy = ops.dense_dx(w, dy)
            elif need_dx:
                dy, grads[f"{name}.w"], db = ops.dense_bwd(cache, w, dy)
            else:
                grads[f"{name}.w"], db = ops.dense_wgrad(cache, dy)
        elif kind == "conv2d":
            w, (cols, x_shape) = p[f"{name}.w"], cache
            if weight_hook:
                weight_hook(f"{name}.w", ops.conv2d_sq_grad(cols, w.shape, dy))
                if need_dx:
                    dy = ops.conv2d_dx(x_shape, w, dy, spec.stride, spec.pad)
            elif need_dx:
                dy, grads[f"{name}.w"], db = ops.conv2d_bwd(
                    cols, x_shape, w, dy, spec.stride, spec.pad)
            else:
                grads[f"{name}.w"], db = ops.conv2d_wgrad(cols, w.shape, dy)
        elif kind == "relu":
            dy = ops.relu_bwd(cache, dy)
        elif kind == "maxpool2d":
            dy = ops.maxpool_bwd(*cache, spec.kernel, spec.stride, dy)
        elif kind == "flatten":
            dy = dy.reshape(cache)
        elif kind in ("batchnorm", "layernorm"):
            bwd = ops.batchnorm_bwd if kind == "batchnorm" else ops.layernorm_bwd
            dy, dgamma, dbeta = bwd(cache, dy, not weight_hook)
            if dgamma is not None:
                grads[f"{name}.gamma"], grads[f"{name}.beta"] = dgamma, dbeta
        else:  # channel_affine
            dy, dscale, dshift = ops.channel_affine_bwd(cache, p[f"{name}.scale"], dy,
                                                        not weight_hook)
            if dscale is not None:
                grads[f"{name}.scale"], grads[f"{name}.shift"] = dscale, dshift
        if kind in WEIGHT_KINDS and not weight_hook and f"{name}.b" in p:
            grads[f"{name}.b"] = db
    if input_grad:
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
