"""Shared test utilities: reproducible parameter fills and tiny architectures."""
import numpy as np


def seed_params(model, seed, scale=0.5):
    """Fill every tensor with reproducible values, keeping norm-state invariants sane."""
    rng = np.random.default_rng(seed)
    for name in sorted(model.params):
        shape = model.params[name].shape
        if name.endswith(".running_var") or name.endswith(".var"):
            t = rng.uniform(0.5, 1.5, shape)
        elif name.endswith(".scale") or name.endswith(".gamma"):
            t = rng.uniform(0.6, 1.4, shape)
        elif name.endswith(".running_mean") or name.endswith(".mean"):
            t = rng.normal(0.0, 0.3, shape)
        else:
            t = rng.normal(0.0, scale, shape)
        model.params[name] = t.astype(np.float32)
    return model


def bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def models_bit_equal(m1, m2):
    if set(m1.params) != set(m2.params):
        return False
    return all(bits_equal(m1.params[k], m2.params[k]) for k in m1.params)


def rand_batch(shape, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, scale, (n,) + tuple(shape))).astype(np.float32)


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f() with respect to x, mutated in place."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * eps)
    return g


def large_mean(model, bias=3e4, scale=0.1):
    """Push the first layer's outputs far from zero relative to their spread,
    where a variance formed as E[x^2] - E[x]^2 loses its digits."""
    first = next(s for s in model.layers if s.kind in ("dense", "conv2d"))
    model.params[f"{first.name}.w"] *= np.float32(scale)
    model.params[f"{first.name}.b"][:] = bias
    return model


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - b)) / denom)


def as_float64(model):
    out = model.copy()
    for k in out.params:
        out.params[k] = out.params[k].astype(np.float64)
    return out


def small_cnn_desc(norm="batchnorm", in_shape=(2, 8, 8), classes=3):
    layers = [{"kind": "conv2d", "out": 5, "k": 3, "pad": 1}]
    if norm:
        layers.append({"kind": norm})
    layers += [
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2},
        {"kind": "conv2d", "out": 4, "k": 3, "pad": 1},
    ]
    if norm:
        layers.append({"kind": norm})
    layers += [
        {"kind": "relu"},
        {"kind": "maxpool2d", "k": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": classes},
    ]
    return {"input_shape": list(in_shape), "layers": layers}
