"""Array primitives for the sequential network engine.

Every op comes in a forward flavor and a hand-derived backward flavor.
Ops never force a dtype: float32 pipelines stay float32, while float64
inputs (used by gradient checks) propagate as float64. Moments is the
streaming mean/variance accumulator of the statistics passes, and DEAD_STD
the dead-unit rule that repair and matching share.
"""
import numpy as np


def chanview(v, ndim):
    """Reshape a per-channel vector so it broadcasts over (N, C[, H, W])."""
    if ndim == 2:
        return v[None, :]
    return v[None, :, None, None]


# ---------------------------------------------------------------- dense

def dense_fwd(x, w, b):
    y = x @ w.T
    if b is not None:
        y = y + b[None, :]
    return y


def dense_dx(w, dy):
    return dy @ w


def dense_bwd(x, w, dy):
    dx = dense_dx(w, dy)
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


def dense_sq_grad(x, dy):
    """Sum over samples of the squared per-sample weight gradient, in float64."""
    return dy.astype(np.float64).T ** 2 @ x.astype(np.float64) ** 2


# ---------------------------------------------------------------- conv2d

def conv_out_hw(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def im2col(x, k, stride, pad):
    """(N,C,H,W) -> (N, Ho*Wo, C*k*k) patch matrix."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = conv_out_hw(h, w, k, stride, pad)
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # (N, C, Ho, Wo, k, k)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * k * k)
    return np.ascontiguousarray(cols), (ho, wo)


def col2im(dcols, x_shape, k, stride, pad, out_hw):
    n, c, h, w = x_shape
    ho, wo = out_hw
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    d6 = dcols.reshape(n, ho, wo, c, k, k).transpose(0, 3, 4, 5, 1, 2)  # (N,C,k,k,Ho,Wo)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += d6[:, :, ki, kj]
    if pad:
        return dxp[:, :, pad:-pad, pad:-pad]
    return dxp


def conv2d_fwd(x, w, b, stride, pad):
    n = x.shape[0]
    cout, cin, k, _ = w.shape
    cols, (ho, wo) = im2col(x, k, stride, pad)
    y = cols @ w.reshape(cout, -1).T             # (N, Ho*Wo, Cout)
    if b is not None:
        y = y + b[None, None, :]
    y = y.transpose(0, 2, 1).reshape(n, cout, ho, wo)
    return y, cols


def _dy_rows(dy):
    n, cout, ho, wo = dy.shape
    return dy.reshape(n, cout, ho * wo).transpose(0, 2, 1)     # (N, Ho*Wo, Cout)


def conv2d_dx(x_shape, w, dy, stride, pad):
    dcols = _dy_rows(dy) @ w.reshape(w.shape[0], -1)
    return col2im(dcols, x_shape, w.shape[2], stride, pad, dy.shape[2:])


def conv2d_bwd(cols, x_shape, w, dy, stride, pad):
    dw = np.einsum("npo,npk->ok", _dy_rows(dy), cols).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    return conv2d_dx(x_shape, w, dy, stride, pad), dw, db


def conv2d_sq_grad(cols, w_shape, dy):
    """Sum over samples of the squared per-sample weight gradient, in float64."""
    g = np.einsum("npo,npk->nok", _dy_rows(dy).astype(np.float64),
                  cols.astype(np.float64))
    return (g ** 2).sum(axis=0).reshape(w_shape)


# ---------------------------------------------------------------- relu / pool / flatten

def relu_fwd(x):
    return np.maximum(x, 0)


def relu_bwd(x, dy):
    return dy * (x > 0)


def maxpool_fwd(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, ho, wo, k * k)
    arg = win.argmax(axis=-1)
    y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return y, arg


def maxpool_bwd(x_shape, arg, k, stride, dy):
    n, c, h, w = x_shape
    ho, wo = arg.shape[2], arg.shape[3]
    ii = (np.arange(ho) * stride)[None, None, :, None] + arg // k
    jj = (np.arange(wo) * stride)[None, None, None, :] + arg % k
    dx = np.zeros(x_shape, dtype=dy.dtype)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, ii, jj), dy)
    return dx


# ---------------------------------------------------------------- normalization

def _stat_axes(ndim, per_sample):
    # per_sample=False: batchnorm reduces over batch (and space); True: layernorm
    # reduces over every feature axis of one sample.
    if per_sample:
        return tuple(range(1, ndim))
    return (0,) if ndim == 2 else (0, 2, 3)


def batchnorm_fwd(x, gamma, beta, mean, var, eps, use_batch):
    """Returns (y, cache, batch_mean, batch_var_unbiased); the last two are None
    in running-stats mode."""
    axes = _stat_axes(x.ndim, per_sample=False)
    if use_batch:
        n_eff = int(np.prod([x.shape[a] for a in axes]))
        if n_eff < 2:
            raise ValueError(
                "batch statistics need more than one value per channel (got %d)" % n_eff)
        mu = x.mean(axis=axes)
        v = x.var(axis=axes)
        var_unbiased = v * (n_eff / (n_eff - 1.0))
    else:
        mu, v = mean, var
        var_unbiased = None
    inv = 1.0 / np.sqrt(v + eps)
    xhat = (x - chanview(mu, x.ndim)) * chanview(inv, x.ndim)
    y = xhat
    if gamma is not None:
        y = xhat * chanview(gamma, x.ndim) + chanview(beta, x.ndim)
    cache = (xhat, inv, gamma, axes, use_batch)
    bm = mu if use_batch else None
    return y, cache, bm, var_unbiased


def batchnorm_bwd(cache, dy):
    xhat, inv, gamma, axes, use_batch = cache
    dgamma = (dy * xhat).sum(axis=axes) if gamma is not None else None
    dbeta = dy.sum(axis=axes) if gamma is not None else None
    g = dy if gamma is None else dy * chanview(gamma, dy.ndim)
    if use_batch:
        m = np.prod([dy.shape[a] for a in axes])
        dx = chanview(inv, dy.ndim) * (
            g - chanview(g.sum(axis=axes) / m, dy.ndim)
            - xhat * chanview((g * xhat).sum(axis=axes) / m, dy.ndim))
    else:
        dx = g * chanview(inv, dy.ndim)
    return dx, dgamma, dbeta


def layernorm_fwd(x, gamma, beta, eps):
    axes = _stat_axes(x.ndim, per_sample=True)
    mu = x.mean(axis=axes, keepdims=True)
    v = x.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(v + eps)
    xhat = (x - mu) * inv
    y = xhat
    if gamma is not None:
        y = xhat * chanview(gamma, x.ndim) + chanview(beta, x.ndim)
    return y, (xhat, inv, gamma, axes)


def layernorm_bwd(cache, dy):
    xhat, inv, gamma, axes = cache
    if gamma is not None:
        red = (0,) if dy.ndim == 2 else (0, 2, 3)
        dgamma = (dy * xhat).sum(axis=red)
        dbeta = dy.sum(axis=red)
        g = dy * chanview(gamma, dy.ndim)
    else:
        dgamma = dbeta = None
        g = dy
    dx = inv * (g - g.mean(axis=axes, keepdims=True)
                - xhat * (g * xhat).mean(axis=axes, keepdims=True))
    return dx, dgamma, dbeta


def channel_affine_fwd(x, scale, shift):
    return x * chanview(scale, x.ndim) + chanview(shift, x.ndim)


def channel_affine_bwd(x, scale, dy):
    red = (0,) if dy.ndim == 2 else (0, 2, 3)
    dx = dy * chanview(scale, dy.ndim)
    dscale = (dy * x).sum(axis=red)
    dshift = dy.sum(axis=red)
    return dx, dscale, dshift


# ---------------------------------------------------------------- loss

def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy in float64, with the gradient in the logits' dtype."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -float(logp[np.arange(n), labels].mean())
    p = np.exp(logp)
    p[np.arange(n), labels] -= 1.0
    dlogits = (p / n).astype(logits.dtype)
    return loss, dlogits


def accuracy(logits, labels):
    return float((logits.argmax(axis=1) == labels).mean())


# ---------------------------------------------------------------- streaming moments

DEAD_STD = 1e-8   # a unit whose measured std is at most this counts as dead


class Moments:
    """Row count, column means and centred co-moment of a stream of row
    batches, in float64, merged by Chan, Golub and LeVeque's pairwise update.

    add(x) tracks each column's variance (a 1-D x is one column); add(x, y)
    tracks the covariance of every column of x with every column of y.
    """

    def __init__(self):
        self.n, self.mean, self.mean_y, self.m2 = 0, 0.0, 0.0, 0.0

    def add(self, x, y=None):
        x = np.asarray(x, dtype=np.float64)
        k, mx = len(x), x.mean(axis=0)
        dx = x - mx
        if y is None:
            my = mx
            if x.ndim == 1:   # numpy sums a 1-D array pairwise, as a long column needs
                m2 = np.square(dx, out=dx).sum()
            else:
                m2 = np.einsum("ij,ij->j", dx, dx)
        else:
            y = np.asarray(y, dtype=np.float64)
            my = y.mean(axis=0)
            m2 = dx.T @ (y - my)
        n = self.n + k
        ex, ey = mx - self.mean, my - self.mean_y
        shift = ex * ey if y is None else np.outer(ex, ey)
        self.m2 = self.m2 + m2 + shift * (self.n * k / n)
        self.mean = self.mean + ex * (k / n)
        self.mean_y = self.mean_y + ey * (k / n)
        self.n = n

    @property
    def cov(self):
        """Population (co)variance: per column after add(x), a matrix after add(x, y)."""
        return self.m2 / self.n

    @property
    def std(self):
        return np.sqrt(self.cov)
