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


def dense_wgrad(x, dy):
    """Weight and bias gradients of a dense layer: (dw, db)."""
    return dy.T @ x, dy.sum(axis=0)


def dense_bwd(x, w, dy):
    return (dense_dx(w, dy),) + dense_wgrad(x, dy)


def dense_sq_grad(x, dy):
    """Sum over samples of the squared per-sample weight gradient, in float64."""
    return dy.astype(np.float64).T ** 2 @ x.astype(np.float64) ** 2


# ---------------------------------------------------------------- conv2d

def conv_out_hw(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def im2col(x, k, stride, pad):
    """(N,C,H,W) -> (N, Ho*Wo, C*k*k) patch matrix.

    The input is copied once to a zero-padded (N, H, W, C) buffer, then each of
    the k*k kernel offsets fills its slot of the (N, Ho, Wo, C, k, k) output
    with one strided slice copy.
    """
    n, c, h, w = x.shape
    ho, wo = conv_out_hw(h, w, k, stride, pad)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, ho, wo, c, k, k), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[..., ki, kj] = xp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
    return cols.reshape(n, ho * wo, c * k * k), (ho, wo)


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


def conv2d_wgrad(cols, w_shape, dy):
    """Weight and bias gradients of a conv layer from its im2col patches: (dw, db)."""
    cout = w_shape[0]
    dw = (_dy_rows(dy).reshape(-1, cout).T @ cols.reshape(-1, cols.shape[-1])).reshape(w_shape)
    return dw, dy.sum(axis=(0, 2, 3))


def conv2d_bwd(cols, x_shape, w, dy, stride, pad):
    return (conv2d_dx(x_shape, w, dy, stride, pad),) + conv2d_wgrad(cols, w.shape, dy)


def conv2d_sq_grad(cols, w_shape, dy):
    """Sum over samples of the squared per-sample weight gradient, in float64."""
    n, cout = dy.shape[:2]
    g = dy.reshape(n, cout, -1).astype(np.float64) @ cols.astype(np.float64)  # (N, Cout, C*k*k)
    return (g ** 2).sum(axis=0).reshape(w_shape)


# ---------------------------------------------------------------- relu / pool / flatten

def relu_fwd(x):
    return np.maximum(x, 0)


def relu_bwd(y, dy):
    """y may be relu's input or its output: both are > 0 at the same places."""
    return dy * (y > 0)


def _pool_windows(ho, wo, k, stride):
    """Index of each kernel offset's strided slice, in row-major offset order:
    x[win] holds that element of every pooling window, laid out like y."""
    for ki in range(k):
        for kj in range(k):
            yield (..., slice(ki, ki + stride * (ho - 1) + 1, stride),
                   slice(kj, kj + stride * (wo - 1) + 1, stride))


def maxpool_fwd(x, k, stride):
    y = None
    for win in _pool_windows(*conv_out_hw(*x.shape[2:], k, stride, 0), k, stride):
        # np.maximum propagates NaN and returns its second operand on ties, so
        # y keeps the first maximum in window order (the sign of a tied zero).
        y = x[win].copy() if y is None else np.maximum(x[win], y, out=y)
    return y


def maxpool_bwd(x, y, k, stride, dy):
    """Send each window's dy to the first of its elements, in row-major order,
    that equals y (the first NaN when y is NaN): the element argmax picks.

    Overlapping windows (stride < k) add into dx in the order of the windows,
    row-major. dx is dy times the chosen element's indicator, so a non-finite
    dy also reaches the window's other elements as 0*dy.
    """
    nan = np.isnan(y).any()
    free = np.ones(y.shape, dtype=bool)      # windows whose element is not chosen yet
    hits = []
    for win in _pool_windows(*y.shape[2:], k, stride):
        hit = x[win] == y
        if nan:
            hit |= np.isnan(x[win])
        hit &= free
        free ^= hit
        hits.append((win, hit))
    dx = np.zeros(x.shape, dtype=dy.dtype)
    # A later kernel offset belongs to an earlier window of the same element.
    for win, hit in reversed(hits):
        dx[win] += dy * hit
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
    else:
        mu = mean
    xhat = x - chanview(mu, x.ndim)       # centred here, scaled below
    if use_batch:
        v = (xhat * xhat).mean(axis=axes)    # bitwise x.var(axis=axes)
        var_unbiased = v * (n_eff / (n_eff - 1.0))
    else:
        v, var_unbiased = var, None
    inv = 1.0 / np.sqrt(v + eps)
    xhat = xhat * chanview(inv, x.ndim)
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
        # a Python int: a NumPy int64 would promote float32 dy to float64
        m = int(np.prod([dy.shape[a] for a in axes]))
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
