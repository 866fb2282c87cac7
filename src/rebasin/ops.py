"""Array primitives for the sequential network engine.

Every op comes in a forward flavor and a hand-derived backward flavor.
Ops never force a dtype: float32 pipelines stay float32, while float64
inputs (used by gradient checks) propagate as float64. Moments is the
streaming mean/variance accumulator of the statistics passes, and DEAD_STD
the dead-unit rule that repair and matching share.

Layout: given C-contiguous arrays, every op returns C-contiguous arrays;
conv2d_fwd and col2im return them whatever their input's layout. So every
activation and gradient of a network keeps one (N, C[, H, W]) layout, and
elementwise ops and per-channel reductions run on matching contiguous
operands. Convolution is channels-first too: im2col lays the patches out as
(N, C*k*k, Ho*Wo), so the forward GEMM W @ cols writes (N, Cout, Ho*Wo),
the NCHW output, and the input gradient W.T @ dy is patch gradients in the
same layout, which col2im reads by whole (Ho, Wo) rows.

In place: an op writes into a buffer it allocated itself, and into an
argument only where that is documented: relu_bwd writes into dy, and the
forward ops taking inplace=True may overwrite x (the caller gives x up; the
result may be x itself). A write into a buffer happens only where it keeps
the dtype of the out-of-place expression (see _into), and performs the same
IEEE operations in the same order, so values are bitwise the same.
"""
import numpy as np


def chanview(v, ndim):
    """Reshape a per-channel vector so it broadcasts over (N, C[, H, W])."""
    if ndim == 2:
        return v[None, :]
    return v[None, :, None, None]


def _into(ufunc, a, b, out=None):
    """ufunc(a, b) written into out (by default a), a buffer of the result's
    shape that the caller may overwrite, when that keeps the out-of-place
    result's dtype; otherwise (float32 out, float64 b, say) out of place."""
    out = a if out is None else out
    if np.result_type(a, b) == out.dtype:
        return ufunc(a, b, out=out)
    return ufunc(a, b)


# ---------------------------------------------------------------- dense

def dense_fwd(x, w, b):
    y = x @ w.T
    if b is not None:
        y = _into(np.add, y, b)
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
    """(N,C,H,W) -> (N, C*k*k, Ho*Wo) patch matrix, in a buffer of its own.

    Row c*k*k + ki*k + kj of sample n holds input channel c at kernel offset
    (ki, kj) for every output position, row-major. The input is zero-padded
    (one NCHW copy) only when pad > 0; each of the k*k kernel offsets then
    fills its (N, C, Ho, Wo) slot of the (N, C, k*k, Ho, Wo) output with one
    strided slice copy. The patches never share memory with x, which later
    layers of an eval walk may overwrite.
    """
    n, c, h, w = x.shape
    ho, wo = conv_out_hw(h, w, k, stride, pad)
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    cols = np.empty((n, c, k * k, ho, wo), dtype=x.dtype)
    for i, win in enumerate(_pool_windows(ho, wo, k, stride)):
        cols[:, :, i] = xp[win]
    return cols.reshape(n, c * k * k, ho * wo), (ho, wo)


def _inside(off, pad, stride, n_out, size):
    """The outputs i whose tap off lands inside the unpadded input, at
    off - pad + stride * i: (slice of i, slice of input positions)."""
    lo = max(0, -(-(pad - off) // stride))
    hi = min(n_out, (size - 1 - off + pad) // stride + 1)
    first = off - pad + stride * lo
    return slice(lo, hi), slice(first, first + stride * (hi - lo - 1) + 1, stride)


def col2im(dcols, x_shape, k, stride, pad, out_hw):
    """Sum (N, C*k*k, Ho*Wo) patch gradients back onto the (N, C, H, W)
    input, C-contiguous.

    Each kernel offset adds, in row-major offset order, the gradients of the
    patch entries that fall inside the input, reading whole (Ho, Wo) rows of
    dcols; entries on the zero padding are dropped, as slicing them off a
    padded sum would drop them.
    """
    n, c, h, w = x_shape
    ho, wo = out_hw
    dx = np.zeros((n, c, h, w), dtype=dcols.dtype)
    d6 = dcols.reshape(n, c, k, k, ho, wo)
    for ki in range(k):
        src_i, dst_i = _inside(ki, pad, stride, ho, h)
        for kj in range(k):
            src_j, dst_j = _inside(kj, pad, stride, wo, w)
            dx[:, :, dst_i, dst_j] += d6[:, :, ki, kj, src_i, src_j]
    return dx


def conv2d_fwd(x, w, b, stride, pad):
    """(y, cols): y = W @ cols per sample, which is already (N, Cout, Ho*Wo),
    so the GEMM writes the NCHW output and no layout copy follows."""
    n = x.shape[0]
    cout, cin, k, _ = w.shape
    cols, (ho, wo) = im2col(x, k, stride, pad)
    y = w.reshape(cout, -1) @ cols
    if b is not None:
        y = _into(np.add, y, b[:, None])
    return y.reshape(n, cout, ho, wo), cols


def conv2d_dx(x_shape, w, dy, stride, pad):
    """Input gradient: the (N, C*k*k, Ho*Wo) patch gradients W.T @ dy, per
    sample, summed back onto the input by col2im."""
    n, cout = dy.shape[:2]
    dcols = w.reshape(cout, -1).T @ dy.reshape(n, cout, -1)
    return col2im(dcols, x_shape, w.shape[2], stride, pad, dy.shape[2:])


def conv2d_wgrad(cols, w_shape, dy):
    """Weight and bias gradients of a conv layer from its im2col patches: (dw, db).

    dw is one GEMM that reduces over (n, p), samples major: dw.T =
    patches (C*k*k, N*Ho*Wo) @ dy (N*Ho*Wo, Cout). The patches' copy moves
    whole Ho*Wo rows, cheaper than transposing them element-wise.
    """
    n, ckk, _ = cols.shape
    cout = w_shape[0]
    patches = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(ckk, -1)
    rows = np.ascontiguousarray(dy.reshape(n, cout, -1).transpose(0, 2, 1)).reshape(-1, cout)
    dw = np.ascontiguousarray((patches @ rows).T)
    return dw.reshape(w_shape), dy.sum(axis=(0, 2, 3))


def conv2d_bwd(cols, x_shape, w, dy, stride, pad):
    return (conv2d_dx(x_shape, w, dy, stride, pad),) + conv2d_wgrad(cols, w.shape, dy)


SQ_GRAD_BLOCK = 16   # samples per block of conv2d_sq_grad


def conv2d_sq_grad(cols, w_shape, dy):
    """Sum over samples of the squared per-sample weight gradient, in float64.

    The per-sample gradients g = dy (Cout, Ho*Wo) @ patches.T (Ho*Wo, C*k*k)
    are formed SQ_GRAD_BLOCK samples at a time, each block from a C-ordered
    float64 copy of its transposed patches, and squared in place. Each block
    is summed below the running sum, in one reduction over the sample axis,
    so the samples add in order, as one reduction over the whole batch adds
    them: the bits do not depend on the block size."""
    n, cout = dy.shape[:2]
    dy = dy.reshape(n, cout, -1)
    buf = np.empty((min(n, SQ_GRAD_BLOCK) + 1, cout, cols.shape[1]), dtype=np.float64)
    total = None
    for lo in range(0, n, SQ_GRAD_BLOCK):
        hi = min(n, lo + SQ_GRAD_BLOCK)
        g = buf[1:1 + hi - lo]
        np.matmul(dy[lo:hi].astype(np.float64),
                  cols[lo:hi].transpose(0, 2, 1).astype(np.float64, order="C"), out=g)
        np.square(g, out=g)
        if total is None:
            total = g.sum(axis=0)
        else:
            buf[0] = total
            total = buf[:1 + hi - lo].sum(axis=0)
    return total.reshape(w_shape)


# ---------------------------------------------------------------- relu / pool / flatten

def relu_fwd(x, inplace=False):
    return _into(np.maximum, x, 0) if inplace else np.maximum(x, 0)


def relu_bwd(y, dy):
    """dy masked where y is not > 0, written into dy. y may be relu's input
    or its output: both are > 0 at the same places."""
    return _into(np.multiply, dy, y > 0)


def _pool_windows(ho, wo, k, stride):
    """Index of each kernel offset's strided slice, in row-major offset order:
    x[win] holds that element of every pooling window, laid out like y.
    im2col reads its patches the same way."""
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


def batchnorm_fwd(x, gamma, beta, mean, var, eps, use_batch, inplace=False):
    """Returns (y, cache, batch_mean, batch_var_unbiased); the last two are None
    in running-stats mode. With inplace, y may be x itself and the cache is
    None: an eval pass has no backward."""
    axes = _stat_axes(x.ndim, per_sample=False)
    if use_batch:
        n_eff = int(np.prod([x.shape[a] for a in axes]))
        if n_eff < 2:
            raise ValueError(
                "batch statistics need more than one value per channel (got %d)" % n_eff)
        mu = x.mean(axis=axes)
    else:
        mu = mean
    mu_c = chanview(mu, x.ndim)
    xhat = _into(np.subtract, x, mu_c) if inplace else x - mu_c    # centred here, scaled below
    if use_batch:
        v = (xhat * xhat).mean(axis=axes)    # bitwise x.var(axis=axes)
        var_unbiased = v * (n_eff / (n_eff - 1.0))
    else:
        v, var_unbiased = var, None
    inv = 1.0 / np.sqrt(v + eps)
    xhat = _into(np.multiply, xhat, chanview(inv, x.ndim))
    y = xhat
    if gamma is not None:
        g = chanview(gamma, x.ndim)
        y = _into(np.multiply, xhat, g) if inplace else xhat * g
        y = _into(np.add, y, chanview(beta, x.ndim))
    cache = None if inplace else (xhat, inv, gamma, axes, use_batch)
    bm = mu if use_batch else None
    return y, cache, bm, var_unbiased


def batchnorm_bwd(cache, dy, param_grads=True):
    """(dx, dgamma, dbeta), with g = dy * gamma (dy without an affine):
    dx = inv * ((g - mean(g)) - xhat * mean(g * xhat)) on batch statistics,
    g * inv on running ones. dx is built in g's buffer, the products in one
    scratch buffer. Without param_grads, dgamma and dbeta are None and not
    computed; dx keeps its bits."""
    xhat, inv, gamma, axes, use_batch = cache
    ndim = dy.ndim
    inv = chanview(inv, ndim)
    dgamma = dbeta = tmp = None
    g = dy      # without an affine g is dy, which is not this op's to overwrite
    if gamma is not None:
        if param_grads:
            tmp = dy * xhat
            dgamma, dbeta = tmp.sum(axis=axes), dy.sum(axis=axes)
        g = dy * chanview(gamma, ndim)
    if not use_batch:
        return (g * inv if g is dy else _into(np.multiply, g, inv)), dgamma, dbeta
    # a Python int: a NumPy int64 would promote float32 dy to float64
    m = int(np.prod([dy.shape[a] for a in axes]))
    tmp = g * xhat if tmp is None else _into(np.multiply, g, xhat, out=tmp)
    gx_mean = chanview(tmp.sum(axis=axes) / m, ndim)
    g_mean = chanview(g.sum(axis=axes) / m, ndim)
    dx = g - g_mean if g is dy else _into(np.subtract, g, g_mean)
    dx = _into(np.subtract, dx, _into(np.multiply, xhat, gx_mean, out=tmp))
    return _into(np.multiply, dx, inv), dgamma, dbeta


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


def layernorm_bwd(cache, dy, param_grads=True):
    """(dx, dgamma, dbeta); without param_grads dgamma and dbeta are None."""
    xhat, inv, gamma, axes = cache
    dgamma = dbeta = None
    g = dy
    if gamma is not None:
        if param_grads:
            red = (0,) if dy.ndim == 2 else (0, 2, 3)
            dgamma = (dy * xhat).sum(axis=red)
            dbeta = dy.sum(axis=red)
        g = dy * chanview(gamma, dy.ndim)
    dx = inv * (g - g.mean(axis=axes, keepdims=True)
                - xhat * (g * xhat).mean(axis=axes, keepdims=True))
    return dx, dgamma, dbeta


def channel_affine_fwd(x, scale, shift, inplace=False):
    s = chanview(scale, x.ndim)
    y = _into(np.multiply, x, s) if inplace else x * s
    return _into(np.add, y, chanview(shift, x.ndim))


def channel_affine_bwd(x, scale, dy, param_grads=True):
    """(dx, dscale, dshift); without param_grads dscale and dshift are None."""
    dx = dy * chanview(scale, dy.ndim)
    if not param_grads:
        return dx, None, None
    red = (0,) if dy.ndim == 2 else (0, 2, 3)
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
