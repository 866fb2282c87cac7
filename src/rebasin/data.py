"""Dataset ingestion and synthesis.

Inputs are float32, standardized per channel from the loaded split unless
explicit constants are passed; labels are int64 class ids. Batch iteration is
deterministic given (shuffle seed, epoch index).
"""
import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD = 3073
_NOISE_ROWS = 256   # rows per block of synth_embedded's noise draws, _std64 and _standardize


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"
    norm: tuple | None = None      # (mean, std) applied to the raw [0,1] data
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.inputs.shape[0]

    def batches(self, batch_size, seed=0, epoch=0, shuffle=True, drop_last=True):
        """Yield (inputs, labels) minibatches; order is a pure function of
        (seed, epoch). Unshuffled batches are views of the dataset's arrays,
        shuffled ones copies."""
        n = self.n
        order = np.random.default_rng([int(seed), int(epoch)]).permutation(n) \
            if shuffle else None
        stop = (n // batch_size) * batch_size if drop_last else n
        for lo in range(0, stop, batch_size):
            idx = slice(lo, lo + batch_size) if order is None else order[lo:lo + batch_size]
            yield self.inputs[idx], self.labels[idx]

    def num_batches(self, batch_size, drop_last=True):
        return self.n // batch_size if drop_last else -(-self.n // batch_size)


def _standardize(x, norm):
    """Per-channel standardization of float32 (N, C, H, W) inputs, in place
    and _NOISE_ROWS samples at a time; each value is (x - mean) / std in the
    norm's precision, rounded to float32."""
    if norm is None:
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        std = np.maximum(_std64(x, mean), 1e-8)
        norm = (mean.astype(np.float32), std.astype(np.float32))
    mean, std = (v[:, None, None] for v in norm)
    for lo in range(0, len(x), _NOISE_ROWS):
        block = x[lo:lo + _NOISE_ROWS]
        block[...] = (block - mean) / std
    return x, norm


def load_idx(images, labels, standardize=True, norm=None, split="train"):
    """Parse an IDX image/label file pair, by path (u8 pixels, big-endian headers)."""
    with open(images, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise DataError("image file too short for IDX header")
    magic, n, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"bad image magic 0x{magic:08x}")
    if len(blob) != 16 + n * rows * cols:
        raise DataError(f"image payload size mismatch for count {n}")
    images = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols)

    with open(labels, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise DataError("label file too short for IDX header")
    magic, nl = struct.unpack(">II", blob[:8])
    if magic != IDX_LABEL_MAGIC:
        raise DataError(f"bad label magic 0x{magic:08x}")
    if len(blob) != 8 + nl:
        raise DataError(f"label payload size mismatch for count {nl}")
    if nl != n:
        raise DataError(f"image count {n} != label count {nl}")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.max(initial=0) > 9:
        raise DataError(f"label value {labels.max()} out of range [0, 10)")

    x = images.astype(np.float32)
    x /= 255.0
    if standardize:
        x, norm = _standardize(x, norm)
    return Dataset(inputs=x, labels=labels, num_classes=10, split=split, norm=norm)


def load_cifar_bin(paths, standardize=True, norm=None, split="train"):
    """Parse CIFAR-style binary batches: records of 1 label byte + 3072 pixels
    (3x32x32, channel-major)."""
    chunks = []
    labels = []
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) % CIFAR_RECORD != 0:
            raise DataError(f"{path}: size {len(blob)} not a multiple of 3073")
        rec = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0].astype(np.int64))
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    labels = np.concatenate(labels)
    if labels.max(initial=0) > 9:
        raise DataError(f"label value {labels.max()} out of range [0, 10)")
    x = np.concatenate(chunks).astype(np.float32)
    x /= 255.0
    if standardize:
        x, norm = _standardize(x, norm)
    return Dataset(inputs=x, labels=labels, num_classes=10, split=split, norm=norm)


def _std64(x, mean):
    """The float64 std of x about its float64 mean, from _NOISE_ROWS rows at
    a time: x.std(dtype=np.float64) up to the order its squares are summed
    in (so up to the last bits), without its len(x) x dims float64
    temporary. A float mean gives one std over all of x; a vector of an
    (N, C, H, W) x's channel means gives the per-channel stds, as
    x.std(axis=(0, 2, 3), dtype=np.float64) does."""
    per_channel = np.ndim(mean) == 1
    if per_channel:
        rows, centre, axes = x, mean[:, None, None], (0, 2, 3)
    else:
        rows, centre, axes = x.reshape(len(x), -1), mean, None
    total = 0.0
    for lo in range(0, len(rows), _NOISE_ROWS):
        dev = rows[lo:lo + _NOISE_ROWS].astype(np.float64)
        dev -= centre
        total = total + np.square(dev, out=dev).sum(axis=axes)
    std = np.sqrt(total / (x.size // np.size(mean)))
    return std if per_channel else float(std)


def synth_blobs(seed, n, dims, classes, spread, clusters_per_class=1,
                image_shape=None, standardize=True, split="train"):
    """Deterministic Gaussian clusters with class-indexed centers.

    clusters_per_class > 1 scatters each class over several centers, which
    makes the task non-linearly-separable while staying cheap to learn.
    """
    if classes < 2:
        raise DataError("need at least 2 classes")
    if not spread > 0:
        raise DataError("spread must be positive")
    if clusters_per_class < 1:
        raise DataError("clusters_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (classes, clusters_per_class, dims))
    labels = rng.integers(0, classes, n)
    pick = rng.integers(0, clusters_per_class, n)
    x = centers[labels, pick] + spread * rng.normal(0.0, 1.0, (n, dims))
    with np.errstate(over="ignore"):        # reported just below
        x = x.astype(np.float32)
    if not np.isfinite(x).all():
        raise DataError(f"spread {spread} draws inputs that overflow float32")

    norm = None
    std_centers = centers
    if standardize:
        mean = float(x.mean(dtype=np.float64))
        std = max(_std64(x, mean), 1e-8)
        x = ((x - mean) / std).astype(np.float32)
        std_centers = (centers - mean) / std
        norm = (np.array([mean], dtype=np.float32), np.array([std], dtype=np.float32))
    if image_shape is not None:
        if int(np.prod(image_shape)) != dims:
            raise DataError(f"image_shape {image_shape} does not hold {dims} features")
        x = x.reshape((n,) + tuple(image_shape))
    return Dataset(inputs=x, labels=labels.astype(np.int64), num_classes=classes,
                   split=split, norm=norm, meta={"centers": std_centers})


def synth_embedded(seed, n, dims, d_eff, classes, spread, clusters_per_class=1,
                   ambient=0.3, image_shape=None, split="train"):
    """Blobs on a low-dimensional manifold, embedded in a wide ambient space.

    Draws synth_blobs in d_eff dimensions, pushes them through a fixed random
    linear map into `dims` dimensions, and adds isotropic noise.  Plain wide
    blobs are separable enough that independently trained networks all agree;
    squeezing the class structure onto a thin manifold keeps the task
    learnable while leaving room for genuinely different solutions.
    """
    if d_eff < 1 or d_eff > dims:
        raise DataError(f"d_eff must lie in [1, dims], got {d_eff}")
    low = synth_blobs(seed=seed, n=n, dims=d_eff, classes=classes,
                      spread=spread, clusters_per_class=clusters_per_class,
                      standardize=False)
    rng = np.random.default_rng(seed + 9999)
    emb = rng.normal(0.0, 1.0 / np.sqrt(d_eff), (d_eff, dims)).astype(np.float32)
    x = low.inputs @ emb
    if ambient > 0:
        # normal() draws element by element, so row blocks give the one-shot
        # draw's bytes without holding all n x dims float64 draws at once
        for lo in range(0, n, _NOISE_ROWS):
            block = x[lo:lo + _NOISE_ROWS]
            block += ambient * rng.normal(0.0, 1.0, block.shape).astype(np.float32)
    mean = float(x.mean(dtype=np.float64))
    std = max(_std64(x, mean), 1e-8)
    x -= mean
    x /= std
    if image_shape is not None:
        if int(np.prod(image_shape)) != dims:
            raise DataError(f"image_shape {image_shape} does not hold {dims} features")
        x = x.reshape((n,) + tuple(image_shape))
    norm = (np.array([mean], dtype=np.float32), np.array([std], dtype=np.float32))
    return Dataset(inputs=x, labels=low.labels, num_classes=classes,
                   split=split, norm=norm, meta={"d_eff": d_eff})


def hold_out(ds, n_test):
    """Slice the last n_test rows off as a test split, rest stays train.

    Both halves come from one generation pass, so synthetic train and test
    share cluster centers; generating two pools with different seeds gives
    disjoint centers and a test set that measures nothing.
    """
    if not 0 < n_test < ds.n:
        raise DataError(f"n_test must lie in (0, {ds.n}), got {n_test}")
    cut = ds.n - n_test
    train = Dataset(inputs=ds.inputs[:cut], labels=ds.labels[:cut],
                    num_classes=ds.num_classes, split="train", norm=ds.norm,
                    meta=dict(ds.meta))
    test = Dataset(inputs=ds.inputs[cut:], labels=ds.labels[cut:],
                   num_classes=ds.num_classes, split="test", norm=ds.norm,
                   meta=dict(ds.meta))
    return train, test
