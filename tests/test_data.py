"""Dataset ingestion: IDX, CIFAR binary, synthetic blobs, batching."""
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin.data import (_NOISE_ROWS, DataError, _std64, hold_out, load_cifar_bin, load_idx,
                          synth_blobs, synth_embedded)


def write_idx_pair(tmp_path, images, labels):
    n, r, c = images.shape
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, n, r, c) + images.astype(np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes())
    return ip, lp


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (7, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, 7, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp, standardize=False)
    assert ds.inputs.shape == (7, 1, 5, 4)
    assert ds.inputs.dtype == np.float32
    np.testing.assert_allclose(ds.inputs[:, 0], images / 255.0, atol=1e-7)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.num_classes == 10


def test_idx_wrong_magic(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, (3, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, 3, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, 4, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    lp.write_bytes(struct.pack(">II", 0x00000801, 3) + labels[:3].tobytes())
    with pytest.raises(DataError, match="count"):
        load_idx(ip, lp)


def test_idx_label_out_of_range(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    labels = np.array([3, 10], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(DataError, match="label"):
        load_idx(ip, lp)


@pytest.mark.skipif("REBASIN_MNIST_DIR" not in os.environ,
                    reason="set REBASIN_MNIST_DIR to test against real IDX files")
def test_idx_canonical_files():
    d = os.environ["REBASIN_MNIST_DIR"]
    ds = load_idx(os.path.join(d, "train-images-idx3-ubyte"),
                  os.path.join(d, "train-labels-idx1-ubyte"))
    assert ds.inputs.shape == (60000, 1, 28, 28)


def make_cifar_file(path, n, seed):
    rng = np.random.default_rng(seed)
    recs = []
    for _ in range(n):
        recs.append(bytes([int(rng.integers(0, 10))]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
    path.write_bytes(b"".join(recs))


def test_cifar_record_arithmetic(tmp_path):
    p = tmp_path / "batch.bin"
    make_cifar_file(p, 10, seed=3)
    assert p.stat().st_size == 30730
    ds = load_cifar_bin([p], standardize=False)
    assert ds.inputs.shape == (10, 3, 32, 32)
    assert ds.labels.shape == (10,)


def test_cifar_truncated_record(tmp_path):
    p = tmp_path / "batch.bin"
    make_cifar_file(p, 3, seed=4)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(DataError, match="3073"):
        load_cifar_bin([p])


def test_cifar_concatenation(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    make_cifar_file(p1, 4, seed=5)
    make_cifar_file(p2, 6, seed=6)
    ds = load_cifar_bin([p1, p2], standardize=False)
    assert ds.inputs.shape[0] == 10


def test_synth_deterministic():
    a = synth_blobs(seed=9, n=50, dims=6, classes=3, spread=0.5)
    b = synth_blobs(seed=9, n=50, dims=6, classes=3, spread=0.5)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synth_separable_limit():
    ds = synth_blobs(seed=10, n=200, dims=8, classes=4, spread=1e-9)
    centers = ds.meta["centers"]  # (classes, clusters, dims), same space as inputs
    flat = centers.reshape(-1, centers.shape[-1])
    owner = np.repeat(np.arange(centers.shape[0]), centers.shape[1])
    d2 = ((ds.inputs[:, None, :] - flat[None, :, :]) ** 2).sum(-1)
    pred = owner[d2.argmin(axis=1)]
    assert (pred == ds.labels).mean() == 1.0


def test_synth_class_balance():
    ds = synth_blobs(seed=11, n=1000, dims=4, classes=2, spread=5.0)
    counts = np.bincount(ds.labels, minlength=2)
    assert np.all(np.abs(counts - 500) <= 50)


def test_synth_validations():
    with pytest.raises(DataError):
        synth_blobs(seed=0, n=10, dims=3, classes=1, spread=1.0)
    with pytest.raises(DataError):
        synth_blobs(seed=0, n=10, dims=3, classes=2, spread=0.0)
    with pytest.raises(DataError):
        synth_blobs(seed=0, n=10, dims=3, classes=2, spread=float("nan"))


@pytest.mark.parametrize("synth, args", [(synth_blobs, {}), (synth_embedded, {"d_eff": 2})])
@pytest.mark.parametrize("errors", ["raise", "ignore"])
def test_synth_draws_that_overflow_float32_raise_data_error(synth, args, errors):
    with np.errstate(all=errors), pytest.raises(DataError, match="overflow float32"):
        synth(seed=0, n=10, dims=3, classes=2, spread=1e39, **args)


def test_synth_image_shape():
    ds = synth_blobs(seed=12, n=20, dims=16, classes=2, spread=1.0, image_shape=(1, 4, 4))
    assert ds.inputs.shape == (20, 1, 4, 4)


def test_standardization_invariant():
    ds = synth_blobs(seed=13, n=500, dims=10, classes=3, spread=2.0)
    assert abs(float(ds.inputs.mean())) <= 1e-3
    assert abs(float(ds.inputs.std()) - 1.0) <= 1e-3


def test_standardization_invariant_idx(tmp_path):
    rng = np.random.default_rng(14)
    images = rng.integers(0, 256, (64, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, 64, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert abs(float(ds.inputs.mean())) <= 1e-3
    assert abs(float(ds.inputs.std()) - 1.0) <= 1e-3


def test_batches_deterministic_per_seed_and_epoch():
    ds = synth_blobs(seed=15, n=100, dims=4, classes=2, spread=1.0)
    run1 = [yb.copy() for _, yb in ds.batches(16, seed=1, epoch=0)]
    run2 = [yb.copy() for _, yb in ds.batches(16, seed=1, epoch=0)]
    run3 = [yb.copy() for _, yb in ds.batches(16, seed=1, epoch=1)]
    assert all(np.array_equal(a, b) for a, b in zip(run1, run2))
    assert any(not np.array_equal(a, b) for a, b in zip(run1, run3))


def test_batches_drop_last():
    ds = synth_blobs(seed=16, n=100, dims=4, classes=2, spread=1.0)
    sizes = [len(yb) for _, yb in ds.batches(16, seed=0, epoch=0)]
    assert sizes == [16] * 6
    sizes_keep = [len(yb) for _, yb in ds.batches(16, seed=0, epoch=0, drop_last=False)]
    assert sizes_keep == [16] * 6 + [4]


def test_batches_unshuffled_order():
    ds = synth_blobs(seed=17, n=32, dims=4, classes=2, spread=1.0)
    got = np.concatenate([yb for _, yb in ds.batches(8, shuffle=False)])
    np.testing.assert_array_equal(got, ds.labels)


def test_unshuffled_batches_are_views_and_shuffled_ones_unchanged():
    ds = synth_blobs(seed=18, n=50, dims=4, classes=2, spread=1.0)
    for drop_last in (True, False):
        batches = list(ds.batches(16, shuffle=False, drop_last=drop_last))
        assert len(batches) == (3 if drop_last else 4)
        for k, (xb, yb) in enumerate(batches):
            assert np.shares_memory(xb, ds.inputs) and np.shares_memory(yb, ds.labels)
            np.testing.assert_array_equal(xb, ds.inputs[16 * k:16 * k + 16])
            np.testing.assert_array_equal(yb, ds.labels[16 * k:16 * k + 16])
    # shuffled batches are copies, drawn as a fancy-indexed permutation
    order = np.random.default_rng([3, 1]).permutation(ds.n)
    for k, (xb, yb) in enumerate(ds.batches(16, seed=3, epoch=1, drop_last=False)):
        idx = order[16 * k:16 * k + 16]
        assert not np.shares_memory(xb, ds.inputs)
        assert xb.tobytes() == ds.inputs[idx].tobytes()
        assert yb.tobytes() == ds.labels[idx].tobytes()


def test_embedded_deterministic_and_standardized():
    a = synth_embedded(seed=18, n=200, dims=64, d_eff=6, classes=5, spread=0.4)
    b = synth_embedded(seed=18, n=200, dims=64, d_eff=6, classes=5, spread=0.4)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
    assert a.inputs.shape == (200, 64) and a.inputs.dtype == np.float32
    assert abs(float(a.inputs.mean())) <= 1e-3
    assert abs(float(a.inputs.std()) - 1.0) <= 1e-3
    assert a.meta["d_eff"] == 6


def test_embedded_lives_on_thin_manifold():
    # without ambient noise the centered data spans exactly d_eff directions
    ds = synth_embedded(seed=19, n=300, dims=64, d_eff=6, classes=5,
                        spread=0.4, ambient=0.0)
    x = ds.inputs.astype(np.float64)
    assert np.linalg.matrix_rank(x - x.mean(axis=0), tol=1e-2) == 6
    noisy = synth_embedded(seed=19, n=300, dims=64, d_eff=6, classes=5,
                           spread=0.4, ambient=0.3)
    y = noisy.inputs.astype(np.float64)
    assert np.linalg.matrix_rank(y - y.mean(axis=0), tol=1e-2) == 64


def test_embedded_validates_d_eff():
    with pytest.raises(DataError, match="d_eff"):
        synth_embedded(seed=1, n=10, dims=8, d_eff=9, classes=2, spread=0.5)
    with pytest.raises(DataError, match="d_eff"):
        synth_embedded(seed=1, n=10, dims=8, d_eff=0, classes=2, spread=0.5)


def test_embedded_image_shape():
    ds = synth_embedded(seed=20, n=50, dims=256, d_eff=4, classes=3,
                        spread=0.5, image_shape=(1, 16, 16))
    assert ds.inputs.shape == (50, 1, 16, 16)


def _embedded_one_shot(seed, n, dims, d_eff, classes, spread, ambient, image_shape=None):
    """synth_embedded's inputs and norm, drawn and standardized in one go."""
    low = synth_blobs(seed=seed, n=n, dims=d_eff, classes=classes, spread=spread,
                      standardize=False)
    rng = np.random.default_rng(seed + 9999)
    emb = rng.normal(0.0, 1.0 / np.sqrt(d_eff), (d_eff, dims)).astype(np.float32)
    x = low.inputs @ emb
    if ambient > 0:
        x += ambient * rng.normal(0.0, 1.0, (n, dims)).astype(np.float32)
    mean = float(x.mean(dtype=np.float64))
    std = max(float(x.std(dtype=np.float64)), 1e-8)
    x = ((x - mean) / std).astype(np.float32)
    if image_shape is not None:
        x = x.reshape((n,) + tuple(image_shape))
    return x, (np.array([mean], dtype=np.float32), np.array([std], dtype=np.float32))


@pytest.mark.parametrize("n", [512, 300])          # a multiple of the noise block, and not
@pytest.mark.parametrize("ambient", [0.0, 0.3])
@pytest.mark.parametrize("image_shape", [None, (1, 4, 4)])
def test_embedded_noise_blocks_give_the_one_shot_bytes(n, ambient, image_shape):
    args = dict(seed=23, n=n, dims=16, d_eff=3, classes=4, spread=0.5, ambient=ambient)
    ds = synth_embedded(**args, image_shape=image_shape)
    x, norm = _embedded_one_shot(**args, image_shape=image_shape)
    assert ds.inputs.dtype == x.dtype and ds.inputs.shape == x.shape
    assert ds.inputs.tobytes() == x.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ds.norm, norm))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3 * _NOISE_ROWS + 7),
       dims=st.integers(1, 48), spread=st.floats(0.01, 100.0),
       shift=st.floats(-1e3, 1e3), image=st.booleans())
def test_blocked_std_matches_numpy_std(seed, n, dims, spread, shift, image):
    # the oracle holds every deviation at once and sums them in another
    # order, so the two agree to a few float64 rounding errors
    raw = synth_blobs(seed=seed, n=n, dims=dims, classes=3, spread=spread,
                      standardize=False, image_shape=(1, 1, dims) if image else None)
    x = raw.inputs + np.float32(shift)
    mean = float(x.mean(dtype=np.float64))
    want = float(x.std(dtype=np.float64))
    assert abs(_std64(x, mean) - want) <= 1e-13 * want
    ds = synth_blobs(seed=seed, n=n, dims=dims, classes=3, spread=spread)
    std = max(float(raw.inputs.std(dtype=np.float64)), 1e-8)
    assert abs(float(ds.norm[1][0]) - std) <= np.spacing(np.float32(std))


def test_hold_out_covers_pool_without_overlap():
    ds = synth_embedded(seed=21, n=120, dims=32, d_eff=4, classes=3, spread=0.5)
    tr, te = hold_out(ds, 40)
    assert tr.n == 80 and te.n == 40
    assert tr.split == "train" and te.split == "test"
    assert np.array_equal(np.concatenate([tr.inputs, te.inputs]), ds.inputs)
    assert np.array_equal(np.concatenate([tr.labels, te.labels]), ds.labels)
    assert tr.num_classes == te.num_classes == 3


def test_hold_out_validates_size():
    ds = synth_blobs(seed=22, n=30, dims=4, classes=2, spread=1.0)
    for bad in (0, 30, 31):
        with pytest.raises(DataError, match="n_test"):
            hold_out(ds, bad)
