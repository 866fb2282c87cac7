"""RBNC checkpoint codec.

Layout: 4-byte magic "RBNC", u32 little-endian version, u64 little-endian
header length, UTF-8 JSON header (layer descriptors in order, tensor names,
shapes, dtype, metadata), then the raw tensor payload as little-endian
IEEE-754 single precision, row-major, in header order.
"""
import contextlib
import dataclasses
import json
import os
import struct

import numpy as np

from .model import WEIGHT_KINDS, LayerSpec, ModelGraph, layer_tensors, propagate_shapes

MAGIC = b"RBNC"
VERSION = 1


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def _atomic_write(path, mode="w"):
    """Open a new file beside path for writing; when the block exits cleanly
    it replaces path, and when the block raises it is removed, so path holds
    either its earlier contents or the whole new file, never part of one.
    (A crash of the machine itself can still lose unflushed data.) Text is
    written with newline="", as the csv module needs."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    # x: never write into a file we did not make
    fh = open(tmp, mode.replace("w", "x"), newline=None if "b" in mode else "")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_checkpoint(model, path):
    tensors = []
    for name, arr in model.params.items():
        if arr.dtype != np.float32:
            raise CheckpointError(f"tensor {name} is {arr.dtype}, expected float32")
        tensors.append({"name": name, "shape": list(arr.shape), "dtype": "float32"})
    header = {
        "layers": [dataclasses.asdict(l) for l in model.layers],
        "input_shape": list(model.input_shape),
        "boundary_map": [[b, int(n)] for b, n in model.boundary_map],
        "tensors": tensors,
        "meta": model.meta,
    }
    blob = json.dumps(header).encode("utf-8")
    with _atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, arr in model.params.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise CheckpointError("truncated checkpoint: missing preamble")
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}")
    (version,) = struct.unpack("<I", data[4:8])
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    (hlen,) = struct.unpack("<Q", data[8:16])
    if len(data) < 16 + hlen:
        raise CheckpointError("truncated checkpoint: incomplete header")
    try:
        header = json.loads(data[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"malformed header: {e}") from None

    try:
        model = _from_header(header, data, 16 + hlen)
        _check_consistent(model)
    except CheckpointError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {type(e).__name__}: {e}") from None
    return model


def _from_header(header, data, offset):
    """The model a parsed header describes, its tensors read from data at
    offset. A header of the wrong structure raises whatever its first bad
    field raises; load_checkpoint turns that into CheckpointError."""
    layers = [LayerSpec(**d) for d in header.get("layers", [])]
    params = {}
    for t in header.get("tensors", []):
        if t.get("dtype") != "float32":
            raise CheckpointError(f"tensor {t.get('name')}: unsupported dtype")
        shape = tuple(int(d) for d in t["shape"])
        if any(d < 0 for d in shape):
            raise CheckpointError(f"tensor {t['name']}: negative shape {shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 4
        if offset + nbytes > len(data):
            raise CheckpointError(f"truncated payload at tensor {t['name']}")
        arr = np.frombuffer(data[offset:offset + nbytes], dtype="<f4").reshape(shape)
        params[t["name"]] = arr.astype(np.float32, copy=True)
        offset += nbytes
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} unexpected trailing bytes")
    return ModelGraph(
        layers=layers,
        params=params,
        boundary_map=[(b, int(n)) for b, n in header.get("boundary_map", [])],
        input_shape=tuple(header.get("input_shape", [])),
        meta=header.get("meta", {}),
    )


def _check_consistent(model):
    """Layers must compose, the boundary map must name each hidden weight
    layer's output once and in order, and the tensors must be exactly the
    layers' own (plus optional tracked boundary statistics) in the layers'
    shapes."""
    try:
        propagate_shapes(model.layers, model.input_shape)
    except (ValueError, TypeError, IndexError) as e:
        raise CheckpointError(f"layers do not compose: {e}") from None
    producers = [(s.boundary, s.n_out) for s in model.layers
                 if s.kind in WEIGHT_KINDS and s.boundary is not None]
    units = dict(producers)
    if model.boundary_map != producers or len(units) != len(producers):
        raise CheckpointError(f"boundary map {model.boundary_map} must list the "
                              f"weight layers' distinct boundaries {producers}")
    want = {k: shape for s in model.layers
            for k, (shape, _) in layer_tensors(s).items()}
    missing = sorted(set(want) - set(model.params))
    if missing:
        raise CheckpointError(f"missing tensors {missing}")
    tracked = {f"stats.{bid}.{st}": (n,) for bid, n in units.items()
               for st in ("mean", "var")}
    for name, arr in model.params.items():
        shape = want.get(name, tracked.get(name))
        if shape is None:
            raise CheckpointError(f"tensor {name} belongs to no layer")
        if arr.shape != tuple(shape):
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, "
                                  f"its layer needs {tuple(shape)}")
