"""Parameter checkpoint container.

A checkpoint is a single self-describing file: one JSON header line
(tensor names, shapes, dtypes, byte offsets, plus free-form metadata
such as the manifest hash) followed by the concatenated little-endian
tensor bytes.  Writing is fully deterministic, so identical parameters
and metadata always produce identical files.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import DataError

FORMAT_TAG = "disagg-checkpoint-v1"


def save_checkpoint(path, params: dict, meta: dict | None = None):
    names = sorted(params)
    entries = []
    blobs = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        blob = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset,
                        "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = {"format": FORMAT_TAG, "meta": meta or {}, "tensors": entries}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        f.write(b"\n")
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path):
    """Returns (params dict, meta dict)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a checkpoint file ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            raise DataError(f"{path}: not a {FORMAT_TAG} checkpoint")
        body = f.read()
    tensors, meta = header.get("tensors"), header.get("meta")
    if not isinstance(tensors, list) or not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint header lacks its tensors or meta")
    params = {}
    for entry in tensors:
        name, lo, nbytes, shape = _tensor_entry(path, entry)
        hi = lo + nbytes
        if hi > len(body):
            raise DataError(f"{path}: truncated checkpoint (tensor {name!r})")
        arr = np.frombuffer(body[lo:hi], dtype="<f8").reshape(shape)
        params[name] = arr.astype(np.float64)
    return params, meta


def _tensor_entry(path, entry):
    """(name, offset, nbytes, shape) of one header entry, checked for consistency."""
    try:
        name, lo, nbytes, shape = entry["name"], entry["offset"], entry["nbytes"], entry["shape"]
    except (KeyError, TypeError):
        raise DataError(f"{path}: malformed tensor entry {entry!r}") from None
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(type(v) is int and v >= 0 for v in [lo, nbytes, *shape])):
        raise DataError(f"{path}: malformed tensor entry {entry!r}")
    if 8 * int(np.prod(shape, dtype=np.int64)) != nbytes:
        raise DataError(f"{path}: tensor {name!r} has shape {shape} but {nbytes} bytes")
    return name, lo, nbytes, shape
