"""Parameter checkpoint container.

A checkpoint is a single self-describing file: one JSON header line
(tensor names, shapes, dtypes, byte offsets, plus free-form metadata
such as the manifest hash) followed by the concatenated little-endian
tensor bytes.  Writing is fully deterministic, so identical parameters
and metadata always produce identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import DataError

FORMAT_TAG = "disagg-checkpoint-v1"


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Write `params` and `meta` to `path`.

    Each tensor's bytes go to the file straight from its array, so saving
    holds no copy of the parameters.
    """
    names = sorted(params)
    arrays = [np.asarray(params[name], dtype="<f8") for name in names]  # keeps a 0-d shape
    entries = []
    offset = 0
    for name, arr in zip(names, arrays):
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset,
                        "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = {"format": FORMAT_TAG, "meta": meta or {}, "tensors": entries}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        f.write(b"\n")
        for arr in arrays:
            f.write(np.ascontiguousarray(arr).data)


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
        tensors, meta = header.get("tensors"), header.get("meta")
        if not isinstance(tensors, list) or not isinstance(meta, dict):
            raise DataError(f"{path}: checkpoint header lacks its tensors or meta")
        body_start = f.tell()
        body_size = os.fstat(f.fileno()).st_size - body_start
        params = {}
        for entry in tensors:
            name, lo, nbytes, shape = _tensor_entry(path, entry)
            if lo + nbytes > body_size:
                raise DataError(f"{path}: truncated checkpoint (tensor {name!r})")
            # Read straight into the tensor's own array, so loading peaks
            # at the parameters' size rather than a multiple of the file.
            arr = np.empty(shape, dtype="<f8")
            f.seek(body_start + lo)
            f.readinto(arr.reshape(-1).view(np.uint8))
            params[name] = arr.astype(np.float64, copy=False)
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
