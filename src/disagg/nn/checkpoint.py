"""Parameter checkpoint container.

A checkpoint is a single self-describing file: one JSON header line
(tensor names, shapes, dtypes, byte offsets and sizes, plus free-form
metadata such as the training manifest) followed by the concatenated tensor
bytes.  Each tensor is stored in its own dtype, little-endian float32
(`<f4`) or float64 (`<f8`), and loads back in that dtype bit for bit:
nothing is widened or rounded, and neither direction holds a second
copy of the parameters.  Writing is fully deterministic, so identical
parameters and metadata always produce identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ..errors import DataError
from ..util import canonical_json, is_number

FORMAT_TAG = "disagg-checkpoint-v2"
DTYPES = ("<f4", "<f8")


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Write `params` and `meta` to `path`, each tensor's bytes as they are.

    Every tensor must be little-endian float32 or float64.
    """
    names = sorted(params)
    arrays = [np.asarray(params[name]) for name in names]  # keeps a 0-d shape
    entries = []
    offset = 0
    for name, arr in zip(names, arrays):
        if arr.dtype.str not in DTYPES:
            raise ValueError(f"tensor {name!r} is {arr.dtype.str}; a checkpoint holds "
                             f"{' or '.join(DTYPES)}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str,
                        "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = {"format": FORMAT_TAG, "meta": meta or {}, "tensors": entries}
    with open(path, "wb") as f:
        f.write(canonical_json(header).encode())
        for arr in arrays:
            f.write(np.ascontiguousarray(arr).data)


def load_checkpoint(path):
    """Returns (params dict, meta dict), each tensor in its stored dtype."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except ValueError as exc:  # also a first line that is not UTF-8
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
            name, lo, nbytes, shape, dtype = _tensor_entry(path, entry)
            if lo + nbytes > body_size:
                raise DataError(f"{path}: truncated checkpoint (tensor {name!r})")
            try:
                arr = np.empty(shape, dtype)
            except ValueError:  # a zero dimension beside ones no array holds
                raise DataError(f"{path}: tensor {name!r} has shape {shape}") from None
            f.seek(body_start + lo)
            f.readinto(arr.reshape(-1).view(np.uint8))
            params[name] = arr
    return params, meta


def _tensor_entry(path, entry):
    """(name, offset, nbytes, shape, dtype) of one header entry, checked."""
    try:
        name, lo, nbytes = entry["name"], entry["offset"], entry["nbytes"]
        shape, dtype = entry["shape"], entry["dtype"]
    except (KeyError, TypeError):
        raise DataError(f"{path}: malformed tensor entry {entry!r}") from None
    if not (isinstance(name, str) and isinstance(shape, list) and dtype in DTYPES
            and all(is_number(v, integer=True) and v >= 0 for v in [lo, nbytes, *shape])):
        raise DataError(f"{path}: malformed tensor entry {entry!r}")
    if math.prod(shape) * np.dtype(dtype).itemsize != nbytes:  # exact, never wraps
        raise DataError(f"{path}: tensor {name!r} has shape {shape} but {nbytes} bytes")
    return name, lo, nbytes, shape, dtype
