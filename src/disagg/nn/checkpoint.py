"""Parameter checkpoint container.

A checkpoint is a single self-describing file: one JSON header line
(tensor names, shapes, byte offsets and sizes, plus free-form metadata
such as the manifest hash) followed by the concatenated tensor bytes.
Every tensor is stored as little-endian float64 (`<f8`), whatever the
dtype of the network that wrote or reads it: saving widens float32
exactly, and loading rounds to the requested dtype (a finite value
beyond that dtype's range is a DataError, not an infinity).  Both
convert one block of IO_BLOCK elements at a time, so neither holds a
second copy of the parameters.  Writing is fully deterministic, so
identical parameters and metadata always produce identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import DataError

FORMAT_TAG = "disagg-checkpoint-v1"
STORED = np.dtype("<f8")
IO_BLOCK = 1 << 16  # elements per conversion block: 512 KiB of `<f8`


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Write `params` and `meta` to `path`.

    Each tensor goes to the file one block at a time, widened to `<f8`
    in one reused buffer, so saving holds one block beyond the
    parameters.
    """
    names = sorted(params)
    arrays = [np.asarray(params[name]) for name in names]  # keeps a 0-d shape
    entries = []
    offset = 0
    for name, arr in zip(names, arrays):
        nbytes = arr.size * STORED.itemsize
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset,
                        "nbytes": nbytes})
        offset += nbytes
    header = {"format": FORMAT_TAG, "meta": meta or {}, "tensors": entries}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        f.write(b"\n")
        block = np.empty(IO_BLOCK, STORED)
        for arr in arrays:
            flat = np.ascontiguousarray(arr).reshape(-1)
            for start in range(0, flat.size, IO_BLOCK):
                chunk = block[: flat.size - start]
                chunk[...] = flat[start : start + IO_BLOCK]
                f.write(chunk.data)


def load_checkpoint(path, dtype=np.float64):
    """Returns (params dict, meta dict), the tensors rounded to `dtype`."""
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
        block = np.empty(IO_BLOCK, STORED)
        params = {}
        for entry in tensors:
            name, lo, nbytes, shape = _tensor_entry(path, entry)
            if lo + nbytes > body_size:
                raise DataError(f"{path}: truncated checkpoint (tensor {name!r})")
            # Read one block at a time and round it into the tensor's own
            # array, so loading peaks at the parameters' size plus one block.
            arr = np.empty(shape, dtype)
            flat = arr.reshape(-1)
            f.seek(body_start + lo)
            for start in range(0, flat.size, IO_BLOCK):
                chunk = block[: flat.size - start]
                f.readinto(chunk.view(np.uint8))
                try:
                    # A finite value that rounds to +-inf raises; an inf is exact.
                    with np.errstate(over="raise"):
                        flat[start : start + chunk.size] = chunk
                except FloatingPointError:
                    raise DataError(f"{path}: tensor {name!r} holds a value beyond the "
                                    f"range of {arr.dtype}") from None
            params[name] = arr
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
    if STORED.itemsize * int(np.prod(shape, dtype=np.int64)) != nbytes:
        raise DataError(f"{path}: tensor {name!r} has shape {shape} but {nbytes} bytes")
    return name, lo, nbytes, shape
