"""The thread count of NumPy's BLAS.

NumPy's wheels bundle OpenBLAS as `numpy.libs/libscipy_openblas64_*.so`,
which exports `scipy_openblas_get_num_threads64_`.  `threads` reads it
through `ctypes`, so the count is the one NumPy's GEMMs run with: the
machine's CPU count by default, 1 under `OPENBLAS_NUM_THREADS=1`.  The
count changes the summation order of threaded GEMMs, so training records
it, and the gated lanes of `disagg.nn.layers` run only under one thread.  Standard library only; the library is looked up on the first
call.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from pathlib import Path

LIBRARY_GLOB = "libscipy_openblas64_*.so"
SYMBOL = "scipy_openblas_get_num_threads64_"


@functools.cache
def _reader():
    """The library's thread-count function, or None where NumPy bundles
    no such library or it lacks the symbol."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    for path in sorted((Path(spec.origin).parent.parent / "numpy.libs").glob(LIBRARY_GLOB)):
        try:
            function = getattr(ctypes.CDLL(str(path)), SYMBOL)
        except (OSError, AttributeError):
            continue
        function.argtypes = []
        function.restype = ctypes.c_int
        return function
    return None


def threads() -> int | None:
    """The number of threads NumPy's OpenBLAS runs with, read afresh on
    every call; None where it cannot be read."""
    reader = _reader()
    return None if reader is None else reader()
