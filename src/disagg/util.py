"""Small shared helpers: seeded RNGs, stable JSON, the number rule, file names."""

import hashlib
import json
import sys

import numpy as np


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Derive an independent, reproducible generator for a named purpose.

    The same (seed, labels) always yields the same stream, and distinct
    labels yield independent streams, so commands can split randomness
    between e.g. weight init and batch sampling without coupling them.
    """
    digest = hashlib.sha256("\x1f".join(str(l) for l in labels).encode()).digest()
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed separators so bytes are stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def is_number(value, integer=False) -> bool:
    """Whether a JSON value is an int (only an int if `integer`) or a float, finite
    as a float: a bool, NaN, ±Infinity or an int beyond the float range is not."""
    return (type(value) is not bool and isinstance(value, int if integer else (int, float))
            and abs(value) <= sys.float_info.max)  # False for NaN; exact for any int


def channel_slug(name: str) -> str:
    return name.replace(" ", "_")
