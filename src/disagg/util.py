"""Small shared helpers: seeded RNG derivation, stable JSON, file names."""

import hashlib
import json

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


def channel_slug(name: str) -> str:
    return name.replace(" ", "_")
