"""Splittable, purpose-keyed random number generation.

Streams are Philox4x64 counter-based generators keyed by the SHA-256 hash
of "seed||tag", so independent streams for initialization, noise, and
objective generation never overlap and can be reproduced from the
(seed, tag) pair alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Every summary CSV prints it, so it keeps the always-empty middle field.
GENERATOR_NAME = "philox4x64/sha256(seed|run_id|tag)"


def make_rng(seed: int, *, tag: str = "") -> np.random.Generator:
    material = f"{int(seed)}||{tag}".encode()
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
