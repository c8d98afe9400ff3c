"""Named random substreams derived from a single experiment seed.

Every source of randomness in the package draws from `rng_for(seed, name,
*indices)` so that components (graph build, augmentation, init, shuffling)
can be varied independently while staying reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return a generator for the (seed, name, *indices) substream.

    The stream name is hashed with crc32, which is stable across platforms
    and Python versions. The seed and indices keep their low 48 bits. The
    stream is that of ``np.random.default_rng([seed, crc32(name), *indices])``:
    numpy splits each entropy integer into 32-bit words, least significant
    first (one word for a value below 2**32, zero included), and this
    function passes those words as one uint32 array, which skips numpy's
    per-integer conversion.
    """
    words = []
    for v in (int(seed) & 0xFFFFFFFFFFFF, zlib.crc32(name.encode("utf-8")),
              *(int(i) & 0xFFFFFFFFFFFF for i in indices)):
        words += (v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,)
    return np.random.default_rng(np.array(words, dtype=np.uint32))
