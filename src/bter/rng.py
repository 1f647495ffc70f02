"""Counter-based, splittable random streams.

Each sampling site derives an independent Philox stream from the run seed
plus a structural path (phase id, affinity group id, ...), so phases and
affinity groups can be sampled in any order, or concurrently, without
changing the result. Phase 1 keys one stream per affinity group (the blocks
of equal size and rho), and the blocks of one group share its single draw.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path).

    Distinct paths give statistically independent streams; the same
    (seed, path) always reproduces the same stream.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=path))
    )
