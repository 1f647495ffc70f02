"""Counter-based, splittable random streams.

Each sampling site derives an independent Philox stream from the run seed
plus a structural path, so phases can be sampled in any order without
changing the result. ER and CL take the stream (seed); Phase 1 takes
(seed, 1) for all of its blocks, which share one draw; Phase 2a/2b/2c take
(seed, 2, 0|1|2); the spectrum's starting vector takes its own path.
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
