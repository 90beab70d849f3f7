"""Deterministic seeding — the single blessed place for global RNG setup.

Every CLI entry point calls :func:`seed_everything` exactly once; the
``m3dlint`` code rule M3D203 flags any other call site that touches global
seeding primitives directly.
"""

from __future__ import annotations

import os
import random

import numpy as np


def seed_everything(seed: int) -> np.random.Generator:
    """Seed every RNG the stack can touch and return a fresh numpy Generator.

    Seeds the ``random`` module, numpy's legacy global RNG and
    ``PYTHONHASHSEED``. The returned ``np.random.Generator`` is the
    preferred source of randomness for new code; the global seeding exists
    for third-party code paths.
    """
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    os.environ["PYTHONHASHSEED"] = str(seed)
    random.seed(seed)
    np.random.seed(seed)
    return np.random.default_rng(seed)
