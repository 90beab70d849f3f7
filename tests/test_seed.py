"""Deterministic seeding helper."""

import random

import numpy as np
import pytest

from m3d_fault_loc.utils.seed import seed_everything


def test_returns_reproducible_generator():
    a = seed_everything(123).random(5)
    b = seed_everything(123).random(5)
    assert np.array_equal(a, b)


def test_seeds_global_rngs():
    seed_everything(7)
    r1, n1 = random.random(), np.random.random()
    seed_everything(7)
    assert (random.random(), np.random.random()) == (r1, n1)


def test_different_seeds_diverge():
    assert not np.array_equal(seed_everything(1).random(4), seed_everything(2).random(4))


def test_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        seed_everything(-1)
    with pytest.raises(ValueError):
        seed_everything(2**32)

