"""Batched, seed-split ensembles."""

import numpy as np

from idcoverage import rng as rngmod


def test_run_batched_empty_keeps_trailing_shape():
    assert rngmod.run_batched(lambda r, c: np.zeros((c, 3)), 0, 1).shape == (0, 3)
