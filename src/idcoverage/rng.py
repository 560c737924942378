"""Deterministic, splittable random streams.

Every stochastic routine in the package takes a ``numpy.random.Generator``.
Ensemble drivers split a root seed into per-batch child streams keyed by
``(stream, batch)`` spawn keys, then stitch batch outputs back together in
batch order.  The batch layout is fixed by (total, batch_size) alone, so the
same seed yields bit-identical output no matter how many worker threads run
the batches.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

DEFAULT_BATCH = 100_000


def child_rng(seed, *key):
    """Generator for the child stream addressed by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def batch_sizes(total, batch=DEFAULT_BATCH):
    """Deterministic batch partition of ``total`` draws."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    sizes = [batch] * (total // batch)
    if total % batch:
        sizes.append(total % batch)
    return sizes


def run_batched(fn, total, seed, stream=0, batch=DEFAULT_BATCH, threads=1):
    """Evaluate ``fn(rng, count)`` over a fixed batch partition of ``total``.

    ``fn`` must return an ndarray whose leading axis has length ``count``.
    Results are concatenated in batch order; ``threads`` only controls how
    many batches run concurrently, never the output.
    """
    # an empty run still makes one call, so the result keeps fn's trailing shape
    sizes = batch_sizes(total, batch) or [0]
    rngs = [child_rng(seed, stream, b) for b in range(len(sizes))]
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, rngs, sizes))
    else:
        parts = [fn(r, c) for r, c in zip(rngs, sizes)]
    return np.concatenate(parts, axis=0)
