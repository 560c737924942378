"""Deterministic, splittable random streams.

Every stochastic routine in the package takes a ``numpy.random.Generator``.
Ensemble drivers split a root seed into per-batch child streams keyed by
``(stream, batch)`` spawn keys, then stitch batch outputs back together in
batch order.  The batch layout is fixed by (total, batch_size) alone, so the
same seed yields bit-identical output no matter how many worker threads run
the batches.
"""

from collections import deque

import numpy as np

from .errors import count

DEFAULT_BATCH = 100_000


def child_rng(seed, *key):
    """Generator for the child stream addressed by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def batch_sizes(total, batch=DEFAULT_BATCH):
    """Deterministic batch partition of ``total`` draws."""
    total = count(total, "total")
    sizes = [batch] * (total // batch)
    if total % batch:
        sizes.append(total % batch)
    return sizes


def run_batched(fn, total, seed, stream=0, batch=DEFAULT_BATCH, threads=1):
    """Evaluate ``fn(rng, count)`` over a fixed batch partition of ``total``.

    ``fn`` must return an ndarray whose leading axis has length ``count``,
    with the same trailing shape and dtype in every batch.  A single batch
    is returned as ``fn`` made it.  Several are copied, in batch order, into
    one result preallocated from the first batch, so besides that result
    the run holds only the batches not yet copied: one at ``threads`` 1, and
    at most ``threads`` otherwise, since a batch is submitted only when fewer
    than ``threads`` are submitted and not yet copied.  ``threads``, at
    least 1, only controls how many batches run concurrently, never the output.
    """
    threads = count(threads, "threads", least=1)
    # an empty run still makes one call, so the result keeps fn's trailing shape
    sizes = batch_sizes(total, batch) or [0]
    rngs = [child_rng(seed, stream, b) for b in range(len(sizes))]
    if threads > 1 and len(sizes) > 1:
        # imported here: a one-thread run, every CLI start included, skips its import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _stitch(_in_order(pool, fn, rngs, sizes, threads), sizes)
    return _stitch(map(fn, rngs, sizes), sizes)


def _in_order(pool, fn, rngs, sizes, ahead):
    """The batches ``fn`` makes on ``pool``, yielded in batch order, with at
    most ``ahead`` of them submitted and not yet yielded."""
    pending = deque()
    for args in zip(rngs, sizes):
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, *args))
    while pending:
        yield pending.popleft().result()


def _stitch(parts, sizes):
    """The batches that the iterator ``parts`` yields, ``sizes`` rows each, as
    one array: the only batch itself, else a preallocated copy filled in
    batch order."""
    part = next(parts)
    if len(sizes) == 1:
        return part
    trailing, dtype = part.shape[1:], part.dtype
    out = np.empty((sum(sizes),) + trailing, dtype=dtype)
    start = 0
    for size in sizes:
        if part.shape != (size,) + trailing or part.dtype != dtype:
            raise ValueError(f"a batch of shape {part.shape} and dtype {part.dtype} does "
                             f"not fit ({size}, ...) rows of {trailing} {dtype}")
        out[start:start + size] = part
        start += size
        # let this batch go before the next one is drawn
        del part
        part = next(parts, None)
    return out
