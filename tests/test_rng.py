"""Batched, seed-split ensembles."""

import threading
import time
import weakref

import numpy as np
import pytest

from idcoverage import corr, fidi, levy, mginf, onoff, rng as rngmod
from idcoverage.errors import PreconditionError


def test_run_batched_empty_keeps_trailing_shape():
    assert rngmod.run_batched(lambda r, c: np.zeros((c, 3)), 0, 1).shape == (0, 3)


def _rows(rng, count):
    return rng.normal(size=(count, 3))


def test_run_batched_single_batch_is_fn_result():
    made = []

    def fn(rng, count):
        made.append(_rows(rng, count))
        return made[-1]

    out = rngmod.run_batched(fn, 50, 7, batch=100)
    assert len(made) == 1 and np.shares_memory(out, made[0])


@pytest.mark.parametrize("threads", [0, -3, True])
def test_run_batched_needs_one_thread_or_more(threads):
    with pytest.raises(PreconditionError, match="^threads: expected an integer >= 1"):
        rngmod.run_batched(_rows, 4, 7, batch=2, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_batched_stitches_batches_in_order(threads):
    out = rngmod.run_batched(_rows, 250, 7, batch=100, threads=threads)
    want = np.concatenate([_rows(rngmod.child_rng(7, 0, b), c)
                           for b, c in enumerate(rngmod.batch_sizes(250, 100))])
    assert out.dtype == want.dtype
    np.testing.assert_array_equal(out, want)


def test_run_batched_holds_at_most_threads_plus_one_batches():
    """A slow first batch does not let the other batches pile up: one is
    submitted only while fewer than ``threads`` wait to be copied."""
    threads, lock = 2, threading.Lock()
    calls, live, peak = [0], [0], [0]

    def released():
        with lock:
            live[0] -= 1

    def fn(rng, count):
        with lock:
            calls[0] += 1
            first = calls[0] == 1
        if first:
            time.sleep(0.2)
        out = _rows(rng, count)
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        weakref.finalize(out, released)
        return out

    out = rngmod.run_batched(fn, 1200, 7, batch=100, threads=threads)
    assert calls[0] == 12 and live[0] == 0
    assert peak[0] <= threads + 1, f"{peak[0]} batches alive at once"
    np.testing.assert_array_equal(out, rngmod.run_batched(_rows, 1200, 7, batch=100))


@pytest.mark.parametrize("odd", [
    lambda rng, count: np.zeros((count, 2)),                 # trailing shape
    lambda rng, count: np.zeros((count, 3), dtype=np.int64),  # dtype
])
def test_run_batched_refuses_a_batch_unlike_the_first(odd):
    def fn(rng, count):
        return np.zeros((count, 3)) if count == 100 else odd(rng, count)

    with pytest.raises(ValueError, match="batch"):
        rngmod.run_batched(fn, 250, 7, batch=100)


# every count argument, as a one-argument call that returns rows
COUNT_ARGUMENTS = {
    "CoverageProcess.sample.size": lambda v: fidi.CoverageProcess(
        levy.gamma_law(), corr.power_structure(0.5)).sample([0.0, 1.0], rngmod.child_rng(3), v),
    "MGInfinityModel.simulate.size": lambda v: mginf.MGInfinityModel(
        2.0, corr.ServiceDistribution.exponential(1.0)).simulate([0.0, 1.0],
                                                                 rngmod.child_rng(3), v),
    "superpose.reps": lambda v: onoff.superpose(
        onoff.OnOffArraySpec("power_example", 1.0, alpha_exp=0.5, b=0.5), 10, [0.0, 1.0],
        rngmod.child_rng(3), reps=v),
    "OnOffSource.simulate_path.size": lambda v: onoff.OnOffSource(1.0, 1.0, 1.0).simulate_path(
        [0.0, 1.0], rngmod.child_rng(3), v),
    "run_batched.total": lambda v: rngmod.run_batched(_rows, v, 7, batch=2),
}


@pytest.mark.parametrize("value", [2.5, True, -2, "3", None, np.float64(0.5), np.bool_(True)],
                         ids=repr)
@pytest.mark.parametrize("entry", list(COUNT_ARGUMENTS))
def test_every_count_is_a_whole_number(entry, value):
    call = COUNT_ARGUMENTS[entry]
    name = entry.split(".")[-1]
    if value is None and name != "total":  # one draw, not a count
        assert call(value).ndim == 1
        return
    with pytest.raises(PreconditionError, match=f"^{name}: expected an integer >= 0"):
        call(value)
    for whole in (3, 3.0, np.int64(3), np.int32(3)):
        assert call(whole).shape[0] == 3
