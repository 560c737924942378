"""Empirical characteristic functions, covariances, and CF distances.

All reductions run in a fixed deterministic order (count-weighted sums over
contiguous chunks processed sequentially), so estimates are reproducible to
the bit for a given sample matrix regardless of how the samples themselves
were produced.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import PreconditionError

# float64 elements in one chunk's temporaries (2 MB): blocks that stay in
# cache ran faster on both paths than blocks of 16 or 80 MB
_CHUNK_ELEMENTS = 250_000
# The factored variance (sum of cos^2 - (sum of cos)^2 / N) / (N - 1) is a
# difference of two means near 1/2, so it carries an absolute rounding error
# that does not shrink with the variance: at most 9e-15 measured on 1e6 rows
# (normal, exponential, gamma, Poisson and near-constant samples).  Allowing
# 1e-13, a variance of at least 1e-7 is then good to 1e-6 relative, its stderr
# to 5e-7; smaller variances are recomputed on the centred path.
_FACTORED_MIN_VAR = 1e-7
# Both paths round each phase theta . row to about 2**-53 of its size, in
# different places: the dense path rounds the sum, the factored path each term.
# Below 2**10 one such rounding is at most 2**-44 (5.7e-14), so the two agree
# to 1e-13; larger phases keep the dense path, the reference.
_FACTORED_MAX_PHASE = 2.0**10


@dataclass
class EmpiricalCF:
    thetas: np.ndarray = field(repr=False)   # (M, n) evaluation points
    estimates: np.ndarray = field(repr=False)  # (M,) complex
    n_samples: int = 0
    stderr: np.ndarray = field(repr=False, default=None)


def theta_product_grid(per_coordinate):
    """Cartesian product of per-coordinate theta values, as an (M, n) array."""
    rows = list(product(*[np.asarray(g, dtype=float) for g in per_coordinate]))
    return np.array(rows, dtype=float)


def _distinct_rows(samples):
    """(rows, counts): the distinct rows of an integer-valued sample with their
    multiplicities, else every row with count 1.

    Rows collapse through a one-dimensional mixed-radix int64 key, so the
    sample must be finite, integer-valued and small enough that the key
    stays below 2**62.  The distinct rows come out in key order.
    """
    every = samples, np.ones(samples.shape[0])
    # NaN and inf fail the magnitude test
    if not (np.all(np.abs(samples) < 2.0**62) and np.array_equal(samples, np.rint(samples))):
        return every
    ints = samples.astype(np.int64)
    lo = ints.min(axis=0)
    radix = ints.max(axis=0) - lo + 1
    if np.prod(radix.astype(float)) >= 2.0**62:
        return every
    strides = np.cumprod(radix[::-1])[::-1] // radix
    key = (ints - lo) @ strides
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return samples[first], counts.astype(float)


def _factored_grid(rows, thetas):
    """(values, flat) when the factored sums apply, else None.

    They apply when the rows of ``thetas`` are exactly the rows of the
    product of its per-column unique values, in any order, and no phase
    theta . row can exceed ``_FACTORED_MAX_PHASE``.  ``values[k]`` holds
    column k's sorted unique values and ``flat[i]`` the position of theta
    row i in ``theta_product_grid(values)``.
    """
    if thetas.size == 0 or not np.isfinite(thetas).all():
        return None
    # return_inverse also keeps np.unique off the path that imports numpy.ma
    values, where = zip(*(np.unique(col, return_inverse=True) for col in thetas.T))
    sizes = [v.size for v in values]
    if np.prod(np.array(sizes, dtype=float)) != thetas.shape[0]:
        return None
    # NaN or inf in the sample fails this test too
    phase = sum(np.abs(v).max() * np.abs(x).max() for v, x in zip(values, rows.T))
    if not phase <= _FACTORED_MAX_PHASE:
        return None
    flat = np.ravel_multi_index(where, sizes)
    if np.bincount(flat).max() > 1:
        return None
    return values, flat


def _centred_sums(rows, counts, thetas):
    """(sums, m2): count-weighted sums of cos and sin of theta . row, and their
    centred sums of squares, each (2, M).

    Each chunk's centred sums of squares merge by the pairwise update of
    Chan, Golub & LeVeque (1983), so they do not cancel when the sample is
    nearly constant.
    """
    m = thetas.shape[0]
    sums = np.zeros((2, m))
    m2 = np.zeros((2, m))
    seen = 0.0
    chunk = max(1, _CHUNK_ELEMENTS // max(m, 1))
    for lo in range(0, rows.shape[0], chunk):
        w = counts[lo : lo + chunk]
        weight = w.sum()
        inner = rows[lo : lo + chunk] @ thetas.T
        # cos reads inner before sin overwrites it
        for k, v in enumerate((np.cos(inner), np.sin(inner, out=inner))):
            part = w @ v
            mean = part / weight
            delta = mean - sums[k] / seen if seen else 0.0
            v -= mean
            v *= v
            m2[k] += w @ v + delta**2 * (seen * weight / (seen + weight))
            sums[k] += part
        seen += weight
    return sums, m2


def _factored_sums(rows, counts, values):
    """Count-weighted sums of exp(i theta . row) over the product grid of
    ``values``, in ``theta_product_grid`` order, and the real parts of the
    same sums at 2 theta.

    exp(i theta . x) is the product over k of exp(i theta_k x_k), so per
    chunk of rows each coordinate's factor is built once (and squared for
    2 theta), the first n - 1 factors multiply row by row, and one matrix
    product against the last factor sums over the chunk.
    """
    m = math.prod(v.size for v in values)
    sums = np.zeros((2, m), dtype=complex)
    # per row: the factors at theta and 2 theta, and the leading product
    width = 2 * (2 * sum(v.size for v in values) + m // values[-1].size)
    chunk = max(1, _CHUNK_ELEMENTS // width)
    for lo in range(0, rows.shape[0], chunk):
        w = counts[lo : lo + chunk]
        factors = [np.exp(1j * np.multiply.outer(x, v))
                   for x, v in zip(rows[lo : lo + chunk].T, values)]
        for k, fs in enumerate((factors, [f * f for f in factors])):
            lead = w[:, None]
            for f in fs[:-1]:
                lead = (lead[:, :, None] * f[:, None, :]).reshape(w.size, -1)
            sums[k] += (lead.T @ fs[-1]).ravel()
    return sums[0], sums[1].real


def empirical_cf(samples, thetas):
    """Mean of exp(i theta . row) over sample rows, with component stderrs.

    The standard error reported per point is the larger of the real and
    imaginary component standard errors (conservative, and never above
    2/sqrt(N) since both components live in [-1, 1]).  Repeated rows of an
    integer-valued sample are evaluated once and weighted by their counts.

    When ``thetas`` is a product grid (its rows are those of the product of
    its per-column unique values, in any order) the sums factor over the
    coordinates (Feuerverger & Mureika 1977): per chunk of rows, one factor
    per coordinate and one matrix product, never a rows x thetas matrix.
    Second moments come from the same sums at 2 theta, through
    cos^2 = (1 + cos 2.)/2 and sin^2 = (1 - cos 2.)/2.  That identity
    cancels when a variance is small, so any theta whose variance falls below
    ``_FACTORED_MIN_VAR`` takes its stderr from the centred path below.

    Every other grid, and a sample whose phases theta . row may exceed
    ``_FACTORED_MAX_PHASE`` or are not finite, takes the centred path for all
    thetas: one rows x thetas block of cos and sin per chunk, with centred
    sums of squares that do not cancel when the sample is nearly constant.
    """
    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    if samples.ndim == 1:
        samples = samples[:, None]
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    n, m = samples.shape[0], thetas.shape[0]
    if n < 1:
        raise PreconditionError("need at least one sample row")
    if thetas.shape[1] != samples.shape[1]:
        raise PreconditionError("theta dimension must match sample columns")
    rows, counts = _distinct_rows(samples)
    dof = max(n - 1, 1)
    grid = _factored_grid(rows, thetas)
    if grid is None:
        sums, m2 = _centred_sums(rows, counts, thetas)
        est = (sums[0] + 1j * sums[1]) / n
        var = m2 / dof
    else:
        values, flat = grid
        sums, cos2 = _factored_sums(rows, counts, values)
        est = sums[flat] / n
        square = np.array([n + cos2[flat], n - cos2[flat]]) / 2
        var = np.maximum(square - n * np.array([est.real, est.imag])**2, 0.0) / dof
        low = np.flatnonzero(var.max(axis=0) < _FACTORED_MIN_VAR)
        if low.size:
            var[:, low] = _centred_sums(rows, counts, thetas[low])[1] / dof
    stderr = np.sqrt(var.max(axis=0) / n) if n > 1 else np.zeros(m)
    return EmpiricalCF(thetas=thetas, estimates=est, n_samples=n, stderr=stderr)


def empirical_cov(samples, pairs):
    """Unbiased sample covariance for each (k, l) column pair, with stderr."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        raise PreconditionError("need at least two sample rows")
    out = []
    for k, l in pairs:
        x = samples[:, k] - samples[:, k].mean()
        y = samples[:, l] - samples[:, l].mean()
        cross = x * y
        cov = cross.sum() / (n - 1)
        stderr = cross.std(ddof=1) / np.sqrt(n)
        out.append((float(cov), float(stderr)))
    return out


def cf_distance(emp, analytic):
    """(sup, rms) modulus distance between estimates and analytic values."""
    analytic = np.asarray(analytic, dtype=complex)
    if analytic.shape != emp.estimates.shape:
        raise PreconditionError("analytic grid does not match the empirical grid")
    diff = np.abs(emp.estimates - analytic)
    return float(diff.max()), float(np.sqrt(np.mean(diff**2)))


def cf_report(emp, distances=None):
    """JSON-ready report: grid, per-point estimates, optional distances."""
    report = {
        "grid": emp.thetas.tolist(),
        "n_samples": int(emp.n_samples),
        "estimates": [
            {
                "theta": emp.thetas[i].tolist(),
                "re": float(emp.estimates[i].real),
                "im": float(emp.estimates[i].imag),
                "stderr": float(emp.stderr[i]),
            }
            for i in range(emp.thetas.shape[0])
        ],
    }
    if distances is not None:
        report["distances"] = {"sup": distances[0], "l2": distances[1]}
    return report
