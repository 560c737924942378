"""Empirical characteristic functions, covariances, and CF distances.

All reductions run in a fixed deterministic order (count-weighted sums over
contiguous chunks processed sequentially), so estimates are reproducible to
the bit for a given sample matrix regardless of how the samples themselves
were produced.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import PreconditionError

_CHUNK_ELEMENTS = 10_000_000


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


def empirical_cf(samples, thetas):
    """Mean of exp(i theta . row) over sample rows, with component stderrs.

    The standard error reported per point is the larger of the real and
    imaginary component standard errors (conservative, and never above
    2/sqrt(N) since both components live in [-1, 1]).  Repeated rows of an
    integer-valued sample are evaluated once and weighted by their counts
    (Feuerverger & Mureika 1977).  The variances come from centred sums of
    squares per chunk, merged by the pairwise update of Chan, Golub &
    LeVeque (1983), so they do not cancel when the sample is nearly constant.
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
    sums = np.zeros((2, m))   # weighted sums of cos and sin
    m2 = np.zeros((2, m))     # their centred sums of squares
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
    est = (sums[0] + 1j * sums[1]) / n
    if n > 1:
        var_c, var_s = m2 / (n - 1)
        stderr = np.sqrt(np.maximum(var_c, var_s) / n)
    else:
        stderr = np.zeros(m)
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
