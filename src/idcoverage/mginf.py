"""Infinite-server coverage counts on the line.

Customers arrive as a rate-lambda Poisson process, hold an independent
service time drawn from G, and X(t) counts how many are in service at t
(optionally each customer carries an i.i.d. mark and X sums the marks of
the active customers).  The vector (X(t_1), ..., X(t_n)) is a Poisson
functional: the number of customers simultaneously active on exactly the
epochs t_i..t_j is Poisson with mean rho times a four-point combination of
the integrated service tail, rho = lambda * E[service].  That analytic form
is computed here directly from G, independently of the generic weight
machinery, so the two can be used as mutual oracles.
"""

import numpy as np

from .corr import block_spans
from .errors import PreconditionError

_WINDOW_QUANTILE = 1.0 - 1e-9


class MGInfinityModel:
    """M/GI/inf occupancy model, optionally marked."""

    def __init__(self, arrival_rate, service, marks=None):
        if arrival_rate <= 0:
            raise PreconditionError("arrival_rate must be positive")
        self.arrival_rate = float(arrival_rate)
        self.service = service
        self.marks = marks

    @property
    def rho(self):
        return self.arrival_rate * self.service.mean()

    def mark_cf(self, u):
        if self.marks is None:
            return np.exp(1j * np.asarray(u, dtype=float))
        return self.marks.cf(u)

    def mu_rect(self, grid):
        """Mean occupancy mu(A[i,j]) of every contiguous epoch block.

        A[i,j] is the set of (arrival, service) pairs covering exactly
        t_i..t_j among the grid epochs.  Entries are clamped at zero
        against rounding; G_I is an integrated tail, so true negatives
        cannot occur.
        """
        t = grid.t
        # customers arrived by t_i and still in service at t_j (j >= i)
        present = self.rho * (1.0 - self.service.integrated_tail(t[None, :] - t[:, None]))
        # of those, the ones that arrived after t_{i-1} ...
        cohort = np.diff(present, axis=0, prepend=0.0)
        # ... less the ones still in service at t_{j+1}
        mu = -np.diff(cohort, axis=1, append=0.0)
        return np.maximum(np.triu(mu), 0.0)

    def log_cf(self, grid, theta):
        """Joint log CF: sum over blocks of mu(A[i,j]) (chi(span) - 1)."""
        single, (ii, jj), spans = block_spans(theta, len(grid))
        mu = self.mu_rect(grid)
        vals = (np.atleast_2d(self.mark_cf(spans)) - 1.0) @ mu[ii, jj]
        return complex(vals[0]) if single else np.asarray(vals)

    def window(self):
        """Lookback needed so pre-window arrivals are negligible."""
        w = self.service.quantile(_WINDOW_QUANTILE)
        if not np.isfinite(w):
            raise PreconditionError(
                "service quantile is not finite; pass a heavier truncation "
                "or a larger explicit window"
            )
        return w

    def simulate(self, grid, rng, size=None, window=None):
        """Event-level draw of the occupancy vector.

        Arrivals are laid down on [t_1 - W, t_n] with W the (1 - 1e-9)
        service quantile; older arrivals would still be active with
        probability below 1e-9 each.  Returns int64 counts (float64 sums
        when marked), shape (n,) or (size, n).
        """
        t = grid.t
        n = t.size
        reps = 1 if size is None else int(size)
        w = self.window() if window is None else float(window)
        start = t[0] - w
        span = t[-1] - start
        counts = rng.poisson(self.arrival_rate * span, size=reps)
        total = int(counts.sum())
        arrive = start + span * rng.uniform(size=total)
        depart = arrive + self.service.sample(total, rng)
        weights = None if self.marks is None else self.marks.sample(total, rng)
        owner = np.repeat(np.arange(reps), counts)
        if self.marks is None:
            out = np.zeros((reps, n), dtype=np.int64)
        else:
            out = np.zeros((reps, n), dtype=np.float64)
        for k in range(n):
            active = (arrive <= t[k]) & (depart > t[k])
            if self.marks is None:
                out[:, k] = np.bincount(owner[active], minlength=reps)
            else:
                out[:, k] = np.bincount(owner[active], weights=weights[active], minlength=reps)
        return out[0] if size is None else out


def joint_cf_analytic(model, grid, theta):
    return model.log_cf(grid, theta)


def simulate_counts(model, grid, rng, size=None, window=None):
    return model.simulate(grid, rng, size=size, window=window)
