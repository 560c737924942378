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

The event-level sampler is the third oracle, and it is exact: in the
stationary system Poisson(rho) customers are present at t_1, with i.i.d.
residual times from the equilibrium law G_I (Eick, Massey & Whitt, Oper.
Res. 41, 1993), so only they and the arrivals on (t_1, t_n] are drawn."""

import numpy as np

from .corr import block_spans
from .errors import PreconditionError


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

    def simulate(self, grid, rng, size=None):
        """Exact event-level draw of the stationary occupancy vector.

        At t_1, Poisson(rho) customers are in service, each with a residual
        time from the equilibrium law G_I; on (t_1, t_n] customers arrive
        as a rate-lambda Poisson process with service times from G.  Marks
        are drawn last, so point-mass marks leave the stream unchanged.
        Returns int64 counts (float64 sums when marked), shape (n,) or
        (size, n).
        """
        t = grid.t
        n = t.size
        reps = 1 if size is None else int(size)
        span = t[-1] - t[0]
        present = rng.poisson(self.rho, size=reps)
        fresh = rng.poisson(self.arrival_rate * span, size=reps)
        n0, n1 = int(present.sum()), int(fresh.sum())
        arrive = np.concatenate([np.full(n0, t[0]), t[-1] - span * rng.uniform(size=n1)])
        depart = arrive + np.concatenate([self.service.sample_residual(n0, rng),
                                          self.service.sample(n1, rng)])
        weights = None if self.marks is None else self.marks.sample(n0 + n1, rng)
        owner = np.concatenate([np.repeat(np.arange(reps), present),
                                np.repeat(np.arange(reps), fresh)])
        out = np.zeros((reps, n), dtype=np.int64 if weights is None else np.float64)
        for k in range(n):
            active = (arrive <= t[k]) & (depart > t[k])
            w = None if weights is None else weights[active]
            out[:, k] = np.bincount(owner[active], weights=w, minlength=reps)
        return out[0] if size is None else out


def joint_cf_analytic(model, grid, theta):
    return model.log_cf(grid, theta)


def simulate_counts(model, grid, rng, size=None):
    return model.simulate(grid, rng, size=size)
