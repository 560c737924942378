"""Joint laws of a stationary ID process on finite grids.

A process is a pair (law, structure): an infinitely divisible law psi for
the marginals and a correlation structure H for the dependence.  On a grid
t_1 < ... < t_n the joint log characteristic function is the weighted sum

    log E exp(i sum_k theta_k X_{t_k})
        = sum_{1 <= i <= j <= n} psi(theta_i + ... + theta_j) * a[i,j]

over the rectangle weights of H.  Because the weights across any column sum
to one, every marginal is exactly the time-1 law, whatever the grid; and
because each weight is nonnegative, the joint law is itself infinitely
divisible, with an explicit drift vector, Gaussian matrix and a Levy measure
supported on the rays of "contiguous block" indicator vectors u_{ij}.  That
ray decomposition is also an exact sampling recipe: draw one independent
increment of the law with time parameter a[i,j] per block and add it to the
coordinates the block covers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import corr
from .errors import PreconditionError

__all__ = ["CoverageProcess", "FidiTriplet", "log_cf"]


@dataclass
class FidiTriplet:
    """Generating triplet of a joint law: drift, Gaussian matrix, ray weights.

    ``rays`` lists (u, weight) pairs where u is the 0/1 indicator of a
    contiguous index block; the jump measure is the law's jump measure pushed
    onto each ray with the given weight.
    """

    beta: np.ndarray
    sigma: np.ndarray
    rays: list = field(repr=False)


class CoverageProcess:
    """Stationary process fixed by an ID law and a correlation structure."""

    def __init__(self, law, structure):
        self.law = law
        self.structure = structure

    # -- characteristic functions ---------------------------------------

    def log_cf(self, grid, theta):
        """Joint log CF on the grid.

        ``theta`` may be a single vector of length n or a stack (M, n);
        returns complex scalar or (M,) respectively.
        """
        w = corr.weights(self.structure, grid)
        single, (ii, jj), spans = corr.block_spans(theta, w.n)
        out = np.atleast_2d(self.law.eval(spans)) @ w.a[ii, jj]
        return complex(out[0]) if single else np.asarray(out)

    def cf(self, grid, theta):
        return np.exp(self.log_cf(grid, theta))

    def consistency_check(self, grid, theta, k):
        """Zeroing theta_k versus deleting epoch k (0-based); returns both."""
        theta = np.asarray(theta, dtype=float)
        n = len(grid)
        if not 0 <= k < n:
            raise PreconditionError("k out of range")
        zeroed = theta.copy()
        zeroed[k] = 0.0
        lhs = self.log_cf(grid, zeroed)
        if n == 1:
            return lhs, 0.0 + 0.0j
        sub = corr.TimeGrid(tuple(np.delete(grid.t, k)))
        rhs = self.log_cf(sub, np.delete(theta, k))
        return lhs, rhs

    # -- structure ------------------------------------------------------

    def triplet(self, grid):
        w = corr.weights(self.structure, grid)
        n = w.n
        drift = self.law.beta if self.law.kind == "gaussian" else 0.0
        diff = self.law.sigma2 if self.law.kind == "gaussian" else 0.0
        beta_vec = np.array([drift * w.column_mass(k) for k in range(n)])
        sigma = diff * corr.a_to_b(w)
        rays = []
        for i in range(n):
            for j in range(i, n):
                if w.a[i, j] > 0.0:
                    u = np.zeros(n, dtype=int)
                    u[i : j + 1] = 1
                    rays.append((u, float(w.a[i, j])))
        return FidiTriplet(beta=beta_vec, sigma=sigma, rays=rays)

    # -- exact sampling ---------------------------------------------------

    def sample(self, grid, rng, size=None):
        """Exact draw of (X_{t_1}, ..., X_{t_n}); (n,) or (size, n).

        One increment per block, drawn in (i, j) order.  Each is added at
        row i and removed at row j+1 of a difference array, whose running
        sum over rows is the sample: O(size * n^2) work in all.
        """
        w = corr.weights(self.structure, grid)
        n = w.n
        m = 1 if size is None else int(size)
        diff = np.zeros((n + 1, m))
        for i in range(n):
            for j in range(i, n):
                z = self.law.sample_increment(w.a[i, j], rng, size=(m,))
                diff[i] += z
                diff[j + 1] -= z
        out = np.cumsum(diff[:n], axis=0, out=diff[:n])
        return out[:, 0] if size is None else out.T

    # -- two-epoch summaries ----------------------------------------------

    def covariance(self, h):
        """Cov(X_t, X_{t+h}) = variance * (1 - H(|h|))."""
        return self.law.variance() * (1.0 - self.structure.eval(abs(h)))

    def increment_cf(self, h, theta):
        """CF of X_{t+h} - X_t: exp(H(h) * (psi(theta) + psi(-theta)))."""
        if h < 0:
            raise PreconditionError("h must be nonnegative")
        H = self.structure.eval(h)
        return np.exp(H * (self.law.eval(theta) + self.law.eval(-np.asarray(theta, dtype=float))))

    def fourth_moment_increment_product(self, t1, t2, t3):
        """E[(X_{t2} - X_{t1})^2 (X_{t3} - X_{t2})^2] in closed form.

        Requires a centered law with a finite fourth moment.  With
        d1 = t2-t1, d2 = t3-t2, D = d1+d2 and

            a0 = H(d1) + H(d2) - H(D)
            a1 = H(d1) + H(D) - H(d2)
            a2 = H(D) - H(d1) + H(d2)

        the value is  psi''''(0)*a0 + psi''(0)^2 * ((a0+a1)*(a0+a2) + 2*a0^2),
        and (a0+a1)(a0+a2) = 4 H(d1) H(d2), so for Gaussian laws this is the
        familiar pair-product expansion of a fourth moment.
        """
        if not t1 < t2 < t3:
            raise PreconditionError("need t1 < t2 < t3")
        if self.law.mean() != 0.0:
            raise PreconditionError("law must be centered (zero mean)")
        H = self.structure.eval
        a0 = H(t2 - t1) + H(t3 - t2) - H(t3 - t1)
        a1 = H(t2 - t1) + H(t3 - t1) - H(t3 - t2)
        a2 = H(t3 - t1) - H(t2 - t1) + H(t3 - t2)
        kappa4 = self.law.fourth_cumulant()
        kappa2 = self.law.variance()       # equals -psi''(0)
        return kappa4 * a0 + kappa2**2 * ((a0 + a1) * (a0 + a2) + 2.0 * a0**2)


# -- free-function form ---------------------------------------------------

def log_cf(process, grid, theta):
    return process.log_cf(grid, theta)
