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
supported on the rays of "contiguous block" indicator vectors u_{ij} whose
weight a[i,j] is positive.  That ray decomposition is also an exact sampling
recipe: draw one independent increment of the law with time parameter
a[i,j] per ray and add it to the coordinates the block covers.  A block of
weight zero is no ray: the CF, the triplet and the sampler all skip it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import corr
from .errors import PreconditionError, count, finite

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
        single, weights, spans = corr.block_spans(theta, corr.weights(self.structure, grid))
        out = np.atleast_2d(self.law.eval(spans)) @ weights
        return complex(out[0]) if single else np.asarray(out)

    def cf(self, grid, theta):
        return np.exp(self.log_cf(grid, theta))

    def consistency_check(self, grid, theta, k):
        """Zeroing theta_k versus deleting epoch k (0-based); returns both."""
        theta = np.asarray(theta, dtype=float)
        grid = corr.as_grid(grid)
        n = len(grid)
        if not 0 <= k < n:
            raise PreconditionError("k out of range")
        zeroed = theta.copy()
        zeroed[k] = 0.0
        lhs = self.log_cf(grid, zeroed)
        if n == 1:
            return lhs, 0.0 + 0.0j
        return lhs, self.log_cf(np.delete(grid.t, k), np.delete(theta, k))

    # -- structure ------------------------------------------------------

    def triplet(self, grid):
        a = corr.weights(self.structure, grid)
        drift = self.law.beta if self.law.kind == "gaussian" else 0.0
        diff = self.law.sigma2 if self.law.kind == "gaussian" else 0.0
        b = corr.a_to_b(a)
        # b's diagonal holds the column masses sum_{i<=k<=j} a[i,j]
        k = np.arange(a.shape[0])
        rays = [(((k >= i) & (k <= j)).astype(int), float(a[i, j]))
                for i, j in zip(*np.nonzero(a))]
        return FidiTriplet(beta=drift * np.diag(b), sigma=diff * b, rays=rays)

    # -- exact sampling ---------------------------------------------------

    def sample(self, grid, rng, size=None):
        """Exact draw of (X_{t_1}, ..., X_{t_n}); (n,) or (size, n).

        One increment per block of positive weight, in row-major (i, j)
        order; a zero-weight block draws nothing.  Each is added at row i
        and removed at row j+1 of a difference array, whose running sum
        over rows is the sample: O(size * n^2) work at most.
        """
        a = corr.weights(self.structure, grid)
        n = a.shape[0]
        m = 1 if size is None else count(size, "size")
        diff = np.zeros((n + 1, m))
        for i, j in zip(*np.nonzero(a)):
            z = self.law.sample_increment(a[i, j], rng, size=(m,))
            diff[i] += z
            diff[j + 1] -= z
        out = np.cumsum(diff[:n], axis=0, out=diff[:n])
        return out[:, 0] if size is None else out.T

    # -- two-epoch summaries ----------------------------------------------

    def covariance(self, h):
        """Cov(X_t, X_{t+h}) = variance * (1 - H(|h|))."""
        return self.law.variance() * (1.0 - self.structure.eval(abs(finite(h, "h"))))

    def increment_cf(self, h, theta):
        """CF of X_{t+h} - X_t: exp(H(h) * (psi(theta) + psi(-theta)))."""
        H = self.structure.eval(finite(h, "h", "[0, inf)"))
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
        t1, t2, t3 = map(finite, (t1, t2, t3), ("t1", "t2", "t3"))
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
