"""Correlation structures and the rectangle weights they induce.

A correlation structure is a function H on [0, inf) with H(0) = 0, H
nondecreasing and concave, H -> 1.  It fixes the full dependence structure
of a stationary process through the weight array

    a[i,j] = H(t_j - t_{i-1}) - H(t_j - t_i) - H(t_{j+1} - t_{i-1})
             + H(t_{j+1} - t_i),      1 <= i <= j <= n,

with the boundary convention t_0 = -inf, t_{n+1} = +inf (so H evaluates
to 1 on those gaps).  Concavity of H makes every a[i,j] nonnegative; the
weights on each "column" k sum to one, which is what keeps marginals
invariant under refinement of the grid.

The quadratic-form change of variables

    b[k,l] = sum_{i <= min(k,l), j >= max(k,l)} a[i,j]

and its inverse are provided for moving between the weight array and
covariance-style matrices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConcavityError, PreconditionError, finite, probability_vector

_CLAMP_FLOOR = -1e-9  # below this a negative weight is a modelling error
# rounding bound of a four-point difference of H values in [0, 1]: an entry
# at or below it is debris, not a ray
_DEBRIS_CEILING = 2.0**-49


class ServiceDistribution:
    """Nonnegative service-time law G with closed-form integrated tail."""

    def __init__(self, kind, *, rate=None, value=None, shape=None, scale=None,
                 values=None, probs=None):
        self.kind = kind
        if kind == "exponential":
            self.rate = finite(rate, "rate", "(0, inf)")
        elif kind == "deterministic":
            self.value = finite(value, "value", "(0, inf)")
        elif kind == "pareto_truncated":
            self.shape = finite(shape, "shape", "(2, inf)")  # for a finite variance
            self.scale = finite(scale, "scale", "(0, inf)")
        elif kind == "discrete":
            self.values = finite(values, "values", "(0, inf)", vector=True)
            self.probs = probability_vector(self.values, probs, "probs")
        else:
            raise PreconditionError(f"unknown service kind {kind!r}")

    @classmethod
    def exponential(cls, rate):
        return cls("exponential", rate=rate)

    @classmethod
    def deterministic(cls, value):
        return cls("deterministic", value=value)

    @classmethod
    def pareto_truncated(cls, shape, scale):
        return cls("pareto_truncated", shape=shape, scale=scale)

    @classmethod
    def discrete(cls, values, probs):
        return cls("discrete", values=values, probs=probs)

    def mean(self):
        if self.kind == "exponential":
            return 1.0 / self.rate
        if self.kind == "deterministic":
            return self.value
        if self.kind == "pareto_truncated":
            return self.shape * self.scale / (self.shape - 1.0)
        return float(np.sum(self.probs * self.values))

    def integrated_tail(self, t):
        """G_I(t) = mean^{-1} * int_0^t P(service > y) dy, vectorized."""
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        m = self.mean()
        if self.kind == "exponential":
            out = 1.0 - np.exp(-self.rate * t)
        elif self.kind == "deterministic":
            out = np.minimum(t, self.value) / self.value
        elif self.kind == "pareto_truncated":
            a, s = self.shape, self.scale
            below = np.minimum(t, s)
            above = np.where(t > s, (s / (a - 1.0)) * (1.0 - (s / np.maximum(t, s)) ** (a - 1.0)), 0.0)
            out = (below + above) / m
        else:
            out = np.minimum.outer(t, self.values) @ self.probs / m
        return out if out.ndim else float(out)

    def sample(self, size, rng):
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size=size)
        if self.kind == "deterministic":
            return np.full(size, self.value)
        if self.kind == "pareto_truncated":
            return self.scale * (1.0 + rng.pareto(self.shape, size=size))
        return rng.choice(self.values, size=size, p=self.probs)

    def sample_residual(self, size, rng):
        """Equilibrium residual time, law G_I: U * S* with U uniform(0, 1)
        and S* the size-biased service time, density s g(s) / mean."""
        if self.kind == "exponential":
            biased = rng.gamma(2.0, 1.0 / self.rate, size=size)
        elif self.kind == "deterministic":
            biased = self.value
        elif self.kind == "pareto_truncated":
            biased = self.scale * (1.0 + rng.pareto(self.shape - 1.0, size=size))
        else:
            biased = rng.choice(self.values, size=size, p=self.probs * self.values / self.mean())
        return rng.uniform(size=size) * biased


class CorrelationStructure:
    """H on [0, inf): exponential, power, integrated service tail, or mixture."""

    def __init__(self, kind, *, mu=None, alpha=None, service=None, components=None):
        self.kind = kind
        if kind == "exponential":
            self.mu = finite(mu, "mu", "(0, inf)")
        elif kind == "power":
            self.alpha = finite(alpha, "alpha", "(0, 1]")
        elif kind == "integrated_tail":
            if service is None:
                raise PreconditionError("integrated_tail needs a ServiceDistribution")
            self.service = service
        elif kind == "mixture":
            if not components:
                raise PreconditionError("mixture needs (weight, structure) components")
            w = probability_vector(components, [c[0] for c in components], "weight",
                                   positive=True)
            self.components = [(float(wi), ci) for wi, (_, ci) in zip(w, components)]
        else:
            raise PreconditionError(f"unknown structure kind {kind!r}")

    def eval(self, t):
        """H(t); negative arguments return 0.  Accepts scalars or arrays."""
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.kind == "exponential":
            out = -np.expm1(-self.mu * t)
        elif self.kind == "power":
            out = np.minimum(t**self.alpha, 1.0)
        elif self.kind == "integrated_tail":
            out = np.asarray(self.service.integrated_tail(t))
        else:
            out = sum(w * np.asarray(c.eval(t)) for w, c in self.components)
        return out if out.ndim else float(out)


def exponential_structure(mu):
    return CorrelationStructure("exponential", mu=mu)


def power_structure(alpha):
    return CorrelationStructure("power", alpha=alpha)


def integrated_tail_structure(service):
    return CorrelationStructure("integrated_tail", service=service)


def mixture_structure(components):
    return CorrelationStructure("mixture", components=components)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation epochs t_1 < ... < t_n."""

    epochs: tuple

    def __post_init__(self):
        t = finite(self.epochs, "epochs", vector=True)
        if t.size < 1:
            raise PreconditionError("grid needs at least one epoch")
        if not (np.diff(t) > 0).all():
            raise PreconditionError("grid epochs must be strictly increasing")
        object.__setattr__(self, "epochs", tuple(float(x) for x in t))

    @property
    def t(self):
        return np.asarray(self.epochs)

    def __len__(self):
        return len(self.epochs)

    def shifted(self, tau):
        return TimeGrid(tuple(x + tau for x in self.epochs))


def as_grid(grid):
    """``grid`` as a TimeGrid: a TimeGrid itself, or a strictly increasing
    list, tuple or 1-d array of epochs."""
    return grid if isinstance(grid, TimeGrid) else TimeGrid(grid)


def _four_point(inner, pad):
    """Upper triangle of the four-point difference of a padded matrix.

    Q is the (n+1, n+1) matrix holding ``inner`` at Q[1:, :-1] and ``pad``
    on row 0 and column n (the gaps to t_0 = -inf and t_{n+1} = +inf); the
    result is Q[:-1,:-1] - Q[1:,:-1] - Q[:-1,1:] + Q[1:,1:] with zeros
    below the diagonal.
    """
    n = inner.shape[0]
    q = np.full((n + 1, n + 1), pad)
    q[1:, :-1] = inner
    return np.triu(q[:-1, :-1] - q[1:, :-1] - q[:-1, 1:] + q[1:, 1:])


def weights(structure, grid):
    """Rectangle weights a[i,j] of a correlation structure on a grid: the
    (n, n) upper-triangular array, 0-based.

    Entries in [-1e-9, 2^-49] are rounding debris and are set to zero;
    anything below -1e-9 raises ConcavityError naming the entry.
    """
    t = as_grid(grid).t
    # E[p, q] = H(t_q - t_p); only q >= p is meaningful
    E = np.atleast_2d(structure.eval(np.maximum(t[None, :] - t[:, None], 0.0)))
    a = _four_point(E, 1.0)
    bad = np.argwhere(a < _CLAMP_FLOOR)
    if bad.size:
        i, j = bad[0]
        raise ConcavityError(int(i) + 1, int(j) + 1, float(a[i, j]))
    a[a <= _DEBRIS_CEILING] = 0.0
    return a


def a_to_b(a):
    """Quadratic-form matrix b[k,l] = sum_{i<=min, j>=max} a[i,j] (symmetric).

    Its diagonal b[k,k] is the column mass sum_{i<=k<=j} a[i,j], which is 1
    for the weights of a structure.
    """
    a = np.asarray(a, dtype=float)
    pref = np.cumsum(a, axis=0)            # over i <= k
    suff = np.cumsum(pref[:, ::-1], axis=1)[:, ::-1]  # over j >= l
    b = np.triu(suff)
    return b + np.triu(b, 1).T


def b_to_a(b):
    """Invert a_to_b: second mixed difference of b with zero padding.

    No sign check is applied; callers deciding whether b is a legitimate
    correlation object inspect the result themselves.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise PreconditionError("b must be square")
    return _four_point(-b, 0.0)


def block_spans(theta, a):
    """Sums theta_i + ... + theta_j over the blocks i <= j that carry weight.

    ``theta`` is one vector (n,) or a stack (M, n), and ``a`` an (n, n)
    upper-triangular weight array.  A block of weight zero is no ray of the
    Levy measure, so it is left out.  Returns ``(single, weights, spans)``:
    whether theta was one vector, the nonzero entries of ``a`` in row-major
    (i, j) order, and the (M, blocks) spans in that order.
    """
    theta = np.asarray(theta, dtype=float)
    th = np.atleast_2d(theta)
    if th.shape[1] != a.shape[0]:
        raise PreconditionError("theta length must match the grid")
    prefix = np.concatenate([np.zeros((th.shape[0], 1)), np.cumsum(th, axis=1)], axis=1)
    ii, jj = np.nonzero(a)
    return theta.ndim == 1, a[ii, jj], prefix[:, jj + 1] - prefix[:, ii]
