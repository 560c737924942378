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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConcavityError, PreconditionError

_CLAMP_FLOOR = -1e-9  # below this a negative weight is a modelling error


class ServiceDistribution:
    """Nonnegative service-time law G with closed-form integrated tail."""

    def __init__(self, kind, *, rate=None, value=None, shape=None, scale=None,
                 values=None, probs=None):
        self.kind = kind
        if kind == "exponential":
            if rate is None or rate <= 0:
                raise PreconditionError("exponential service needs rate > 0")
            self.rate = float(rate)
        elif kind == "deterministic":
            if value is None or value <= 0:
                raise PreconditionError("deterministic service needs value > 0")
            self.value = float(value)
        elif kind == "pareto_truncated":
            if shape is None or shape <= 2:
                raise PreconditionError("pareto service needs shape > 2 for finite variance")
            if scale is None or scale <= 0:
                raise PreconditionError("pareto service needs scale > 0")
            self.shape, self.scale = float(shape), float(scale)
        elif kind == "discrete":
            values = np.asarray(values, dtype=float)
            probs = np.asarray(probs, dtype=float)
            if values.ndim != 1 or values.shape != probs.shape:
                raise PreconditionError("values and probs must be matching 1-d arrays")
            if (values <= 0).any():
                raise PreconditionError("service times must be positive")
            if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
                raise PreconditionError("probs must be a probability vector")
            self.values, self.probs = values, probs
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
            if mu is None or mu <= 0:
                raise PreconditionError("exponential structure needs mu > 0")
            self.mu = float(mu)
        elif kind == "power":
            if alpha is None or not 0.0 < alpha <= 1.0:
                raise PreconditionError("power structure needs alpha in (0, 1]")
            self.alpha = float(alpha)
        elif kind == "integrated_tail":
            if service is None:
                raise PreconditionError("integrated_tail needs a ServiceDistribution")
            self.service = service
        elif kind == "mixture":
            if not components:
                raise PreconditionError("mixture needs (weight, structure) components")
            w = np.array([c[0] for c in components], dtype=float)
            if (w <= 0).any() or abs(w.sum() - 1.0) > 1e-12:
                raise PreconditionError("mixture weights must be positive and sum to 1")
            self.components = [(float(wi), ci) for wi, ci in components]
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
        t = np.asarray(self.epochs, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise PreconditionError("grid needs at least one epoch")
        if not np.isfinite(t).all():
            raise PreconditionError("grid epochs must be finite")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise PreconditionError("grid epochs must be strictly increasing")
        object.__setattr__(self, "epochs", tuple(float(x) for x in t))

    @property
    def t(self):
        return np.asarray(self.epochs)

    def __len__(self):
        return len(self.epochs)

    def shifted(self, tau):
        return TimeGrid(tuple(x + tau for x in self.epochs))


@dataclass
class WeightMatrix:
    """Upper-triangular rectangle weights a[i,j] on a grid (0-based arrays)."""

    grid: TimeGrid
    a: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.grid)

    def column_mass(self, k):
        """sum over i <= k <= j of a[i,j]; equals 1 for weights of a structure."""
        return float(self.a[: k + 1, k:].sum())

    def to_csv(self, path):
        lines = ["i,j,a"]
        for i in range(self.n):
            for j in range(i, self.n):
                lines.append(f"{i + 1},{j + 1},{float(self.a[i, j])!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


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
    """Rectangle weights of a correlation structure on a grid.

    Entries in [-1e-9, 0) are rounding debris and are clamped to zero;
    anything lower raises ConcavityError naming the entry.
    """
    t = grid.t
    # E[p, q] = H(t_q - t_p); only q >= p is meaningful
    E = np.atleast_2d(structure.eval(np.maximum(t[None, :] - t[:, None], 0.0)))
    a = _four_point(E, 1.0)
    bad = np.argwhere(a < _CLAMP_FLOOR)
    if bad.size:
        i, j = bad[0]
        raise ConcavityError(int(i) + 1, int(j) + 1, float(a[i, j]))
    a[a < 0.0] = 0.0
    return WeightMatrix(grid=grid, a=a)


def a_to_b(w):
    """Quadratic-form matrix b[k,l] = sum_{i<=min, j>=max} a[i,j] (symmetric)."""
    a = w.a if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    pref = np.cumsum(a, axis=0)            # over i <= k
    suff = np.cumsum(pref[:, ::-1], axis=1)[:, ::-1]  # over j >= l
    b = np.triu(suff)
    return b + np.triu(b, 1).T


def b_to_a(b, grid=None):
    """Invert a_to_b: second mixed difference of b with zero padding.

    No sign check is applied; callers deciding whether b is a legitimate
    correlation object inspect the result themselves.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n):
        raise PreconditionError("b must be square")
    a = _four_point(-b, 0.0)
    if grid is None:
        grid = TimeGrid(tuple(float(k) for k in range(1, n + 1)))
    return WeightMatrix(grid=grid, a=a)


def block_spans(theta, n):
    """Sums theta_i + ... + theta_j over every contiguous block i <= j.

    ``theta`` is one vector (n,) or a stack (M, n).  Returns
    ``(single, (ii, jj), spans)``: whether theta was one vector, the
    ``np.triu_indices(n)`` block indices, and the (M, n(n+1)/2) spans in
    that block order.
    """
    theta = np.asarray(theta, dtype=float)
    th = np.atleast_2d(theta)
    if th.shape[1] != n:
        raise PreconditionError("theta length must match the grid")
    prefix = np.concatenate([np.zeros((th.shape[0], 1)), np.cumsum(th, axis=1)], axis=1)
    ii, jj = np.triu_indices(n)
    return theta.ndim == 1, (ii, jj), prefix[:, jj + 1] - prefix[:, ii]
