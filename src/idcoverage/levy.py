"""Infinitely divisible laws on the real line.

A law enters through its characteristic exponent psi, the log of the
characteristic function of the time-1 increment, normalized so psi(0) = 0.
Supported families:

* ``gaussian(beta, sigma2)``      psi(t) = i*beta*t - sigma2*t^2/2
* ``compound_poisson(rate, mark)`` psi(t) = rate*(chi(t) - 1), chi the mark CF
* ``poisson(rate)``               the compound Poisson law with unit marks,
  psi(t) = rate*(e^{it} - 1)
* ``gamma_law()``                 psi(t) = -log(1 - it), shape/scale 1
* ``spectrally_positive(measure)`` psi(t) = int (e^{itx} - 1) measure(dx)
  over (0, inf), requiring a finite first moment so no compensator is needed.

Each law knows its first/second/fourth cumulants and can draw the increment
over an interval of length ``t`` exactly (or, for infinite-activity jump
measures, to a controlled truncation ``eps`` with the dropped mean added back
deterministically).
"""

import math

import numpy as np
from scipy import integrate

from .errors import PreconditionError, QuadratureError, UnsupportedMomentError

_QUAD_RTOL = 1e-10
_QUAD_ATOL = 1e-14
_INVCDF_GRID = 8192


def _quad(f, a, b, points=None):
    """Adaptive quadrature with a hard failure on non-convergence."""
    kwargs = dict(epsabs=_QUAD_ATOL, epsrel=_QUAD_RTOL, limit=400, full_output=1)
    if points is not None and np.isfinite([a, b]).all():
        kwargs["points"] = points
    out = integrate.quad(f, a, b, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3:  # quadpack flagged trouble; tolerate a dominated residual
        if err > max(_QUAD_ATOL, abs(val) * 1e-8):
            raise QuadratureError(
                f"quadrature on [{a}, {b}] did not converge (residual {err:.2e})",
                residual=err,
            )
    return val


class LevyMeasure:
    """A measure on (0, inf): finitely many atoms, or a density on (lo, hi].

    Density supports must have a finite upper endpoint; every measure this
    package needs lives on a bounded interval.  The density may blow up at
    the lower endpoint as long as x*f(x) stays integrable.
    """

    def __init__(self, kind, *, locations=None, masses=None,
                 density=None, lower=None, upper=None):
        if kind == "atomic":
            locations = np.asarray(locations, dtype=float)
            masses = np.asarray(masses, dtype=float)
            if locations.ndim != 1 or locations.shape != masses.shape:
                raise PreconditionError("locations and masses must be matching 1-d arrays")
            if not (locations > 0).all():
                raise PreconditionError("atom locations must be strictly positive")
            if not (masses > 0).all():
                raise PreconditionError("atom masses must be strictly positive")
            self.locations, self.masses = locations, masses
        elif kind == "density":
            if density is None or lower is None or upper is None:
                raise PreconditionError("density kind needs density, lower, upper")
            if not (0 <= lower < upper < np.inf):
                raise PreconditionError("need 0 <= lower < upper < inf")
            self.density, self.lower, self.upper = density, float(lower), float(upper)
        else:
            raise PreconditionError(f"unknown measure kind {kind!r}")
        self.kind = kind

    @classmethod
    def atomic(cls, locations, masses):
        return cls("atomic", locations=locations, masses=masses)

    @classmethod
    def from_density(cls, density, lower, upper):
        return cls("density", density=density, lower=lower, upper=upper)

    def _integral(self, q, lo, hi):
        """int_[lo, hi) x^q d(measure)."""
        if self.kind == "atomic":
            keep = (self.locations >= lo) & (self.locations < hi)
            return float(np.sum(self.masses[keep] * self.locations[keep]**q))
        a, b = max(self.lower, lo), min(self.upper, hi)
        if a >= b:
            return 0.0
        return _quad(lambda x: x**q * self.density(x), a, b)

    def moment(self, q):
        """int x^q d(measure); q = 1 must be finite for a law to be built."""
        return self._integral(q, 0.0, np.inf)

    def tail(self, x):
        """Mass of [x, inf); inf at or below the lower end of a density whose
        mass there does not integrate, as for an infinite-activity measure."""
        try:
            return self._integral(0, x, np.inf)
        except QuadratureError:
            if self.kind == "density" and x <= self.lower:
                return np.inf
            raise

    def first_moment_tail(self, x):
        """int_{[x, inf)} y d(measure)."""
        return self._integral(1, x, np.inf)

    def truncated_first_moment(self, eps):
        """int_{(0, eps)} y d(measure), the mean carried by small jumps."""
        return self._integral(1, 0.0, eps)

    def scale(self, c):
        """The measure multiplied by a positive constant."""
        if c <= 0:
            raise PreconditionError("scale factor must be positive")
        if self.kind == "atomic":
            return LevyMeasure("atomic", locations=self.locations, masses=c * self.masses)
        f = self.density
        return LevyMeasure("density", density=lambda x, _f=f, _c=c: _c * _f(x),
                           lower=self.lower, upper=self.upper)

    def exponent_value(self, theta):
        """int (e^{i theta x} - 1) d(measure) for scalar theta."""
        if self.kind == "atomic":
            return complex(np.sum(self.masses * (np.exp(1j * theta * self.locations) - 1.0)))
        if theta == 0.0:
            return 0.0 + 0.0j
        f = self.density
        re = _quad(lambda x: (np.cos(theta * x) - 1.0) * f(x), self.lower, self.upper)
        im = _quad(lambda x: np.sin(theta * x) * f(x), self.lower, self.upper)
        return complex(re, im)


def reciprocal_measure(b):
    """Density 1/(x*log(1/b)) on (0, 1]; infinite activity, unit-free tails.

    Tail mass of [x, 1] is log(1/x)/log(1/b) and int x^p is 1/(p*log(1/b)).
    """
    if not 0.0 < b < 1.0:
        raise PreconditionError("b must lie in (0, 1)")
    c = 1.0 / np.log(1.0 / b)
    return LevyMeasure("density", density=lambda x, _c=c: _c / x, lower=0.0, upper=1.0)


class MarkDistribution:
    """Jump-size law for compound Poisson laws and marked coverage models."""

    def __init__(self, kind, *, value=None, values=None, probs=None,
                 mean=0.0, variance=None):
        if kind == "point_mass":
            if value is None:
                raise PreconditionError("point_mass needs a value")
            self.value = float(value)
        elif kind == "discrete":
            values = np.asarray(values, dtype=float)
            probs = np.asarray(probs, dtype=float)
            if values.ndim != 1 or values.shape != probs.shape:
                raise PreconditionError("values and probs must be matching 1-d arrays")
            if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
                raise PreconditionError("probs must be a probability vector")
            self.values, self.probs = values, probs
        elif kind == "normal":
            if variance is None or variance < 0:
                raise PreconditionError("normal mark needs variance >= 0")
            self.mean_, self.variance_ = float(mean), float(variance)
        else:
            raise PreconditionError(f"unknown mark kind {kind!r}")
        self.kind = kind

    @classmethod
    def point_mass(cls, value):
        return cls("point_mass", value=value)

    @classmethod
    def discrete(cls, values, probs):
        return cls("discrete", values=values, probs=probs)

    @classmethod
    def normal(cls, mean, variance):
        return cls("normal", mean=mean, variance=variance)

    def cf(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "point_mass":
            out = np.exp(1j * theta * self.value)
        elif self.kind == "discrete":
            out = np.exp(1j * np.multiply.outer(theta, self.values)) @ self.probs
        else:
            out = np.exp(1j * theta * self.mean_ - 0.5 * self.variance_ * theta**2)
        return out if out.ndim else complex(out)

    def moment(self, q):
        if q not in (1, 2, 3, 4):
            raise UnsupportedMomentError(f"mark moment of order {q} not supported")
        if self.kind == "point_mass":
            return self.value**q
        if self.kind == "discrete":
            return float(np.sum(self.probs * self.values**q))
        m, v = self.mean_, self.variance_
        table = {1: m, 2: m**2 + v, 3: m**3 + 3 * m * v,
                 4: m**4 + 6 * m**2 * v + 3 * v**2}
        return table[q]

    def sample_sum(self, counts, rng):
        """Sum of counts[i] independent marks, per entry.

        point_mass consumes no randomness, so marking with a unit point mass
        leaves the caller's stream exactly where the unmarked path leaves it.
        """
        counts = np.asarray(counts)
        if self.kind == "point_mass":
            return counts * self.value
        if self.kind == "discrete":
            per_value = rng.multinomial(counts, self.probs)
            return per_value @ self.values
        loc = counts * self.mean_
        scale = np.sqrt(counts * self.variance_)
        return rng.normal(loc, scale)

    def sample(self, size, rng):
        """Individual marks (used by the coverage simulator)."""
        if self.kind == "point_mass":
            return np.full(size, self.value)
        if self.kind == "discrete":
            return rng.choice(self.values, size=size, p=self.probs)
        return rng.normal(self.mean_, np.sqrt(self.variance_), size=size)


class LevyExponent:
    """An infinitely divisible law, represented by its exponent psi."""

    def __init__(self, kind, *, beta=0.0, sigma2=0.0, rate=None, mark=None,
                 measure=None, trunc_eps=1e-6):
        if kind == "poisson":  # the unit-mark compound Poisson law
            kind, mark = "compound_poisson", MarkDistribution.point_mass(1.0)
        self.kind = kind
        if kind == "gaussian":
            if sigma2 < 0:
                raise PreconditionError("sigma2 must be nonnegative")
            self.beta, self.sigma2 = float(beta), float(sigma2)
        elif kind == "compound_poisson":
            if rate is None or rate < 0 or mark is None:
                raise PreconditionError("compound_poisson needs rate >= 0 and a mark law")
            self.rate, self.mark = float(rate), mark
        elif kind == "gamma":
            pass
        elif kind == "spectrally_positive":
            if measure is None:
                raise PreconditionError("spectrally_positive needs a LevyMeasure")
            if trunc_eps <= 0:
                raise PreconditionError("trunc_eps must be positive")
            self.measure = measure
            self.trunc_eps = float(trunc_eps)
            self._m1 = measure.moment(1)  # must exist; this is the no-compensator regime
            # a divergent integral can come back from quadrature as a finite
            # negative "regularized" value, so nonpositive is rejected too
            if not np.isfinite(self._m1) or self._m1 <= 0:
                raise PreconditionError(
                    "spectrally positive measure needs a finite positive first moment")
            self._invcdf = None
        else:
            raise PreconditionError(f"unknown law kind {kind!r}")

    # ---- exponent ----------------------------------------------------

    def eval(self, theta):
        """psi(theta); accepts scalars or arrays, returns complex."""
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        th = np.atleast_1d(theta)
        if self.kind == "gaussian":
            out = 1j * self.beta * th - 0.5 * self.sigma2 * th**2
        elif self.kind == "compound_poisson":
            out = self.rate * (np.atleast_1d(self.mark.cf(th)) - 1.0)
        elif self.kind == "gamma":
            out = -np.log(1.0 - 1j * th)  # principal branch; Re(1 - it) = 1 > 0
        else:
            flat = th.ravel()
            out = np.array([self.measure.exponent_value(t) for t in flat])
            out = out.reshape(th.shape)
        out = out.astype(complex)
        return complex(out[0]) if scalar else out.reshape(theta.shape)

    # ---- cumulants ---------------------------------------------------

    def _cumulant(self, k):
        """The k-th cumulant (-i)^k psi^(k)(0), k = 1..4."""
        if self.kind == "gaussian":
            return (self.beta, self.sigma2)[k - 1] if k <= 2 else 0.0
        if self.kind == "compound_poisson":
            return self.rate * self.mark.moment(k)
        if self.kind == "gamma":
            return float(math.factorial(k - 1))
        return self._m1 if k == 1 else self.measure.moment(k)

    def mean(self):
        return self._cumulant(1)

    def variance(self):
        return self._cumulant(2)

    def fourth_cumulant(self):
        """psi''''(0); zero for Gaussian laws, int x^4 nu(dx) for jump laws."""
        return self._cumulant(4)

    # ---- sampling ----------------------------------------------------

    def _jump_table(self):
        """Inverse CDF of the eps-truncated jump-size law (density kind)."""
        if self._invcdf is None:
            nu = self.measure
            lo = max(nu.lower, self.trunc_eps)
            if lo >= nu.upper:
                raise PreconditionError("truncation removes the whole support")
            # geometric grid resolves the near-zero blowup of 1/x-type densities
            grid = np.geomspace(lo, nu.upper, _INVCDF_GRID)
            pdf = np.array([nu.density(x) for x in grid])
            cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
            cdf /= cdf[-1]
            rate = nu.tail(lo)
            comp = nu.truncated_first_moment(self.trunc_eps)
            self._invcdf = (cdf, grid, rate, comp)
        return self._invcdf

    def truncation_info(self):
        """(eps, retained jump rate, mean restored per unit time)."""
        if self.kind != "spectrally_positive":
            raise PreconditionError("truncation applies only to spectrally positive laws")
        if self.measure.kind == "atomic":
            return {"eps": 0.0, "rate": float(self.measure.masses.sum()),
                    "compensator_mean": 0.0}
        cdf, grid, rate, comp = self._jump_table()
        return {"eps": self.trunc_eps, "rate": rate, "compensator_mean": comp}

    def sample_increment(self, t, rng, size=None):
        """Draw the increment over an interval of length t.

        Returns a scalar for size=None, else an ndarray of that shape.
        The interface is exact for every kind except density-type jump
        measures with infinite activity, where jumps below ``trunc_eps``
        are dropped and their exact mean ``t * int_0^eps x nu(dx)`` is
        added back deterministically.
        """
        if t < 0:
            raise PreconditionError("t must be nonnegative")
        shape = () if size is None else size
        if t == 0:
            out = np.zeros(shape)
            return float(out) if size is None else out

        if self.kind == "gaussian":
            out = rng.normal(self.beta * t, np.sqrt(self.sigma2 * t), size=shape)
        elif self.kind == "compound_poisson":
            counts = rng.poisson(self.rate * t, size=shape)
            out = np.asarray(self.mark.sample_sum(counts, rng), dtype=float)
        elif self.kind == "gamma":
            out = rng.gamma(t, 1.0, size=shape)
        elif self.measure.kind == "atomic":
            # superpose one Poisson stream per atom; exact, no truncation
            locs, masses = self.measure.locations, self.measure.masses
            counts = rng.poisson(np.broadcast_to(masses * t, shape + masses.shape))
            out = counts @ locs if counts.ndim else float(counts * locs)
            out = np.asarray(out, dtype=float)
        else:
            cdf, grid, rate, comp = self._jump_table()
            counts = np.atleast_1d(rng.poisson(rate * t, size=shape))
            total = int(counts.sum())
            jumps = np.interp(rng.uniform(size=total), cdf, grid)
            owner = np.repeat(np.arange(counts.size), counts)
            flat = np.bincount(owner, weights=jumps, minlength=counts.size)
            out = flat.reshape(shape) + t * comp
        if size is None:
            return float(np.asarray(out))
        return out


# ---- constructors -------------------------------------------------------

def gaussian(beta, sigma2):
    return LevyExponent("gaussian", beta=beta, sigma2=sigma2)


def poisson(rate):
    return compound_poisson(rate, MarkDistribution.point_mass(1.0))


def compound_poisson(rate, mark):
    return LevyExponent("compound_poisson", rate=rate, mark=mark)


def gamma_law():
    return LevyExponent("gamma")


def spectrally_positive(measure, trunc_eps=1e-6):
    return LevyExponent("spectrally_positive", measure=measure, trunc_eps=trunc_eps)
