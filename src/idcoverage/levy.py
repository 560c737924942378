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

Jump measures are atomic, a density on (lo, hi], or ``reciprocal_measure``:
c/x on (0, 1] with c = 1/log(1/b), the limit measure of the ON/OFF arrays.
The reciprocal kind is closed-form throughout, so no quadrature runs and
scipy is never imported for it:

* tail(x) = c*log(1/x) on (0, 1], inf at x <= 0
* int x^q = c/q, int_[x, 1] y = c*(1 - x), int_(0, eps) y = c*eps
* psi(t) = c*(-Cin(|t|) + i*sign(t)*Si(|t|)), with Cin and Si from power
  series up to 4 and a continued fraction for E1(ix) beyond (Abramowitz &
  Stegun 5.2; ``cisi`` in Press et al., Numerical Recipes)
* jumps of the eps-truncated law are eps**(1 - U), U uniform

Only densities integrate by quadrature, importing scipy at their first call.

Each law knows its first/second/fourth cumulants and can draw the increment
over an interval of length ``t`` exactly (or, for infinite-activity jump
measures, to a controlled truncation ``eps`` with the dropped mean added back
deterministically).
"""

import math

import numpy as np

from .errors import PreconditionError, QuadratureError, UnsupportedMomentError

_QUAD_RTOL = 1e-10
_QUAD_ATOL = 1e-14
_INVCDF_GRID = 8192
_SERIES_MAX = 4.0  # Cin and Si by power series up to here, a continued fraction beyond
_SERIES_TERMS = 20  # the last term at x = 4 is below 1e-21
_CF_MAXIT = 100  # the continued fraction converges in under 70 steps for x > 4
_ATOM_CHUNK_ELEMENTS = 1 << 14  # thetas x atoms per exponent block: 256 KB complex, in cache


def _quad(f, a, b, points=None):
    """Adaptive quadrature with a hard failure on non-convergence."""
    from scipy import integrate  # imported here: runs that never integrate skip it

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


def _cin_si(x):
    """Cin(x) = int_0^x (1 - cos t)/t dt and Si(x) = int_0^x sin t/t dt for x >= 0.

    Power series up to 4: Cin is summed directly, never as gamma + log x - Ci,
    which cancels at small x.  Beyond 4, the modified Lentz continued
    fraction for E1(ix) gives Ci = -Re E1(ix) and Si = pi/2 + Im E1(ix).
    Elementwise over an array, with no Python loop over its entries.
    """
    x = np.asarray(x, dtype=float)
    cin, si = np.zeros(x.shape), np.zeros(x.shape)
    small = x <= _SERIES_MAX

    xs = x[small]
    odd = xs.copy()  # (-1)^k x^(2k+1)/(2k+1)!, k = 0
    s, c = xs.copy(), np.zeros(xs.shape)
    for k in range(1, _SERIES_TERMS):
        even = odd * xs / (2 * k)  # (-1)^(k-1) x^(2k)/(2k)!
        c += even / (2 * k)
        odd = -even * xs / (2 * k + 1)
        s += odd / (2 * k + 1)
    cin[small], si[small] = c, s

    xl = x[~small]
    b = 1.0 + 1j * xl
    d = h = 1.0 / b
    lentz_c = np.full(xl.shape, 1.0 / np.finfo(float).tiny, dtype=complex)
    done = np.zeros(xl.shape, dtype=bool)
    for i in range(2, _CF_MAXIT):
        if done.all():
            break
        a = -(i - 1.0) ** 2
        b = b + 2.0
        d = 1.0 / (a * d + b)
        lentz_c = b + a / lentz_c
        step = lentz_c * d
        h = np.where(done, h, h * step)
        done |= np.abs(step - 1.0) <= np.finfo(float).eps
    e1 = (np.cos(xl) - 1j * np.sin(xl)) * h  # E1(ix)
    cin[~small] = np.euler_gamma + np.log(xl) + e1.real
    si[~small] = 0.5 * np.pi + e1.imag
    return cin, si


class LevyMeasure:
    """A measure on (0, inf): finitely many atoms, a density on (lo, hi], or
    the reciprocal measure c/x on (0, 1].

    Density supports must have a finite upper endpoint; every measure this
    package needs lives on a bounded interval.  The density may blow up at
    the lower endpoint as long as x*f(x) stays integrable.
    """

    def __init__(self, kind, *, locations=None, masses=None,
                 density=None, lower=None, upper=None, c=None):
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
        elif kind == "reciprocal":
            if c is None or not 0 < c < np.inf:
                raise PreconditionError("reciprocal kind needs a finite constant c > 0")
            self.c, self.lower, self.upper = float(c), 0.0, 1.0
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
        if self.kind == "density":
            return _quad(lambda x: x**q * self.density(x), a, b)
        # reciprocal: int_a^b x^q * c/x dx
        if a == 0.0 and q <= 0:
            return np.inf
        if q == 0:
            return self.c * math.log(b / a)
        return self.c * (b**q - a**q) / q

    def moment(self, q):
        """int x^q d(measure); q = 1 must be finite for a law to be built."""
        return self._integral(q, 0.0, np.inf)

    def tail(self, x):
        """Mass of [x, inf); inf where it diverges, as at or below 0 for the
        reciprocal measure.  A density whose tail quadrature fails raises
        QuadratureError."""
        return self._integral(0, x, np.inf)

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
        if self.kind == "reciprocal":
            return LevyMeasure("reciprocal", c=c * self.c)
        f = self.density
        return LevyMeasure("density", density=lambda x, _f=f, _c=c: _c * _f(x),
                           lower=self.lower, upper=self.upper)

    def exponent_value(self, theta):
        """int (e^{i theta x} - 1) d(measure), elementwise over a theta array;
        a complex for a scalar theta."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "reciprocal":
            cin, si = _cin_si(np.abs(theta))
            out = np.empty(theta.shape, dtype=complex)
            out.real = 0.0 - self.c * cin  # +0, not -0, at theta = 0
            out.imag = self.c * np.sign(theta) * si
        elif self.kind == "atomic":
            flat = theta.ravel()
            out = np.empty(flat.size, dtype=complex)
            chunk = max(1, _ATOM_CHUNK_ELEMENTS // self.locations.size)
            for lo in range(0, flat.size, chunk):
                t = flat[lo : lo + chunk, None]
                out[lo : lo + chunk] = np.sum(
                    self.masses * (np.exp(1j * t * self.locations) - 1.0), axis=-1)
            out = out.reshape(theta.shape)
        else:
            out = np.array([self._exponent_at(t) for t in theta.ravel()],
                           dtype=complex).reshape(theta.shape)
        return out if out.ndim else complex(out)

    def _exponent_at(self, theta):
        if theta == 0.0:
            return 0.0 + 0.0j
        f = self.density
        re = _quad(lambda x: (np.cos(theta * x) - 1.0) * f(x), self.lower, self.upper)
        im = _quad(lambda x: np.sin(theta * x) * f(x), self.lower, self.upper)
        return complex(re, im)


def reciprocal_measure(b):
    """The measure c/x on (0, 1] with c = 1/log(1/b); infinite activity,
    unit-free tails.

    Every functional is a closed form, and none runs quadrature: the tail
    mass of [x, 1] is c*log(1/x), int x^q is c/q, int_[x, 1] y is c*(1 - x),
    int_(0, eps) y is c*eps, and the exponent is c*(-Cin(|t|) + i*sign(t)*Si(|t|)).
    """
    if not 0.0 < b < 1.0:
        raise PreconditionError("b must lie in (0, 1)")
    return LevyMeasure("reciprocal", c=1.0 / np.log(1.0 / b))


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
            out = self.measure.exponent_value(th)
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
        """(inverse CDF, rate, compensator mean) of the eps-truncated jump law:
        exactly eps**(1 - u) for the reciprocal kind, and a table on a
        geometric grid for a density."""
        if self._invcdf is None:
            nu, eps = self.measure, self.trunc_eps
            lo = max(nu.lower, eps)
            if lo >= nu.upper:
                raise PreconditionError("truncation removes the whole support")
            if nu.kind == "reciprocal":
                def invcdf(u):
                    return eps ** (1.0 - u)
            else:
                from scipy import integrate  # only densities integrate

                # geometric grid resolves the near-zero blowup of 1/x-type densities
                grid = np.geomspace(lo, nu.upper, _INVCDF_GRID)
                pdf = np.array([nu.density(x) for x in grid])
                cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
                cdf /= cdf[-1]

                def invcdf(u):
                    return np.interp(u, cdf, grid)
            self._invcdf = (invcdf, nu.tail(lo), nu.truncated_first_moment(eps))
        return self._invcdf

    def truncation_info(self):
        """(eps, retained jump rate, mean restored per unit time)."""
        if self.kind != "spectrally_positive":
            raise PreconditionError("truncation applies only to spectrally positive laws")
        if self.measure.kind == "atomic":
            return {"eps": 0.0, "rate": float(self.measure.masses.sum()),
                    "compensator_mean": 0.0}
        _, rate, comp = self._jump_table()
        return {"eps": self.trunc_eps, "rate": rate, "compensator_mean": comp}

    def sample_increment(self, t, rng, size=None):
        """Draw the increment over an interval of length t.

        Returns a scalar for size=None, else an ndarray of that shape.
        The interface is exact for every kind except reciprocal and density
        jump measures with infinite activity, where jumps below ``trunc_eps``
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
            invcdf, rate, comp = self._jump_table()
            counts = np.atleast_1d(rng.poisson(rate * t, size=shape))
            total = int(counts.sum())
            jumps = invcdf(rng.uniform(size=total))
            owner = np.repeat(np.arange(counts.size), counts.ravel())
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
