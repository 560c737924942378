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
  over (0, inf), requiring a finite first moment so psi needs no centring term.

Jump measures are atomic or ``reciprocal_measure``: c/x on (0, 1] with
c = 1/log(1/b), the limit measure of the ON/OFF arrays.  Both kinds are
closed-form throughout, so no quadrature runs.  For the reciprocal kind:

* tail(x) = c*log(1/x) on (0, 1], inf at x <= 0
* int x^q = c/q, int_[x, 1] y = c*(1 - x)
* psi(t) = c*(-Cin(|t|) + i*sign(t)*Si(|t|)), with Cin and Si from power
  series up to 4 and a continued fraction for E1(ix) beyond (Abramowitz &
  Stegun 5.2; ``cisi`` in Press et al., Numerical Recipes)

Each law knows its first/second/fourth cumulants and draws the increment
over an interval of length ``t`` exactly.  An atomic measure draws a
Poisson number of jumps by inverse CDF.  For the reciprocal measure the
increment is the generalized Dickman law GD(theta), theta = c*t: its jumps
in decreasing order are exp(-Gamma_k/theta), Gamma_k the arrivals of a unit
Poisson process (Ferguson & Klass, Ann. Math. Statist. 43, 1972), and given
the largest, J, the rest are J times jumps of the same law (Vervaat, Adv.
Appl. Probab. 11, 1979), so a cut at J*2^-64 sits below double rounding.
"""

import math

import numpy as np

from .errors import PreconditionError, UnsupportedMomentError, finite, probability_vector

_SERIES_MAX = 4.0  # Cin and Si by power series up to here, a continued fraction beyond
_SERIES_TERMS = 20  # the last term at x = 4 is below 1e-21
_CF_MAXIT = 100  # the continued fraction converges in under 70 steps for x > 4
# thetas x atoms per exponent block, and thetas x sources per block of onoff's
# row CF: 256 KB complex, in cache
_ATOM_CHUNK_ELEMENTS = 1 << 14
# Reciprocal increments draw the jumps in [J*2^-_CUT_BITS, J], J the largest,
# and add the mean theta*J*2^-_CUT_BITS of the rest.  The rest is J*2^-_CUT_BITS
# times an independent GD(theta) draw D, so the error left is
# J*2^-_CUT_BITS*(D - theta): below 1e-16 of the increment (which is >= J)
# unless D > 2^10 + theta.  (The added mean itself rounds away against 1 + S;
# it stays so that the formula is the exact one.)  A constant, not an option.
_CUT_BITS = 64
# jumps per block of a jump-measure increment draw: its uniforms, jumps and
# owners take 1.5 MB, however many increments are drawn
_JUMP_BLOCK = 1 << 16


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
    """A measure on (0, inf): finitely many atoms, or the reciprocal
    measure c/x on (0, 1].  Every functional of either kind is a closed form."""

    def __init__(self, kind, *, locations=None, masses=None, c=None):
        if kind == "atomic":
            self.locations = finite(locations, "locations", "(0, inf)", vector=True)
            self.masses = finite(masses, "masses", "(0, inf)", vector=True)
            if self.locations.shape != self.masses.shape:
                raise PreconditionError("locations and masses must be matching 1-d arrays")
        elif kind == "reciprocal":
            self.c = finite(c, "c", "(0, inf)")
        else:
            raise PreconditionError(f"unknown measure kind {kind!r}")
        self.kind = kind

    @classmethod
    def atomic(cls, locations, masses):
        return cls("atomic", locations=locations, masses=masses)

    def _integral(self, q, lo, hi):
        """int_[lo, hi) x^q d(measure)."""
        if self.kind == "atomic":
            keep = (self.locations >= lo) & (self.locations < hi)
            return float(np.sum(self.masses[keep] * self.locations[keep]**q))
        # reciprocal: int_a^b x^q * c/x dx, [a, b) the part of [lo, hi) in (0, 1]
        a, b = max(0.0, lo), min(1.0, hi)
        if a >= b:
            return 0.0
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
        reciprocal measure."""
        return self._integral(0, x, np.inf)

    def first_moment_tail(self, x):
        """int_{[x, inf)} y d(measure)."""
        return self._integral(1, x, np.inf)

    def scale(self, c):
        """The measure multiplied by a positive constant."""
        c = finite(c, "c", "(0, inf)")
        if self.kind == "atomic":
            return LevyMeasure("atomic", locations=self.locations, masses=c * self.masses)
        return LevyMeasure("reciprocal", c=c * self.c)

    def exponent_value(self, theta):
        """int (e^{i theta x} - 1) d(measure), elementwise over a theta array;
        a complex for a scalar theta."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "reciprocal":
            cin, si = _cin_si(np.abs(theta))
            out = np.empty(theta.shape, dtype=complex)
            out.real = 0.0 - self.c * cin  # +0, not -0, at theta = 0
            out.imag = self.c * np.sign(theta) * si
        else:
            flat = theta.ravel()
            out = np.empty(flat.size, dtype=complex)
            chunk = max(1, _ATOM_CHUNK_ELEMENTS // self.locations.size)
            for lo in range(0, flat.size, chunk):
                t = flat[lo : lo + chunk, None]
                out[lo : lo + chunk] = np.sum(
                    self.masses * (np.exp(1j * t * self.locations) - 1.0), axis=-1)
            out = out.reshape(theta.shape)
        return out if out.ndim else complex(out)


def reciprocal_measure(b):
    """The measure c/x on (0, 1] with c = 1/log(1/b); infinite activity,
    unit-free tails.

    Every functional is a closed form, and none runs quadrature: the tail
    mass of [x, 1] is c*log(1/x), int x^q is c/q, int_[x, 1] y is c*(1 - x),
    and the exponent is c*(-Cin(|t|) + i*sign(t)*Si(|t|)).
    """
    return LevyMeasure("reciprocal", c=1.0 / np.log(1.0 / finite(b, "b", "(0, 1)")))


class MarkDistribution:
    """Jump-size law for compound Poisson laws and marked coverage models."""

    def __init__(self, kind, *, value=None, values=None, probs=None,
                 mean=0.0, variance=None):
        if kind == "point_mass":
            self.value = finite(value, "value")
        elif kind == "discrete":
            self.values = finite(values, "values", vector=True)
            self.probs = probability_vector(self.values, probs, "probs")
        elif kind == "normal":
            self.mean_ = finite(mean, "mean")
            self.variance_ = finite(variance, "variance", "[0, inf)")
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
                 measure=None):
        if kind == "poisson":  # the unit-mark compound Poisson law
            kind, mark = "compound_poisson", MarkDistribution.point_mass(1.0)
        self.kind = kind
        if kind == "gaussian":
            self.beta, self.sigma2 = finite(beta, "beta"), finite(sigma2, "sigma2", "[0, inf)")
        elif kind == "compound_poisson":
            if mark is None:
                raise PreconditionError("compound_poisson needs a mark law")
            self.rate, self.mark = finite(rate, "rate", "[0, inf)"), mark
        elif kind == "gamma":
            pass
        elif kind == "spectrally_positive":
            if measure is None:
                raise PreconditionError("spectrally_positive needs a LevyMeasure")
            self.measure = measure
            # psi needs no centring term only if the first moment is finite
            self._m1 = finite(measure.moment(1), "the measure's first moment", "(0, inf)")
            if measure.kind == "atomic":  # the jump law's CDF, atom by atom
                self._cdf = np.cumsum(measure.masses) / measure.masses.sum()
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

    def sample_increment(self, t, rng, size=None):
        """Draw the increment over an interval of length t, exactly.

        Returns a scalar for size=None, else an ndarray of that shape.  A
        jump measure draws one Poisson count per increment, then that many
        jumps, a block of increments at a time.  The reciprocal measure first
        draws the largest jump J = exp(-E/theta), E ~ Exp(1), then counts only
        the jumps in [J*2^-64, J], each J*2^(-64 U), and returns
        J*(1 + S + theta*2^-64), S their sum over J (see _CUT_BITS).
        """
        t = finite(t, "t", "[0, inf)")
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
        else:
            nu = self.measure
            if nu.kind == "atomic":
                count_mean = float(nu.masses.sum()) * t
            else:
                theta = nu.c * t
                top = np.exp(-rng.standard_exponential(size=shape) / theta)
                count_mean = theta * _CUT_BITS * math.log(2.0)
            counts = np.ravel(rng.poisson(count_mean, size=shape))
            out = np.empty(counts.size)
            # a block of draws holds about _JUMP_BLOCK jumps, whatever size is
            step = max(1, int(_JUMP_BLOCK // (1.0 + count_mean)))
            for lo in range(0, counts.size, step):
                part = counts[lo:lo + step]
                u = rng.uniform(size=int(part.sum()))
                if nu.kind == "atomic":
                    cdf = self._cdf
                    jumps = nu.locations[np.minimum(np.searchsorted(cdf, u, "right"), cdf.size - 1)]
                else:  # over J, log-uniform on [2^-64, 1]
                    jumps = np.exp2(np.multiply(u, -_CUT_BITS, out=u), out=u)
                owner = np.repeat(np.arange(part.size), part)
                out[lo:lo + step] = np.bincount(owner, weights=jumps, minlength=part.size)
            out = out.reshape(shape)
            if nu.kind == "reciprocal":
                out = top * (1.0 + out + theta * 2.0**-_CUT_BITS)
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


def spectrally_positive(measure):
    return LevyExponent("spectrally_positive", measure=measure)
