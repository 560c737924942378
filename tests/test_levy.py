"""Marginal laws: exponent values, cumulants, measures, marks, increments.

Expected values are closed forms derived by hand (noted inline) or
recomputed in the test body through an independent route (scipy
quadrature, plain Monte Carlo with generous sigma bounds).
"""

import numpy as np
import pytest
from scipy import integrate

from idcoverage import levy, onoff
from idcoverage.errors import PreconditionError, QuadratureError, UnsupportedMomentError
from idcoverage.rng import child_rng

# log CF of the unit-mean gamma law at theta=1: -log(1-i) with the
# principal branch, i.e. -(log sqrt(2) - i pi/4)
GAMMA_PSI_1 = complex(-0.5 * np.log(2.0), np.pi / 4.0)


def test_gamma_exponent_at_one():
    law = levy.gamma_law()
    assert law.eval(1.0) == pytest.approx(GAMMA_PSI_1, abs=1e-15)


def test_exponent_vanishes_at_zero():
    marks = levy.MarkDistribution.discrete([1.0, -2.0], [0.6, 0.4])
    laws = [
        levy.gaussian(0.3, 1.7),
        levy.poisson(2.5),
        levy.compound_poisson(1.2, marks),
        levy.gamma_law(),
        levy.spectrally_positive(levy.LevyMeasure.atomic([0.5, 2.0], [1.0, 0.25])),
    ]
    for law in laws:
        assert law.eval(0.0) == 0.0


def test_exponent_shapes_follow_input():
    law = levy.gamma_law()
    flat = law.eval(np.array([0.5, -0.5, 2.0]))
    assert flat.shape == (3,)
    stacked = law.eval(np.array([[0.5, -0.5], [2.0, 0.0]]))
    assert stacked.shape == (2, 2)
    assert stacked[0, 0] == flat[0]
    assert stacked[1, 1] == 0.0


def test_density_exponent_handles_matrix_theta():
    law = levy.spectrally_positive(levy.reciprocal_measure(0.5))
    theta = np.array([[0.5, 1.0], [-0.5, 0.0]])
    out = law.eval(theta)
    assert out.shape == (2, 2)
    assert out[0, 1] == law.eval(1.0)
    assert out[1, 0] == np.conj(out[0, 0])


def test_gaussian_exponent_and_cumulants():
    beta, sigma2 = 0.7, 2.3
    law = levy.gaussian(beta, sigma2)
    th = 1.3
    assert law.eval(th) == pytest.approx(1j * beta * th - 0.5 * sigma2 * th * th)
    assert law.mean() == beta
    assert law.variance() == sigma2
    assert law.fourth_cumulant() == 0.0


def test_poisson_exponent_and_cumulants():
    law = levy.poisson(3.25)
    th = -0.8
    assert law.eval(th) == pytest.approx(3.25 * (np.exp(1j * th) - 1.0))
    # all cumulants of a Poisson law equal the rate
    assert law.mean() == law.variance() == law.fourth_cumulant() == 3.25


class TestPoissonIsUnitMarkCompoundPoisson:
    """levy.poisson(r) against test-local copies of the Poisson formulas it
    had as a kind of its own; the unit point mass draws nothing, so the
    random stream and every value must match exactly."""

    @staticmethod
    def reference_eval(rate, theta):
        theta = np.asarray(theta, dtype=float)
        out = (rate * (np.exp(1j * np.atleast_1d(theta)) - 1.0)).astype(complex)
        return complex(out[0]) if theta.ndim == 0 else out.reshape(theta.shape)

    @staticmethod
    def reference_increment(rate, t, rng, size=None):
        shape = () if size is None else size
        if t == 0:
            out = np.zeros(shape)
            return float(out) if size is None else out
        out = rng.poisson(rate * t, size=shape).astype(float)
        return float(np.asarray(out)) if size is None else out

    @pytest.mark.parametrize("rate", [0.0, 0.7, 2.5])
    def test_bit_identical(self, rate):
        for law in (levy.poisson(rate), levy.LevyExponent("poisson", rate=rate)):
            assert law.kind == "compound_poisson"
            theta = np.linspace(-50.0, 50.0, 100_001)
            assert np.array_equal(law.eval(theta), self.reference_eval(rate, theta))
            assert law.eval(1.3) == self.reference_eval(rate, 1.3)
            assert (law.mean(), law.variance(), law.fourth_cumulant()) == (rate,) * 3
            for t in (0.8, 0.0):
                for size in (None, (5000,), (3, 7)):
                    got_rng, ref_rng = child_rng(11), child_rng(11)
                    got = law.sample_increment(t, got_rng, size=size)
                    ref = self.reference_increment(rate, t, ref_rng, size=size)
                    assert type(got) is type(ref)
                    assert np.array_equal(got, ref)
                    assert got_rng.uniform() == ref_rng.uniform()


def test_normal_mark_mean_defaults_to_zero():
    mark = levy.MarkDistribution("normal", variance=4.0)
    assert mark.moment(1) == 0.0
    assert mark.cf(0.5) == pytest.approx(np.exp(-0.5))


def test_compound_poisson_matches_manual_sum():
    mark = levy.MarkDistribution.discrete([1.0, 3.0, -0.5], [0.5, 0.2, 0.3])
    law = levy.compound_poisson(2.0, mark)
    th = 0.9
    manual = 2.0 * (
        0.5 * np.exp(1j * th * 1.0)
        + 0.2 * np.exp(1j * th * 3.0)
        + 0.3 * np.exp(1j * th * -0.5)
        - 1.0
    )
    assert law.eval(th) == pytest.approx(manual, abs=1e-15)
    assert law.mean() == pytest.approx(2.0 * (0.5 + 0.6 - 0.15))
    assert law.variance() == pytest.approx(2.0 * (0.5 + 1.8 + 0.075))
    assert law.fourth_cumulant() == pytest.approx(2.0 * (0.5 + 0.2 * 81 + 0.3 * 0.0625))


def test_gamma_cumulants():
    law = levy.gamma_law()
    # unit shape and rate: kappa_q = (q-1)!
    assert law.mean() == 1.0
    assert law.variance() == 1.0
    assert law.fourth_cumulant() == 6.0


def test_atomic_spectrally_positive_equals_compound_poisson():
    locs = np.array([0.5, 1.0, 2.0])
    masses = np.array([0.4, 0.9, 0.2])
    sp = levy.spectrally_positive(levy.LevyMeasure.atomic(locs, masses))
    rate = masses.sum()
    cp = levy.compound_poisson(
        rate, levy.MarkDistribution.discrete(locs, masses / rate))
    for th in (-1.7, 0.3, 2.2):
        assert sp.eval(th) == pytest.approx(cp.eval(th), abs=1e-14)
    assert sp.mean() == pytest.approx(cp.mean())
    assert sp.variance() == pytest.approx(cp.variance())
    assert sp.fourth_cumulant() == pytest.approx(cp.fourth_cumulant())


class TestReciprocalMeasure:
    """Density c/x on (0,1] with c = 1/log(1/b): everything closed-form."""

    def setup_method(self):
        self.b = 0.5
        self.c = 1.0 / np.log(2.0)
        self.nu = levy.reciprocal_measure(self.b)

    def test_moments(self):
        for q in (1, 2, 3, 4):
            assert self.nu.moment(q) == pytest.approx(self.c / q, rel=1e-10)

    def test_tail(self):
        for x in (0.25, 0.5, 0.75):
            assert self.nu.tail(x) == pytest.approx(np.log(1.0 / x) * self.c, rel=1e-10)
        assert self.nu.tail(1.5) == 0.0

    def test_tail_at_or_below_lower_end(self):
        # c/x has infinite mass at 0; a density with finite mass keeps its total
        assert self.nu.tail(0.0) == np.inf
        assert self.nu.tail(-1.0) == np.inf
        finite = levy.LevyMeasure.from_density(lambda x: 2.0 * x, 0.0, 1.0)
        assert finite.tail(0.0) == pytest.approx(1.0, rel=1e-10)

    def test_first_moment_tail(self):
        for x in (0.25, 0.5, 0.75):
            assert self.nu.first_moment_tail(x) == pytest.approx((1.0 - x) * self.c, rel=1e-10)

    def test_truncated_first_moment(self):
        for eps in (0.1, 0.05):
            assert self.nu.truncated_first_moment(eps) == pytest.approx(eps * self.c, rel=1e-10)

    def test_exponent_value_against_direct_quadrature(self):
        th = 1.7
        re, _ = integrate.quad(lambda x: (np.cos(th * x) - 1.0) / (x * np.log(2.0)), 0, 1)
        im, _ = integrate.quad(lambda x: np.sin(th * x) / (x * np.log(2.0)), 0, 1)
        assert self.nu.exponent_value(th) == pytest.approx(complex(re, im), abs=1e-10)

    def test_scale(self):
        doubled = self.nu.scale(2.0)
        assert doubled.kind == "reciprocal" and doubled.c == 2.0 * self.c
        assert doubled.moment(1) == pytest.approx(2.0 * self.c, rel=1e-10)
        assert doubled.tail(0.5) == pytest.approx(2.0 * self.c * np.log(2.0), rel=1e-10)

    def test_declared_kind_carries_its_constant(self):
        assert self.nu.kind == "reciprocal" and self.nu.c == self.c
        for bad in (0.0, -1.0, np.inf, None):
            with pytest.raises(PreconditionError):
                levy.LevyMeasure("reciprocal", c=bad)

    @pytest.mark.parametrize("theta", [0.3, 5.0, 50.0, -7.5, 1e3])
    def test_exponent_against_density_oracle(self, theta):
        # the same measure as a generic density, integrated by quadrature
        oracle = levy.LevyMeasure.from_density(lambda x: self.c / x, 0.0, 1.0)
        assert abs(self.nu.exponent_value(theta) - oracle.exponent_value(theta)) <= 1e-12

    def test_exponent_is_conjugate_symmetric_and_vectorized(self):
        theta = np.array([0.3, 5.0, 50.0, 7.5, 1e3, 0.0])
        law = levy.spectrally_positive(self.nu)
        pos, neg = law.eval(theta), law.eval(-theta)
        assert np.array_equal(neg, np.conj(pos))
        assert [law.eval(t) for t in theta] == list(pos)

    @pytest.mark.parametrize("theta", [1e4, -1e4, 1e5, -1e5])
    def test_exponent_finite_where_quadrature_fails(self, theta):
        # Cin(x) = gamma + log x + O(1/x) and Si(x) = pi/2 + O(1/x)
        got = self.nu.exponent_value(theta)
        assert np.isfinite(got)
        asymptote = self.c * complex(-(np.euler_gamma + np.log(abs(theta))),
                                     np.sign(theta) * np.pi / 2)
        assert abs(got - asymptote) <= 2.0 * self.c / abs(theta)

    def test_scaled_truncation_is_closed_form(self):
        k, eps = 0.37, 1e-3
        law = levy.spectrally_positive(self.nu.scale(k), trunc_eps=eps)
        info = law.truncation_info()
        assert info["rate"] == pytest.approx(k * self.c * np.log(1.0 / eps), rel=1e-15)
        assert info["compensator_mean"] == pytest.approx(k * self.c * eps, rel=1e-15)
        invcdf = law._jump_table()[0]
        u = child_rng(5).uniform(size=100_000)
        jumps = invcdf(u)
        assert invcdf(0.0) == eps and invcdf(1.0) == 1.0
        assert (jumps >= eps).all() and (jumps <= 1.0).all()
        # the truncated law has CDF log(x/eps)/log(1/eps) on [eps, 1]
        for x in (1e-2, 0.1, 0.5):
            assert (jumps <= x).mean() == pytest.approx(
                np.log(x / eps) / np.log(1.0 / eps), abs=4 * 0.5 / np.sqrt(u.size))

    def test_increment_stream_is_poisson_counts_then_uniforms(self):
        eps, t = 1e-3, 0.8
        law = levy.spectrally_positive(self.nu, trunc_eps=eps)
        got = law.sample_increment(t, child_rng(9), size=(4, 3))
        rng = child_rng(9)
        counts = rng.poisson(self.c * np.log(1.0 / eps) * t, size=(4, 3))
        jumps = eps ** (1.0 - rng.uniform(size=int(counts.sum())))
        owner = np.repeat(np.arange(counts.size), counts.ravel())
        ref = np.bincount(owner, weights=jumps, minlength=counts.size).reshape(4, 3)
        np.testing.assert_allclose(got, ref + t * self.c * eps, rtol=1e-14)


def test_cin_si_against_scipy_sici():
    from scipy import special

    x = np.concatenate([np.geomspace(1e-6, 1e6, 2001), [3.999999, 4.0, 4.000001]])
    si_ref, ci_ref = special.sici(x)
    # Cin = gamma + log x - Ci; the reference cancels at small x, by at most
    # a few ulps of log x, which the 1e-14 scale below covers
    cin_ref = np.euler_gamma + np.log(x) - ci_ref
    cin, si = levy._cin_si(x)
    assert (np.abs(cin - cin_ref) <= 1e-14 * np.maximum(1.0, np.abs(cin_ref))).all()
    assert (np.abs(si - si_ref) <= 1e-14 * np.maximum(1.0, np.abs(si_ref))).all()


def test_cin_si_at_zero_and_small_x():
    cin, si = levy._cin_si(np.array([0.0, 1e-8]))
    assert (cin[0], si[0]) == (0.0, 0.0)
    # leading series terms: Cin(x) ~ x^2/4, Si(x) ~ x, with no cancellation
    assert cin[1] == pytest.approx(0.25e-16, rel=1e-15)
    assert si[1] == pytest.approx(1e-8, rel=1e-15)


def test_density_tail_quadrature_failure_raises():
    # finite mass 1/log 2 that quadpack cannot reach at the lower end: a
    # failed tail is an error, not a guess of infinite activity
    nu = levy.LevyMeasure.from_density(lambda x: 1.0 / (x * np.log(2.0 / x)**2), 0.0, 1.0)
    with pytest.raises(QuadratureError):
        nu.tail(0.0)
    assert nu.tail(0.5) == pytest.approx(1.0 / np.log(2.0) - 1.0 / np.log(4.0), rel=1e-10)


def test_atomic_measure_bookkeeping():
    nu = levy.LevyMeasure.atomic([0.5, 1.0, 2.0], [0.4, 0.9, 0.2])
    assert nu.moment(1) == pytest.approx(0.2 + 0.9 + 0.4)
    assert nu.tail(1.0) == pytest.approx(1.1)
    assert nu.first_moment_tail(1.0) == pytest.approx(1.3)
    assert nu.truncated_first_moment(1.0) == pytest.approx(0.2)


def _atomic_exponent_per_theta(nu, theta):
    """The atomic exponent one theta at a time: the reference for the blocks."""
    return np.array([complex(np.sum(nu.masses * (np.exp(1j * t * nu.locations) - 1.0)))
                     for t in theta.ravel()]).reshape(theta.shape)


@pytest.mark.parametrize("atoms", [3, 10_000])
def test_atomic_exponent_blocks_match_per_theta_loop(monkeypatch, atoms):
    if atoms == 3:
        nu = levy.LevyMeasure.atomic([0.5, 1.0, 2.0], [0.4, 0.9, 0.2])
    else:
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        nu = onoff.row_measure(spec, atoms)
    assert nu.kind == "atomic" and nu.locations.size == atoms
    theta = np.concatenate([[0.0, -0.0, 1e-3, -7.5, 250.0],
                            np.random.default_rng(23).normal(scale=20.0, size=6)])
    # three thetas per block, so the eleven run in four blocks
    monkeypatch.setattr(levy, "_ATOM_CHUNK_ELEMENTS", 3 * atoms)
    np.testing.assert_array_equal(nu.exponent_value(theta),
                                  _atomic_exponent_per_theta(nu, theta))
    grid = theta[1:].reshape(2, 5)
    np.testing.assert_array_equal(nu.exponent_value(grid),
                                  _atomic_exponent_per_theta(nu, grid))
    assert nu.exponent_value(-7.5) == _atomic_exponent_per_theta(nu, np.array(-7.5))
    assert nu.exponent_value(np.empty(0)).shape == (0,)


def test_measure_validation():
    with pytest.raises(PreconditionError):
        levy.LevyMeasure.atomic([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(PreconditionError):
        levy.LevyMeasure.atomic([1.0], [-1.0])
    with pytest.raises(PreconditionError):
        levy.LevyMeasure.from_density(lambda x: 1.0, 0.0, np.inf)
    with pytest.raises(PreconditionError):
        levy.reciprocal_measure(1.0)


def test_infinite_first_moment_rejected():
    # x^{-2.5} near zero: int x * nu(dx) diverges, so no law can be built
    nu = levy.LevyMeasure.from_density(lambda x: x**-2.5, 0.0, 1.0)
    with pytest.raises((PreconditionError, QuadratureError)):
        levy.spectrally_positive(nu)


def test_mark_moments_against_normal_closed_form():
    m, v = 0.6, 1.9
    mark = levy.MarkDistribution.normal(m, v)
    assert mark.moment(1) == pytest.approx(m)
    assert mark.moment(2) == pytest.approx(m * m + v)
    assert mark.moment(3) == pytest.approx(m**3 + 3 * m * v)
    assert mark.moment(4) == pytest.approx(m**4 + 6 * m * m * v + 3 * v * v)
    with pytest.raises(UnsupportedMomentError):
        mark.moment(5)


def test_mark_cf_values():
    pm = levy.MarkDistribution.point_mass(2.0)
    assert pm.cf(0.7) == pytest.approx(np.exp(1.4j))
    disc = levy.MarkDistribution.discrete([1.0, -1.0], [0.5, 0.5])
    assert disc.cf(0.9) == pytest.approx(np.cos(0.9))
    norm = levy.MarkDistribution.normal(0.0, 4.0)
    assert norm.cf(0.5) == pytest.approx(np.exp(-0.5))


def test_point_mass_marks_consume_no_randomness():
    mark = levy.MarkDistribution.point_mass(1.0)
    counts = np.array([0, 3, 7])
    r1 = child_rng(99)
    r2 = child_rng(99)
    out = mark.sample_sum(counts, r1)
    np.testing.assert_array_equal(out, counts)
    # identical stream position afterwards
    assert r1.integers(1 << 30) == r2.integers(1 << 30)


def test_discrete_mark_sums_have_exact_conditional_moments():
    mark = levy.MarkDistribution.discrete([1.0, 4.0], [0.75, 0.25])
    counts = np.full(200_000, 10)
    sums = mark.sample_sum(counts, child_rng(7))
    mean = 10 * mark.moment(1)
    var = 10 * (mark.moment(2) - mark.moment(1) ** 2)
    assert sums.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / counts.size))
    assert sums.var(ddof=1) == pytest.approx(var, rel=0.05)


def test_increment_sampling_moments():
    cases = [
        levy.gaussian(0.5, 2.0),
        levy.poisson(1.5),
        levy.compound_poisson(2.0, levy.MarkDistribution.discrete([1.0, -1.0], [0.3, 0.7])),
        levy.gamma_law(),
        levy.spectrally_positive(levy.LevyMeasure.atomic([0.5, 1.5], [1.0, 0.5])),
    ]
    t = 0.7
    n = 200_000
    for i, law in enumerate(cases):
        x = law.sample_increment(t, child_rng(1000 + i), size=(n,))
        mu, var = t * law.mean(), t * law.variance()
        assert x.mean() == pytest.approx(mu, abs=4 * np.sqrt(var / n)), law.kind
        assert x.var(ddof=1) == pytest.approx(var, rel=0.05), law.kind


def test_increment_at_time_zero_is_zero_and_free():
    law = levy.poisson(2.0)
    r1, r2 = child_rng(5), child_rng(5)
    x = law.sample_increment(0.0, r1, size=(4,))
    np.testing.assert_array_equal(x, np.zeros(4))
    assert r1.integers(1 << 30) == r2.integers(1 << 30)


def test_truncated_density_sampler_preserves_mean():
    # small jumps below eps are swept into a deterministic drift, so the
    # increment mean must stay exact while jumps stay above eps
    nu = levy.reciprocal_measure(0.5)
    law = levy.spectrally_positive(nu, trunc_eps=1e-4)
    info = law.truncation_info()
    assert info["eps"] == 1e-4
    assert info["rate"] == pytest.approx(nu.tail(1e-4), rel=1e-8)
    assert info["compensator_mean"] == pytest.approx(
        nu.truncated_first_moment(1e-4), rel=1e-6)
    n = 400_000
    x = law.sample_increment(1.0, child_rng(42), size=(n,))
    mu, var = law.mean(), law.variance()
    assert x.mean() == pytest.approx(mu, abs=4 * np.sqrt(var / n))
    assert x.var(ddof=1) == pytest.approx(var, rel=0.05)


def test_gamma_increments_match_numpy_gamma():
    law = levy.gamma_law()
    t = 0.4
    x = law.sample_increment(t, child_rng(8), size=(100_000,))
    assert (x >= 0).all()
    assert x.mean() == pytest.approx(t, abs=4 * np.sqrt(t / 100_000))
    # shape-t gamma: E[X^2] = t(t+1)
    assert (x**2).mean() == pytest.approx(t * (t + 1), rel=0.05)


def test_law_validation():
    with pytest.raises(PreconditionError):
        levy.gaussian(0.0, -1.0)
    with pytest.raises(PreconditionError):
        levy.poisson(-2.0)
    with pytest.raises(PreconditionError):
        levy.LevyExponent("weibull")
    with pytest.raises(PreconditionError):
        levy.spectrally_positive(levy.reciprocal_measure(0.5), trunc_eps=0.0)
