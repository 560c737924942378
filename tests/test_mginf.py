"""Infinite-server occupancy: analytic CF vs the generic engine, and the
event-level simulator against both.

The analytic path assembles rectangle masses straight from the integrated
service tail, so exact agreement with the Poisson-law process built on the
same structure is a genuine cross-check of two independent constructions.
The simulator is the third, fully independent oracle.
"""

import numpy as np
import pytest

from idcoverage import corr, fidi, levy, mginf
from idcoverage.errors import PreconditionError
from idcoverage.rng import child_rng

SERVICES = {
    "exponential": corr.ServiceDistribution.exponential(2.0),
    "deterministic": corr.ServiceDistribution.deterministic(0.8),
    "pareto": corr.ServiceDistribution.pareto_truncated(3.0, 0.5),
    "discrete": corr.ServiceDistribution.discrete([0.5, 2.0], [0.6, 0.4]),
}


def test_rho():
    m = mginf.MGInfinityModel(3.0, SERVICES["exponential"])
    assert m.rho == pytest.approx(1.5)
    m = mginf.MGInfinityModel(2.0, SERVICES["discrete"])
    assert m.rho == pytest.approx(2.0 * (0.3 + 0.8))


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_mu_rect_equals_scaled_weights(name):
    service = SERVICES[name]
    model = mginf.MGInfinityModel(1.7, service)
    g = corr.TimeGrid([0.0, 0.3, 1.1, 2.4])
    mu = model.mu_rect(g)
    a = corr.weights(corr.integrated_tail_structure(service), g)
    np.testing.assert_allclose(mu, model.rho * a, atol=1e-12)


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_analytic_cf_equals_generic_engine(name):
    service = SERVICES[name]
    model = mginf.MGInfinityModel(2.2, service)
    proc = fidi.CoverageProcess(
        levy.poisson(model.rho), corr.integrated_tail_structure(service))
    rng = np.random.default_rng(137)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        epochs = np.sort(rng.uniform(0.0, 4.0, size=n))
        while n > 1 and np.diff(epochs).min() < 1e-3:
            epochs = np.sort(rng.uniform(0.0, 4.0, size=n))
        g = corr.TimeGrid(epochs)
        theta = rng.uniform(-2.5, 2.5, size=n)
        assert model.log_cf(g, theta) == pytest.approx(
            proc.log_cf(g, theta), abs=1e-12)


@pytest.mark.parametrize("name", ["deterministic", "exponential"])
def test_analytic_cf_skips_zero_weight_blocks(name):
    # deterministic service leaves no customer on epochs more than 0.8
    # apart, so those blocks have mean 0; exponential service leaves none
    model = mginf.MGInfinityModel(1.3, SERVICES[name])
    g = corr.TimeGrid([0.0, 0.3, 1.1, 1.2, 2.5, 4.0])
    mu = model.mu_rect(g)
    ii, jj = np.triu_indices(len(g))
    assert (mu[ii, jj] == 0.0).any() == (name == "deterministic")
    thetas = np.random.default_rng(70).normal(0.0, 1.5, size=(30, len(g)))
    prefix = np.concatenate([np.zeros((30, 1)), np.cumsum(thetas, axis=1)], axis=1)
    ref = (model.mark_cf(prefix[:, jj + 1] - prefix[:, ii]) - 1.0) @ mu[ii, jj]
    got = model.log_cf(g, thetas)
    if name == "deterministic":
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
    else:
        assert np.array_equal(got, ref)


def test_marked_cf_equals_compound_poisson_process():
    mark = levy.MarkDistribution.discrete([1.0, 2.0], [0.5, 0.5])
    model = mginf.MGInfinityModel(1.5, SERVICES["exponential"], marks=mark)
    proc = fidi.CoverageProcess(
        levy.compound_poisson(model.rho, mark),
        corr.integrated_tail_structure(SERVICES["exponential"]))
    g = corr.TimeGrid([0.0, 0.5, 1.2])
    theta = np.array([0.8, -0.4, 1.1])
    assert model.log_cf(g, theta) == pytest.approx(proc.log_cf(g, theta), abs=1e-12)


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_residual_law_is_integrated_tail(name):
    service = SERVICES[name]
    n = 100_000
    r = np.sort(service.sample_residual(n, child_rng(100)))
    assert (r >= 0.0).all()
    probes = np.array([0.1, 0.25, 0.4, 0.6, 1.0, 1.5])
    emp = np.searchsorted(r, probes, side="right") / n
    np.testing.assert_allclose(emp, service.integrated_tail(probes), atol=4 / np.sqrt(n))


def test_simulator_counts_are_poisson_marginals():
    model = mginf.MGInfinityModel(1.0, SERVICES["exponential"])
    g = corr.TimeGrid([0.0, 1.0])
    n = 200_000
    counts = model.simulate(g, child_rng(101), size=n)
    assert counts.dtype == np.int64
    rho = model.rho
    for k in range(2):
        col = counts[:, k]
        assert col.mean() == pytest.approx(rho, abs=4 * np.sqrt(rho / n))
        # Poisson: Var = rho; Var of the sample variance ~ (2rho^2 + rho)/n
        se_var = np.sqrt((2 * rho * rho + rho) / n)
        assert col.var(ddof=1) == pytest.approx(rho, abs=4 * se_var)


def test_pareto_service_epoch_means_match_rho():
    # heavy-tailed service: the customers present at t_1 carry residuals
    # from G_I, whose tail is heavier than G's
    model = mginf.MGInfinityModel(1.0, corr.ServiceDistribution.pareto_truncated(4.0, 1.0))
    g = corr.TimeGrid([0.0, 0.5, 1.5, 4.0])
    n = 150_000
    x = model.simulate(g, child_rng(108), size=n)
    rho = model.rho
    np.testing.assert_allclose(x.mean(axis=0), rho, atol=4 * np.sqrt(rho / n))


def test_exponential_service_covariance_decay():
    # lambda = mu = 1: stationary covariance at lag h is exactly e^{-h}
    model = mginf.MGInfinityModel(1.0, corr.ServiceDistribution.exponential(1.0))
    g = corr.TimeGrid([0.0, 0.5, 1.0])
    n = 300_000
    x = model.simulate(g, child_rng(102), size=n).astype(float)
    for k, h in ((1, 0.5), (2, 1.0)):
        target = np.exp(-h)
        got = np.cov(x[:, 0], x[:, k])[0, 1]
        se = np.sqrt((1.0 + target**2) / n) * 2.0  # crude but conservative
        assert got == pytest.approx(target, abs=4 * se)


def test_deterministic_service_long_lag_independence():
    # nothing alive at time 0 survives past D = 0.8, so counts one lag
    # apart are independent Poissons; covariance must vanish
    model = mginf.MGInfinityModel(2.0, SERVICES["deterministic"])
    assert model.log_cf(
        corr.TimeGrid([0.0, 1.0]), np.array([0.7, -0.9])
    ) == pytest.approx(
        model.log_cf(corr.TimeGrid([0.0]), np.array([0.7]))
        + model.log_cf(corr.TimeGrid([0.0]), np.array([-0.9])), abs=1e-12)
    n = 200_000
    x = model.simulate(corr.TimeGrid([0.0, 1.0]), child_rng(103), size=n).astype(float)
    rho = model.rho
    se = rho / np.sqrt(n)
    assert np.cov(x[:, 0], x[:, 1])[0, 1] == pytest.approx(0.0, abs=4 * se)


def test_marked_point_mass_equals_unmarked_stream_for_stream():
    service = SERVICES["exponential"]
    plain = mginf.MGInfinityModel(1.3, service)
    marked = mginf.MGInfinityModel(
        1.3, service, marks=levy.MarkDistribution.point_mass(1.0))
    g = corr.TimeGrid([0.0, 0.7])
    a = plain.simulate(g, child_rng(104), size=500)
    b = marked.simulate(g, child_rng(104), size=500)
    np.testing.assert_array_equal(a, b.astype(np.int64))


def test_marked_normal_moments():
    mark = levy.MarkDistribution.normal(1.5, 0.25)
    model = mginf.MGInfinityModel(2.0, SERVICES["exponential"], marks=mark)
    g = corr.TimeGrid([0.0])
    n = 200_000
    x = model.simulate(g, child_rng(105), size=n)[:, 0]
    rho = model.rho
    mean = rho * mark.moment(1)
    var = rho * mark.moment(2)   # Poisson-sum variance uses the raw second moment
    assert x.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / n))
    assert x.var(ddof=1) == pytest.approx(var, rel=0.05)


def test_empirical_cf_matches_analytic():
    from idcoverage import stats
    model = mginf.MGInfinityModel(1.5, SERVICES["discrete"])
    g = corr.TimeGrid([0.0, 0.6])
    n = 100_000
    samples = model.simulate(g, child_rng(106), size=n)
    thetas = stats.theta_product_grid([[-1.0, 0.5], [0.5, 2.0]])
    emp = stats.empirical_cf(samples, thetas)
    analytic = np.exp(model.log_cf(g, thetas))
    sup, _ = stats.cf_distance(emp, analytic)
    assert sup <= 4.0 / np.sqrt(n)


def test_deterministic_service_mean_and_rate_validation():
    model = mginf.MGInfinityModel(1.0, SERVICES["deterministic"])
    g = corr.TimeGrid([0.0])
    n = 100_000
    full = model.simulate(g, child_rng(107), size=n)
    assert full[:, 0].mean() == pytest.approx(
        model.rho, abs=4 * np.sqrt(model.rho / n))
    with pytest.raises(PreconditionError):
        mginf.MGInfinityModel(0.0, SERVICES["exponential"])


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, True, "2", None], ids=repr)
def test_arrival_rate_is_positive_and_finite(rate):
    with pytest.raises(PreconditionError, match="^arrival_rate"):
        mginf.MGInfinityModel(rate, corr.ServiceDistribution.exponential(1.0))


def _mask_loop_simulate(model, grid, rng, size):
    """The sampler with float arrival and departure times and two float
    comparisons per customer and epoch: the reference for the epoch indices
    that simulate keeps instead."""
    t = grid.t
    span = t[-1] - t[0]
    present = rng.poisson(model.rho, size=size)
    fresh = rng.poisson(model.arrival_rate * span, size=size)
    n0, n1 = int(present.sum()), int(fresh.sum())
    arrive = np.concatenate([np.full(n0, t[0]), t[-1] - span * rng.uniform(size=n1)])
    depart = arrive + np.concatenate([model.service.sample_residual(n0, rng),
                                      model.service.sample(n1, rng)])
    weights = None if model.marks is None else model.marks.sample(n0 + n1, rng)
    owner = np.concatenate([np.repeat(np.arange(size), present),
                            np.repeat(np.arange(size), fresh)])
    out = np.zeros((size, t.size), dtype=np.int64 if weights is None else np.float64)
    for k in range(t.size):
        active = (arrive <= t[k]) & (depart > t[k])
        w = None if weights is None else weights[active]
        out[:, k] = np.bincount(owner[active], weights=w, minlength=size)
    return out


@pytest.mark.parametrize("name", sorted(SERVICES))
@pytest.mark.parametrize("marks", [None, levy.MarkDistribution.normal(0.5, 1.0)])
def test_simulate_equals_mask_loop(name, marks):
    model = mginf.MGInfinityModel(1.7, SERVICES[name], marks=marks)
    g = corr.TimeGrid([0.0, 0.3, 1.1, 2.4])
    for seed in (106, 107):
        got = model.simulate(g, child_rng(seed), size=3000)
        want = _mask_loop_simulate(model, g, child_rng(seed), 3000)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class _Scripted:
    """A Generator stand-in that returns scripted draws in call order."""

    def __init__(self, *draws):
        self.draws = [np.asarray(d) for d in draws]

    def poisson(self, lam, size):
        return self.draws.pop(0)

    def uniform(self, size):
        return self.draws.pop(0)


def test_simulate_counts_arrivals_at_an_epoch_and_not_departures():
    """A customer covers the epochs in [arrival, departure): one arriving at
    an epoch counts there, one leaving at an epoch does not."""
    model = mginf.MGInfinityModel(1.0, corr.ServiceDistribution.deterministic(1.0))
    g = corr.TimeGrid([0.0, 1.0, 2.0, 4.0])
    # present [1, 1] leave at 0 + [1.0, 0.5]; fresh [2, 1] arrive at
    # 4 - 4 * [0.5, 0.75, 0.0] = [2, 1, 4] and leave one unit later
    draws = ([1, 1], [2, 1], [0.5, 0.75, 0.0], [1.0, 0.5])
    want = [[1, 1, 1, 0], [1, 0, 0, 1]]
    np.testing.assert_array_equal(model.simulate(g, _Scripted(*draws), size=2), want)
    np.testing.assert_array_equal(_mask_loop_simulate(model, g, _Scripted(*draws), 2), want)
