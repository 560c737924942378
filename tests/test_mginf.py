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
    a = corr.weights(corr.integrated_tail_structure(service), g).a
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
