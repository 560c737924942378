"""Joint characteristic functions, exact sampling, and moment identities.

Oracles used here, in order of independence:
  * the multivariate normal CF in closed form (for the Gaussian reduction),
  * Isserlis pair products computed directly from the covariance function,
  * the single-coordinate reduction log_cf(theta e_k) = psi(theta),
  * plain Monte Carlo with 4-sigma bounds.
"""

import numpy as np
import pytest

from idcoverage import corr, fidi, levy
from idcoverage.errors import PreconditionError
from idcoverage.rng import child_rng


def make_process(law_name="gamma", mu=1.0):
    laws = {
        "gamma": levy.gamma_law(),
        "poisson": levy.poisson(1.5),
        "gaussian": levy.gaussian(0.4, 2.0),
    }
    return fidi.CoverageProcess(laws[law_name], corr.exponential_structure(mu))


def test_single_epoch_reduces_to_marginal():
    proc = make_process("gamma")
    g = corr.TimeGrid([2.7])
    for th in (-1.2, 0.4, 3.0):
        assert proc.log_cf(g, np.array([th])) == pytest.approx(
            proc.law.eval(th), abs=1e-14)


def test_marginal_invariance_inside_a_grid():
    # zeroing all but one coordinate must collapse the joint CF to the
    # marginal exponent, whatever the grid is
    proc = make_process("poisson")
    g = corr.TimeGrid([0.0, 0.9, 1.4, 4.0])
    for k in range(4):
        theta = np.zeros(4)
        theta[k] = -1.3
        assert proc.log_cf(g, theta) == pytest.approx(
            proc.law.eval(-1.3), abs=1e-12)


def test_log_cf_accepts_theta_stacks():
    proc = make_process("gamma")
    g = corr.TimeGrid([0.0, 1.0, 2.0])
    stack = np.array([[0.5, -0.5, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    out = proc.log_cf(g, stack)
    assert out.shape == (3,)
    assert out[1] == 0.0
    for q in (0, 2):
        assert out[q] == pytest.approx(proc.log_cf(g, stack[q]), abs=1e-14)


def test_two_epoch_log_cf_by_hand():
    # grid {0,1}, exponential H: log phi = psi(t1) H(1) + psi(t1+t2)(1-H(1))
    #                                    + psi(t2) H(1)
    law = levy.gamma_law()
    proc = fidi.CoverageProcess(law, corr.exponential_structure(1.0))
    th1, th2 = 0.7, -0.3
    h1 = 1.0 - np.exp(-1.0)
    manual = h1 * law.eval(th1) + (1.0 - h1) * law.eval(th1 + th2) + h1 * law.eval(th2)
    got = proc.log_cf(corr.TimeGrid([0.0, 1.0]), np.array([th1, th2]))
    assert got == pytest.approx(manual, abs=1e-15)


def test_consistency_random_cases():
    rng = np.random.default_rng(20240817)
    for case in range(40):
        n = int(rng.integers(2, 7))
        epochs = np.sort(rng.uniform(0.0, 5.0, size=n))
        while n > 1 and np.diff(epochs).min() < 1e-3:
            epochs = np.sort(rng.uniform(0.0, 5.0, size=n))
        g = corr.TimeGrid(epochs)
        law = [levy.gamma_law(), levy.poisson(2.0), levy.gaussian(0.3, 1.2)][case % 3]
        H = [corr.exponential_structure(0.7), corr.power_structure(0.6)][case % 2]
        proc = fidi.CoverageProcess(law, H)
        theta = rng.uniform(-2.0, 2.0, size=n)
        k = int(rng.integers(0, n))
        zeroed, reduced = proc.consistency_check(g, theta, k)
        assert zeroed == pytest.approx(reduced, abs=1e-10)


def test_covariance_matches_b_matrix():
    proc = make_process("gamma", mu=0.8)
    g = corr.TimeGrid([0.0, 0.6, 2.0])
    b = corr.a_to_b(corr.weights(proc.structure, g).a)
    for k in range(3):
        for l in range(3):
            lag = abs(g.t[k] - g.t[l])
            assert proc.covariance(lag) == pytest.approx(
                proc.law.variance() * b[k, l], abs=1e-14)


def test_gaussian_reduction_exponential_and_power():
    # closed-form MVN characteristic function as the oracle
    beta, sigma2 = 0.4, 2.0
    law = levy.gaussian(beta, sigma2)
    rng = np.random.default_rng(55)
    for H in (corr.exponential_structure(1.3), corr.power_structure(0.5)):
        proc = fidi.CoverageProcess(law, H)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            epochs = np.sort(rng.uniform(0.0, 4.0, size=n))
            while n > 1 and np.diff(epochs).min() < 1e-3:
                epochs = np.sort(rng.uniform(0.0, 4.0, size=n))
            g = corr.TimeGrid(epochs)
            theta = rng.uniform(-2.0, 2.0, size=n)
            lags = np.abs(epochs[:, None] - epochs[None, :])
            cov = sigma2 * (1.0 - np.asarray(H.eval(lags)))
            mvn = 1j * beta * theta.sum() - 0.5 * theta @ cov @ theta
            assert np.exp(proc.log_cf(g, theta)) == pytest.approx(
                np.exp(mvn), abs=1e-12)


def test_gamma_increment_cf_closed_form():
    proc = make_process("gamma", mu=1.0)
    for h in (0.3, 1.0, 2.5):
        Hh = proc.structure.eval(h)
        for th in (-1.5, 0.5, 2.0):
            assert proc.increment_cf(h, th) == pytest.approx(
                (1.0 + th * th) ** (-Hh), abs=1e-12)


def test_increment_cf_rejects_negative_lag():
    with pytest.raises(PreconditionError):
        make_process().increment_cf(-0.5, 1.0)


def test_triplet_reconstructs_log_cf_for_jump_laws():
    law = levy.poisson(2.5)
    proc = fidi.CoverageProcess(law, corr.exponential_structure(0.9))
    g = corr.TimeGrid([0.0, 0.7, 1.8])
    tr = proc.triplet(g)
    # a pure-jump law carries no drift or Gaussian part in this
    # representation; everything lives in the ray weights
    assert np.allclose(tr.beta, 0.0)
    assert np.allclose(tr.sigma, 0.0)
    theta = np.array([0.4, -1.1, 0.8])
    rebuilt = 0.0 + 0.0j
    for (u, weight) in tr.rays:
        assert set(np.unique(u)) <= {0, 1}
        on = np.flatnonzero(u)
        assert np.array_equal(on, np.arange(on[0], on[-1] + 1))  # contiguous
        rebuilt += law.eval(float(theta @ u)) * weight
    assert rebuilt == pytest.approx(proc.log_cf(g, theta), abs=1e-12)


def test_triplet_gaussian_parts():
    beta, sigma2 = 0.7, 1.4
    law = levy.gaussian(beta, sigma2)
    proc = fidi.CoverageProcess(law, corr.exponential_structure(1.0))
    g = corr.TimeGrid([0.0, 1.0])
    tr = proc.triplet(g)
    np.testing.assert_allclose(tr.beta, [beta, beta])
    b = corr.a_to_b(corr.weights(proc.structure, g).a)
    np.testing.assert_allclose(tr.sigma, sigma2 * b, atol=1e-14)


def test_sampler_marginal_moments():
    proc = make_process("gamma")
    g = corr.TimeGrid([0.0, 0.5, 1.5])
    n = 100_000
    x = proc.sample(g, child_rng(61), size=n)
    assert x.shape == (n, 3)
    se_mean = np.sqrt(1.0 / n)
    for k in range(3):
        assert x[:, k].mean() == pytest.approx(1.0, abs=4 * se_mean)
        assert x[:, k].var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_sampler_covariance_matches_structure():
    proc = make_process("gaussian", mu=1.0)
    g = corr.TimeGrid([0.0, 0.8])
    n = 200_000
    x = proc.sample(g, child_rng(62), size=n)
    target = proc.covariance(0.8)
    got = np.cov(x[:, 0], x[:, 1])[0, 1]
    # var of a sample covariance of bivariate normals ~ (v1 v2 + c^2)/n
    se = np.sqrt((proc.covariance(0.0) ** 2 + target**2) / n)
    assert got == pytest.approx(target, abs=4 * se)


def test_sampler_single_draw_shape():
    proc = make_process("poisson")
    g = corr.TimeGrid([0.0, 1.0])
    x = proc.sample(g, child_rng(63))
    assert x.shape == (2,)
    assert (x >= 0).all()


def per_block_sample(proc, grid, rng, size):
    """Reference sampler: add each block's increment to every coordinate it covers."""
    w = corr.weights(proc.structure, grid)
    out = np.zeros((size, w.n))
    for i in range(w.n):
        for j in range(i, w.n):
            out[:, i : j + 1] += proc.law.sample_increment(w.a[i, j], rng, size=(size,))[:, None]
    return out


@pytest.mark.parametrize("law_name", ["poisson", "gamma"])
def test_sampler_matches_per_block_reference(law_name):
    # same seed, same draw order: integer laws agree exactly, others to rounding
    proc = make_process(law_name, mu=0.8)
    g = corr.TimeGrid([0.0, 0.3, 1.1, 1.2, 2.5, 4.0])
    got = proc.sample(g, child_rng(65), size=500)
    ref = per_block_sample(proc, g, child_rng(65), 500)
    if law_name == "poisson":
        assert np.array_equal(got, ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def test_fourth_moment_gaussian_matches_isserlis():
    sigma2 = 1.7
    law = levy.gaussian(0.0, sigma2)
    for H in (corr.exponential_structure(1.1), corr.power_structure(0.7)):
        proc = fidi.CoverageProcess(law, H)
        t1, t2, t3 = 0.2, 0.9, 2.0
        R = lambda h: sigma2 * (1.0 - H.eval(h))
        var1 = 2.0 * (R(0.0) - R(t2 - t1))
        var2 = 2.0 * (R(0.0) - R(t3 - t2))
        cov12 = R(t3 - t2) - R(t3 - t1) - R(0.0) + R(t2 - t1)
        isserlis = var1 * var2 + 2.0 * cov12**2
        assert proc.fourth_moment_increment_product(t1, t2, t3) == pytest.approx(
            isserlis, abs=1e-12)


def test_fourth_moment_jump_law_against_monte_carlo():
    # symmetric two-point marks give a centered compound Poisson law
    mark = levy.MarkDistribution.discrete([1.0, -1.0], [0.5, 0.5])
    law = levy.compound_poisson(2.0, mark)
    assert law.mean() == 0.0
    proc = fidi.CoverageProcess(law, corr.exponential_structure(1.0))
    t1, t2, t3 = 0.0, 0.6, 1.5
    closed = proc.fourth_moment_increment_product(t1, t2, t3)
    n = 400_000
    x = proc.sample(corr.TimeGrid([t1, t2, t3]), child_rng(64), size=n)
    vals = (x[:, 1] - x[:, 0]) ** 2 * (x[:, 2] - x[:, 1]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert vals.mean() == pytest.approx(closed, abs=4 * se)


def test_fourth_moment_requires_centered_law():
    proc = make_process("gamma")
    with pytest.raises(PreconditionError):
        proc.fourth_moment_increment_product(0.0, 1.0, 2.0)
    centered = fidi.CoverageProcess(levy.gaussian(0.0, 1.0), corr.exponential_structure(1.0))
    with pytest.raises(PreconditionError):
        centered.fourth_moment_increment_product(0.0, 2.0, 1.0)
