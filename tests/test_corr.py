"""Correlation structures, rectangle weights, and the a<->b algebra.

The weight matrices for small grids are pinned against hand-derived
closed forms; the structural identities (column masses, round trips,
b_kl = 1 - H(|t_k - t_l|)) run as hypothesis properties over random
grids and structures.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from idcoverage import corr
from idcoverage.errors import ConcavityError, PreconditionError
from idcoverage.rng import child_rng

E1, E2, E3 = np.exp(-1.0), np.exp(-2.0), np.exp(-3.0)


# -- service laws -----------------------------------------------------------

def numeric_integrated_tail(service, t, grid_hint=10.0):
    """Independent oracle: m^{-1} int_0^t P(S > y) dy by quadrature,
    with P(S > y) assembled from the closed-form tail of each kind."""
    if service.kind == "exponential":
        sf = lambda y: np.exp(-service.rate * y)
    elif service.kind == "deterministic":
        sf = lambda y: 1.0 if y < service.value else 0.0
    elif service.kind == "pareto_truncated":
        sf = lambda y: 1.0 if y < service.scale else (service.scale / y) ** service.shape
    else:
        sf = lambda y: float(np.sum(service.probs[service.values > y]))
    val, _ = integrate.quad(sf, 0.0, t, points=[grid_hint], limit=200)
    return val / service.mean()


@pytest.mark.parametrize("service, t", [
    (corr.ServiceDistribution.exponential(2.0), 0.8),
    (corr.ServiceDistribution.deterministic(1.5), 0.9),
    (corr.ServiceDistribution.deterministic(1.5), 2.5),
    (corr.ServiceDistribution.pareto_truncated(3.0, 1.0), 0.4),
    (corr.ServiceDistribution.pareto_truncated(3.0, 1.0), 2.0),
    (corr.ServiceDistribution.discrete([1.0, 3.0], [0.5, 0.5]), 2.0),
])
def test_integrated_tail_against_quadrature(service, t):
    assert service.integrated_tail(t) == pytest.approx(
        numeric_integrated_tail(service, t), rel=1e-8)


def test_integrated_tail_closed_values():
    # pareto(shape 3, scale 1): mean 3/2, and for t > 1
    #   G_I(t) = (1 + (1 - t^{-2})/2) / (3/2) = 1 - t^{-2}/3
    par = corr.ServiceDistribution.pareto_truncated(3.0, 1.0)
    assert par.mean() == pytest.approx(1.5)
    assert par.integrated_tail(2.0) == pytest.approx(1.0 - 1.0 / 12.0)
    disc = corr.ServiceDistribution.discrete([1.0, 3.0], [0.5, 0.5])
    assert disc.mean() == pytest.approx(2.0)
    assert disc.integrated_tail(2.0) == pytest.approx(0.75)


def test_integrated_tail_is_a_cdf_reaching_one():
    for service in (
        corr.ServiceDistribution.exponential(1.3),
        corr.ServiceDistribution.deterministic(0.7),
        corr.ServiceDistribution.pareto_truncated(2.5, 0.5),
        corr.ServiceDistribution.discrete([0.5, 2.0, 4.0], [0.2, 0.5, 0.3]),
    ):
        t = np.linspace(0.0, 50.0, 400)
        vals = service.integrated_tail(t)
        assert vals[0] == 0.0
        assert (np.diff(vals) >= -1e-12).all()
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)


def test_service_sampling_moments():
    n = 100_000
    par = corr.ServiceDistribution.pareto_truncated(3.0, 2.0)
    x = par.sample(n, child_rng(31))
    assert (x >= 2.0).all()
    assert x.mean() == pytest.approx(par.mean(), rel=0.02)
    disc = corr.ServiceDistribution.discrete([1.0, 3.0], [0.5, 0.5])
    y = disc.sample(n, child_rng(32))
    assert set(np.unique(y)) == {1.0, 3.0}
    assert y.mean() == pytest.approx(2.0, abs=4 * 1.0 / np.sqrt(n))


def test_service_validation():
    with pytest.raises(PreconditionError):
        corr.ServiceDistribution.exponential(0.0)
    with pytest.raises(PreconditionError):
        corr.ServiceDistribution.pareto_truncated(2.0, 1.0)  # shape must exceed 2
    with pytest.raises(PreconditionError):
        corr.ServiceDistribution.discrete([1.0, -1.0], [0.5, 0.5])
    with pytest.raises(PreconditionError):
        corr.ServiceDistribution.discrete([1.0, 2.0], [0.5, 0.6])


# -- structures -------------------------------------------------------------

def test_structure_eval_values():
    H = corr.exponential_structure(2.0)
    assert H.eval(0.0) == 0.0
    assert H.eval(-3.0) == 0.0
    assert H.eval(1.0) == pytest.approx(1.0 - E2)
    P = corr.power_structure(0.5)
    assert P.eval(0.25) == pytest.approx(0.5)
    assert P.eval(4.0) == 1.0
    mix = corr.mixture_structure([(0.25, H), (0.75, P)])
    assert mix.eval(0.25) == pytest.approx(0.25 * (1.0 - np.exp(-0.5)) + 0.75 * 0.5)


def test_structure_validation():
    with pytest.raises(PreconditionError):
        corr.power_structure(1.5)
    with pytest.raises(PreconditionError):
        corr.exponential_structure(-1.0)
    with pytest.raises(PreconditionError):
        corr.mixture_structure([(0.5, corr.power_structure(0.5))])


def test_time_grid_validation():
    with pytest.raises(PreconditionError):
        corr.TimeGrid([0.0, 0.0, 1.0])
    with pytest.raises(PreconditionError):
        corr.TimeGrid([1.0, 0.5])
    with pytest.raises(PreconditionError):
        corr.TimeGrid([0.0, np.inf])
    g = corr.TimeGrid([0.0, 1.0, 2.5])
    np.testing.assert_allclose(g.shifted(1.5).t, [1.5, 2.5, 4.0])


# -- rectangle weights: pinned closed forms ---------------------------------

def test_weights_two_epochs_exponential():
    # grid {0,1}, H(t) = 1 - e^{-t}:
    #   a11 = H(1) = 1 - 1/e     a12 = 1 - H(1) = 1/e     a22 = H(1)
    w = corr.weights(corr.exponential_structure(1.0), corr.TimeGrid([0.0, 1.0]))
    expect = np.array([[1.0 - E1, E1], [0.0, 1.0 - E1]])
    np.testing.assert_allclose(w.a, expect, atol=1e-15)


def test_weights_three_epochs_exponential():
    # grid {0,1,3}, H(t) = 1 - e^{-t}; directly from the four-term rule
    # with H(infinity) = 1 at the boundary:
    #   a11 = H(1)                      a12 = H(3) - H(1)
    #   a13 = 1 - H(3)                  a22 = H(1) - H(3) + H(2)
    #   a23 = H(3) - H(2)               a33 = H(2)
    w = corr.weights(corr.exponential_structure(1.0), corr.TimeGrid([0.0, 1.0, 3.0]))
    expect = np.array([
        [1.0 - E1, E1 - E3, E3],
        [0.0, 1.0 - E1 - E2 + E3, E2 - E3],
        [0.0, 0.0, 1.0 - E2],
    ])
    np.testing.assert_allclose(w.a, expect, atol=1e-15)


def test_weights_three_epochs_power():
    # grid {0, 1/4, 1}, H(t) = sqrt(t) clipped at 1: the span from the
    # first epoch to past the last exceeds 1, so a13 = 1 - H(1) = 0
    w = corr.weights(corr.power_structure(0.5), corr.TimeGrid([0.0, 0.25, 1.0]))
    s3 = np.sqrt(3.0) / 2.0
    expect = np.array([
        [0.5, 0.5, 0.0],
        [0.0, s3 - 0.5, 1.0 - s3],
        [0.0, 0.0, s3],
    ])
    np.testing.assert_allclose(w.a, expect, atol=1e-15)


def test_weight_matrix_csv_roundtrip(tmp_path):
    w = corr.weights(corr.exponential_structure(1.0), corr.TimeGrid([0.0, 1.0]))
    path = tmp_path / "w.csv"
    w.to_csv(path)
    body = path.read_text().strip().splitlines()
    assert body[0].split(",")[:2] == ["i", "j"] and len(body[0].split(",")) == 3
    rows = [line.split(",") for line in body[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("1", "2"), ("2", "2")]
    assert float(rows[0][2]) == w.a[0, 0]


def test_convex_structure_raises_concavity_error():
    class Convex:
        def eval(self, t):
            t = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), 1.0)
            return t**2
    with pytest.raises(ConcavityError) as err:
        corr.weights(Convex(), corr.TimeGrid([0.0, 0.3, 0.6]))
    # the first entry below the clamp floor in row-major order
    assert (err.value.i, err.value.j) == (2, 2)


# -- structural properties over random inputs -------------------------------

def random_structure(draw_from, idx):
    rng = np.random.default_rng((draw_from, idx))
    kind = rng.integers(4)
    if kind == 0:
        return corr.exponential_structure(rng.uniform(0.2, 3.0))
    if kind == 1:
        return corr.power_structure(rng.uniform(0.2, 1.0))
    if kind == 2:
        return corr.integrated_tail_structure(
            corr.ServiceDistribution.pareto_truncated(rng.uniform(2.1, 4.0), rng.uniform(0.3, 2.0)))
    u = rng.uniform(0.2, 0.8)
    return corr.mixture_structure([
        (u, corr.exponential_structure(rng.uniform(0.2, 3.0))),
        (1.0 - u, corr.power_structure(rng.uniform(0.2, 1.0))),
    ])


grids = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=1, max_size=6, unique=True,
).map(sorted).filter(lambda v: len(v) == 1 or min(np.diff(v)) > 1e-3)


@settings(max_examples=80, deadline=None)
@given(grids, st.integers(min_value=0, max_value=10_000))
def test_column_masses_are_one(epochs, key):
    H = random_structure(711, key)
    w = corr.weights(H, corr.TimeGrid(epochs))
    for k in range(w.n):
        assert w.column_mass(k) == pytest.approx(1.0, abs=1e-10)
    assert (w.a >= 0.0).all()


@settings(max_examples=80, deadline=None)
@given(grids, st.integers(min_value=0, max_value=10_000))
def test_b_matrix_is_one_minus_structure(epochs, key):
    H = random_structure(712, key)
    g = corr.TimeGrid(epochs)
    b = corr.a_to_b(corr.weights(H, g).a)
    t = g.t
    expect = 1.0 - np.asarray(H.eval(np.abs(t[:, None] - t[None, :])))
    np.testing.assert_allclose(b, expect, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(grids, st.integers(min_value=0, max_value=10_000))
def test_ab_roundtrip(epochs, key):
    H = random_structure(713, key)
    g = corr.TimeGrid(epochs)
    a = corr.weights(H, g).a
    back = corr.b_to_a(corr.a_to_b(a), g)
    np.testing.assert_allclose(back.a, a, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(grids, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=0, max_value=10_000))
def test_weights_are_shift_invariant(epochs, tau, key):
    H = random_structure(714, key)
    g = corr.TimeGrid(epochs)
    a0 = corr.weights(H, g).a
    a1 = corr.weights(H, g.shifted(tau)).a
    np.testing.assert_allclose(a0, a1, atol=1e-12)


def test_b_to_a_rejects_nonsquare():
    with pytest.raises(PreconditionError):
        corr.b_to_a(np.ones((2, 3)))
