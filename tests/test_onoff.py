"""Two-state sources, superposition rows, and the limit bookkeeping.

Oracle hierarchy:
  * scipy.linalg.expm on the generator matrix (transition probabilities),
  * brute-force enumeration of all state paths (joint moments and CFs),
  * per-source sums (row CFs), plain Monte Carlo (path statistics),
  * hand-computed closed forms for the power-parameterized row family.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from idcoverage import corr, fidi, levy, onoff, rng as rngmod, stats
from idcoverage.errors import BoundViolationError, PreconditionError
from idcoverage.rng import child_rng

LN2 = np.log(2.0)


def brute_joint(src, epochs, fn):
    """Sum fn(states) * P(states) over every ON/OFF assignment, with exact
    chain probabilities; the slow but undeniable oracle."""
    epochs = np.asarray(epochs, dtype=float)
    m = epochs.size
    total = 0.0
    for mask in range(2**m):
        states = [(mask >> k) & 1 for k in range(m)]
        p = src.pi if states[0] else 1.0 - src.pi
        for k in range(1, m):
            P = src.transition_matrix(epochs[k] - epochs[k - 1])
            p *= P[states[k - 1], states[k]]
        total += p * fn(np.array(states))
    return total


class TestSingleSource:
    def test_stationary_probability_and_rate(self):
        src = onoff.OnOffSource(lam=1.0, mu=3.0, r=0.5)
        assert src.pi == pytest.approx(0.25)
        assert src.alpha == pytest.approx(4.0)

    def test_transition_matrix_against_expm(self):
        for lam, mu in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.7)):
            src = onoff.OnOffSource(lam=lam, mu=mu, r=1.0)
            Q = np.array([[-lam, lam], [mu, -mu]])
            for t in (0.1, 0.9, 3.0):
                np.testing.assert_allclose(
                    src.transition_matrix(t), expm(Q * t), atol=1e-12)

    def test_transition_matrix_half_life(self):
        # symmetric rates 1: at t = ln 2 the mixture weight e^{-2t} is 1/4,
        # so P = 1/2 * ones + 1/4 * I ... = [[5/8, 3/8], [3/8, 5/8]]
        src = onoff.OnOffSource(lam=1.0, mu=1.0, r=1.0)
        np.testing.assert_allclose(
            src.transition_matrix(LN2),
            np.array([[0.625, 0.375], [0.375, 0.625]]), atol=1e-15)

    def test_rows_are_stochastic(self):
        src = onoff.OnOffSource(lam=0.4, mu=1.7, r=1.0)
        for t in (0.0, 0.2, 2.5):
            np.testing.assert_allclose(src.transition_matrix(t).sum(axis=1), [1, 1])

    def test_joint_on_moment_two_epochs(self):
        # lam=1, mu=10: pi = 1/11 and
        # E[xi_0 xi_t] = pi (e^{-11 t} + pi (1 - e^{-11 t}))
        src = onoff.OnOffSource(lam=1.0, mu=10.0, r=1.0)
        t = 1.1
        expect = (1 / 11) * (np.exp(-11 * t) + (1 / 11) * (1 - np.exp(-11 * t)))
        assert src.joint_on_moment([0.0, t]) == pytest.approx(expect, rel=1e-14)

    def test_joint_on_moment_against_brute_force(self):
        src = onoff.OnOffSource(lam=0.7, mu=1.3, r=2.0)
        for epochs in ([0.0, 0.4], [0.0, 0.4, 1.0], [0.2, 0.5, 1.4, 2.0]):
            expect = brute_joint(src, epochs, lambda s: float(s.prod()))
            assert src.joint_on_moment(epochs) == pytest.approx(expect, abs=1e-14)

    def test_joint_log_cf_against_brute_force(self):
        # (0.1, 0.9) has pi = 0.1, on the sparse side of the sampler's switch
        for lam, mu, r in ((0.7, 1.3, 2.0), (0.1, 0.9, 0.6), (2.5, 0.4, 1.7), (3.0, 3.0, 0.05)):
            src = onoff.OnOffSource(lam=lam, mu=mu, r=r)
            for epochs, theta in (([0.0, 0.4, 1.0], np.array([0.9, -0.5, 0.3])),
                                  ([0.2, 0.5, 1.4, 2.0], np.array([1.3, -0.7, 0.0, 2.2]))):
                expect = brute_joint(
                    src, epochs, lambda s: np.exp(1j * src.r * (theta @ s)))
                assert np.exp(src.joint_log_cf(epochs, theta)) == pytest.approx(
                    expect, abs=1e-13)

    def test_simulated_paths_match_chain_statistics(self):
        src = onoff.OnOffSource(lam=1.0, mu=2.0, r=1.5)
        g = corr.TimeGrid([0.0, 0.5, 1.25])
        n = 150_000
        paths = src.simulate_path(g, child_rng(201), size=n)
        assert set(np.unique(paths)) <= {0.0, 1.5}
        on = paths / src.r
        se = np.sqrt(src.pi * (1 - src.pi) / n)
        for k in range(3):
            assert on[:, k].mean() == pytest.approx(src.pi, abs=4 * se)
        expect = src.joint_on_moment([0.0, 1.25])
        got = (on[:, 0] * on[:, 2]).mean()
        assert got == pytest.approx(expect, abs=4 * np.sqrt(expect / n))

    @pytest.mark.parametrize("lam, mu, r", [
        (0.0, 1.0, 1.0), (np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan),
        (1.0, -np.inf, 1.0),
    ])
    def test_parameters_positive_and_finite(self, lam, mu, r):
        with pytest.raises(PreconditionError, match="positive and finite"):
            onoff.OnOffSource(lam=lam, mu=mu, r=r)

    @pytest.mark.parametrize("lam, mu, r", [(True, 1.0, 1.0), (1.0, "1", 1.0), (1.0, 1.0, None)])
    def test_parameters_are_numbers(self, lam, mu, r):
        with pytest.raises(PreconditionError, match="expected a number"):
            onoff.OnOffSource(lam=lam, mu=mu, r=r)

    def test_validation(self):
        src = onoff.OnOffSource(lam=1.0, mu=1.0, r=1.0)
        with pytest.raises(PreconditionError):
            src.transition_matrix(-0.1)
        with pytest.raises(PreconditionError):
            src.joint_on_moment([0.5, 0.1])


class TestArraySpec:
    def test_power_example_row_values(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        lam, r = spec.row(4)
        np.testing.assert_allclose(lam, np.full(4, 0.5))
        np.testing.assert_allclose(r, 0.5 ** (0.5 * np.arange(1, 5)))

    def test_explicit_rows(self):
        spec = onoff.OnOffArraySpec(
            "explicit", mu=2.0, rows={2: [(0.1, 1.0), (0.2, 0.5)]})
        lam, r = spec.row(2)
        np.testing.assert_allclose(lam, [0.1, 0.2])
        np.testing.assert_allclose(r, [1.0, 0.5])
        with pytest.raises(PreconditionError):
            spec.row(3)

    def test_sources_iterates_row(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        srcs = list(spec.sources(3))
        assert len(srcs) == 3
        assert all(s.mu == 1.0 for s in srcs)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=1.5, b=0.5)
        with pytest.raises(PreconditionError):
            onoff.OnOffArraySpec("explicit", mu=1.0, rows={})

    @pytest.mark.parametrize("mu", [np.nan, np.inf, 0.0])
    def test_mu_positive_and_finite(self, mu):
        with pytest.raises(PreconditionError, match="mu must be positive and finite"):
            onoff.OnOffArraySpec("power_example", mu=mu, alpha_exp=0.5, b=0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(mu=True), dict(alpha_exp="0.5"), dict(b=None), dict(b=1.0), dict(alpha_exp=np.nan),
    ], ids=repr)
    def test_power_example_parameters_are_finite_numbers(self, kwargs):
        with pytest.raises(PreconditionError, match=f"^{next(iter(kwargs))}"):
            onoff.OnOffArraySpec("power_example", **{"mu": 1.0, "alpha_exp": 0.5, "b": 0.5,
                                                     **kwargs})

    @pytest.mark.parametrize("first, match", [
        ((np.nan, 1.0), "positive and finite"), ((0.1, np.inf), "positive and finite"),
        ((0.1,), r"\(lam, r\) pair"), ((0.1, 1.0, 7.0), r"\(lam, r\) pair"),
    ])
    def test_explicit_rows_are_finite_pairs(self, first, match):
        with pytest.raises(PreconditionError, match=match):
            onoff.OnOffArraySpec("explicit", mu=1.0, rows={2: [first, (0.2, 0.5)]})


class TestRowMeasureAndLimits:
    def setup_method(self):
        self.spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        self.nu = levy.reciprocal_measure(0.5)

    def test_moment_sums_match_geometric_closed_form(self):
        # sum_j lam r^p is a finite geometric series; its gap to the limit
        # 1/(p ln 2) has leading term (p lam ln2 / 2) * limit, so the gap at
        # fixed n grows linearly in p and only an envelope scaled by p is fair.
        for n in (10_000, 1_000_000):
            emp = onoff.row_measure(self.spec, n)
            lam = n ** -0.5
            for p in (1, 2, 3, 4):
                q = 0.5 ** (p * lam)
                exact = lam * q * (1.0 - q ** n) / (1.0 - q)
                got = emp.moment_sum(p)
                assert got == pytest.approx(exact, rel=1e-12)
                limit = 1.0 / (p * LN2)
                gap = abs(got - limit)
                assert gap <= 0.55 * p * lam * LN2 * limit
                # and the leading term really is there, not an accident
                assert gap >= 0.4 * p * lam * LN2 * limit

    def test_tails_within_one_atom_of_logarithm(self):
        # every atom carries mass lam = n^{-1/2}; the tail is a staircase
        # lam*floor(log(1/x)/(lam ln2)) that sits within one step of the limit
        for n in (10_000, 1_000_000):
            emp = onoff.row_measure(self.spec, n)
            lam = n ** -0.5
            q = 0.5 ** lam
            for x in (0.25, 0.5, 0.75):
                j_star = int(np.floor(np.log(1 / x) / (lam * LN2) + 1e-9))
                assert emp.tail(x) == pytest.approx(lam * j_star, rel=1e-12)
                assert abs(emp.tail(x) - np.log(1 / x) / LN2) <= lam
                fmt = lam * q * (1.0 - q ** j_star) / (1.0 - q)
                assert emp.first_moment_tail(x) == pytest.approx(fmt, rel=1e-12)
                assert abs(emp.first_moment_tail(x) - (1 - x) / LN2) <= lam

    def test_row_measure_is_an_atomic_levy_measure(self):
        emp = onoff.EmpiricalLevyMeasure(lam=np.array([1.0, 2.0, 4.0]),
                                          r=np.array([0.5, 1.0, 2.0]))
        assert isinstance(emp, levy.LevyMeasure) and emp.kind == "atomic"
        np.testing.assert_array_equal(emp.lam, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(emp.r, [0.5, 1.0, 2.0])
        assert emp.tail(1.0) == 6.0
        assert emp.first_moment_tail(1.0) == 10.0
        assert emp.moment_sum(2) == emp.moment(2) == 0.25 + 2.0 + 16.0
        # small jumps take the atom at eps
        assert emp.small_jump_first_moment(1.0) == 2.5

    def test_small_jump_sums(self):
        for eps in (0.1, 0.05):
            val = onoff.c2_small_jump_sum(self.spec, 10_000, eps)
            assert val == pytest.approx(eps / LN2, rel=0.1)

    def test_uan_bound(self):
        rep = onoff.uan_check(self.spec, 10_000, np.array([-2.0, 1.0, 2.0]))
        assert rep["ok"]
        assert rep["max_dev"] <= rep["bound"] + 1e-12

    def test_check_assumptions_full_report(self):
        rep = onoff.check_assumptions(
            self.spec, [100, 1000, 10_000], [0.25, 0.5, 0.75], [0.1, 0.05], self.nu)
        assert rep["pass"]
        for key in ("A1", "A2", "A3", "A4", "A5", "A6"):
            assert rep[key]["pass"], key

    def test_limit_exponent_value(self):
        law = onoff.limit_exponent(self.nu, 1.0)
        th = 1.3
        # independent quadrature of (e^{i th x} - 1)/(x ln 2) on (0,1]
        from scipy import integrate
        re, _ = integrate.quad(
            lambda x: (np.cos(th * x) - 1.0) / (x * LN2), 0, 1)
        im, _ = integrate.quad(lambda x: np.sin(th * x) / (x * LN2), 0, 1)
        assert law.eval(th) == pytest.approx(complex(re, im), abs=1e-10)


class TestRowCfAndSuperposition:
    def setup_method(self):
        self.spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        self.grid = corr.TimeGrid([0.0, 0.5, 1.5])

    def test_row_cf_is_sum_of_source_cfs(self):
        thetas = np.array([[0.8, -0.3, 1.1], [0.0, 0.5, -0.5]])
        fast = onoff.row_joint_log_cf(self.spec, 50, self.grid, thetas)
        slow = np.zeros(2, dtype=complex)
        for src in self.spec.sources(50):
            for q in range(2):
                slow[q] += np.log(brute_joint(
                    src, self.grid.t, lambda s: np.exp(1j * src.r * (thetas[q] @ s))))
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_superpose_matches_row_cf(self):
        n, reps = 300, 60_000
        x = onoff.superpose(self.spec, n, self.grid, child_rng(301), reps=reps)
        assert x.shape == (reps, 3)
        thetas = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        emp = stats.empirical_cf(x, thetas)
        analytic = np.exp(onoff.row_joint_log_cf(self.spec, n, self.grid, thetas))
        sup, _ = stats.cf_distance(emp, analytic)
        assert sup <= 4.0 / np.sqrt(reps)

    def test_superpose_single_path(self):
        x = onoff.superpose(self.spec, 10, self.grid, child_rng(302))
        assert x.shape == (3,)
        assert (x >= 0).all()

    def test_espc_weights_match_generic_builder(self):
        for mu in (0.5, 1.0, 2.7):
            a_direct = onoff.espc_weights(mu, self.grid)
            a_generic = corr.weights(corr.exponential_structure(mu), self.grid).a
            np.testing.assert_allclose(a_direct, a_generic, atol=1e-14)

    def test_espc_log_cf_equals_generic_process(self):
        nu = levy.reciprocal_measure(0.5)
        mu = 1.0
        proc = fidi.CoverageProcess(
            onoff.limit_exponent(nu, mu), corr.exponential_structure(mu))
        theta = np.array([0.7, -0.2, 1.3])
        assert onoff.espc_log_cf(nu, mu, self.grid, theta) == pytest.approx(
            proc.log_cf(self.grid, theta), abs=1e-12)

    def test_convergence_study_report(self):
        nu = levy.reciprocal_measure(0.5)
        rep = onoff.convergence_study(
            self.spec, nu, 1.0, corr.TimeGrid([0.0, 1.0]),
            stats.theta_product_grid([[-1.0, 1.0]] * 2),
            [50, 200, 800], 30_000, seed=77)
        rows = rep["rows"]
        assert [r["n"] for r in rows] == [50, 200, 800]
        biases = [r["analytic_bias"] for r in rows]
        assert biases[0] > biases[1] > biases[2]
        sups = [r["sup"] for r in rows]
        allowance = rep["mc_allowance"]
        for k in (1, 2):
            assert sups[k] <= sups[k - 1] + allowance
        # empirical distance is bias plus noise; noise is bounded by the
        # allowance with margin at these replication counts
        for r in rows:
            assert abs(r["sup"] - r["analytic_bias"]) <= allowance

    def test_convergence_study_refuses_missing_row_before_any_draw(self, monkeypatch):
        spec = onoff.OnOffArraySpec("explicit", mu=1.0, rows={2: [(0.1, 1.0), (0.2, 0.5)]})
        drawn = []
        monkeypatch.setattr(onoff, "superpose", lambda *a, **k: drawn.append(a))
        with pytest.raises(PreconditionError, match="row 3 not defined"):
            onoff.convergence_study(spec, levy.reciprocal_measure(0.5), 1.0,
                                    corr.TimeGrid([0.0, 1.0]), np.eye(2), [2, 3], 200_000,
                                    seed=1)
        assert drawn == []

    def test_convergence_study_hands_each_row_to_its_batches(self, monkeypatch):
        # four batches per row, yet each row is derived once for the draws
        # and once for the exact CF
        monkeypatch.setattr(rngmod, "DEFAULT_BATCH", 50)
        looked_up = []
        row = onoff.OnOffArraySpec.row
        monkeypatch.setattr(onoff.OnOffArraySpec, "row",
                            lambda spec, n: looked_up.append(n) or row(spec, n))
        rep = onoff.convergence_study(self.spec, levy.reciprocal_measure(0.5), 1.0,
                                      corr.TimeGrid([0.0, 1.0]), np.eye(2), [50, 200], 200,
                                      seed=2)
        assert [r["n"] for r in rep["rows"]] == [50, 200]
        assert sorted(looked_up) == [50, 50, 200, 200]


def reference_chain_log_cf(lam, mu, r, t, thetas):
    """The forward pass over every (theta row, source) pair at once: an
    (M, n, 2) array of chain state weights, summed over the whole row."""
    th = np.atleast_2d(thetas)
    pi = lam / (lam + mu)
    w = np.empty((th.shape[0], r.size, 2), dtype=complex)
    w[:, :, 0], w[:, :, 1] = 1.0 - pi, pi
    for k in range(t.size):
        w[:, :, 1] *= np.exp(1j * np.multiply.outer(th[:, k], r))
        if k + 1 < t.size:
            p01, p11 = onoff._on_probs(lam, mu, t[k + 1] - t[k])
            w[:, :, 0], w[:, :, 1] = (w[:, :, 0] * (1.0 - p01) + w[:, :, 1] * (1.0 - p11),
                                      w[:, :, 0] * p01 + w[:, :, 1] * p11)
    return np.log(w.sum(axis=2)).sum(axis=1)


EPOCHS4 = np.array([0.0, 0.5, 1.0, 2.0])


def _row(n, seed=5):
    gen = np.random.default_rng(seed)
    return gen.uniform(0.01, 0.5, n), gen.uniform(0.1, 3.0, n)


class TestChainKernel:
    """_chain_log_cf streams sources in blocks and, on product grids, runs the
    chain once per theta prefix; the reference is the whole-row pass.

    The kernel takes each source's log as log|z| + i arg z, the reference
    complex np.log.  Per term the two differ by under 5e-16 (|z| <= 1, |arg
    z| <= pi; 4.6e-16 at most over 2.6e6 values near |z| = 1), so over the at
    most 300 sources compared with the reference their sums differ by under
    1.5e-13, below the 1e-12 tolerance with room for the summation order."""

    @staticmethod
    def _generic(monkeypatch):
        monkeypatch.setattr(stats, "_product_grid", lambda thetas: None)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_product_path_matches_generic_on_permuted_grid(self, monkeypatch, m):
        lam, r = _row(300)
        mu = np.linspace(0.5, 2.0, 300)   # a per-source rate
        t = EPOCHS4[:m]
        per = [[-2.0, 0.5, 1.0], [-1.0, 0.25], [0.5, 3.0, -0.75], [1.5, -0.5]][:m]
        grid = stats.theta_product_grid(per)
        thetas = grid[np.random.default_rng(m).permutation(grid.shape[0])]
        assert stats._product_grid(thetas) is not None
        product = onoff._chain_log_cf(lam, mu, r, t, thetas)
        self._generic(monkeypatch)
        generic = onoff._chain_log_cf(lam, mu, r, t, thetas)
        np.testing.assert_allclose(product, generic, rtol=0, atol=1e-12)
        np.testing.assert_allclose(product, reference_chain_log_cf(lam, mu, r, t, thetas),
                                   rtol=0, atol=1e-12)

    def test_single_theta_vector_is_a_complex_scalar(self, monkeypatch):
        lam, r = _row(200)
        theta = np.array([0.7, -1.2, 0.4])
        product = onoff._chain_log_cf(lam, 1.3, r, EPOCHS4[:3], theta)
        assert isinstance(product, complex)
        self._generic(monkeypatch)
        generic = onoff._chain_log_cf(lam, 1.3, r, EPOCHS4[:3], theta)
        assert isinstance(generic, complex)
        assert abs(product - generic) <= 1e-12
        assert abs(product - reference_chain_log_cf(lam, 1.3, r, EPOCHS4[:3], theta)[0]) <= 1e-12

    def test_non_product_stack_takes_generic_path(self, monkeypatch):
        lam, r = _row(150)
        grid = stats.theta_product_grid([[-1.0, 0.5, 2.0]] * 2)
        thetas = np.vstack([grid[1:], [[0.3, 0.3]]])   # one row swapped for an outsider
        seen = []
        detect = stats._product_grid
        monkeypatch.setattr(stats, "_product_grid", lambda th: seen.append(detect(th)) or seen[-1])
        got = onoff._chain_log_cf(lam, 1.0, r, EPOCHS4[:2], thetas)
        assert seen == [None]
        np.testing.assert_allclose(got, reference_chain_log_cf(lam, 1.0, r, EPOCHS4[:2], thetas),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("product", [True, False])
    def test_many_blocks_match_one_block(self, monkeypatch, product):
        lam, r = _row(1000)
        thetas = stats.theta_product_grid([[-1.0, 0.5, 2.0]] * 3)
        if not product:
            thetas = thetas[:-1]
        one = onoff._chain_log_cf(lam, 1.0, r, EPOCHS4[:3], thetas)
        # 3 sources per block, the last block short
        monkeypatch.setattr(levy, "_ATOM_CHUNK_ELEMENTS", 3 * thetas.shape[0])
        many = onoff._chain_log_cf(lam, 1.0, r, EPOCHS4[:3], thetas)
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-12)

    def test_row_cf_memory_does_not_grow_with_row(self):
        # the whole-row pass held (1296 x 20,000 x 2) complex weights, 830 MB,
        # and several (M x n) temporaries
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        thetas = stats.theta_product_grid([[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]] * 4)
        tracemalloc.start()
        try:
            out = onoff.row_joint_log_cf(spec, 20_000, EPOCHS4, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1296,) and np.isfinite(out).all()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def reference_path(src, t, rng, reps):
    """Per-source skeleton loop, one 1-d uniform draw per epoch."""
    pi, out = src.pi, np.empty((reps, t.size))
    state = rng.random(reps) < pi
    out[:, 0] = state * src.r
    for k in range(1, t.size):
        decay = np.exp(-src.alpha * (t[k] - t[k - 1]))
        state = rng.random(reps) < np.where(state, pi + (1 - pi) * decay, pi * (1 - decay))
        out[:, k] = state * src.r
    return out


def reference_superpose(lam, mu, r, t, rng, total, block):
    """Row sums drawn block by block, the whole (block, n) state per epoch."""
    pi, out = lam / (lam + mu), np.empty((total, t.size))
    for lo in range(0, total, block):
        state = rng.random((min(block, total - lo), lam.size)) < pi
        out[lo:lo + block, 0] = state @ r
        for k in range(1, t.size):
            decay = np.exp(-(lam + mu) * (t[k] - t[k - 1]))
            state = rng.random(state.shape) < np.where(state, pi + (1 - pi) * decay,
                                                       pi * (1 - decay))
            out[lo:lo + block, k] = state @ r
    return out


def reference_bernoulli_set(p, size, rng):
    """Flat positions f in [0, size), each present with chance p[f % len(p)]:
    geometric gaps at max(p), drawn in the sampler's chunk sizes, then one
    thinning uniform per proposal unless p is constant."""
    top, last, pos = p.max(), -1, []
    while last < size - 1:
        expect = (size - 1 - last) * top
        for gap in rng.geometric(top, int(expect + 4.0 * np.sqrt(expect)) + 16).tolist():
            last += gap
            if last < size:
                pos.append(last)
    if p.min() < top:
        pos = [f for f, u in zip(pos, rng.random(len(pos))) if u * top < p[f % p.size]]
    return pos


def reference_sparse_superpose(lam, mu, r, t, rng, total, block):
    """Row sums drawn block by block from the ON set alone, kept as a set."""
    n, pi, out = lam.size, lam / (lam + mu), np.zeros((total, t.size))
    for lo in range(0, total, block):
        size = min(block, total - lo) * n
        on = set(reference_bernoulli_set(pi, size, rng))
        for k in range(t.size):
            if k:
                decay = np.exp(-(lam + mu) * (t[k] - t[k - 1]))
                q, old = decay / (1 - pi * (1 - decay)), sorted(on)
                on = {f for f, u in zip(old, rng.random(len(old))) if u < q[f % n]}
                on |= set(reference_bernoulli_set(pi * (1 - decay), size, rng))
            for f in sorted(on):
                out[lo + f // n, k] += r[f % n]
    return out


def sparse_row(lam_top, n=40):
    """An explicit row of n sources at two rates, lam_top and lam_top / 4."""
    lam = np.where(np.arange(n) % 2, lam_top, lam_top / 4)
    r = np.linspace(0.2, 1.0, n)
    return onoff.OnOffArraySpec("explicit", mu=1.0, rows={n: list(zip(lam, r))})


class TestRandomStream:
    """The samplers draw the same uniforms, in the same order, as the
    per-source, per-block and sparse reference loops above."""

    def test_simulate_path_matches_reference(self):
        src = onoff.OnOffSource(lam=0.7, mu=1.3, r=2.0)
        grid = corr.TimeGrid([0.0, 0.4, 1.0, 2.5])
        for size in (None, 5000):
            got = src.simulate_path(grid, child_rng(701), size=size)
            want = reference_path(src, grid.t, child_rng(701), 1 if size is None else size)
            assert np.array_equal(got, want[0] if size is None else want)

    def test_superpose_matches_sparse_reference_across_blocks(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        grid = corr.TimeGrid([0.0, 0.5, 1.5])
        n, reps = 50_000, 250      # blocks of 100 reps: 100 + 100 + 50
        lam, r = spec.row(n)
        got = onoff.superpose(spec, n, grid, child_rng(702), reps=reps)
        want = reference_sparse_superpose(lam, spec.mu, r, grid.t, child_rng(702), reps,
                                          onoff._BLOCK_ELEMENTS // n)
        assert np.array_equal(got, want)

    def test_sparse_superpose_law_matches_dense_reference(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        grid = corr.TimeGrid([0.0, 0.5, 1.5])
        n, reps = 500, 40_000
        lam, r = spec.row(n)
        thetas = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        exact = np.exp(onoff.row_joint_log_cf(spec, n, grid, thetas))
        sparse = onoff.superpose(spec, n, grid, child_rng(703), reps=reps)
        dense = reference_superpose(lam, spec.mu, r, grid.t, child_rng(704), reps,
                                    onoff.row_batch(n))
        for x in (sparse, dense):
            sup, _ = stats.cf_distance(stats.empirical_cf(x, thetas), exact)
            assert sup <= 4.0 / np.sqrt(reps)

    def test_each_side_of_the_switch_follows_its_reference(self):
        grid = corr.TimeGrid([0.0, 0.5, 1.5])
        reps, cut = 30_000, onoff._SPARSE_MAX_PI
        thetas = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        for pi_top, reference in ((0.9 * cut, reference_sparse_superpose),
                                  (1.1 * cut, reference_superpose)):
            spec = sparse_row(pi_top / (1 - pi_top))
            lam, r = spec.row(40)
            got = onoff.superpose(spec, 40, grid, child_rng(705), reps=reps)
            want = reference(lam, spec.mu, r, grid.t, child_rng(705), reps,
                             onoff.row_batch(40))
            assert np.array_equal(got, want)
            exact = np.exp(onoff.row_joint_log_cf(spec, 40, grid, thetas))
            sup, _ = stats.cf_distance(stats.empirical_cf(got, thetas), exact)
            assert sup <= 4.0 / np.sqrt(reps)

    def test_row_batch_reads_default_batch_at_call_time(self, monkeypatch):
        assert onoff.row_batch(10) == rngmod.DEFAULT_BATCH
        assert onoff.row_batch(10**6) == onoff._BLOCK_ELEMENTS // 10**6
        monkeypatch.setattr(rngmod, "DEFAULT_BATCH", 64)
        assert onoff.row_batch(10) == 64
        assert onoff.row_batch(10**8) == 1


class TestSparsePath:
    """Rows with max pi <= _SPARSE_MAX_PI draw only their ON sets."""

    def test_one_gap_transition_frequencies(self):
        # a candidate OFF -> ON switch that lands on an ON source must be
        # dropped, not counted again: that would lift ON -> ON to
        # p11 + (1 - p11) p01, here by 0.053, about 40 standard errors
        lam, mu, gap, reps = 0.15, 1.0, 1.0, 1_000_000
        assert lam / (lam + mu) <= onoff._SPARSE_MAX_PI
        spec = onoff.OnOffArraySpec("explicit", mu=mu, rows={1: [(lam, 1.0)]})
        x = onoff.superpose(spec, 1, corr.TimeGrid([0.0, gap]), child_rng(711), reps=reps)
        before, after = x[:, 0] > 0, x[:, 1] > 0
        p01, p11 = onoff.OnOffSource(lam, mu, 1.0).transition_matrix(gap)[:, 1]
        pi = lam / (lam + mu)
        assert before.mean() == pytest.approx(pi, abs=4 * np.sqrt(pi * (1 - pi) / reps))
        for start, p in ((before, p11), (~before, p01)):
            count = start.sum()
            assert after[start].mean() == pytest.approx(
                p, abs=4 * np.sqrt(p * (1 - p) / count))

    def test_one_gap_transition_frequencies_at_two_rates(self):
        # q = e^{-a gap} / (1 - p01) differs between the sources; marks 1 and
        # 2 tell from the row sum which source is ON
        (lam1, lam2), mu, gap, reps = (0.15, 0.03), 1.0, 0.7, 400_000
        spec = onoff.OnOffArraySpec("explicit", mu=mu, rows={2: [(lam1, 1.0), (lam2, 2.0)]})
        assert (np.array([lam1, lam2]) / (np.array([lam1, lam2]) + mu)).max() \
            <= onoff._SPARSE_MAX_PI
        x = onoff.superpose(spec, 2, corr.TimeGrid([0.0, gap]), child_rng(715),
                            reps=reps).astype(int)
        for lam, bit in ((lam1, 1), (lam2, 2)):
            before, after = (x[:, 0] & bit) > 0, (x[:, 1] & bit) > 0
            p01, p11 = onoff.OnOffSource(lam, mu, 1.0).transition_matrix(gap)[:, 1]
            pi = lam / (lam + mu)
            assert before.mean() == pytest.approx(pi, abs=4 * np.sqrt(pi * (1 - pi) / reps))
            for start, p in ((before, p11), (~before, p01)):
                count = start.sum()
                assert after[start].mean() == pytest.approx(
                    p, abs=4 * np.sqrt(p * (1 - p) / count))

    def test_vanishing_gap_keeps_every_state(self):
        # p01 rounds to 0, so no candidate is drawn and q = 1 keeps every ON source
        src = onoff.OnOffSource(lam=0.05, mu=1.0, r=1.0)
        x = src.simulate_path([0.0, 1e-18], child_rng(1), size=1000)
        assert x[:, 0].sum() > 0
        assert np.array_equal(x[:, 0], x[:, 1])
        assert src.simulate_path([0.0, 1e-18], child_rng(1), size=10).shape == (10, 2)

    def test_two_rate_row_matches_row_cf(self):
        # sources at two rates, so each proposal is thinned to its own rate
        spec = sparse_row(0.15, n=200)
        lam, _ = spec.row(200)
        assert (lam / (lam + spec.mu)).max() <= onoff._SPARSE_MAX_PI
        grid = corr.TimeGrid([0.0, 0.5, 1.5])
        reps = 100_000
        x = onoff.superpose(spec, 200, grid, child_rng(712), reps=reps)
        thetas = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        exact = np.exp(onoff.row_joint_log_cf(spec, 200, grid, thetas))
        sup, _ = stats.cf_distance(stats.empirical_cf(x, thetas), exact)
        assert sup <= 4.0 / np.sqrt(reps)

    def test_empty_block(self):
        grid = corr.TimeGrid([0.0, 1.0])
        src = onoff.OnOffSource(lam=0.05, mu=1.0, r=1.0)
        assert src.pi <= onoff._SPARSE_MAX_PI
        assert src.simulate_path(grid, child_rng(714), size=0).shape == (0, 2)

    def test_per_source_mu(self):
        # mu may be one rate per source; the row CF is then the sum of the
        # per-source chain CFs
        n, reps = 30, 100_000
        lam = np.full(n, 0.05)
        mu = np.linspace(0.5, 3.0, n)
        r = np.linspace(0.2, 1.0, n)
        t = np.array([0.0, 0.5, 1.5])
        assert (lam / (lam + mu)).max() <= onoff._SPARSE_MAX_PI
        x = onoff._row_paths(lam, mu, r, t, child_rng(713), reps)
        thetas = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        exact = np.exp(sum(
            np.array([onoff.OnOffSource(l, m, rr).joint_log_cf(t, th) for th in thetas])
            for l, m, rr in zip(lam, mu, r)))
        sup, _ = stats.cf_distance(stats.empirical_cf(x, thetas), exact)
        assert sup <= 4.0 / np.sqrt(reps)


class TestBernoulliSet:
    """_bernoulli_set draws rng.geometric's gaps by numpy's own inversion, and
    the union rule keeps each source's one-gap law."""

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("top", [1e-9, 1e-3, 0.0099, 0.15, 0.2])
    def test_matches_geometric_reference(self, top, index):
        size = min(int(20_000 / top), np.iinfo(index).max)
        # one rate, and three rates so that proposals are thinned
        for p in (np.array([top]), np.array([top / 4, top, top / 2])):
            rng, twin = child_rng(721), child_rng(721)
            got = onoff._bernoulli_set(p, size, rng, index)
            assert got.dtype == index
            assert np.array_equal(got, reference_bernoulli_set(p, size, twin))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_sparse_rows_stay_where_geometric_inverts(self):
        # rng.geometric draws by inversion only below p = 1/3; every p a
        # sparse row hands _bernoulli_set is at most its largest pi
        assert onoff._SPARSE_MAX_PI < 1 / 3

    @pytest.mark.parametrize("p, size, index", [(1e-12, 2**30 - 1, np.int32),
                                                (1e-9, 2**33, np.int64)])
    def test_gaps_past_size_never_wrap(self, p, size, index):
        # most gaps reach size; their running sum passes 2^31 (2^33 at the
        # second case) and must not wrap into [0, size)
        rng, twin = child_rng(722), child_rng(722)
        got = onoff._bernoulli_set(np.array([p]), size, rng, index)
        assert got.dtype == index
        assert (got >= 0).all() and (got < size).all() and (np.diff(got) > 0).all()
        assert np.array_equal(got, reference_bernoulli_set(np.array([p]), size, twin))
        # one chunk: 16 draws plus the expected count and 4 standard deviations
        expect = size * p
        draws = int(expect + 4.0 * np.sqrt(expect)) + 16
        assert draws <= 40
        twin = child_rng(722)
        twin.standard_exponential(draws)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_union_rule_keeps_p11(self):
        # no sampling: kept with chance q or switched on at p01 is ON with p11
        lam, mu, gap = np.meshgrid([1e-9, 1e-4, 0.01, 0.05, 0.17], [0.05, 1.0, 7.0],
                                   [0.0, 1e-18, 1e-9, 0.01, 1.0, 40.0])
        p01, q = onoff._union_probs(lam, mu, gap)
        want01, p11 = onoff._on_probs(lam, mu, gap)
        np.testing.assert_allclose(p01, want01, rtol=1e-15, atol=0)
        np.testing.assert_allclose(p01 + (1 - p01) * q, p11, rtol=0, atol=1e-15)
        assert (q >= 0).all() and (q <= 1 + 1e-15).all()


class TestIncrementBounds:
    def test_closed_forms_match_monte_carlo(self):
        src = onoff.OnOffSource(lam=0.6, mu=1.1, r=0.9)
        rep = onoff.increment_bound_check(
            src, [(0.0, 0.4, 1.0), (0.0, 1.0, 3.0)], 150_000, child_rng(401))
        for row in rep["triples"]:
            for key in ("product_sq", "cross_abs", "increment_sq"):
                entry = row[key]
                assert entry["closed"] <= entry["bound"] + 1e-12
                assert abs(entry["mc"] - entry["closed"]) <= 4 * entry["stderr"] + 1e-12

    def test_bounds_hold_on_random_sweep(self):
        rng = np.random.default_rng(1918)
        for _ in range(100):
            src = onoff.OnOffSource(
                lam=rng.uniform(0.05, 3.0), mu=rng.uniform(0.05, 3.0),
                r=rng.uniform(0.1, 2.0))
            u = rng.uniform(0.0, 2.0)
            t = u + rng.uniform(0.01, 2.0)
            s = t + rng.uniform(0.01, 2.0)
            for name, (closed, bound) in onoff.increment_moment_forms(src, u, t, s).items():
                assert closed <= bound + 1e-12, name

    def test_product_closed_form_value(self):
        # lam = mu = 1, r = 1, gaps both d: q = (1/4)(1 - e^{-2d})^2
        src = onoff.OnOffSource(lam=1.0, mu=1.0, r=1.0)
        d = 1.0
        forms = onoff.increment_moment_forms(src, 0.0, d, 2 * d)
        closed, bound = forms["product_sq"]
        assert closed == pytest.approx(0.25 * (1 - np.exp(-2.0)) ** 2, rel=1e-12)
        assert bound == pytest.approx(0.25 * (2 * d - d) ** 2 * 4)  # r^4 lam mu (s-u)^2 / 4

    def test_row_fourth_moment_against_monte_carlo(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        n = 60
        u, t, s = 0.0, 0.5, 1.2
        closed = onoff.row_increment_fourth_moment(spec, n, u, t, s)
        reps = 200_000
        x = onoff.superpose(spec, n, corr.TimeGrid([u, t, s]), child_rng(402), reps=reps)
        vals = (x[:, 1] - x[:, 0]) ** 2 * (x[:, 2] - x[:, 1]) ** 2
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert vals.mean() == pytest.approx(closed, abs=4 * se)

    def test_row_fourth_moment_is_sum_of_scalar_forms(self):
        spec = onoff.OnOffArraySpec("power_example", mu=1.0, alpha_exp=0.5, b=0.5)
        n, (u, t, s) = 60, (0.0, 0.5, 1.2)
        terms = []      # per source: q1, E[d_ut^2], E[d_ts^2], |cross|
        for src in spec.sources(n):
            forms = onoff.increment_moment_forms(src, u, t, s)
            later = onoff.increment_moment_forms(src, t, s, s + 1.0)
            terms.append((forms["product_sq"][0], forms["increment_sq"][0],
                          later["increment_sq"][0], forms["cross_abs"][0]))
        q1, a_ut, a_ts, cross = np.array(terms).T
        expect = (q1.sum() + a_ut.sum() * a_ts.sum() - (a_ut * a_ts).sum()
                  + 2.0 * (cross.sum() ** 2 - (cross**2).sum()))
        assert onoff.row_increment_fourth_moment(spec, n, u, t, s) == pytest.approx(
            expect, rel=1e-12)


class TestPairedExponentIdentity:
    def test_exact_for_m_up_to_six(self):
        rng = np.random.default_rng(501)
        for m in range(2, 7):
            epochs = np.sort(rng.uniform(0.0, 4.0, size=m))
            theta = rng.uniform(-2.0, 2.0, size=m)
            lhs, rhs = onoff.algebraic_identity_check(
                m, theta, epochs, alpha_rate=rng.uniform(0.3, 2.0), r=rng.uniform(0.2, 1.5))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_subset_cap(self):
        with pytest.raises(PreconditionError):
            onoff.algebraic_identity_check(
                13, np.zeros(13), np.arange(13.0), alpha_rate=1.0, r=0.5)


def reference_remainders(sources, t, theta_vectors):
    """Per-source, per-subset, per-theta loop over the remainders L, the
    pi-remainder and R; returns (per-source entries, message or None) as
    remainder_bound_check reports and raises them."""
    subsets = [sub for k in range(2, t.size + 1)
               for sub in itertools.combinations(range(t.size), k)]
    entries, worst = [], None
    for src in sources:
        ratio = src.lam / src.mu
        l_vals, pi_vals = [], []
        for sub in subsets:
            moment = src.joint_on_moment(t[list(sub)])
            decay = np.exp(-src.mu * (t[sub[-1]] - t[sub[0]]))
            l_vals.append(moment - ratio * decay)
            pi_vals.append(moment - src.pi * decay)
        fs = np.exp(1j * src.r * theta_vectors) - 1.0
        r_vals = []
        for q in range(theta_vectors.shape[0]):
            acc = (src.pi - ratio) * fs[q].sum()
            for l_val, sub in zip(l_vals, subsets):
                acc += l_val * np.prod(fs[q, list(sub)])
            r_vals.append(acc)
        entry = {"lam": src.lam, "r": src.r, "min_L": min(l_vals),
                 "max_abs_L": max(map(abs, l_vals)), "min_pi_remainder": min(pi_vals),
                 "max_abs_R": max(map(abs, r_vals))}
        entries.append(entry)
        if entry["min_L"] < -1e-15 and (worst is None or entry["min_L"] < worst["min_L"]):
            worst = entry
    message = None if worst is None else (
        f"joint-moment remainder L is negative for lam={worst['lam']:g} "
        f"(min L = {worst['min_L']:.3e})")
    return entries, message


def remainder_cases():
    """Criterion 09's two sweeps on its grid, and 7 random sources on 5 epochs."""
    grid = corr.TimeGrid((0.0, 0.7, 1.5))
    rng = np.random.default_rng(609)
    return [
        ([onoff.OnOffSource(lam, 1.0, 0.5) for lam in np.logspace(-4, -2, 6)], grid),
        ([onoff.OnOffSource(0.01, 1.0, r) for r in np.logspace(-3, -1, 6)], grid),
        ([onoff.OnOffSource(10 ** rng.uniform(-3, 0.5), 10 ** rng.uniform(-1, 0.5),
                            rng.uniform(0.1, 2.0)) for _ in range(7)],
         corr.TimeGrid(np.sort(rng.uniform(0.0, 3.0, 5)))),
    ]


class TestRemainders:
    @pytest.mark.parametrize("case", range(3))
    def test_matches_per_source_loop(self, case):
        sources, grid = remainder_cases()[case]
        m = len(grid)
        thetas = stats.theta_product_grid([[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]] * m) \
            if m <= 3 else np.eye(m)
        entries, message = reference_remainders(sources, grid.t, thetas)
        rep = onoff.remainder_bound_check(sources, grid, enforce_sign=False)
        assert [set(e) for e in rep["sources"]] == [set(e) for e in entries]
        for got, want in zip(rep["sources"], entries):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-13, abs=0), key
        assert rep["min_L"] == pytest.approx(min(e["min_L"] for e in entries), rel=1e-13)
        assert rep["min_pi_remainder"] == pytest.approx(
            min(e["min_pi_remainder"] for e in entries), rel=1e-13)
        lam, r = (np.array([e[k] for e in entries]) for k in ("lam", "r"))
        max_l, max_r = (np.array([e[k] for e in entries]) for k in ("max_abs_L", "max_abs_R"))
        assert rep["fitted_M"] == pytest.approx((max_l / lam**2).max(), rel=1e-13)
        assert rep["fitted_K"] == pytest.approx((max_r / (lam**2 * r)).max(), rel=1e-13)
        assert rep["sign_ok"] is (message is None)
        assert message is not None
        with pytest.raises(BoundViolationError) as exc:
            onoff.remainder_bound_check(sources, grid)
        assert str(exc.value) == message

    def test_pi_remainder_never_negative(self):
        # E[prod xi] - pi e^{-mu D} >= 0 across regimes; this is the
        # provable variant of the subset-remainder sign claim
        rng = np.random.default_rng(601)
        grid = corr.TimeGrid([0.0, 0.6, 1.7])
        for _ in range(30):
            src = onoff.OnOffSource(
                lam=10 ** rng.uniform(-3, 0.5), mu=10 ** rng.uniform(-1, 0.5),
                r=1.0)
            rep = onoff.remainder_bound_check([src], grid, enforce_sign=False)
            assert rep["min_pi_remainder"] >= -1e-15

    def test_small_lambda_remainder_goes_negative(self):
        # with lam << mu the lam/mu-scaled remainder dips below zero on a
        # unit gap; the check must flag it rather than look away
        src = onoff.OnOffSource(lam=0.001, mu=1.0, r=1.0)
        with pytest.raises(BoundViolationError):
            onoff.remainder_bound_check([src], corr.TimeGrid([0.0, 1.0]))
        rep = onoff.remainder_bound_check(
            [src], corr.TimeGrid([0.0, 1.0]), enforce_sign=False)
        assert rep["min_L"] < 0.0
        # the negative part is second order: |min L| = O(lam^2)
        assert abs(rep["min_L"]) <= 2.0 * src.lam**2

    def test_scaling_slopes(self):
        grid = corr.TimeGrid([0.0, 0.7, 1.5])
        lam_sweep = [onoff.OnOffSource(lam=l, mu=1.0, r=0.5)
                     for l in np.logspace(-4, -2, 6)]
        rep = onoff.remainder_bound_check(lam_sweep, grid, enforce_sign=False)
        assert rep["slope_L_lambda"] == pytest.approx(2.0, abs=0.1)
        assert rep["slope_R_lambda"] == pytest.approx(2.0, abs=0.1)
        r_sweep = [onoff.OnOffSource(lam=0.001, mu=1.0, r=r)
                   for r in np.logspace(-3, -1, 6)]
        rep = onoff.remainder_bound_check(r_sweep, grid, enforce_sign=False)
        assert rep["slope_R_r"] == pytest.approx(1.0, abs=0.1)

    def test_fitted_constants_reported(self):
        src = onoff.OnOffSource(lam=0.01, mu=1.0, r=0.5)
        rep = onoff.remainder_bound_check(
            [src], corr.TimeGrid([0.0, 1.0, 2.0]), enforce_sign=False)
        assert rep["fitted_M"] > 0.0
        assert rep["fitted_K"] > 0.0
