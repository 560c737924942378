"""Two-state sources, superposition rows, and the limit bookkeeping.

Oracle hierarchy:
  * scipy.linalg.expm on the generator matrix (transition probabilities),
  * brute-force enumeration of all state paths (joint moments and CFs),
  * per-source sums (row CFs), plain Monte Carlo (path statistics),
  * hand-computed closed forms for the power-parameterized row family.
"""

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
        src = onoff.OnOffSource(lam=0.7, mu=1.3, r=2.0)
        epochs = [0.0, 0.4, 1.0]
        theta = np.array([0.9, -0.5, 0.3])
        expect = brute_joint(
            src, epochs, lambda s: np.exp(1j * src.r * (theta @ s)))
        assert np.exp(src.joint_log_cf(epochs, theta)) == pytest.approx(expect, abs=1e-13)

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

    def test_validation(self):
        with pytest.raises(PreconditionError):
            onoff.OnOffSource(lam=0.0, mu=1.0, r=1.0)
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
                slow[q] += src.joint_log_cf(self.grid, thetas[q])
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
                p11, old = pi + (1 - pi) * decay, sorted(on)
                on = {f for f, u in zip(old, rng.random(len(old))) if u < p11[f % n]}
                on |= set(reference_bernoulli_set(pi * (1 - decay), size, rng)) - set(old)
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


class TestRemainders:
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
