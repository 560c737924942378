"""Empirical CF estimation, covariance estimation, and CF distances.

Tiny samples are checked against hand-computed complex means; the chunked
accumulation path is forced with a small chunk size and must reproduce the
unchunked result exactly.  Row collapsing is checked against a dense loop
over every row, kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idcoverage import corr, mginf, stats
from idcoverage.errors import PreconditionError
from idcoverage.rng import child_rng


def _dense_cf(samples, thetas):
    """(estimates, stderr) from one chunk of every row, with one-pass
    variances: the estimator as it was before rows were collapsed."""
    samples = np.asarray(samples, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    n = samples.shape[0]
    inner = samples @ thetas.T
    c = np.cos(inner)
    s = np.sin(inner)
    sum_c, sum_s = c.sum(axis=0), s.sum(axis=0)
    var_c = np.maximum((c * c).sum(axis=0) - sum_c**2 / n, 0.0) / (n - 1)
    var_s = np.maximum((s * s).sum(axis=0) - sum_s**2 / n, 0.0) / (n - 1)
    return (sum_c + 1j * sum_s) / n, np.sqrt(np.maximum(var_c, var_s) / n)


def _mm_inf_counts(n):
    model = mginf.MGInfinityModel(2.0, corr.ServiceDistribution.exponential(1.0))
    return model.simulate(corr.TimeGrid([0.0, 0.5, 1.0, 2.0]), child_rng(41), size=n)


_GRID4 = stats.theta_product_grid([[-2.0, 0.5, 1.0]] * 4)


class TestThetaProductGrid:
    def test_shape_and_order(self):
        grid = stats.theta_product_grid([[-1.0, 1.0], [0.0, 2.0], [3.0]])
        assert grid.shape == (4, 3)
        np.testing.assert_allclose(
            grid,
            [[-1, 0, 3], [-1, 2, 3], [1, 0, 3], [1, 2, 3]])

    def test_single_coordinate(self):
        grid = stats.theta_product_grid([[0.5, 1.5, 2.5]])
        assert grid.shape == (3, 1)


class TestEmpiricalCF:
    def test_two_point_sample_by_hand(self):
        # rows 0 and pi/2 at theta=1: (e^{i0} + e^{i pi/2})/2 = (1+i)/2
        emp = stats.empirical_cf([[0.0], [np.pi / 2]], [[1.0]])
        assert emp.estimates[0] == pytest.approx(0.5 + 0.5j, abs=1e-15)
        assert emp.n_samples == 2
        # both component samples are {1, 0}: var 1/2, stderr sqrt(1/4) = 1/2
        assert emp.stderr[0] == pytest.approx(0.5, abs=1e-15)

    def test_bivariate_inner_products(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0]])
        theta = np.array([[0.5, -1.0]])
        emp = stats.empirical_cf(samples, theta)
        want = 0.5 * (np.exp(-1.5j) + np.exp(-2.5j))
        assert emp.estimates[0] == pytest.approx(want, abs=1e-15)

    def test_one_dim_inputs_promoted(self):
        emp = stats.empirical_cf([0.0, np.pi], 1.0)
        assert emp.estimates[0] == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_sample_has_tiny_stderr(self):
        # the centred update leaves only rounding on constant input
        # (~1e-17); the bound is loose on purpose
        emp = stats.empirical_cf(np.full((50, 1), 0.3), [[2.0]])
        assert emp.estimates[0] == pytest.approx(np.exp(0.6j), abs=1e-14)
        assert 0.0 <= emp.stderr[0] <= 1e-7

    def test_modulus_and_stderr_envelopes(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(500, 2))
        grid = stats.theta_product_grid([[-1.0, 1.0], [-2.0, 0.5]])
        emp = stats.empirical_cf(samples, grid)
        assert np.all(np.abs(emp.estimates) <= 1.0 + 1e-12)
        assert np.all(emp.stderr <= 2.0 / np.sqrt(500))

    def test_validation(self):
        with pytest.raises(PreconditionError):
            stats.empirical_cf(np.empty((0, 1)), [[1.0]])
        with pytest.raises(PreconditionError):
            stats.empirical_cf([[1.0, 2.0]], [[1.0]])

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        # different chunk partitions re-associate the pairwise sums, so
        # agreement is to rounding, not to the bit; bit equality is only
        # promised for identical inputs and identical chunking
        rng = np.random.default_rng(11)
        samples = rng.exponential(size=(1000, 3))
        grid = stats.theta_product_grid([[-1.0, 0.5]] * 3)
        whole = stats.empirical_cf(samples, grid)
        monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 56)
        pieces = stats.empirical_cf(samples, grid)
        np.testing.assert_allclose(
            pieces.estimates, whole.estimates, rtol=0, atol=5e-15)
        np.testing.assert_allclose(pieces.stderr, whole.stderr, rtol=0, atol=5e-15)

    def test_repeat_call_is_bit_identical(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(size=(777, 2))
        grid = stats.theta_product_grid([[-2.0, 1.0], [0.5, 3.0]])
        a = stats.empirical_cf(samples, grid)
        b = stats.empirical_cf(samples.copy(), grid)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.stderr, b.stderr)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=40))
    def test_chunk_consistency_property(self, seed, chunk):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(int(rng.integers(2, 64)), 2))
        grid = stats.theta_product_grid([[-1.0, 2.0], [0.5, 1.0]])
        whole = stats.empirical_cf(samples, grid)
        old = stats._CHUNK_ELEMENTS
        stats._CHUNK_ELEMENTS = chunk
        try:
            pieces = stats.empirical_cf(samples, grid)
        finally:
            stats._CHUNK_ELEMENTS = old
        np.testing.assert_allclose(
            pieces.estimates, whole.estimates, rtol=0, atol=5e-15)


class TestDistinctRows:
    """Collapsed integer-valued rows give the dense loop's answers."""

    def assert_matches_dense(self, samples, thetas, stderr=True):
        emp = stats.empirical_cf(samples, thetas)
        est, se = _dense_cf(samples, thetas)
        np.testing.assert_allclose(emp.estimates, est, rtol=0, atol=1e-13)
        if stderr:
            np.testing.assert_allclose(emp.stderr, se, rtol=0, atol=1e-15)
        return emp

    def test_mm_inf_counts(self):
        counts = _mm_inf_counts(5000)
        assert counts.dtype.kind == "i"
        rows, weights = stats._distinct_rows(counts.astype(float))
        assert rows.shape[0] < counts.shape[0] // 4
        assert weights.sum() == counts.shape[0]
        self.assert_matches_dense(counts, _GRID4)

    def test_poisson_differences(self):
        rng = np.random.default_rng(17)
        x = (rng.poisson(3.0, (4000, 3)) - rng.poisson(3.0, (4000, 3))).astype(float)
        assert x.min() < 0
        self.assert_matches_dense(x, stats.theta_product_grid([[-1.0, 0.3, 2.0]] * 3))

    def test_constant_sample(self):
        x = np.tile([3.0, -1.0], (1000, 1))
        grid = stats.theta_product_grid([[-2.0, 0.5, 1.0]] * 2)
        emp = self.assert_matches_dense(x, grid, stderr=False)
        # the dense loop's one-pass variance leaves ~6e-9 here; the true value is 0
        np.testing.assert_allclose(emp.stderr, 0.0, rtol=0, atol=1e-15)

    def test_counted_and_sorted_keys_agree(self):
        # 300 rows over a key span of 9^3 = 729 sort by np.unique; the same
        # rows tiled 3 times (900 >= 729) are counted by np.bincount
        rng = np.random.default_rng(23)
        x = np.clip(rng.poisson(2.0, (300, 3)), 0, 8).astype(float) - 3.0
        x[:3] = [[-3.0, 5.0, -3.0], [5.0, -3.0, 5.0], [-3.0, -3.0, -3.0]]
        want_rows, want_counts = np.unique(x, axis=0, return_counts=True)
        sorted_rows, sorted_counts = stats._distinct_rows(x)
        counted_rows, counted_counts = stats._distinct_rows(np.tile(x, (3, 1)))
        for rows, counts, k in ((sorted_rows, sorted_counts, 1), (counted_rows, counted_counts, 3)):
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(counts, k * want_counts)
            assert rows.dtype == float and counts.dtype == float
        self.assert_matches_dense(np.tile(x, (3, 1)), stats.theta_product_grid([[-1.0, 0.3]] * 3))

    def test_key_overflow_falls_back(self):
        # four columns spanning 2**21 each: the mixed-radix key would reach
        # ~2**84, and rows 0 and 1 differ in key by exactly 2**64
        top = 2.0**21
        x = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2097147.0, 5.0, 2097151.0],
                      [top, top, top, top]])
        rows, weights = stats._distinct_rows(x)
        np.testing.assert_array_equal(rows, x)
        np.testing.assert_array_equal(weights, 1.0)
        self.assert_matches_dense(x, stats.theta_product_grid([[-1e-3, 2e-6]] * 4))

    @pytest.mark.parametrize("tiles", [1, 3])   # sorted, then counted keys
    def test_integer_and_float_copies_agree(self, tiles):
        rng = np.random.default_rng(29)
        x = np.tile(rng.poisson(2.0, (300, 3)) - rng.poisson(2.0, (300, 3)), (tiles, 1))
        assert x.dtype == np.int64 and x.min() < 0
        int_rows, int_counts = stats._distinct_rows(x)
        float_rows, float_counts = stats._distinct_rows(x.astype(float))
        assert int_rows.dtype == float and int_counts.dtype == float
        np.testing.assert_array_equal(int_rows, float_rows)
        np.testing.assert_array_equal(int_counts, float_counts)
        assert int_rows.shape[0] < x.shape[0] // tiles

    @pytest.mark.parametrize("x", [
        np.array([[0, 1], [2**62, 1], [0, 1]]),                # an entry at 2**62
        np.array([[0, 0, 0, 0], [2**21, 2**21, 2**21, 2**21], [0, 0, 0, 0]]),  # key span
    ], ids=["magnitude", "span"])
    def test_integer_sample_falls_back_past_the_key_guard(self, x):
        rows, weights = stats._distinct_rows(x)
        assert rows.dtype == float
        np.testing.assert_array_equal(rows, x.astype(float))
        np.testing.assert_array_equal(weights, 1.0)

    def test_integer_counts_peak_below_the_sample(self):
        """150,000 x 4 int64 counts collapse without a float copy of the
        sample: the estimator's peak allocation stays below its nbytes."""
        model = mginf.MGInfinityModel(
            1.0, corr.ServiceDistribution.pareto_truncated(4.0, 1.0))
        counts = model.simulate(corr.TimeGrid([0.0, 0.5, 1.0, 2.0]), child_rng(43),
                                size=150_000)
        thetas = stats.theta_product_grid([[-1.0, 1.0]] * 4)
        tracemalloc.start()
        try:
            stats.empirical_cf(counts, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes

    def test_nan_row_stays_nan(self):
        x = _mm_inf_counts(500).astype(float)
        x[7, 2] = np.nan
        emp = self.assert_matches_dense(x, _GRID4)
        assert np.isnan(emp.estimates).all()

    def test_chunked_collapsed_rows_match_unchunked(self, monkeypatch):
        counts = _mm_inf_counts(3000)
        whole = stats.empirical_cf(counts, _GRID4)
        monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 4 * _GRID4.shape[0])
        pieces = stats.empirical_cf(counts, _GRID4)
        np.testing.assert_allclose(pieces.estimates, whole.estimates, rtol=0, atol=5e-15)
        np.testing.assert_allclose(pieces.stderr, whole.stderr, rtol=0, atol=5e-15)

    def test_near_constant_stderr_matches_two_pass(self):
        x = 0.3 + 1e-9 * np.random.default_rng(19).normal(size=10_000)
        emp = stats.empirical_cf(x, [[2.0]])
        c, s = np.cos(2.0 * x), np.sin(2.0 * x)
        want = np.sqrt(max(np.var(c, ddof=1), np.var(s, ddof=1)) / x.size)
        assert emp.stderr[0] == pytest.approx(want, rel=1e-6)


class TestFactoredProductGrid:
    """Float rows on a product grid take the factored sums: they match the
    dense one-pass loop, and only small variances and other grids reach the
    centred path."""

    GRID = stats.theta_product_grid([[-2.0, -0.5, 1.0], [0.5, 2.0], [-1.0, 0.25, 0.5, 3.0]])

    @staticmethod
    def sample(kind, shape=(2000, 3)):
        rng = np.random.default_rng(29)
        return rng.normal(size=shape) if kind == "normal" else rng.exponential(size=shape)

    @staticmethod
    def centred_calls(monkeypatch):
        """The thetas of every call to the centred path, recorded."""
        calls = []
        centred = stats._centred_sums

        def record(rows, counts, thetas):
            calls.append(thetas.copy())
            return centred(rows, counts, thetas)

        monkeypatch.setattr(stats, "_centred_sums", record)
        return calls

    @staticmethod
    def assert_matches_dense(samples, thetas):
        emp = stats.empirical_cf(samples, thetas)
        est, se = _dense_cf(samples, thetas)
        np.testing.assert_allclose(emp.estimates, est, rtol=0, atol=1e-13)
        np.testing.assert_allclose(emp.stderr, se, rtol=0, atol=1e-15)
        return emp

    @pytest.mark.parametrize("kind", ["normal", "exponential"])
    def test_grid_in_product_order(self, monkeypatch, kind):
        calls = self.centred_calls(monkeypatch)
        self.assert_matches_dense(self.sample(kind), self.GRID)
        assert calls == []

    @pytest.mark.parametrize("kind", ["normal", "exponential"])
    def test_shuffled_grid(self, monkeypatch, kind):
        calls = self.centred_calls(monkeypatch)
        x = self.sample(kind)
        perm = np.random.default_rng(31).permutation(self.GRID.shape[0])
        shuffled = self.assert_matches_dense(x, self.GRID[perm])
        ordered = stats.empirical_cf(x, self.GRID)
        np.testing.assert_array_equal(shuffled.thetas, self.GRID[perm])
        np.testing.assert_array_equal(shuffled.estimates, ordered.estimates[perm])
        np.testing.assert_array_equal(shuffled.stderr, ordered.stderr[perm])
        assert calls == []

    @pytest.mark.parametrize("kind", ["normal", "exponential"])
    def test_one_column_grid(self, monkeypatch, kind):
        calls = self.centred_calls(monkeypatch)
        self.assert_matches_dense(self.sample(kind)[:, :1], [[-1.0], [0.5], [2.0]])
        assert calls == []

    @pytest.mark.parametrize("thetas", [
        GRID[:-1],                                          # one point short
        [[1.0, 0.5, 2.0], [1.0, 0.5, 2.0], [-1.0, -0.5, 3.0], [-1.0, -0.5, 3.0],
         [1.0, -0.5, 2.0], [1.0, -0.5, 3.0], [-1.0, 0.5, 2.0], [-1.0, 0.5, 3.0]],
        np.random.default_rng(37).normal(size=(10, 3)),
    ], ids=["short", "repeated-row", "scattered"])
    def test_other_grids_take_the_dense_path(self, monkeypatch, thetas):
        calls = self.centred_calls(monkeypatch)
        whole = self.assert_matches_dense(self.sample("normal"), thetas)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], thetas)
        # chunks of a few rows merge by the pairwise update
        monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 56)
        pieces = stats.empirical_cf(self.sample("normal"), thetas)
        np.testing.assert_allclose(pieces.estimates, whole.estimates, rtol=0, atol=5e-15)
        np.testing.assert_allclose(pieces.stderr, whole.stderr, rtol=0, atol=5e-15)

    def test_chunked_factored_sums_match_unchunked(self, monkeypatch):
        calls = self.centred_calls(monkeypatch)
        x = self.sample("exponential")
        whole = stats.empirical_cf(x, self.GRID)
        # 48 float64 elements per row here: chunks of four rows
        monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 200)
        pieces = stats.empirical_cf(x, self.GRID)
        np.testing.assert_allclose(pieces.estimates, whole.estimates, rtol=0, atol=5e-15)
        np.testing.assert_allclose(pieces.stderr, whole.stderr, rtol=0, atol=5e-15)
        assert calls == []

    def test_small_variances_take_the_centred_fallback(self, monkeypatch):
        # theta . row varies by ~5e-2 except at (1e-3, 1e-3), where it varies
        # by ~1.4e-6: a variance near 2e-12, below _FACTORED_MIN_VAR
        calls = self.centred_calls(monkeypatch)
        x = 0.3 + 1e-3 * self.sample("normal", (2000, 2))
        grid = stats.theta_product_grid([[1e-3, 40.0]] * 2)
        emp = stats.empirical_cf(x, grid)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [[1e-3, 1e-3]])
        est, _ = _dense_cf(x, grid)
        np.testing.assert_allclose(emp.estimates, est, rtol=0, atol=1e-13)
        inner = x @ grid.T
        var = np.maximum(np.var(np.cos(inner), axis=0, ddof=1),
                         np.var(np.sin(inner), axis=0, ddof=1))
        assert var[0] < stats._FACTORED_MIN_VAR < var[1:].min()
        np.testing.assert_allclose(emp.stderr, np.sqrt(var / x.shape[0]), rtol=1e-6)

    def test_default_six_epoch_grid_never_runs_the_dense_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the centred path ran")

        monkeypatch.setattr(stats, "_centred_sums", refuse)
        x = self.sample("normal", (20_000, 6))
        grid = stats.theta_product_grid([[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]] * 6)
        emp = stats.empirical_cf(x, grid)
        assert emp.estimates.shape == emp.stderr.shape == (46_656,)
        picks = [0, 7, 23_456, 46_655]
        direct = np.exp(1j * x @ grid[picks].T).mean(axis=0)
        np.testing.assert_allclose(emp.estimates[picks], direct, rtol=0, atol=1e-13)
        assert np.all(emp.stderr <= 2.0 / np.sqrt(20_000))


class TestEmpiricalCov:
    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(200, 3))
        full = np.cov(samples, rowvar=False, ddof=1)
        got = stats.empirical_cov(samples, [(0, 1), (2, 0), (1, 1)])
        assert got[0][0] == pytest.approx(full[0, 1], rel=1e-12)
        assert got[1][0] == pytest.approx(full[2, 0], rel=1e-12)
        assert got[2][0] == pytest.approx(full[1, 1], rel=1e-12)

    def test_stderr_from_cross_terms(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(100, 2))
        (cov, se), = stats.empirical_cov(samples, [(0, 1)])
        x = samples[:, 0] - samples[:, 0].mean()
        y = samples[:, 1] - samples[:, 1].mean()
        assert se == pytest.approx((x * y).std(ddof=1) / 10.0, rel=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(PreconditionError):
            stats.empirical_cov(np.ones((1, 2)), [(0, 1)])


class TestDistancesAndReport:
    def test_distance_hand_values(self):
        emp = stats.EmpiricalCF(
            thetas=np.array([[1.0], [2.0]]),
            estimates=np.array([1.0 + 0j, 0.5j]),
            n_samples=4,
            stderr=np.zeros(2))
        sup, rms = stats.cf_distance(emp, [1.0, 0.0])
        assert sup == pytest.approx(0.5)
        assert rms == pytest.approx(np.sqrt(0.125))

    def test_distance_shape_mismatch(self):
        emp = stats.empirical_cf([[0.0]], [[1.0]])
        with pytest.raises(PreconditionError):
            stats.cf_distance(emp, [1.0, 2.0])

    def test_report_schema(self):
        emp = stats.empirical_cf([[0.0], [1.0]], [[1.0], [2.0]])
        rep = stats.cf_report(emp, distances=(0.1, 0.05))
        assert set(rep) == {"grid", "n_samples", "estimates", "distances"}
        assert rep["n_samples"] == 2
        assert rep["distances"] == {"sup": 0.1, "l2": 0.05}
        entry = rep["estimates"][0]
        assert set(entry) == {"theta", "re", "im", "stderr"}
        assert all(isinstance(entry[k], float) for k in ("re", "im", "stderr"))

    def test_report_without_distances(self):
        emp = stats.empirical_cf([[0.0]], [[1.0]])
        assert "distances" not in stats.cf_report(emp)
