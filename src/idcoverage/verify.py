"""Deterministic self-checks of the package's algebraic identities.

Each check draws its own cases from a fixed seed, verifies an exact
identity or bound to tight tolerances, and reports the worst observed
deviation.  The CLI `verify` subcommand runs them all and fails the
process if any check fails.
"""

from dataclasses import dataclass

import numpy as np

from . import corr, fidi, levy, onoff

_SEED = 20240817


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_grid(rng, n=None, span=4.0):
    n = n or int(rng.integers(1, 7))
    t = np.sort(rng.uniform(0.0, span, size=n))
    while np.diff(t).size and np.diff(t).min() < 1e-3:
        t = np.sort(rng.uniform(0.0, span, size=n))
    return corr.TimeGrid(tuple(t))


def _random_structure(rng):
    pick = rng.integers(0, 6)
    if pick == 0:
        return corr.exponential_structure(rng.uniform(0.2, 3.0))
    if pick == 1:
        return corr.power_structure(rng.uniform(0.2, 1.0))
    if pick == 2:
        return corr.integrated_tail_structure(
            corr.ServiceDistribution.exponential(rng.uniform(0.3, 3.0)))
    if pick == 3:
        return corr.integrated_tail_structure(
            corr.ServiceDistribution.deterministic(rng.uniform(0.5, 3.0)))
    if pick == 4:
        return corr.integrated_tail_structure(corr.ServiceDistribution.pareto_truncated(
            rng.uniform(2.1, 4.0), rng.uniform(0.3, 1.5)))
    w = rng.uniform(0.2, 0.8)
    return corr.mixture_structure([
        (w, corr.exponential_structure(rng.uniform(0.2, 3.0))),
        (1.0 - w, corr.power_structure(rng.uniform(0.2, 1.0))),
    ])


def _random_law(rng):
    pick = rng.integers(0, 5)
    if pick == 0:
        return levy.gaussian(rng.normal(), rng.uniform(0.3, 2.0))
    if pick == 1:
        return levy.poisson(rng.uniform(0.5, 3.0))
    if pick == 2:
        mark = levy.MarkDistribution.discrete([1.0, 2.0, -0.5], [0.5, 0.3, 0.2])
        return levy.compound_poisson(rng.uniform(0.5, 2.0), mark)
    if pick == 3:
        return levy.gamma_law()
    measure = levy.LevyMeasure.atomic(rng.uniform(0.2, 2.0, size=3),
                                      rng.uniform(0.2, 1.0, size=3))
    return levy.spectrally_positive(measure)


def check_quadratic_identity(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = np.triu(rng.uniform(0.0, 1.0, size=(n, n)))
        b = corr.a_to_b(a)
        theta = rng.normal(size=n)
        lhs = theta @ b @ theta
        _, weights, spans = corr.block_spans(theta, a)
        rhs = float(spans[0] ** 2 @ weights)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst, worst <= 1e-10


def check_ab_roundtrip(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = np.triu(rng.uniform(0.0, 1.0, size=(n, n)))
        b = corr.a_to_b(a)
        a_back = corr.b_to_a(b)
        worst = max(worst, float(np.abs(a_back - a).max()))
        b_back = corr.a_to_b(corr.b_to_a(b))
        worst = max(worst, float(np.abs(b_back - b).max()))
    return worst, worst <= 1e-12


def check_drift_identity(rng):
    worst = 0.0
    for _ in range(50):
        grid = _random_grid(rng)
        a = corr.weights(_random_structure(rng), grid)
        theta = rng.normal(size=a.shape[0])
        _, weights, spans = corr.block_spans(theta, a)
        lhs = float(spans[0] @ weights)
        worst = max(worst, abs(lhs - theta.sum()))
    return worst, worst <= 1e-10


def check_column_mass(rng):
    worst = 0.0
    for _ in range(50):
        grid = _random_grid(rng)
        # b[k,k] = sum_{i<=k<=j} a[i,j], the mass on column k
        mass = np.diag(corr.a_to_b(corr.weights(_random_structure(rng), grid)))
        worst = max(worst, float(np.abs(mass - 1.0).max()))
    return worst, worst <= 1e-10


def check_consistency(rng):
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng, n=int(rng.integers(2, 7)))
        proc = fidi.CoverageProcess(_random_law(rng), _random_structure(rng))
        theta = rng.normal(size=len(grid))
        k = int(rng.integers(0, len(grid)))
        lhs, rhs = proc.consistency_check(grid, theta, k)
        worst = max(worst, abs(lhs - rhs))
    return worst, worst <= 1e-10


def check_weight_equivalence(rng):
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng)
        mu = rng.uniform(0.2, 3.0)
        direct = onoff.espc_weights(mu, grid)
        generic = corr.weights(corr.exponential_structure(mu), grid)
        worst = max(worst, float(np.abs(direct - generic).max()))
    return worst, worst <= 1e-12


def check_paired_exponent_identity(rng):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(5):
            grid = _random_grid(rng, n=m)
            theta = rng.normal(size=m)
            lhs, rhs = onoff.algebraic_identity_check(
                m, theta, grid, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            worst = max(worst, abs(lhs - rhs))
    return worst, worst <= 1e-10


def check_increment_moment_bounds(rng):
    violations = 0
    margin = np.inf
    for _ in range(100):
        src = onoff.OnOffSource(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0),
                                rng.uniform(0.1, 3.0))
        u = rng.uniform(0.0, 2.0)
        t = u + rng.uniform(0.01, 2.0)
        s = t + rng.uniform(0.01, 2.0)
        for closed, bound in onoff.increment_moment_forms(src, u, t, s).values():
            margin = min(margin, bound - closed)
            if closed > bound + 1e-12:
                violations += 1
    return margin, violations == 0


def check_gaussian_reduction(rng):
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng)
        beta, sigma2 = rng.normal(), rng.uniform(0.3, 2.0)
        structure = _random_structure(rng)
        proc = fidi.CoverageProcess(levy.gaussian(beta, sigma2), structure)
        theta = rng.normal(size=len(grid))
        t = grid.t
        cov = sigma2 * (1.0 - structure.eval(np.abs(t[None, :] - t[:, None])))
        direct = np.exp(1j * beta * theta.sum() - 0.5 * theta @ cov @ theta)
        worst = max(worst, abs(np.exp(proc.log_cf(grid, theta)) - direct))
    return worst, worst <= 1e-12


def check_gamma_increment_cf(rng):
    worst = 0.0
    proc_pool = [
        fidi.CoverageProcess(levy.gamma_law(), corr.exponential_structure(1.0)),
        fidi.CoverageProcess(levy.gamma_law(), corr.power_structure(0.5)),
    ]
    for proc in proc_pool:
        for h in (0.1, 0.5, 1.0, 3.0):
            for theta in (-2.0, -0.5, 0.5, 1.0, 2.0):
                H = proc.structure.eval(h)
                direct = (1.0 / (1.0 + theta**2)) ** H
                worst = max(worst, abs(proc.increment_cf(h, theta) - direct))
    return worst, worst <= 1e-12


def check_marginal_invariance(rng):
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng)
        law = _random_law(rng)
        proc = fidi.CoverageProcess(law, _random_structure(rng))
        k = int(rng.integers(0, len(grid)))
        val = float(rng.normal())
        theta = np.zeros(len(grid))
        theta[k] = val
        worst = max(worst, abs(proc.log_cf(grid, theta) - law.eval(val)))
    return worst, worst <= 1e-12


def check_superposition_closure(rng):
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng)
        theta = rng.normal(size=len(grid))
        c = rng.uniform(0.3, 2.0)
        h1, h2 = _random_structure(rng), _random_structure(rng)
        mix = corr.mixture_structure([(1.0 / (1.0 + c), h1), (c / (1.0 + c), h2)])
        rho = rng.uniform(0.5, 2.0)
        lhs = (fidi.CoverageProcess(levy.poisson(rho), h1).log_cf(grid, theta)
               + fidi.CoverageProcess(levy.poisson(c * rho), h2).log_cf(grid, theta))
        rhs = fidi.CoverageProcess(levy.poisson((1.0 + c) * rho), mix).log_cf(grid, theta)
        worst = max(worst, abs(lhs - rhs))
        beta, sigma2 = rng.normal(), rng.uniform(0.3, 2.0)
        lhs = (fidi.CoverageProcess(levy.gaussian(beta, sigma2), h1).log_cf(grid, theta)
               + fidi.CoverageProcess(levy.gaussian(c * beta, c * sigma2), h2).log_cf(grid, theta))
        rhs = fidi.CoverageProcess(
            levy.gaussian((1.0 + c) * beta, (1.0 + c) * sigma2), mix).log_cf(grid, theta)
        worst = max(worst, abs(lhs - rhs))
    return worst, worst <= 1e-12


_CHECKS = [
    ("quadratic-identity", check_quadratic_identity),
    ("ab-roundtrip", check_ab_roundtrip),
    ("drift-identity", check_drift_identity),
    ("column-mass", check_column_mass),
    ("consistency", check_consistency),
    ("weight-equivalence", check_weight_equivalence),
    ("paired-exponent-identity", check_paired_exponent_identity),
    ("increment-moment-bounds", check_increment_moment_bounds),
    ("gaussian-reduction", check_gaussian_reduction),
    ("gamma-increment-cf", check_gamma_increment_cf),
    ("marginal-invariance", check_marginal_invariance),
    ("superposition-closure", check_superposition_closure),
]


def run_all(seed=_SEED):
    results = []
    for idx, (name, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng((seed, idx))
        worst, ok = fn(rng)
        results.append(CheckResult(name=name, ok=bool(ok),
                                   detail=f"worst deviation {worst:.3e}"))
    return results
