"""Two-state Markov sources, superposition arrays, and their jump limit.

One source alternates OFF -> ON at rate lam and ON -> OFF at rate mu,
emitting at intensity r while ON.  The stationary chance of ON is
pi = lam/(lam+mu) and the transition matrix over a gap t mixes the
stationary projector with e^{-(lam+mu)t} times the complementary one.
Joint ON-indicator moments over ordered epochs factor over the gaps:

    E[xi(t_1) ... xi(t_k)] = pi * prod_i ( e^{-a d_i} + pi (1 - e^{-a d_i}) )

with a = lam+mu and d_i the consecutive gaps.  Everything in this module
rides on that product: exact skeleton simulation, exact finite-row joint
CFs, the remainder bookkeeping of the row-sum expansion, and the
verification that a row ensemble with vanishing individual rates converges
to the spectrally positive law with exponential correlation read off from
the row's empirical jump measure.

Skeleton sampling is exact either way it runs.  In the rows that matter
pi -> 0, so a row whose largest pi is at most _SPARSE_MAX_PI keeps only its
ON set: the start and each gap's OFF -> ON switches are placed by geometric
skipping at the row's largest chance and thinned to each source's own, and
ON sources stay with one uniform each; the cost per rep and epoch is
O(n max p01 + |ON|).  Other rows draw one uniform per source, epoch and
rep.  The constant is the measured crossover of the two paths; the choice
depends only on the row's rates, never on reps, batch or threads, and
OnOffSource.simulate_path takes it too, as a one-source row.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import corr, fidi, levy, rng as rngmod, stats
from .errors import BoundViolationError, PreconditionError

_BLOCK_ELEMENTS = 5_000_000
_SUBSET_CAP = 12
# rows with max pi at most this draw sparsely (_sparse_row_paths); the
# measured crossover of the two paths lies between 0.13 and 0.16
_SPARSE_MAX_PI = 0.15


def _epochs(grid):
    """Accept a TimeGrid or any strictly increasing 1-d array-like."""
    return (grid if isinstance(grid, corr.TimeGrid) else corr.TimeGrid(grid)).t


def _on_probs(lam, mu, gap):
    """(p01, p11): chance of ON after a gap from OFF and from ON.

    p01 = pi (1 - e^{-a gap}) and p11 = pi + (1 - pi) e^{-a gap}, with
    a = lam + mu and pi = lam / a; scalars or broadcastable arrays.
    """
    alpha = lam + mu
    pi = lam / alpha
    decay = np.exp(-alpha * gap)
    return pi * (1.0 - decay), pi + (1.0 - pi) * decay


def row_batch(n):
    """Replications per batch for a row of n sources: at most
    _BLOCK_ELEMENTS source states in one sampler block."""
    return max(1, min(rngmod.DEFAULT_BATCH, _BLOCK_ELEMENTS // max(n, 1)))


def _row_paths(lam, mu, r, t, rng, reps):
    """Summed exact skeleton paths of independent sources, (reps, len(t)).

    Rows whose largest stationary ON chance is at most _SPARSE_MAX_PI go to
    _sparse_row_paths.  Other rows draw densely: one stationary-start
    uniform per source, then one per source per gap.
    """
    pi = lam / (lam + mu)
    if pi.max() <= _SPARSE_MAX_PI:
        return _sparse_row_paths(pi, lam, mu, r, t, rng, reps)
    out = np.empty((reps, t.size))
    state = rng.random((reps, r.size)) < pi
    out[:, 0] = state @ r
    for k in range(1, t.size):
        p01, p11 = _on_probs(lam, mu, t[k] - t[k - 1])
        state = rng.random((reps, r.size)) < np.where(state, p11, p01)
        out[:, k] = state @ r
    return out


def _bernoulli_set(p, size, rng):
    """Sorted flat positions in [0, size) that are each present independently,
    position f with chance p[f % len(p)].

    Geometric skipping at max(p) (Batagelj & Brandes, Phys. Rev. E 71, 2005)
    proposes positions; each proposal is kept with chance p / max(p), one
    uniform each, unless p is constant (Devroye 1986, thinning).
    """
    top = p.max()
    parts, last = [np.empty(0, dtype=np.int64)], -1
    while last < size - 1:
        expect = (size - 1 - last) * top
        # 4 standard deviations over the expected count: one draw nearly always ends the loop
        gaps = rng.geometric(top, int(expect + 4.0 * np.sqrt(expect)) + 16)
        parts.append(last + np.cumsum(gaps))
        last = parts[-1][-1]
    pos = np.concatenate(parts)
    pos = pos[:np.searchsorted(pos, size)]
    if p.min() < top:
        pos = pos[rng.random(pos.size) * top < p[pos % p.size]]
    return pos


def _sparse_row_paths(pi, lam, mu, r, t, rng, reps):
    """_row_paths for rows where few sources are ON, same law.

    The block keeps only its ON set, sorted flat indices rep * n + j.  The
    start set is _bernoulli_set at pi.  Over each gap every ON position
    stays with chance p11 (one uniform each), and OFF -> ON candidates
    are _bernoulli_set at p01; a candidate that is already ON is dropped.
    Cost per rep and epoch is O(n max p01 + |ON|), not O(n).
    """
    n = r.size
    out = np.empty((reps, t.size))
    on = _bernoulli_set(pi, reps * n, rng)
    for k in range(t.size):
        if k:
            p01, p11 = _on_probs(lam, mu, t[k] - t[k - 1])
            stay = on[rng.random(on.size) < p11[on % n]]
            fresh = _bernoulli_set(p01, reps * n, rng)
            hit = np.searchsorted(on, fresh)
            fresh = fresh[on[np.minimum(hit, on.size - 1)] != fresh] if on.size else fresh
            on = np.sort(np.concatenate([stay, fresh]))
        out[:, k] = np.bincount(on // n, weights=r[on % n], minlength=reps)
    return out


@dataclass(frozen=True)
class OnOffSource:
    lam: float
    mu: float
    r: float

    def __post_init__(self):
        if min(self.lam, self.mu, self.r) <= 0:
            raise PreconditionError("lam, mu, r must all be positive")

    @property
    def pi(self):
        return self.lam / (self.lam + self.mu)

    @property
    def alpha(self):
        return self.lam + self.mu

    def transition_matrix(self, t):
        """P(t) over states (OFF, ON); exact two-state chain solution."""
        if t < 0:
            raise PreconditionError("t must be nonnegative")
        p01, p11 = _on_probs(self.lam, self.mu, t)
        return np.array([[1.0 - p01, p01], [1.0 - p11, p11]])

    def joint_on_moment(self, epochs):
        """E[xi(t_1)...xi(t_k)] for ordered epochs; xi the ON indicator."""
        if np.size(epochs) == 0:
            return 1.0
        _, p11 = _on_probs(self.lam, self.mu, np.diff(_epochs(epochs)))
        return float(self.pi * np.prod(p11))

    def joint_log_cf(self, grid, theta):
        """Exact joint log CF of (zeta(t_1), ..., zeta(t_m)) by chain algebra."""
        theta = np.asarray(theta, dtype=float)
        pi = self.pi
        w = np.array([1.0 - pi, pi], dtype=complex)
        t = _epochs(grid)
        for k in range(t.size):
            w[1] *= np.exp(1j * theta[k] * self.r)
            if k + 1 < t.size:
                w = w @ self.transition_matrix(t[k + 1] - t[k])
        return complex(np.log(w.sum()))

    def simulate_path(self, grid, rng, size=None):
        """Draw zeta at the grid epochs exactly (stationary start, exact
        gap transitions; no path discretization)."""
        out = _row_paths(np.array([self.lam]), self.mu, np.array([self.r]),
                         _epochs(grid), rng, 1 if size is None else int(size))
        return out[0] if size is None else out


class OnOffArraySpec:
    """A triangular array of source parameters with a common ON rate mu.

    kind "power_example": row n holds lam_nj = n^{-alpha_exp} and
    r_nj = b^(j * n^{-alpha_exp}), j = 1..n, for alpha_exp, b in (0, 1).
    kind "explicit": rows supplied directly as {n: [(lam, r), ...]}.
    """

    def __init__(self, kind, mu, *, alpha_exp=None, b=None, rows=None):
        if mu <= 0:
            raise PreconditionError("mu must be positive")
        self.kind, self.mu = kind, float(mu)
        if kind == "power_example":
            if alpha_exp is None or not 0.0 < alpha_exp < 1.0:
                raise PreconditionError("power_example needs alpha_exp in (0,1)")
            if b is None or not 0.0 < b < 1.0:
                raise PreconditionError("power_example needs b in (0,1)")
            self.alpha_exp, self.b = float(alpha_exp), float(b)
        elif kind == "explicit":
            if not rows:
                raise PreconditionError("explicit spec needs rows")
            clean = {}
            for n, params in rows.items():
                n = int(n)
                if len(params) != n:
                    raise PreconditionError(f"row {n} must list exactly {n} sources")
                lam = np.array([p[0] for p in params], dtype=float)
                r = np.array([p[1] for p in params], dtype=float)
                if (lam <= 0).any() or (r <= 0).any():
                    raise PreconditionError("all lam_nj, r_nj must be positive")
                clean[n] = (lam, r)
            self.rows = clean
        else:
            raise PreconditionError(f"unknown array kind {kind!r}")

    def row(self, n):
        """(lam, r) parameter vectors for row n."""
        n = int(n)
        if self.kind == "power_example":
            lam = np.full(n, float(n) ** (-self.alpha_exp))
            j = np.arange(1, n + 1)
            r = self.b ** (j * float(n) ** (-self.alpha_exp))
            return lam, r
        if n not in self.rows:
            raise PreconditionError(f"row {n} not defined in explicit spec")
        return self.rows[n]

    def sources(self, n):
        lam, r = self.row(n)
        return [OnOffSource(float(l), self.mu, float(rr)) for l, rr in zip(lam, r)]


@dataclass
class EmpiricalLevyMeasure:
    """Row jump measure: sum_j lam_j * delta(r_j)."""

    lam: np.ndarray
    r: np.ndarray

    def tail(self, x):
        return float(self.lam[self.r >= x].sum())

    def first_moment_tail(self, x):
        keep = self.r >= x
        return float((self.lam[keep] * self.r[keep]).sum())

    def moment_sum(self, p):
        return float((self.lam * self.r**p).sum())

    def small_jump_first_moment(self, eps):
        keep = self.r <= eps
        return float((self.lam[keep] * self.r[keep]).sum())


def row_measure(spec, n):
    lam, r = spec.row(n)
    return EmpiricalLevyMeasure(lam=lam, r=r)


# ---- superposition sampling and exact row CFs --------------------------

def superpose(spec, n, grid, rng, reps=None):
    """Row sums X_n(t_k) = sum_j zeta_nj(t_k) over independent sources.

    Exact skeleton sampling per source in blocks of row_batch(n) reps,
    sparse (ON sets by geometric skipping and thinning) when the row's
    largest pi is at most _SPARSE_MAX_PI and dense otherwise; (len(grid),)
    for reps=None else (reps, len(grid)).
    """
    lam, r = spec.row(n)
    t = _epochs(grid)
    total = 1 if reps is None else int(reps)
    block = row_batch(n)
    out = np.empty((total, t.size))
    for lo in range(0, total, block):
        out[lo:lo + block] = _row_paths(lam, spec.mu, r, t, rng, min(block, total - lo))
    return out[0] if reps is None else out


def row_joint_log_cf(spec, n, grid, thetas):
    """Exact log CF of the row sum, product of per-source chain CFs.

    thetas may be one vector (m,) or a stack (M, m); complex scalar or (M,).
    """
    lam, r = spec.row(n)
    t = _epochs(grid)
    m = t.size
    thetas = np.asarray(thetas, dtype=float)
    single = thetas.ndim == 1
    th = np.atleast_2d(thetas)
    if th.shape[1] != m:
        raise PreconditionError("theta length must match the grid")
    pi = lam / (lam + spec.mu)
    # w has shape (M, n, 2): chain state weights per theta row and source
    w = np.empty((th.shape[0], n, 2), dtype=complex)
    w[:, :, 0] = 1.0 - pi
    w[:, :, 1] = pi
    for k in range(m):
        w[:, :, 1] *= np.exp(1j * np.multiply.outer(th[:, k], r))
        if k + 1 < m:
            p01, p11 = _on_probs(lam, spec.mu, t[k + 1] - t[k])
            w0 = w[:, :, 0] * (1.0 - p01) + w[:, :, 1] * (1.0 - p11)
            w1 = w[:, :, 0] * p01 + w[:, :, 1] * p11
            w[:, :, 0], w[:, :, 1] = w0, w1
    per_source = w.sum(axis=2)
    out = np.log(per_source).sum(axis=1)
    return complex(out[0]) if single else out


def uan_check(spec, n, theta_grid):
    """Largest single-source CF deviation versus the 2 max(lam)/mu bound."""
    lam, r = spec.row(n)
    pi = lam / (lam + spec.mu)
    theta_grid = np.asarray(theta_grid, dtype=float)
    dev = pi[None, :] * np.abs(np.exp(1j * np.multiply.outer(theta_grid, r)) - 1.0)
    worst = float(dev.max())
    bound = 2.0 * float(lam.max()) / spec.mu
    return {"max_dev": worst, "bound": bound, "ok": worst <= bound + 1e-12}


def c2_small_jump_sum(spec, n, eps):
    """sum_j E[zeta_nj 1(zeta_nj <= eps)] = sum_j pi_nj r_nj 1(r_nj <= eps)."""
    lam, r = spec.row(n)
    pi = lam / (lam + spec.mu)
    keep = r <= eps
    return float((pi[keep] * r[keep]).sum())


# ---- limit law ----------------------------------------------------------

def limit_exponent(nu, mu):
    """Spectrally positive law with measure nu/mu (the row-sum limit law)."""
    if mu <= 0:
        raise PreconditionError("mu must be positive")
    return levy.spectrally_positive(nu.scale(1.0 / mu))


def espc_weights(mu, grid):
    """Product-form weights of the exponential structure, assembled directly:
    (1 - e^{-mu(t_j - t_{j-1})}) e^{-mu(t_k - t_j)} (1 - e^{-mu(t_{k+1} - t_k)})
    with boundary factors 1."""
    t = _epochs(grid)
    gaps = -np.expm1(-mu * np.diff(t))
    left = np.concatenate([[1.0], gaps])
    right = np.concatenate([gaps, [1.0]])
    decay = np.exp(-mu * np.maximum(t[None, :] - t[:, None], 0.0))
    return np.triu(left[:, None] * decay * right[None, :])


def espc_log_cf(nu, mu, grid, theta):
    """Joint log CF of the limit process: spectrally positive law, memoryless
    correlation at rate mu."""
    proc = fidi.CoverageProcess(limit_exponent(nu, mu), corr.exponential_structure(mu))
    return proc.log_cf(grid, theta)


# ---- assumption bookkeeping ---------------------------------------------

def check_assumptions(spec, n_list, x_probe, eps_list, nu, rtol_tail=0.02):
    """Numerical health report of a source array against a limit measure.

    Evaluates, per row n: the largest individual rate, small-jump first
    moments at each eps, the p-th moment sums for p = 1..4, and tail /
    first-moment-tail values at each probe point, comparing the last row
    against the limit measure's values.  Report only; nothing raises.
    """
    n_list = sorted(int(n) for n in n_list)
    x_probe = [float(x) for x in x_probe]
    eps_list = sorted(float(e) for e in eps_list)
    max_lam = []
    small_jump = {e: [] for e in eps_list}
    moment_sums = {p: [] for p in (1, 2, 3, 4)}
    tails = {x: [] for x in x_probe}
    fm_tails = {x: [] for x in x_probe}
    for n in n_list:
        m = row_measure(spec, n)
        max_lam.append(float(m.lam.max()))
        for e in eps_list:
            small_jump[e].append(m.small_jump_first_moment(e))
        for p in moment_sums:
            moment_sums[p].append(m.moment_sum(p))
        for x in x_probe:
            tails[x].append(m.tail(x))
            fm_tails[x].append(m.first_moment_tail(x))
    nu_tail = {x: nu.tail(x) for x in x_probe}
    nu_fm_tail = {x: nu.first_moment_tail(x) for x in x_probe}
    nu_moments = {q: nu.moment(q) for q in (1, 2)}

    def _rel(obs, ref):
        return abs(obs - ref) / max(abs(ref), 1e-300)

    report = {
        "n": n_list,
        "A1": {
            "max_lambda": max_lam,
            "pass": all(b <= a + 1e-15 for a, b in zip(max_lam, max_lam[1:]))
            and max_lam[-1] < max_lam[0],
        },
        "A2": {
            "eps": eps_list,
            "sums": {e: small_jump[e] for e in eps_list},
            # decreasing in eps at the largest row is the checkable trace of
            # the eps -> 0 limit being 0
            "pass": all(
                small_jump[a][-1] <= small_jump[b][-1] + 1e-15
                for a, b in zip(eps_list, eps_list[1:])
            ),
        },
        "A3": {
            "p": list(moment_sums),
            "sup_sums": {p: max(v) for p, v in moment_sums.items()},
            "sums": moment_sums,
            "pass": all(np.isfinite(max(v)) for v in moment_sums.values()),
        },
        "A4": {
            "x": x_probe,
            "rows": tails,
            "limit": nu_tail,
            "rel_err": {x: _rel(tails[x][-1], nu_tail[x]) for x in x_probe},
        },
        "A5": {
            "moments": nu_moments,
            "pass": all(np.isfinite(v) for v in nu_moments.values()),
        },
        "A6": {
            "x": x_probe,
            "rows": fm_tails,
            "limit": nu_fm_tail,
            "rel_err": {x: _rel(fm_tails[x][-1], nu_fm_tail[x]) for x in x_probe},
        },
    }
    report["A4"]["pass"] = all(v <= rtol_tail for v in report["A4"]["rel_err"].values())
    report["A6"]["pass"] = all(v <= rtol_tail for v in report["A6"]["rel_err"].values())
    report["pass"] = all(report[k]["pass"] for k in ("A1", "A2", "A3", "A4", "A5", "A6"))
    return report


# ---- convergence to the limit law ---------------------------------------

def convergence_study(spec, nu, mu, grid, theta_vectors, n_list, n_reps, seed,
                      threads=1):
    """Empirical joint CF of row sums against the limit CF, per row size.

    Returns a report with, for each n: sup and rms CF distances over the
    theta vectors, plus the analytic bias (exact finite-n CF vs limit CF,
    no Monte Carlo in it) so sampling noise and true bias can be told
    apart.  The Monte-Carlo allowance 4/sqrt(N) is included.
    """
    theta_vectors = np.asarray(theta_vectors, dtype=float)
    limit_vals = np.exp(espc_log_cf(nu, mu, grid, theta_vectors))
    rows = []
    for idx, n in enumerate(n_list):
        n = int(n)
        exact_vals = np.exp(row_joint_log_cf(spec, n, grid, theta_vectors))
        bias = float(np.abs(exact_vals - limit_vals).max())
        samples = rngmod.run_batched(
            lambda rng, count, _n=n: superpose(spec, _n, grid, rng, reps=count),
            n_reps, seed, stream=idx, batch=row_batch(n), threads=threads,
        )
        emp = stats.empirical_cf(samples, theta_vectors)
        sup, l2 = stats.cf_distance(emp, limit_vals)
        rows.append({"n": n, "sup": sup, "l2": l2, "analytic_bias": bias})
    return {
        "rows": rows,
        "mc_allowance": 4.0 / np.sqrt(n_reps),
        "n_reps": int(n_reps),
        "theta_count": int(theta_vectors.shape[0]),
    }


# ---- closed-form increment moments and their bounds ----------------------

def _pair_product(lam, mu, r, d1, d2):
    """E[(z_t - z_u)^2 (z_s - z_t)^2] with d1 = t-u, d2 = s-t, exact;
    scalars or arrays of source parameters."""
    a = lam + mu
    return lam * mu * r**4 / a**2 * -np.expm1(-a * d1) * -np.expm1(-a * d2)


def _pair_square(lam, mu, r, d):
    """E[(z_t - z_u)^2] with d = t-u, exact; scalars or arrays."""
    a = lam + mu
    return 2.0 * lam * mu * r**2 / a**2 * -np.expm1(-a * d)


def increment_moment_forms(src, u, t, s):
    """Closed forms and bounds for the three two-increment moments."""
    if not u < t < s:
        raise PreconditionError("need u < t < s")
    d1, d2 = t - u, s - t
    q1 = _pair_product(src.lam, src.mu, src.r, d1, d2)
    q2 = q1 / src.r**2          # |E[(z_u - z_t)(z_t - z_s)]|, Jensen is tight here
    q3 = _pair_square(src.lam, src.mu, src.r, d1)
    lm = src.lam * src.mu
    return {
        "product_sq": (q1, src.r**4 * lm * (s - u) ** 2 / 4.0),
        "cross_abs": (q2, src.r**2 * lm * (s - u) ** 2 / 4.0),
        "increment_sq": (q3, 2.0 * lm * src.r**2 * d1 / src.alpha),
    }


def increment_bound_check(src, t_triples, n_reps, rng):
    """Closed-form and Monte-Carlo increment moments against their bounds.

    Raises BoundViolationError if a closed form exceeds its bound, or if a
    Monte-Carlo estimate exceeds closed form or bound beyond 4 standard
    errors.  Returns the per-triple report.
    """
    rows = []
    for (u, t, s) in t_triples:
        forms = increment_moment_forms(src, u, t, s)
        path = src.simulate_path(corr.TimeGrid((u, t, s)), rng, size=n_reps)
        d1 = path[:, 1] - path[:, 0]
        d2 = path[:, 2] - path[:, 1]
        mc = {}
        for name, vals in (
            ("product_sq", d1**2 * d2**2),
            ("cross_abs", -d1 * d2),   # closed form of E[(z_u-z_t)(z_t-z_s)] is +q2
            ("increment_sq", d1**2),
        ):
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(n_reps))
            mc[name] = (est, se)
        entry = {"triple": (u, t, s)}
        for name, (closed, bound) in forms.items():
            est, se = mc[name]
            entry[name] = {"closed": closed, "bound": bound, "mc": est, "stderr": se}
            if closed > bound + 1e-12:
                raise BoundViolationError(
                    f"closed form {name} exceeds its bound on triple {(u, t, s)}",
                    details=entry[name],
                )
            if abs(est) > bound + 4.0 * se or abs(est - closed) > 4.0 * se + 1e-12:
                raise BoundViolationError(
                    f"Monte-Carlo {name} off closed form/bound on triple {(u, t, s)}",
                    details=entry[name],
                )
        rows.append(entry)
    return {"triples": rows, "n_reps": int(n_reps)}


def row_increment_fourth_moment(spec, n, u, t, s):
    """Closed-form E[(X_n(t) - X_n(u))^2 (X_n(s) - X_n(t))^2] of a row sum.

    Independent zero-mean per-source increments, so the row moment is the
    per-source term plus the two pairing contractions across sources.
    """
    lam, r = spec.row(n)
    q1 = _pair_product(lam, spec.mu, r, t - u, s - t)
    a_ut = _pair_square(lam, spec.mu, r, t - u)
    a_ts = _pair_square(lam, spec.mu, r, s - t)
    cross = -q1 / r**2
    pair_sq = a_ut.sum() * a_ts.sum() - (a_ut * a_ts).sum()
    pair_cross = cross.sum() ** 2 - (cross**2).sum()
    return float(q1.sum() + pair_sq + 2.0 * pair_cross)


# ---- the paired-exponent identity ----------------------------------------

def algebraic_identity_check(m, theta, grid, alpha_rate, r):
    """Both sides of the subset-sum identity used to collapse a row CF.

    Left: over every ordered index subset of size >= 2, the decay across
    the subset's extremes times the product of its CF increments.  Right:
    the O(m^2) contiguous-block form, weights glued from the gap decays
    (boundary factors 1), minus the size-1 terms.  Returns (lhs, rhs).
    """
    if m < 2:
        raise PreconditionError("need m >= 2")
    if m > _SUBSET_CAP:
        raise PreconditionError(f"m capped at {_SUBSET_CAP} (2^m subsets)")
    theta = np.asarray(theta, dtype=float)
    t = _epochs(grid)
    if theta.size != m or t.size != m:
        raise PreconditionError("theta and grid must have length m")
    f = np.exp(1j * r * theta) - 1.0

    lhs = 0.0 + 0.0j
    for k in range(2, m + 1):
        for sub in combinations(range(m), k):
            lhs += np.exp(-alpha_rate * (t[sub[-1]] - t[sub[0]])) * np.prod(f[list(sub)])

    prefix = np.concatenate([[0.0], np.cumsum(theta)])
    rhs = -f.sum()
    for u in range(m):
        left = 1.0 if u == 0 else 1.0 - np.exp(-alpha_rate * (t[u] - t[u - 1]))
        for v in range(u, m):
            right = 1.0 if v == m - 1 else 1.0 - np.exp(-alpha_rate * (t[v + 1] - t[v]))
            w = left * np.exp(-alpha_rate * (t[v] - t[u])) * right
            rhs += (np.exp(1j * r * (prefix[v + 1] - prefix[u])) - 1.0) * w
    return complex(lhs), complex(rhs)


# ---- remainder bookkeeping of the row-sum CF expansion --------------------

def remainder_bound_check(sources, grid, theta_vectors=None, enforce_sign=True):
    """Joint-moment remainders L and CF remainders R for a list of sources.

    For each source and each epoch subset (size >= 2):
        L = E[prod xi(t_l)] - (lam/mu) e^{-mu (t_last - t_first)}
    and across a theta vector
        R = sum over subsets of L * prod (e^{i r theta_l} - 1)
            + (pi - lam/mu) * sum_l (e^{i r theta_l} - 1).

    Reports fitted M = max |L| / lam^2 and K = max |R| / (lam^2 r), log-log
    slopes of max|L| against lam and max|R| against lam and r (where the
    source list varies them), plus the diagnostic pi-based remainder
    E[prod xi] - pi e^{-mu D}, which is nonnegative for every gap pattern.
    With enforce_sign, the first negative L raises BoundViolationError.
    """
    t = _epochs(grid)
    m = t.size
    if m < 2:
        raise PreconditionError("need at least two epochs")
    if m > _SUBSET_CAP:
        raise PreconditionError(f"grid capped at {_SUBSET_CAP} epochs")
    if theta_vectors is None:
        theta_vectors = stats.theta_product_grid([[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]] * m) \
            if m <= 3 else np.eye(m)
    theta_vectors = np.atleast_2d(np.asarray(theta_vectors, dtype=float))
    subsets = [sub for k in range(2, m + 1) for sub in combinations(range(m), k)]
    per_source = []
    worst_negative = None
    for src in sources:
        ratio = src.lam / src.mu
        l_vals = np.empty(len(subsets))
        pi_vals = np.empty(len(subsets))
        for i, sub in enumerate(subsets):
            moment = src.joint_on_moment(t[list(sub)])
            span = t[sub[-1]] - t[sub[0]]
            l_vals[i] = moment - ratio * np.exp(-src.mu * span)
            pi_vals[i] = moment - src.pi * np.exp(-src.mu * span)
        fs = np.exp(1j * src.r * theta_vectors) - 1.0     # (M, m)
        r_vals = np.empty(theta_vectors.shape[0], dtype=complex)
        for q in range(theta_vectors.shape[0]):
            acc = (src.pi - ratio) * fs[q].sum()
            for i, sub in enumerate(subsets):
                acc += l_vals[i] * np.prod(fs[q, list(sub)])
            r_vals[q] = acc
        entry = {
            "lam": src.lam,
            "r": src.r,
            "min_L": float(l_vals.min()),
            "max_abs_L": float(np.abs(l_vals).max()),
            "min_pi_remainder": float(pi_vals.min()),
            "max_abs_R": float(np.abs(r_vals).max()),
        }
        per_source.append(entry)
        if entry["min_L"] < -1e-15 and (
            worst_negative is None or entry["min_L"] < worst_negative["min_L"]
        ):
            worst_negative = entry
    lam = np.array([e["lam"] for e in per_source])
    rr = np.array([e["r"] for e in per_source])
    max_l = np.array([e["max_abs_L"] for e in per_source])
    max_r = np.array([e["max_abs_R"] for e in per_source])
    report = {
        "sources": per_source,
        "fitted_M": float((max_l / lam**2).max()),
        "fitted_K": float((max_r / (lam**2 * rr)).max()),
        "min_L": float(min(e["min_L"] for e in per_source)),
        "min_pi_remainder": float(min(e["min_pi_remainder"] for e in per_source)),
        "sign_ok": worst_negative is None,
    }

    def _slope(x, y):
        keep = y > 0
        if np.unique(x[keep]).size < 3:
            return None
        return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])

    if np.unique(lam).size >= 3 and np.unique(rr).size == 1:
        report["slope_L_lambda"] = _slope(lam, max_l)
        report["slope_R_lambda"] = _slope(lam, max_r)
    if np.unique(rr).size >= 3 and np.unique(lam).size == 1:
        report["slope_R_r"] = _slope(rr, max_r)
    if enforce_sign and worst_negative is not None:
        raise BoundViolationError(
            "joint-moment remainder L is negative for lam="
            f"{worst_negative['lam']:g} (min L = {worst_negative['min_L']:.3e})",
            details=report,
        )
    return report
