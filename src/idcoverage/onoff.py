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
ON set, placed by geometric skipping.  Over a gap d every OFF -> ON
candidate, drawn at p01 for each source, is ON, and so is each ON source
kept with chance q = e^{-a d} / (1 - p01), so that it stays ON with
p01 + (1 - p01) q = p11; the cost per rep and epoch is O(n max p01 + |ON|).
Other rows draw one uniform per source, epoch and rep.  The choice depends
only on the row's rates, never on reps, batch or threads, and
OnOffSource.simulate_path takes it too, as a one-source row.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import corr, fidi, levy, rng as rngmod, stats
from .errors import BoundViolationError, PreconditionError, count, finite

_BLOCK_ELEMENTS = 5_000_000
_SUBSET_CAP = 12
# rows with max pi at most this draw sparsely (_sparse_row_paths); below 1/3,
# where rng.geometric stops inverting.  Sparse/dense time of a 5e6-state block
# (n = 1000) at pi = 0.1 to 0.3 by 0.05: 0.52 0.71 0.84 1.02 1.25 on epochs
# [0, 1], 0.28 0.45 0.67 0.84 1.08 on [0, 0.5, 1, 2] (2 cores, numpy 2.4.6)
_SPARSE_MAX_PI = 0.2


def _on_probs(lam, mu, gap):
    """(p01, p11): chance of ON after a gap from OFF and from ON.

    p01 = pi (1 - e^{-a gap}) and p11 = pi + (1 - pi) e^{-a gap}, with
    a = lam + mu and pi = lam / a; scalars or broadcastable arrays.
    """
    alpha = lam + mu
    pi = lam / alpha
    decay = np.exp(-alpha * gap)
    return pi * (1.0 - decay), pi + (1.0 - pi) * decay


def _union_probs(lam, mu, gap):
    """(p01, q) over a gap for the sparse path's union rule (module docstring)."""
    alpha = lam + mu
    decay = np.exp(-alpha * gap)
    p01 = lam / alpha * (1.0 - decay)
    return p01, decay / (1.0 - p01)


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


def _bernoulli_set(p, size, rng, index):
    """Sorted flat positions in [0, size), of integer dtype index, each present
    independently, position f with chance p[f % len(p)]; max(p) < 1/3.

    Geometric skipping at max(p) (Batagelj & Brandes, Phys. Rev. E 71, 2005)
    proposes positions; each proposal is kept with chance p / max(p), one
    uniform each, unless p is constant (Devroye 1986, thinning).  The gaps
    ceil(E / -log1p(-max p)), E standard exponential, are rng.geometric's
    draws bit for bit (numpy's inversion for p < 1/3).  Clamped at size + 1,
    which ends the set from any start, and summed in float64, exact below
    2^53, they never wrap.
    """
    top = p.max()
    parts, last, scale = [np.empty(0, dtype=index)], -1.0, -np.log1p(-top)
    while top > 0.0 and last < size - 1:    # no set at p = 0 (p01 over a vanishing gap)
        expect = (size - 1 - last) * top
        # 4 standard deviations over the expected count: one draw nearly always ends the loop
        gaps = np.ceil(rng.standard_exponential(int(expect + 4.0 * np.sqrt(expect)) + 16) / scale)
        pos = last + np.cumsum(np.minimum(gaps, size + 1))
        parts.append(pos[:np.searchsorted(pos, size)].astype(index))
        last = pos[-1]
    pos = np.concatenate(parts)
    if p.min() < top:     # compress and take: faster than a mask or an int32 index
        pos = pos.compress(rng.random(pos.size) * top < p.take(pos % p.size))
    return pos


def _sparse_row_paths(pi, lam, mu, r, t, rng, reps):
    """_row_paths for rows where few sources are ON, same law.

    The block keeps only its ON set, sorted flat indices rep * n + j, int32
    when reps * n fits.  The start set is _bernoulli_set at pi.  Over a gap
    each ON position is kept with chance q = e^{-a gap} / (1 - p01), one
    uniform each, every _bernoulli_set candidate at p01 is ON, and the new
    set is the sorted merge of the two with repeats dropped.
    """
    n = r.size
    index = np.int32 if reps * n <= np.iinfo(np.int32).max else np.int64
    out = np.empty((reps, t.size))
    on = _bernoulli_set(pi, reps * n, rng, index)
    for k in range(t.size):
        if k:
            p01, q = _union_probs(lam, mu, t[k] - t[k - 1])
            on = np.sort(np.concatenate([on.compress(rng.random(on.size) < q.take(src)),
                                         _bernoulli_set(p01, reps * n, rng, index)]))
            # a kept position that was also drawn as a candidate appears twice
            on = on.compress(np.r_[True, on[1:] != on[:-1]][:on.size])
        rep = on // n
        src = on - rep * n
        out[:, k] = np.bincount(rep, weights=r.take(src), minlength=reps)
    return out


@dataclass(frozen=True)
class OnOffSource:
    lam: float
    mu: float
    r: float

    def __post_init__(self):
        for name in ("lam", "mu", "r"):
            object.__setattr__(self, name, finite(getattr(self, name), name, "(0, inf)"))

    @property
    def pi(self):
        return self.lam / (self.lam + self.mu)

    @property
    def alpha(self):
        return self.lam + self.mu

    def transition_matrix(self, t):
        """P(t) over states (OFF, ON); exact two-state chain solution."""
        p01, p11 = _on_probs(self.lam, self.mu, finite(t, "t", "[0, inf)"))
        return np.array([[1.0 - p01, p01], [1.0 - p11, p11]])

    def joint_on_moment(self, epochs):
        """E[xi(t_1)...xi(t_k)] for ordered epochs; xi the ON indicator."""
        if np.size(epochs) == 0:
            return 1.0
        _, p11 = _on_probs(self.lam, self.mu, np.diff(corr.as_grid(epochs).t))
        return float(self.pi * np.prod(p11))

    def joint_log_cf(self, grid, theta):
        """Exact joint log CF of (zeta(t_1), ..., zeta(t_m)), a one-source
        _chain_log_cf."""
        return _chain_log_cf(np.array([self.lam]), self.mu, np.array([self.r]),
                             corr.as_grid(grid).t, theta)

    def simulate_path(self, grid, rng, size=None):
        """Draw zeta at the grid epochs exactly (stationary start, exact
        gap transitions; no path discretization)."""
        out = _row_paths(np.array([self.lam]), self.mu, np.array([self.r]),
                         corr.as_grid(grid).t, rng, 1 if size is None else count(size, "size"))
        return out[0] if size is None else out


class OnOffArraySpec:
    """A triangular array of source parameters with a common ON rate mu.

    kind "power_example": row n holds lam_nj = n^{-alpha_exp} and
    r_nj = b^(j * n^{-alpha_exp}), j = 1..n, for alpha_exp, b in (0, 1).
    kind "explicit": rows supplied directly as {n: [(lam, r), ...]}.
    """

    def __init__(self, kind, mu, *, alpha_exp=None, b=None, rows=None):
        self.kind, self.mu = kind, finite(mu, "mu", "(0, inf)")
        if kind == "power_example":
            self.alpha_exp = finite(alpha_exp, "alpha_exp", "(0, 1)")
            self.b = finite(b, "b", "(0, 1)")
        elif kind == "explicit":
            if not rows:
                raise PreconditionError("explicit spec needs rows")
            clean = {}
            for n, params in rows.items():
                n = int(n)
                if len(params) != n:
                    raise PreconditionError(f"row {n} must list exactly {n} sources")
                if any(len(p) != 2 for p in params):
                    raise PreconditionError(f"row {n}: each source must be a (lam, r) pair")
                clean[n] = (finite([p[0] for p in params], "lam", "(0, inf)", vector=True),
                            finite([p[1] for p in params], "r", "(0, inf)", vector=True))
            self.rows = clean
        else:
            raise PreconditionError(f"unknown array kind {kind!r}")

    def row(self, n):
        """(lam, r) parameter vectors for row n."""
        n = int(n)
        if self.kind == "power_example":
            lam = float(n) ** (-self.alpha_exp)
            return np.full(n, lam), self.b ** (np.arange(1, n + 1) * lam)
        if n not in self.rows:
            raise PreconditionError(f"row {n} not defined in explicit spec")
        return self.rows[n]

    def sources(self, n):
        lam, r = self.row(n)
        return [OnOffSource(float(l), self.mu, float(rr)) for l, rr in zip(lam, r)]


class EmpiricalLevyMeasure(levy.LevyMeasure):
    """Row jump measure sum_j lam_j * delta(r_j): the atomic LevyMeasure with
    atoms r and masses lam."""

    def __init__(self, lam, r):
        super().__init__("atomic", locations=r, masses=lam)

    lam = property(lambda self: self.masses)
    r = property(lambda self: self.locations)
    moment_sum = levy.LevyMeasure.moment

    def small_jump_first_moment(self, eps):
        """int_(0, eps] y d(measure), atoms at eps included."""
        return self._integral(1, 0.0, np.nextafter(eps, np.inf))


def row_measure(spec, n):
    lam, r = spec.row(n)
    return EmpiricalLevyMeasure(lam=lam, r=r)


# ---- superposition sampling and exact row CFs --------------------------

def superpose(spec, n, grid, rng, reps=None, *, row=None):
    """Row sums X_n(t_k) = sum_j zeta_nj(t_k) over independent sources.

    Exact skeleton sampling per source in blocks of row_batch(n) reps,
    sparse (ON sets only) when the row's largest pi is at most
    _SPARSE_MAX_PI and dense otherwise; (len(grid),) for reps=None else
    (reps, len(grid)).  row, if given, is spec.row(n) already looked up.
    """
    lam, r = spec.row(n) if row is None else row
    t = corr.as_grid(grid).t
    total = 1 if reps is None else count(reps, "reps")
    block = row_batch(n)
    out = np.empty((total, t.size))
    for lo in range(0, total, block):
        out[lo:lo + block] = _row_paths(lam, spec.mu, r, t, rng, min(block, total - lo))
    return out[0] if reps is None else out


def _chain_log_cf(lam, mu, r, t, thetas):
    """Exact joint log CF at epochs t of the summed independent sources: one
    forward pass of each source's two-state chain with CF weights.

    Sources run in blocks of at most levy._ATOM_CHUNK_ELEMENTS // M, and each
    block's sum of log CFs adds into an (M,) total, so memory does not grow
    with the row.  When the M theta rows form a product grid, in any order
    (stats._product_grid), the pass keeps one chain state per distinct prefix
    (theta_1, ..., theta_k) and builds e^{i theta_k r} once per distinct
    value: sum_k prod_{l<=k} q_l state rows instead of m M.  Other stacks
    carry every row through every epoch.

    thetas may be one vector (m,) or a stack (M, m); complex scalar or (M,).
    """
    thetas = np.asarray(thetas, dtype=float)
    single = thetas.ndim == 1
    th = np.atleast_2d(thetas)
    if th.shape[1] != t.size:
        raise PreconditionError("theta length must match the grid")
    grid = stats._product_grid(th)
    columns = th.T if grid is None else grid[0]
    pi = lam / (lam + mu)
    mu = np.broadcast_to(mu, lam.shape)
    total = np.zeros(th.shape[0], dtype=complex)
    block = max(1, levy._ATOM_CHUNK_ELEMENTS // max(th.shape[0], 1))
    for lo in range(0, r.size, block):
        part = slice(lo, lo + block)
        size = r[part].size
        # chain state weights (OFF, ON), one row per prefix or theta row
        w0, w1 = 1.0 - pi[None, part], pi[None, part]
        for k in range(t.size):
            factor = np.exp(1j * np.multiply.outer(columns[k], r[part]))
            if grid is None:
                w1 = w1 * factor
            else:
                # a child state per (prefix, value), prefix-major
                w0, w1 = w0[:, None], w1[:, None] * factor
            if k + 1 < t.size:
                p01, p11 = _on_probs(lam[part], mu[part], t[k + 1] - t[k])
                w0, w1 = ((w0 * (1.0 - p01) + w1 * (1.0 - p11)).reshape(-1, size),
                          (w0 * p01 + w1 * p11).reshape(-1, size))
        z = w0 + w1
        # log|z| + i arg z is the principal log, several times faster than
        # complex np.log and within a few ulp of it per term
        total += (np.log(np.abs(z)).sum(axis=-1) + 1j * np.angle(z).sum(axis=-1)).reshape(-1)
    out = total if grid is None else total[grid[1]]
    return complex(out[0]) if single else out


def row_joint_log_cf(spec, n, grid, thetas):
    """Exact log CF of the row sum: _chain_log_cf over the row's sources."""
    lam, r = spec.row(n)
    return _chain_log_cf(lam, spec.mu, r, corr.as_grid(grid).t, thetas)


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
    return levy.spectrally_positive(nu.scale(1.0 / finite(mu, "mu", "(0, inf)")))


def espc_weights(mu, grid):
    """Product-form weights of the exponential structure, assembled directly:
    (1 - e^{-mu(t_j - t_{j-1})}) e^{-mu(t_k - t_j)} (1 - e^{-mu(t_{k+1} - t_k)})
    with boundary factors 1."""
    t = corr.as_grid(grid).t
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
    against the limit measure's values.  A1 needs two distinct row sizes;
    with fewer its pass is None, and the top-level pass is taken over the
    assumptions whose pass is not None.  Report only; nothing raises.
    """
    n_list = sorted(int(n) for n in n_list)
    x_probe = [float(x) for x in x_probe]
    eps_list = sorted(float(e) for e in eps_list)
    rows = [row_measure(spec, n) for n in n_list]
    max_lam = [float(m.lam.max()) for m in rows]
    small_jump = {e: [m.small_jump_first_moment(e) for m in rows] for e in eps_list}
    moment_sums = {p: [m.moment(p) for m in rows] for p in (1, 2, 3, 4)}
    nu_moments = {q: nu.moment(q) for q in (1, 2)}

    def _tails(name):
        """A4 (tail) or A6 (first_moment_tail): each row and the limit at the
        probes, and the last row's relative error."""
        got = {x: [getattr(m, name)(x) for m in rows] for x in x_probe}
        limit = {x: getattr(nu, name)(x) for x in x_probe}
        rel = {x: abs(got[x][-1] - limit[x]) / max(abs(limit[x]), 1e-300) for x in x_probe}
        return {"x": x_probe, "rows": got, "limit": limit, "rel_err": rel,
                "pass": all(v <= rtol_tail for v in rel.values())}

    report = {
        "n": n_list,
        "A1": {
            "max_lambda": max_lam,
            "pass": (all(b <= a + 1e-15 for a, b in zip(max_lam, max_lam[1:]))
                     and max_lam[-1] < max_lam[0]) if len(set(n_list)) > 1 else None,
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
        "A4": _tails("tail"),
        "A5": {
            "moments": nu_moments,
            "pass": all(np.isfinite(v) for v in nu_moments.values()),
        },
        "A6": _tails("first_moment_tail"),
    }
    if report["A1"]["pass"] is None:
        report["A1"]["note"] = "one row size cannot show a decreasing largest rate"
    report["pass"] = all(report[k]["pass"] for k in ("A1", "A2", "A3", "A4", "A5", "A6")
                         if report[k]["pass"] is not None)
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
    # every row is looked up once, before the first draw, and handed to its batches
    params = [(int(n), spec.row(n)) for n in n_list]
    theta_vectors = np.asarray(theta_vectors, dtype=float)
    limit_vals = np.exp(espc_log_cf(nu, mu, grid, theta_vectors))
    rows = []
    for idx, (n, row) in enumerate(params):
        exact_vals = np.exp(row_joint_log_cf(spec, n, grid, theta_vectors))
        bias = float(np.abs(exact_vals - limit_vals).max())
        samples = rngmod.run_batched(
            lambda rng, count, _n=n, _row=row: superpose(spec, _n, grid, rng, count, row=_row),
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
        path = src.simulate_path((u, t, s), rng, size=n_reps)
        d1 = path[:, 1] - path[:, 0]
        d2 = path[:, 2] - path[:, 1]
        vals = {"product_sq": d1**2 * d2**2,
                "cross_abs": -d1 * d2,   # closed form of E[(z_u-z_t)(z_t-z_s)] is +q2
                "increment_sq": d1**2}
        entry = {"triple": (u, t, s)}
        for name, (closed, bound) in forms.items():
            est = float(vals[name].mean())
            se = float(vals[name].std(ddof=1) / np.sqrt(n_reps))
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
    the O(m^2) contiguous-block form weighted by espc_weights(alpha_rate),
    minus the size-1 terms.  Returns (lhs, rhs).
    """
    if m < 2:
        raise PreconditionError("need m >= 2")
    if m > _SUBSET_CAP:
        raise PreconditionError(f"m capped at {_SUBSET_CAP} (2^m subsets)")
    theta = np.asarray(theta, dtype=float)
    t = corr.as_grid(grid).t
    if theta.size != m or t.size != m:
        raise PreconditionError("theta and grid must have length m")
    f = np.exp(1j * r * theta) - 1.0

    lhs = 0.0 + 0.0j
    for k in range(2, m + 1):
        for sub in combinations(range(m), k):
            lhs += np.exp(-alpha_rate * (t[sub[-1]] - t[sub[0]])) * np.prod(f[list(sub)])

    _, (ii, jj), spans = corr.block_spans(theta, m)
    weights = espc_weights(alpha_rate, t)[ii, jj]
    rhs = np.sum((np.exp(1j * r * spans[0]) - 1.0) * weights) - f.sum()
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
    With enforce_sign, a negative L raises BoundViolationError naming the
    source whose L is lowest.
    """
    t = corr.as_grid(grid).t
    m = t.size
    if m < 2:
        raise PreconditionError("need at least two epochs")
    if m > _SUBSET_CAP:
        raise PreconditionError(f"grid capped at {_SUBSET_CAP} epochs")
    if theta_vectors is None:
        theta_vectors = stats.theta_product_grid([[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]] * m) \
            if m <= 3 else np.eye(m)
    theta_vectors = np.atleast_2d(np.asarray(theta_vectors, dtype=float))
    sources = list(sources)
    subsets = [sub for k in range(2, m + 1) for sub in combinations(range(m), k)]
    # member[i, g]: epoch g is in subset i; prev[i, g]: the member before a
    # later member g, else -1.  Arrays run over (sources, subsets) and
    # (sources, theta rows, subsets); factors enter in epoch order.
    member = np.zeros((len(subsets), m), dtype=bool)
    prev = np.full((len(subsets), m), -1)
    for i, sub in enumerate(subsets):
        member[i, list(sub)] = True
        prev[i, list(sub[1:])] = sub[:-1]
    later = prev >= 0
    span = t[[sub[-1] for sub in subsets]] - t[[sub[0] for sub in subsets]]
    lam, mu, rr = (np.array([getattr(src, k) for src in sources], dtype=float)
                   for k in ("lam", "mu", "r"))
    pi, ratio = lam / (lam + mu), lam / mu
    _, p11 = _on_probs(lam[:, None, None], mu[:, None, None],
                       np.where(later, t - t[np.maximum(prev, 0)], 0.0))
    moment = pi[:, None] * np.where(later, p11, 1.0).prod(axis=2)
    decay = np.exp(-mu[:, None] * span)
    l_vals = moment - ratio[:, None] * decay
    pi_vals = moment - pi[:, None] * decay
    fs = np.exp(1j * rr[:, None, None] * theta_vectors) - 1.0
    prods = np.ones((rr.size, theta_vectors.shape[0], len(subsets)), dtype=complex)
    for g in range(m):
        prods *= np.where(member[:, g], fs[:, :, g, None], 1.0)
    r_vals = (pi - ratio)[:, None] * fs.sum(axis=2) + (l_vals[:, None, :] * prods).sum(axis=2)
    min_l, max_l = l_vals.min(axis=1), np.abs(l_vals).max(axis=1)
    max_r = np.abs(r_vals).max(axis=1)
    per_source = [{"lam": src.lam, "r": src.r, "min_L": float(a), "max_abs_L": float(b),
                   "min_pi_remainder": float(c), "max_abs_R": float(d)}
                  for src, a, b, c, d in zip(sources, min_l, max_l, pi_vals.min(axis=1), max_r)]
    worst = per_source[int(min_l.argmin())]
    report = {
        "sources": per_source,
        "fitted_M": float((max_l / lam**2).max()),
        "fitted_K": float((max_r / (lam**2 * rr)).max()),
        "min_L": float(min_l.min()),
        "min_pi_remainder": float(pi_vals.min()),
        "sign_ok": not min_l.min() < -1e-15,
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
    if enforce_sign and not report["sign_ok"]:
        raise BoundViolationError(
            "joint-moment remainder L is negative for lam="
            f"{worst['lam']:g} (min L = {worst['min_L']:.3e})",
            details=report,
        )
    return report
