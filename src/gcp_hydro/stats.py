"""Noise covariance tables, predicted fluctuation variances, and Monte Carlo
summaries.

The per-site covariance matrix gamma_x collects the jump-driven quadratic
variation of the fluctuation field: every jump moves one unit of occupation
between cyclically adjacent states, which fixes the tridiagonal-plus-corner
band structure and zero row sums.  Predicted variances propagate the initial
covariance through the adjoint flow and accumulate the gamma form along the
trajectory; one polarized form gives every covariance of a set of pairings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hydro import DensityField, ModelParams, Trajectory, backward_fp, grid_index

RATE_FIT_MIN_POINTS = 3       # a log-log fit with a residual
NORMALITY_MIN_SAMPLES = 500   # skewness and kurtosis need many samples


def gamma_field(u: DensityField, params: ModelParams) -> np.ndarray:
    """Per-site symmetric (k+1, k+1) covariance tables, shape (N, k+1, k+1).

    Entries follow the jump bookkeeping: the top state feeds the recovery
    rate a, every lower state feeds the kernel intensity; for k = 1 the two
    adjacency clauses target the same off-diagonal entry and add up.
    """
    u.validate()
    k = u.k
    uu = u.u
    conv = params.kernel.conv(uu[:, k])
    n = uu.shape[0]
    g = np.zeros((n, k + 1, k + 1))
    g[:, k, k] = params.a * uu[:, k] + conv * uu[:, k - 1]
    g[:, 0, 0] = params.a * uu[:, k] + conv * uu[:, 0]
    for i in range(1, k):
        g[:, i, i] = conv * (uu[:, i - 1] + uu[:, i])
    for i in range(k + 1):
        j = (i + 1) % (k + 1)
        val = -params.a * uu[:, k] if i == k else -conv * uu[:, i]
        g[:, i, j] += val
        g[:, j, i] += val
    return g


def initial_cov_vector(u0, gvec, hvec) -> float:
    """Initial covariance extended bilinearly to per-site vector test data."""
    uu = u0.u if isinstance(u0, DensityField) else np.asarray(u0)
    gu = np.sum(gvec * uu, axis=1)
    hu = np.sum(hvec * uu, axis=1)
    return float(np.mean(np.sum(gvec * hvec * uu, axis=1) - gu * hu))


def terminal_datum(f, i, lattice, k) -> np.ndarray:
    """The per-site vector datum f e_i, shape (N, k+1)."""
    datum = np.zeros((lattice.n_sites, k + 1))
    datum[:, i] = f.values_on(lattice)
    return datum


def predicted_cov_mild(terminals, t, u_traj: Trajectory, params: ModelParams) -> np.ndarray:
    """(M, M) covariance of the time-t fluctuation pairings with M terminal data.

    Each datum, shape (N, k+1), is carried back to time zero by the adjoint
    flow.  Entry (a, b) is the initial covariance of the transported pair
    plus the trapezoid of <gamma_s g_a, g_b> along the trajectory, with one
    gamma table per grid time.  Only a <= b is computed and mirrored, so the
    matrix is exactly symmetric; at t = 0 it is the initial covariance.
    """
    idx = grid_index(u_traj.times, t)
    sub = Trajectory(u_traj.lattice, u_traj.k, u_traj.times[:idx + 1],
                     u_traj.u[:idx + 1])
    flows = [backward_fp(datum, sub, params).g for datum in terminals]
    pairs = list(itertools.combinations_with_replacement(range(len(flows)), 2))
    q = np.empty((len(pairs), idx + 1))
    for m, um in enumerate(sub.u):
        gam = gamma_field(DensityField(sub.lattice, sub.k, um), params)
        for p, (a, b) in enumerate(pairs):
            q[p, m] = np.mean(np.einsum("xij,xi,xj->x", gam, flows[a][m], flows[b][m]))
    noise = np.trapezoid(q, dx=sub.step, axis=-1)
    cov = np.empty((len(flows), len(flows)))
    for p, (a, b) in enumerate(pairs):
        cov[a, b] = cov[b, a] = initial_cov_vector(sub.u[0], flows[a][0], flows[b][0]) + noise[p]
    return cov


def predicted_variance_mild(f, i, t, u_traj: Trajectory, params: ModelParams) -> float:
    """Variance of the time-t fluctuation pairing with f e_i: one diagonal entry."""
    return float(predicted_cov_mild([terminal_datum(f, i, u_traj.lattice, u_traj.k)],
                                    t, u_traj, params)[0, 0])


@dataclass
class RateFit:
    """Ordinary least squares of log error against log size."""

    log_n: np.ndarray
    log_error: np.ndarray
    slope: float
    intercept: float
    slope_se: float


def rate_fit(pairs) -> RateFit:
    pairs = list(pairs)
    if len(pairs) < RATE_FIT_MIN_POINTS:
        raise ValueError(f"rate fit needs at least {RATE_FIT_MIN_POINTS} (n, error) points")
    n = np.array([float(p[0]) for p in pairs])
    e = np.array([float(p[1]) for p in pairs])
    if np.any(e <= 0.0):
        raise ValueError("rate fit needs strictly positive errors")
    x, y = np.log(n), np.log(e)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(pairs) - 2, 1)
    slope_se = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return RateFit(x, y, slope, intercept, slope_se)


@dataclass
class McSummary:
    """Moment summary of one scalar Monte Carlo observable."""

    n_replicas: int
    mean: float
    variance: float
    std_error: float
    skewness: float
    excess_kurtosis: float
    skewness_se: float
    kurtosis_se: float


def _moment_stats(s1, s2, s3, s4, n):
    """Skewness and excess kurtosis from raw power sums (vectorized)."""
    mean = s1 / n
    m2 = s2 / n - mean ** 2
    m3 = s3 / n - 3.0 * mean * s2 / n + 2.0 * mean ** 3
    m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean ** 2 * s2 / n - 3.0 * mean ** 4
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2 - 3.0
    return skew, kurt


def normality_diagnostics(samples) -> McSummary:
    """Sample moments with jackknife standard errors for the shape statistics."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < NORMALITY_MIN_SAMPLES:
        raise ValueError(f"normality diagnostics need at least {NORMALITY_MIN_SAMPLES} samples")
    var = float(np.var(x, ddof=1))
    if var <= 0.0:
        raise ValueError("degenerate samples: zero variance")
    s1, s2, s3, s4 = (np.sum(x ** p) for p in (1, 2, 3, 4))
    skew, kurt = _moment_stats(s1, s2, s3, s4, n)
    # leave-one-out statistics from the same power sums
    skew_i, kurt_i = _moment_stats(s1 - x, s2 - x ** 2, s3 - x ** 3, s4 - x ** 4, n - 1)
    jack = (n - 1) / n
    skew_se = float(np.sqrt(jack * np.sum((skew_i - skew_i.mean()) ** 2)))
    kurt_se = float(np.sqrt(jack * np.sum((kurt_i - kurt_i.mean()) ** 2)))
    return McSummary(n, float(np.mean(x)), var, float(np.sqrt(var / n)),
                     float(skew), float(kurt), skew_se, kurt_se)
