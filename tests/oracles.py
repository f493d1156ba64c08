"""Per-state oracles for the exact-law engine (``gcp_hydro.entropy``).

No run calls these: each reads one configuration, or the enumeration's digit
table, in the plainest form, so that the tests can hold the vectorized
operators and functionals against them.
"""

import numpy as np

from gcp_hydro.entropy import StateSpace, _g_table, _law_matrix, _site_digit_sums
from gcp_hydro.hydro import DensityField, ModelParams


def index_of(space: StateSpace, sigma) -> int:
    """The index sum_x sigma_x (k+1)^x of a configuration."""
    sigma = np.asarray(sigma, dtype=np.int64)
    return int((sigma * space.strides).sum())


def config_of(space: StateSpace, index) -> np.ndarray:
    """The configuration at an index, a row of the digit table."""
    return space.digits[int(index)].astype(np.int16)


def shift_permutation(space: StateSpace, offset) -> np.ndarray:
    """perm[s] = index of the configuration translated by the lattice offset."""
    site_perm = space.lattice.shift_permutation(offset)
    # translated config at site_perm[x] equals original at x
    new_strides = space.strides[site_perm]
    return (space.digits.astype(np.int64) @ new_strides).astype(np.int64)


def profile_prob(sigma, u: DensityField) -> float:
    """Product probability of one configuration under the per-site marginals."""
    sigma = np.asarray(sigma, dtype=np.int64)
    factors = u.u[np.arange(len(sigma)), sigma]
    if np.any(factors <= 0.0):
        raise ValueError("configuration hits a zero marginal; positive profiles "
                         "are required here")
    return float(np.prod(factors))


def site_state_marginals(law, space: StateSpace) -> np.ndarray:
    """(N, k+1) matrix of P(sigma_x = i) under the given law, read from the
    row and column sums of the law's matrix (``_law_matrix``)."""
    _, rows, cols = _law_matrix(law, space)
    return _site_digit_sums(cols, rows, space)


def F_closed(sigma, u: DensityField, params: ModelParams) -> float:
    """Closed form: sum_x (sum_i g_x^i w_x^i) (J^n * w^k)_x."""
    uu = u.u
    if np.min(uu) <= 0.0:
        raise ValueError("closed-form production needs strictly positive marginals")
    sigma = np.asarray(sigma, dtype=np.int64)
    n_sites = len(sigma)
    g = _g_table(u)
    wk = (sigma == u.k).astype(float) - uu[:, u.k]
    gw = g[np.arange(n_sites), sigma] - np.sum(g * uu, axis=1)
    return float(np.sum(gw * params.kernel.conv(wk)))


def F_direct(sigma, u: DensityField, dudt, params: ModelParams) -> float:
    """First-principles production: adjoint applied to 1 minus d/dt log mu."""
    uu = u.u
    if np.min(uu) <= 0.0:
        raise ValueError("production functional needs strictly positive marginals")
    sigma = np.asarray(sigma, dtype=np.int64)
    n_sites = len(sigma)
    k = params.k
    sites = np.arange(n_sites)
    active = (sigma == k).astype(float)
    inten = params.kernel.conv(active)
    ratio = uu[sites, (sigma - 1) % (k + 1)] / uu[sites, sigma]
    birth = (params.a * (sigma == 0) + inten * (sigma != 0)) * ratio
    death = params.a * (sigma == k) + inten * (sigma != k)
    log_deriv = np.asarray(dudt)[sites, sigma] / uu[sites, sigma]
    return float(np.sum(birth - death - log_deriv))


def F_direct_all(space: StateSpace, u: DensityField, dudt, params: ModelParams) -> np.ndarray:
    """Vectorized first-principles production over the whole enumeration."""
    uu = u.u
    n_sites = space.lattice.n_sites
    k = params.k
    J = params.kernel.matrix
    active = (space.digits == k).astype(float)
    inten = active @ (J.T / n_sites)
    dudt = np.asarray(dudt)
    out = np.zeros(space.size)
    for x in range(n_sites):
        digit = space.digits[:, x].astype(np.int64)
        ratio = uu[x, (digit - 1) % (k + 1)] / uu[x, digit]
        birth = (params.a * (digit == 0) + inten[:, x] * (digit != 0)) * ratio
        death = params.a * (digit == k) + inten[:, x] * (digit != k)
        out += birth - death - dudt[x, digit] / uu[x, digit]
    return out
