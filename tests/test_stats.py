import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcp_hydro.fields import TestFunction, centered_field, fluctuation
from gcp_hydro.gcp import Simulation, replica_rng, sample_initial
from gcp_hydro.hydro import DensityField, ModelParams, integrate
from gcp_hydro.lattice import KernelSpec, TorusLattice, discretize
from gcp_hydro.stats import (gamma_field, initial_cov_vector,
                             normality_diagnostics, predicted_cov_mild,
                             predicted_variance_mild, rate_fit, terminal_datum)


def _params(n=8, k=1, a=1.0, kernel=None):
    lat = TorusLattice(1, n)
    return ModelParams(a, k, discretize(kernel or KernelSpec.constant(0.0), lat))


def _field(params, vec):
    return DensityField(params.lattice, params.k,
                        np.tile(np.asarray(vec, float), (params.lattice.n_sites, 1)))


def _random_field(params, rng, lo=0.05):
    u = rng.uniform(lo, 1.0, (params.lattice.n_sites, params.k + 1))
    u /= u.sum(axis=1, keepdims=True)
    return DensityField(params.lattice, params.k, u)


def _initial_cov_oracle(u0, f, g, i, j):
    """Closed form of the product-measure covariance: mean of f g u_i (delta_ij - u_j)."""
    ui, uj = u0.u[:, i], u0.u[:, j]
    fg = f.values_on(u0.lattice) * g.values_on(u0.lattice)
    return float(np.mean(fg * ui * ((i == j) - uj)))


def _predicted_cov(u0, params, marginals, t=0.0, h=0.01):
    """predicted_cov_mild of the pairings with f e_i for each (f, i)."""
    traj = integrate(u0, params, t, h=h)
    data = [terminal_datum(f, i, params.lattice, params.k) for f, i in marginals]
    return predicted_cov_mild(data, t, traj, params)


def _initial_cov(u0, params, f, g, i, j):
    return float(_predicted_cov(u0, params, [(f, i), (g, j)])[0, 1])


def test_gamma_worked_example():
    # k=2, a=1, u=(0.3,0.3,0.4), kernel average of u^2 equal to 0.5
    n = 4
    c = 0.5 / (0.4 * (n - 1) / n)  # constant kernel giving (J * u^2) = 0.5
    p = _params(n=n, k=2, a=1.0, kernel=KernelSpec.constant(c))
    u = _field(p, [0.3, 0.3, 0.4])
    conv = p.kernel.conv(u.u[:, 2])
    np.testing.assert_allclose(conv, 0.5, atol=1e-14)
    g = gamma_field(u, p)[0]
    np.testing.assert_allclose(g[2, 2], 0.55, atol=1e-12)
    np.testing.assert_allclose(g[0, 0], 0.55, atol=1e-12)
    np.testing.assert_allclose(g[1, 1], 0.30, atol=1e-12)
    np.testing.assert_allclose(g[0, 1], -0.15, atol=1e-12)
    np.testing.assert_allclose(g[1, 2], -0.15, atol=1e-12)
    np.testing.assert_allclose(g[2, 0], -0.40, atol=1e-12)
    np.testing.assert_allclose(g, g.T, atol=1e-15)
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


def test_gamma_zero_when_no_top_state_mass():
    p = _params(n=6, k=2, a=1.0, kernel=KernelSpec.cosine(0.5))
    u = _field(p, [0.5, 0.5, 0.0])
    assert np.max(np.abs(gamma_field(u, p))) == 0.0


def test_gamma_k1_off_diagonal_sums_both_contributions():
    p = _params(n=4, k=1, a=2.0, kernel=KernelSpec.constant(1.0))
    u = _field(p, [0.4, 0.6])
    conv = float(p.kernel.conv(u.u[:, 1])[0])
    g = gamma_field(u, p)[0]
    assert g[0, 1] == pytest.approx(-(2.0 * 0.6 + conv * 0.4), abs=1e-14)
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-14)


def test_gamma_matches_jump_rank_one_construction():
    # independent oracle: gamma = sum_i rho_i (e_{i+1} - e_i)(e_{i+1} - e_i)^T
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        p = _params(n=6, k=k, a=1.3, kernel=KernelSpec.cosine(0.5))
        u = _random_field(p, rng)
        conv = p.kernel.conv(u.u[:, k])
        expected = np.zeros((6, k + 1, k + 1))
        for i in range(k + 1):
            rho = (p.a if i == k else 1.0) * u.u[:, i] * (1.0 if i == k else conv)
            v = np.zeros(k + 1)
            v[(i + 1) % (k + 1)] += 1.0
            v[i] -= 1.0
            expected += rho[:, None, None] * np.outer(v, v)[None, :, :]
        np.testing.assert_allclose(gamma_field(u, p), expected, atol=1e-13)


def test_gamma_band_structure_and_psd():
    rng = np.random.default_rng(1)
    p = _params(n=5, k=3, a=1.0, kernel=KernelSpec.cosine(0.4))
    u = _random_field(p, rng)
    g = gamma_field(u, p)
    # zero outside the cyclic band |i-j| in {0, 1} mod k+1
    assert np.max(np.abs(g[:, 0, 2])) == 0.0
    assert np.max(np.abs(g[:, 1, 3])) == 0.0
    for _ in range(30):
        v = rng.normal(size=(5, 4))
        assert np.min(np.einsum("xij,xi,xj->x", g, v, v)) > -1e-10


def test_predicted_initial_cov_examples():
    p = _params(n=32, k=1)
    u = _field(p, [0.5, 0.5])
    one = TestFunction.constant()
    assert _initial_cov(u, p, one, one, 1, 1) == pytest.approx(0.25)
    p2 = _params(n=32, k=2)
    u2 = _field(p2, [0.5, 0.5, 0.0])
    assert _initial_cov(u2, p2, one, one, 2, 0) == 0.0
    # mixed pair: -mean(f g u^i u^j)
    f, g = TestFunction.cos_mode(1), TestFunction.cos_mode(1)
    expected = -0.25 * np.mean(f.values_on(p.lattice) ** 2)
    assert _initial_cov(u, p, f, g, 0, 1) == pytest.approx(expected, abs=1e-14)


def test_predicted_initial_cov_monte_carlo():
    n, reps = 64, 3000
    p = _params(n=n, k=1)
    u = _field(p, [0.6, 0.4])
    f = TestFunction.cos_mode(1)
    xs = np.empty((reps, 2))
    for r in range(reps):
        w = centered_field(sample_initial(u, replica_rng(51, r)), u)
        xs[r] = [fluctuation(w, f, 0), fluctuation(w, f, 1)]
    a = xs[:, 0] - xs[:, 0].mean()
    b = xs[:, 1] - xs[:, 1].mean()
    emp = float(np.mean(a * b))
    se = float(np.std(a * b, ddof=1) / math.sqrt(reps))
    assert abs(emp - _initial_cov(u, p, f, f, 0, 1)) < 4.0 * se


def test_initial_cov_vector_consistent_with_scalar():
    rng = np.random.default_rng(2)
    p = _params(n=16, k=2)
    u = _random_field(p, rng)
    f, g = TestFunction.cos_mode(1), TestFunction.sin_mode(1)
    for i in range(3):
        for j in range(3):
            gv = np.zeros((16, 3))
            hv = np.zeros((16, 3))
            gv[:, i] = f.values_on(p.lattice)
            hv[:, j] = g.values_on(p.lattice)
            assert initial_cov_vector(u, gv, hv) == pytest.approx(
                _initial_cov_oracle(u, f, g, i, j), abs=1e-13)


def test_predicted_variance_t0_reduces_to_initial_cov():
    p = _params(n=16, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    u0 = _field(p, [0.45, 0.55])
    traj = integrate(u0, p, 0.5, h=0.01)
    f = TestFunction.cos_mode(1)
    assert predicted_variance_mild(f, 1, 0.0, traj, p) == pytest.approx(
        _initial_cov_oracle(u0, f, f, 1, 1), abs=1e-14)


def test_predicted_cov_at_t0_is_the_initial_covariance():
    rng = np.random.default_rng(4)
    p = _params(n=16, k=2, kernel=KernelSpec.cosine(0.5))
    u0 = _random_field(p, rng)
    marginals = [(f, i) for f in (TestFunction.constant(), TestFunction.cos_mode(1),
                                  TestFunction.sin_mode(1)) for i in range(3)]
    cov = _predicted_cov(u0, p, marginals)
    expected = [[_initial_cov_oracle(u0, f, g, i, j) for g, j in marginals]
                for f, i in marginals]
    np.testing.assert_allclose(cov, expected, rtol=0.0, atol=1e-15)


def test_predicted_cov_is_symmetric_polarized_and_extends_the_variance():
    p = _params(n=16, k=2, a=1.2, kernel=KernelSpec.cosine(0.5))
    u0 = _random_field(p, np.random.default_rng(5))
    t = 0.3
    traj = integrate(u0, p, t, h=0.01)
    rng = np.random.default_rng(6)
    F, G = rng.normal(size=(2, 16, 3))
    cov = predicted_cov_mild([F, G, F + G, F - G], t, traj, p)
    assert np.array_equal(cov, cov.T)
    assert cov[0, 1] == pytest.approx((cov[2, 2] - cov[3, 3]) / 4.0, abs=1e-12)
    assert np.all(np.linalg.eigvalsh(cov[:2, :2]) > 0.0)
    fns = [(TestFunction.cos_mode(1), 0), (TestFunction.sin_mode(1), 2),
           (TestFunction.constant(), 1)]
    diag = np.diag(_predicted_cov(u0, p, fns, t=t))
    for (f, i), d in zip(fns, diag):
        assert d == pytest.approx(predicted_variance_mild(f, i, t, traj, p), rel=1e-15)


def test_predicted_variance_two_state_closed_form():
    # decoupled decay: occupation stays Bernoulli(p_t) with p_t = u1(0) e^{-a t}
    a, t = 1.0, 0.5
    p = _params(n=64, k=1, a=a)
    u0 = _field(p, [0.5, 0.5])
    traj = integrate(u0, p, t, h=1e-3)
    pt = 0.5 * math.exp(-a * t)
    pred = predicted_variance_mild(TestFunction.constant(), 1, t, traj, p)
    assert pred == pytest.approx(pt * (1.0 - pt), abs=1e-6)


def test_predicted_variance_grid_refinement_continuity():
    p = _params(n=32, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    u0 = _field(p, [0.55, 0.45])
    f = TestFunction.constant()
    vals = []
    for h in (0.02, 0.01):
        traj = integrate(u0, p, 0.5, h=h)
        vals.append(predicted_variance_mild(f, 1, 0.5, traj, p))
    assert abs(vals[0] - vals[1]) < 5e-5


def test_predicted_variance_matches_simulator_nonconstant_f():
    # empirical fluctuation covariances of cos, sin and constant test
    # functions at state 1, checked against the backward-flow prediction
    from gcp_hydro.lattice import discretize
    n, t, reps = 64, 0.4, 1500
    lat = TorusLattice(1, n)
    p = ModelParams(1.0, 1, discretize(KernelSpec.cosine(0.5), lat))
    u0 = DensityField(lat, 1, np.tile([0.55, 0.45], (n, 1))
                      + 0.1 * np.outer(np.cos(2 * np.pi * np.arange(n) / n), [-1.0, 1.0]))
    traj = integrate(u0, p, t, h=0.005)
    fns = [TestFunction.cos_mode(1), TestFunction.sin_mode(1), TestFunction.constant()]
    pred = predicted_cov_mild([terminal_datum(f, 1, lat, 1) for f in fns], t, traj, p)
    u_t = traj.final()
    snap = Simulation(u0, p, 61, reps).simulate_until([t])[0]
    w = centered_field(snap.config, u_t)
    centered = [xs - xs.mean() for xs in (fluctuation(w, f, 1) for f in fns)]
    for a in range(3):
        for b in range(a, 3):
            prod = centered[a] * centered[b]
            emp = float(prod.sum() / (reps - 1))
            se = math.sqrt(max(np.mean(prod ** 2) - np.mean(prod) ** 2, 0.0) / reps)
            assert abs(emp - pred[a, b]) < 4.0 * se, (a, b, emp, pred[a, b], se)


def test_rate_fit_exact_and_errors():
    fit1 = rate_fit([(n, 5.0 / n) for n in (8, 16, 32, 64)])
    assert fit1.slope == pytest.approx(-1.0, abs=1e-12)
    fit2 = rate_fit([(n, 3.0 / n ** 2) for n in (8, 16, 32, 64)])
    assert fit2.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit2.slope_se < 1e-12
    with pytest.raises(ValueError, match="at least 3"):
        rate_fit([(8, 1.0), (16, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        rate_fit([(8, 1.0), (16, 0.0), (32, 0.1)])


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 31 - 1))
def test_rate_fit_noisy_slope_recovery(seed):
    rng = np.random.default_rng(seed)
    ns = np.array([16, 32, 64, 128, 256])
    errs = (1.0 / ns) * (1.0 + 0.05 * rng.standard_normal(len(ns)))
    fit = rate_fit(list(zip(ns, errs)))
    assert -1.15 < fit.slope < -0.85


def test_normality_diagnostics_gaussian_and_exponential():
    rng = np.random.default_rng(3)
    mom = normality_diagnostics(rng.standard_normal(5000))
    assert abs(mom.skewness) < 0.15
    assert abs(mom.excess_kurtosis) < 0.3
    assert mom.skewness_se == pytest.approx(math.sqrt(6.0 / 5000), rel=0.5)
    qm = normality_diagnostics(rng.exponential(size=5000))
    assert qm.skewness > 1.5
    assert mom.std_error == pytest.approx(math.sqrt(mom.variance / 5000))


def test_normality_diagnostics_degenerate_and_short():
    with pytest.raises(ValueError, match="zero variance"):
        normality_diagnostics(np.ones(600))
    with pytest.raises(ValueError, match="at least 500"):
        normality_diagnostics(np.ones(10))
