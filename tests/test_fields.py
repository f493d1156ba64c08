import math

import numpy as np
import pytest

from gcp_hydro.entropy import StateSpace
from gcp_hydro.fields import (TestFunction, carre_du_champ, centered_field,
                              fluctuation, lln_error)
from gcp_hydro.gcp import SpinConfig, rates_from_scratch, replica_rng, sample_initial
from gcp_hydro.hydro import DensityField, ModelParams
from gcp_hydro.lattice import KernelSpec, TorusLattice, discretize
from oracles import config_of


def _params(n=8, k=1, a=1.0, kernel=None):
    lat = TorusLattice(1, n)
    return ModelParams(a, k, discretize(kernel or KernelSpec.constant(1.0), lat))


def _field(params, vec):
    return DensityField(params.lattice, params.k,
                        np.tile(np.asarray(vec, float), (params.lattice.n_sites, 1)))


def test_test_function_catalog_norms():
    lat = TorusLattice(1, 32)
    assert np.all(TestFunction.constant().values_on(lat) == 1.0)
    assert np.max(np.abs(TestFunction.cos_mode(2).values_on(lat))) == 1.0
    cos = TestFunction.cos_mode(1).values_on(lat)
    np.testing.assert_allclose(cos, np.cos(2 * np.pi * np.arange(32) / 32), atol=1e-14)
    bump = TestFunction.bump(center=0.5, width=0.3)
    vals = bump.values_on(lat)
    assert vals.max() <= 1.0 and vals[16] == pytest.approx(1.0)
    tab = TestFunction.tabulated([1.0, -3.0, 2.0])
    assert np.array_equal(tab.values_on(TorusLattice(1, 3)), [1.0, -3.0, 2.0])
    with pytest.raises(ValueError, match="does not match lattice"):
        tab.values_on(lat)


def test_discrete_l2_norm():
    lat = TorusLattice(1, 64)
    assert TestFunction.constant().norm_l2n(lat) == pytest.approx(1.0)
    assert TestFunction.cos_mode(1).norm_l2n(lat) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_centered_field_point_mass_sampling():
    p = _params(n=16, k=2)
    u0 = _field(p, [0.0, 1.0, 0.0])
    sigma = sample_initial(u0, replica_rng(0, 0))
    w = centered_field(sigma, u0)
    assert np.max(np.abs(w.w)) == 0.0


def test_centered_field_example_and_row_sums():
    p = _params(n=4, k=1)
    u = _field(p, [0.4, 0.6])
    sigma = SpinConfig(p.lattice, 1, np.array([1, 0, 1, 1], np.int16))
    w = centered_field(sigma, u)
    np.testing.assert_allclose(w.w[0], [-0.4, 0.4], atol=1e-15)
    np.testing.assert_allclose(w.w[1], [0.6, -0.6], atol=1e-15)
    assert np.max(np.abs(w.w.sum(axis=1))) == 0.0
    assert np.max(np.abs(w.w)) <= 1.0


def test_centered_field_shape_mismatch():
    p = _params(n=4, k=1)
    other = _params(n=8, k=1)
    sigma = SpinConfig(other.lattice, 1, np.zeros(8, np.int16))
    with pytest.raises(ValueError, match="different systems"):
        centered_field(sigma, _field(p, [0.5, 0.5]))


def test_lln_error_constant_function_identity():
    p = _params(n=16, k=2)
    rng = replica_rng(2, 0)
    u = rng.uniform(0.1, 1.0, (16, 3))
    u /= u.sum(axis=1, keepdims=True)
    uf = DensityField(p.lattice, 2, u)
    sigma = sample_initial(uf, rng)
    w = centered_field(sigma, uf)
    f1 = TestFunction.constant()
    for i in range(3):
        expected = np.mean(sigma.sigma == i) - np.mean(u[:, i])
        assert lln_error(w, f1, i) == pytest.approx(expected, abs=1e-14)
        assert abs(lln_error(w, f1, i)) <= 1.0


def test_fluctuation_scaling_relation():
    p = _params(n=64, k=1)
    uf = _field(p, [0.5, 0.5])
    sigma = sample_initial(uf, replica_rng(3, 0))
    w = centered_field(sigma, uf)
    f = TestFunction.cos_mode(1)
    assert fluctuation(w, f, 1) == pytest.approx(
        math.sqrt(64) * lln_error(w, f, 1), abs=1e-12)


def test_fluctuation_initial_variance_quarter():
    # constant u^1 = 0.5, f = 1: Var X = u(1-u) = 0.25
    n, reps = 64, 2000
    p = _params(n=n, k=1)
    uf = _field(p, [0.5, 0.5])
    f = TestFunction.constant()
    xs = np.empty(reps)
    for r in range(reps):
        w = centered_field(sample_initial(uf, replica_rng(4, r)), uf)
        xs[r] = fluctuation(w, f, 1)
    var = np.var(xs, ddof=1)
    se = 0.25 * math.sqrt(2.0 / (reps - 1))
    assert abs(var - 0.25) < 4.0 * se


def test_fluctuation_linear_in_f():
    p = _params(n=16, k=1)
    uf = _field(p, [0.4, 0.6])
    sigma = sample_initial(uf, replica_rng(5, 0))
    w = centered_field(sigma, uf)
    lat = p.lattice
    fa = TestFunction.cos_mode(1).values_on(lat)
    fb = TestFunction.sin_mode(1).values_on(lat)
    combo = TestFunction.tabulated(2.0 * fa - 0.5 * fb)
    lhs = fluctuation(w, combo, 1)
    rhs = (2.0 * fluctuation(w, TestFunction.tabulated(fa), 1)
           - 0.5 * fluctuation(w, TestFunction.tabulated(fb), 1))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_carre_du_champ_worked_example():
    # d=1, n=4, k=1, a=1.5, J=1, sigma=(1,0,0,1), f=1, i=j=1 -> 1.0
    p = _params(n=4, k=1, a=1.5, kernel=KernelSpec.constant(1.0))
    sigma = SpinConfig(p.lattice, 1, np.array([1, 0, 0, 1], np.int16))
    val = carre_du_champ(sigma, p, TestFunction.constant(), 1, 1)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_carre_du_champ_vanishes_without_touching_states():
    # no active site and sigma avoiding {i-1, i}: every term is zero
    p = _params(n=6, k=3, a=1.0, kernel=KernelSpec.constant(1.0))
    sigma = SpinConfig(p.lattice, 3, np.ones(6, np.int16))
    assert carre_du_champ(sigma, p, TestFunction.constant(), 3, 3) == 0.0


def test_carre_du_champ_diagonal_nonnegative():
    rng = replica_rng(6, 0)
    p = _params(n=12, k=2, a=1.1, kernel=KernelSpec.cosine(0.5))
    f = TestFunction.cos_mode(1)
    for _ in range(25):
        sigma = SpinConfig(p.lattice, 2, rng.integers(0, 3, 12).astype(np.int16))
        for i in range(3):
            assert carre_du_champ(sigma, p, f, i, i) >= 0.0


def test_carre_du_champ_polarization():
    rng = replica_rng(7, 0)
    p = _params(n=10, k=1, a=1.5, kernel=KernelSpec.cosine(0.7))
    lat = p.lattice
    fa = TestFunction.cos_mode(1).values_on(lat)
    fb = TestFunction.sin_mode(2).values_on(lat)
    for _ in range(20):
        sigma = SpinConfig(lat, 1, rng.integers(0, 2, 10).astype(np.int16))
        gsum = carre_du_champ(sigma, p, TestFunction.tabulated(fa + fb), 1, 1)
        ga = carre_du_champ(sigma, p, TestFunction.tabulated(fa), 1, 1)
        gb = carre_du_champ(sigma, p, TestFunction.tabulated(fb), 1, 1)
        # mixed form evaluated directly from the rates
        _, rate = rates_from_scratch(sigma, p)
        d1 = (sigma.sigma == 0).astype(float) - (sigma.sigma == 1)
        mixed = float(np.mean(rate * d1 * d1 * fa * fb))
        assert gsum - ga - gb == pytest.approx(2.0 * mixed, abs=1e-12)


@pytest.mark.parametrize("kernel", [KernelSpec.cosine(0.5), KernelSpec.gaussian(width=0.1)])
def test_carre_du_champ_of_a_stack_is_each_configurations(kernel):
    # qv-check evaluates the form on every configuration of the enumeration at once
    p = _params(n=5, k=2, a=1.2, kernel=kernel)
    space = StateSpace(p.lattice, 2)
    f = TestFunction.cos_mode(1)
    for i, j in ((0, 0), (1, 2), (2, 1), (2, 2)):
        stacked = carre_du_champ(SpinConfig(p.lattice, 2, space.digits), p, f, i, j)
        each = [carre_du_champ(SpinConfig(p.lattice, 2, config_of(space, s)), p, f, i, j)
                for s in range(space.size)]
        assert stacked.shape == (space.size,)
        assert np.max(np.abs(stacked - each)) <= 1e-15


def test_carre_du_champ_deterministic_bound():
    rng = replica_rng(8, 0)
    p = _params(n=16, k=2, a=1.3, kernel=KernelSpec.cosine(0.5))
    f = TestFunction.cos_mode(1)
    cap = (p.a + p.kernel.norm_inf) * f.norm_l2n(p.lattice) ** 2
    for _ in range(50):
        sigma = SpinConfig(p.lattice, 2, rng.integers(0, 3, 16).astype(np.int16))
        for i in range(3):
            assert abs(carre_du_champ(sigma, p, f, i, i)) <= cap + 1e-12
