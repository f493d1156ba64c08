import math
import tracemalloc

import numpy as np
import pytest

from gcp_hydro import entropy, hydro
from gcp_hydro.entropy import LawTrajectory, MasterOperator, StateSpace, law_steps, profile_law
from gcp_hydro.hydro import (DensityField, ModelParams,
                             backward_drift, backward_fp, build_A, build_M,
                             convergence_study, density_steps, drift, final_density,
                             integrate, profile_field, restrict)
from gcp_hydro.lattice import DiscreteKernel, KernelSpec, TorusLattice, discretize
from gcp_hydro.profiles import InitialProfile


def _params(n=8, k=1, a=1.0, kernel=None, d=1):
    lat = TorusLattice(d, n)
    spec = kernel or KernelSpec.constant(0.0)
    return ModelParams(a, k, discretize(spec, lat))


def _uniform_field(params, vec):
    vec = np.asarray(vec, dtype=float)
    return DensityField(params.lattice, params.k,
                        np.tile(vec, (params.lattice.n_sites, 1)))


def test_matrix_A_structure():
    A = build_A(2.5, 3)
    assert np.count_nonzero(A) == 2
    assert A[0, 3] == 2.5 and A[3, 3] == -2.5
    np.testing.assert_allclose(A.sum(axis=0), 0.0, atol=0.0)


def test_matrix_M_stencil():
    M = build_M(2)
    u = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(M @ u, [-0.5, 0.5 - 0.3, 0.3], atol=1e-15)
    np.testing.assert_allclose(M.sum(axis=0), 0.0, atol=0.0)


def test_drift_recovery_only():
    # J = 0, k=1, a=2, u=(0.3, 0.7): pure recovery action (1.4, -1.4)
    p = _params(n=4, k=1, a=2.0)
    u = _uniform_field(p, [0.3, 0.7])
    out = drift(u, p)
    np.testing.assert_allclose(out, np.tile([1.4, -1.4], (4, 1)), atol=1e-15)


def test_drift_sums_to_zero_per_site():
    rng = np.random.default_rng(0)
    p = _params(n=16, k=2, a=1.3, kernel=KernelSpec.cosine(0.5))
    u = rng.uniform(0.05, 1.0, (16, 3))
    u /= u.sum(axis=1, keepdims=True)
    out = drift(DensityField(p.lattice, 2, u), p)
    assert np.max(np.abs(out.sum(axis=1))) < 1e-12


def test_drift_translation_invariant_for_uniform_data():
    p = _params(n=12, k=2, a=0.7, kernel=KernelSpec.constant(1.5))
    u = _uniform_field(p, [0.2, 0.3, 0.5])
    out = drift(u, p)
    assert np.max(np.abs(out - out[0])) < 1e-14


def _per_site_drift(u, p):
    conv = p.kernel.conv(u[:, p.k].copy())
    return np.array([p.A @ ux + conv[x] * (p.M @ ux) for x, ux in enumerate(u)])


def _per_site_backward_drift(g, u, p):
    conv = p.kernel.conv(u[:, p.k].copy())
    adj = p.kernel.conv_adjoint(np.array([gx @ (p.M @ ux) for gx, ux in zip(g, u)]))
    top = np.eye(p.k + 1)[p.k]
    return np.array([-(p.A.T @ gx + conv[x] * (p.M.T @ gx) + adj[x] * top)
                     for x, gx in enumerate(g)])


@pytest.mark.parametrize("kernel", ["constant", "cosine", "gaussian"])
@pytest.mark.parametrize("d, n", [(1, 12), (2, 6)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_both_drifts_match_their_per_site_forms_in_either_layout(kernel, d, n, k):
    # the state-major rows must give the per-site algebra, and the same bytes
    # for a C-ordered and a Fortran-ordered copy of one field
    spec = KernelSpec.from_config({"name": kernel})
    p = _params(n=n, k=k, a=1.3, kernel=spec, d=d)
    rng = np.random.default_rng(k * n + d)
    u = rng.uniform(0.05, 1.0, (n ** d, k + 1))
    u /= u.sum(axis=1, keepdims=True)
    g = rng.normal(size=u.shape)
    cases = [(drift, (u,), _per_site_drift(u, p)),
             (backward_drift, (g, u), _per_site_backward_drift(g, u, p))]
    for rhs, fields, ref in cases:
        outs = [rhs(*(np.asarray(f, order=order) for f in fields), p) for order in "CF"]
        assert outs[0].shape == outs[1].shape == u.shape
        assert np.max(np.abs(outs[0] - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert (np.ascontiguousarray(outs[0]).tobytes()
                == np.ascontiguousarray(outs[1]).tobytes())


def test_integrate_exponential_decay():
    # J = 0, k=1: the top-state density decays as u1(0) e^{-a t}
    p = _params(n=4, k=1, a=1.0)
    traj = integrate(_uniform_field(p, [0.3, 0.7]), p, 1.0, h=1e-3)
    assert abs(traj.final().u[0, 1] - 0.7 * math.exp(-1.0)) < 1e-8


def _scalar_logistic_rk4(v0, a, cbar, t_end, h):
    """Independent scalar integrator for dv/dt = v(-a + cbar(1 - v))."""
    def f(v):
        return v * (-a + cbar * (1.0 - v))
    steps = int(round(t_end / h))
    v = v0
    for _ in range(steps):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def test_integrate_matches_scalar_logistic_reduction():
    n, c, a = 16, 2.0, 1.0
    p = _params(n=n, k=1, a=a, kernel=KernelSpec.constant(c))
    cbar = c * (n - 1) / n
    traj = integrate(_uniform_field(p, [0.7, 0.3]), p, 1.0, h=1e-3)
    ref = _scalar_logistic_rk4(0.3, a, cbar, 1.0, 1e-3)
    assert abs(traj.final().u[0, 1] - ref) < 1e-8


def test_logistic_long_time_fixed_point():
    n, c, a = 32, 2.0, 1.0
    p = _params(n=n, k=1, a=a, kernel=KernelSpec.constant(c))
    cbar = c * (n - 1) / n
    traj = integrate(_uniform_field(p, [0.7, 0.3]), p, 20.0, h=5e-3)
    assert abs(traj.final().u[0, 1] - (1.0 - a / cbar)) < 1e-6


def test_rk4_order_on_logistic():
    n, c, a = 8, 2.0, 1.0
    p = _params(n=n, k=1, a=a, kernel=KernelSpec.constant(c))
    u0 = _uniform_field(p, [0.7, 0.3])
    ref = integrate(u0, p, 1.0, h=1e-4).final().u[0, 1]
    e1 = abs(integrate(u0, p, 1.0, h=0.04).final().u[0, 1] - ref)
    e2 = abs(integrate(u0, p, 1.0, h=0.02).final().u[0, 1] - ref)
    assert 10.0 < e1 / e2 < 22.0


def _textbook_rk4(rate_into, y, h):
    def rate(c, v):
        out = np.empty_like(v)
        rate_into(c, v, out)
        return out

    k1 = rate(0.0, y)
    k2 = rate(0.5, y + 0.5 * h * k1)
    k3 = rate(0.5, y + 0.5 * h * k2)
    k4 = rate(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("flow", ["drift", "backward", "master"])
def test_rk4_step_is_the_textbook_step_and_leaves_y_alone(flow, monkeypatch):
    # rk4_step works in the buffers its march holds (the next state, the
    # stage and one stage's rate), which its rate writes into; every step the
    # three flows take must still be the textbook expression's bytes, with y
    # untouched
    step, steps = hydro.rk4_step, []

    def checked(rate, y, h, out, stage, dy):
        before = y.copy()
        got = step(rate, y, h, out, stage, dy)
        assert got is out and y.tobytes() == before.tobytes()
        assert got.tobytes() == _textbook_rk4(rate, y, h).tobytes()
        steps.append(h)
        return got

    monkeypatch.setattr(hydro, "rk4_step", checked)
    monkeypatch.setattr(entropy, "rk4_step", checked)
    p = _params(n=6, k=2, a=0.8, kernel=KernelSpec.cosine(0.6))
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    u0 = profile_field(prof, p.lattice)
    if flow == "drift":
        integrate(u0, p, 0.1, h=0.02)
    elif flow == "backward":
        traj = integrate(u0, p, 0.1, h=0.02)
        steps.clear()
        backward_fp(np.random.default_rng(4).normal(size=(6, 3)), traj, p)
        assert set(steps) == {-0.02}
    else:
        space = StateSpace(p.lattice, 2)
        for _ in law_steps(profile_law(u0, space), MasterOperator(space, p), 0.1, 0.02):
            pass
    assert len(steps) == 5


def test_mass_conservation_and_floor():
    p = _params(n=16, k=2, a=1.0, kernel=KernelSpec.cosine(0.5))
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    u0 = profile_field(prof, p.lattice)
    eps0 = float(np.min(u0.u))
    traj = integrate(u0, p, 2.0, h=0.01)
    sums = traj.u.sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    rate = max(p.a, p.kernel.matrix.sum(axis=1).max() / p.lattice.n_sites)
    for m, t in enumerate(traj.times):
        floor = 0.9 * eps0 * math.exp(-rate * t)
        assert np.min(traj.u[m]) >= floor


def test_a_priori_sup_bound():
    p = _params(n=16, k=2, a=1.0, kernel=KernelSpec.cosine(0.5))
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    u0 = profile_field(prof, p.lattice)
    traj = integrate(u0, p, 2.0, h=0.01)
    # ||A|| + ||J||_{1,n} ||M|| in the max-column-sum norm
    norm_1n = p.kernel.matrix.sum(axis=1).max() / p.lattice.n_sites
    lam = np.abs(p.A).sum(axis=0).max() + norm_1n * np.abs(p.M).sum(axis=0).max()
    for m, t in enumerate(traj.times):
        assert np.max(np.abs(traj.u[m])) <= np.max(np.abs(u0.u)) * math.exp(lam * t) + 1e-12


def test_integrate_rejects_bad_step_and_mismatch():
    p = _params(n=4, k=1)
    u0 = _uniform_field(p, [0.5, 0.5])
    with pytest.raises(ValueError, match="h must be > 0"):
        integrate(u0, p, 1.0, h=0.0)
    other = _params(n=8, k=1)
    with pytest.raises(ValueError, match="does not match"):
        integrate(u0, other, 1.0, h=0.1)


def test_backward_preserves_constants():
    # A*, M* and the nonlocal closure all annihilate all-ones test data
    p = _params(n=8, k=2, a=1.2, kernel=KernelSpec.cosine(0.5))
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.05, -0.02, -0.03], 1)
    traj = integrate(profile_field(prof, p.lattice), p, 0.5, h=0.01)
    ones = np.ones((8, 3))
    bw = backward_fp(ones, traj, p)
    assert np.max(np.abs(bw.g - 1.0)) < 1e-12


def test_backward_two_state_closed_form():
    # J = 0, k=1, terminal (1, 0): g0 = 1, g1_s = 1 - e^{-a (t-s)}
    a, t_end = 1.3, 0.8
    p = _params(n=6, k=1, a=a)
    traj = integrate(_uniform_field(p, [0.6, 0.4]), p, t_end, h=1e-3)
    terminal = np.tile([1.0, 0.0], (6, 1))
    bw = backward_fp(terminal, traj, p)
    for m, s in enumerate(bw.times):
        expected = 1.0 - math.exp(-a * (t_end - s))
        assert np.max(np.abs(bw.g[m][:, 0] - 1.0)) < 1e-8
        assert np.max(np.abs(bw.g[m][:, 1] - expected)) < 1e-8


def test_backward_terminal_condition_exact():
    p = _params(n=8, k=1, a=1.0, kernel=KernelSpec.cosine(0.3))
    traj = integrate(_uniform_field(p, [0.55, 0.45]), p, 0.4, h=0.01)
    terminal = np.random.default_rng(2).normal(size=(8, 2))
    bw = backward_fp(terminal, traj, p)
    np.testing.assert_array_equal(bw.g[-1], terminal)


def test_backward_duality_with_linearized_forward():
    """<P_s f, delta u_s>_n is conserved along linearized perturbations."""
    p = _params(n=12, k=1, a=1.0, kernel=KernelSpec.cosine(0.6))
    base = InitialProfile.cosine_simplex([0.55, 0.45], [-0.1, 0.1], 1)
    u0 = profile_field(base, p.lattice)
    eps = 1e-6
    pert = np.cos(2 * np.pi * 2 * p.lattice.positions()[:, 0])
    u0p = DensityField(p.lattice, 1, u0.u + eps * np.stack([pert, -pert], axis=1))
    h = 2e-3
    t_end = 0.5
    traj = integrate(u0, p, t_end, h=h)
    traj_p = integrate(u0p, p, t_end, h=h)
    delta = (traj_p.u - traj.u) / eps
    terminal = np.random.default_rng(4).normal(size=(12, 2))
    bw = backward_fp(terminal, traj, p)
    pair = np.array([np.mean(np.sum(bw.g[m] * delta[m], axis=1))
                     for m in range(len(bw.times))])
    assert np.max(np.abs(pair - pair[0])) < 1e-5 * max(abs(pair[0]), 1.0)


def test_backward_duality_three_states():
    p = _params(n=8, k=2, a=1.1, kernel=KernelSpec.cosine(0.5))
    base = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.08, -0.03, -0.05], 1)
    u0 = profile_field(base, p.lattice)
    eps, h, t_end = 1e-6, 2e-3, 0.4
    pert = np.sin(2 * np.pi * p.lattice.positions()[:, 0])
    bump = np.stack([pert, -0.5 * pert, -0.5 * pert], axis=1)
    u0p = DensityField(p.lattice, 2, u0.u + eps * bump)
    traj = integrate(u0, p, t_end, h=h)
    traj_p = integrate(u0p, p, t_end, h=h)
    delta = (traj_p.u - traj.u) / eps
    terminal = np.random.default_rng(9).normal(size=(8, 3))
    bw = backward_fp(terminal, traj, p)
    pair = np.array([np.mean(np.sum(bw.g[m] * delta[m], axis=1))
                     for m in range(len(bw.times))])
    assert np.max(np.abs(pair - pair[0])) < 1e-5 * max(abs(pair[0]), 1.0)


def test_backward_flow_is_fourth_order():
    # halving h divides the error of g[0] by ~16; a march that swaps the end
    # nodes or drops the Hermite midpoint correction divides it by ~4
    p = _params(n=8, k=2, a=1.0, kernel=KernelSpec.cosine(0.5))
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    u0 = profile_field(prof, p.lattice)
    terminal = np.random.default_rng(3).normal(size=(8, 3))

    def g0(h):
        return backward_fp(terminal, integrate(u0, p, 1.0, h=h), p).g[0]

    ref = g0(1e-3)
    e1, e2, e3 = (np.max(np.abs(g0(h) - ref)) for h in (0.1, 0.05, 0.025))
    assert 10.0 < e1 / e2 < 22.0
    assert 10.0 < e2 / e3 < 22.0


@pytest.mark.parametrize("t", [0.25, -0.1, 1.1], ids=["off-grid", "negative", "past-end"])
@pytest.mark.parametrize("lookup", ["field_at", "law_at"])
def test_grid_lookup_rejects_times_off_the_grid(lookup, t):
    p = _params(n=4, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    traj = integrate(_uniform_field(p, [0.6, 0.4]), p, 1.0, h=0.1)
    at = (traj.field_at if lookup == "field_at"
          else LawTrajectory(traj.times, traj.u.reshape(len(traj.times), -1)).law_at)
    at(0.3)
    with pytest.raises(ValueError, match="not on the"):
        at(t)


def test_restrict_subsamples_matched_points():
    fine = TorusLattice(1, 16)
    coarse = TorusLattice(1, 4)
    u = np.zeros((16, 2))
    u[:, 0] = np.arange(16)
    u[:, 1] = 1.0 - u[:, 0]
    sub = restrict(DensityField(fine, 1, u), coarse)
    np.testing.assert_array_equal(sub.u[:, 0], [0.0, 4.0, 8.0, 12.0])
    with pytest.raises(ValueError, match="divide"):
        restrict(DensityField(fine, 1, u), TorusLattice(1, 5))


def _study_system(spec, prof, a, k, d=1):
    """system(n) -> (params, u0) of the kernel and profile on side n."""
    def system(n):
        lat = TorusLattice(d, n)
        return ModelParams(a, k, discretize(spec, lat)), profile_field(prof, lat)
    return system


def test_convergence_study_zero_kernel_noise_floor():
    prof = InitialProfile.cosine_simplex([0.5, 0.5], [0.1, -0.1], 1)
    tab = convergence_study([4, 8, 16], _study_system(KernelSpec.constant(0.0), prof, 1.0, 1),
                            0.5, n_ref=64, h=0.01)
    assert max(tab.errors) < 1e-10
    assert tab.fit is None


def test_convergence_study_first_order_in_one_dimension():
    # the zero-diagonal convolution omits J(x,x)u^k/n^d of kernel mass, so
    # same-convention runs converge first order toward the reference in d=1
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    tab = convergence_study([16, 32, 64], _study_system(KernelSpec.cosine(0.5), prof, 1.0, 2),
                            1.0, n_ref=256, h=0.02)
    assert tab.fit is not None
    assert -1.35 < tab.fit.slope < -0.95


class _DiagonalInclusiveKernel(DiscreteKernel):
    """Zero-diagonal kernel with phi(0) g / N added back: the plain Riemann
    sum of the continuum convolution."""

    def conv(self, g):
        origin = np.zeros(self.lattice.d)
        phi0 = float(self.spec.evaluate(origin, origin))
        return super().conv(g) + phi0 * np.asarray(g, dtype=float) / self.lattice.n_sites


def test_zero_diagonal_rate_against_diagonal_inclusive_oracle():
    # the Riemann sum of a trigonometric kernel is exact on smooth fields, so
    # the diagonal-inclusive equation samples one solution at every n; the
    # shipped zero-diagonal equation misses it by O(n^-d): n e(n) is constant
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    spec = KernelSpec.cosine(0.5)

    def solve(n, kernel_cls):
        lat = TorusLattice(1, n)
        params = ModelParams(1.0, 2, kernel_cls(lat, spec))
        return integrate(profile_field(prof, lat), params, 1.0, h=0.01).final()

    oracle = solve(512, _DiagonalInclusiveKernel)
    scaled = []
    for n in (16, 32, 64, 128):
        exact = restrict(oracle, TorusLattice(1, n)).u
        assert np.max(np.abs(solve(n, _DiagonalInclusiveKernel).u - exact)) <= 1e-12
        scaled.append(n * float(np.max(np.abs(solve(n, DiscreteKernel).u - exact))))
    assert min(scaled) > 1e-6
    assert max(scaled) - min(scaled) < 0.02 * min(scaled), scaled


def test_reference_self_consistency_second_order_in_two_dimensions():
    # in d=2 the diagonal defect scales as n^-2: doubling the reference side
    # shrinks the gap roughly fourfold
    prof = InitialProfile.cosine_simplex([0.5, 0.5], [0.15, -0.15], [1, 0])
    spec = KernelSpec.cosine(0.5)
    runs = {}
    for n in (8, 16, 32):
        lat = TorusLattice(2, n)
        params = ModelParams(1.0, 1, discretize(spec, lat))
        runs[n] = final_density(profile_field(prof, lat), params, 0.5, h=0.01)[0]
    e_8 = np.max(np.abs(runs[8].u - restrict(runs[16], runs[8].lattice).u))
    e_16 = np.max(np.abs(runs[16].u - restrict(runs[32], runs[16].lattice).u))
    assert 2.5 < e_8 / e_16 < 6.5


def test_density_steps_yield_integrate_rows_bit_for_bit():
    # a recovery that creates 2e-7 of mass per unit of its flux breaks the
    # per-site mass beyond MASS_TOL every other step or so, so some steps
    # renormalize and some do not; N = 576 convolves through the factors
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], [1, 0])
    p = _params(n=24, k=2, kernel=KernelSpec.cosine(0.5), d=2)
    p.A[0, p.k] *= 1.0 + 2e-7
    u0 = profile_field(prof, p.lattice)
    traj = integrate(u0, p, 0.5, h=0.01)
    # a yielded state is valid until the next one is drawn
    rows = [(u.copy(), renormalized, low) for u, renormalized, low in
            density_steps(u0, p, 0.5, h=0.01)]
    assert len(rows) == len(traj.times) == 51
    flags = [renormalized for _, renormalized, _ in rows]
    assert not flags[0] and 0 < sum(flags) < 50
    assert sum(flags) == traj.renormalizations
    for (u, _, _), v in zip(rows, traj.u):
        assert np.array_equal(u, v)
    # the least component is the positivity check's, taken before a renormalization
    assert min(low for _, _, low in rows) == traj.min_component
    assert traj.min_component == pytest.approx(traj.u.min(), rel=1e-8)
    final, ode = final_density(u0, p, 0.5, h=0.01)
    assert np.array_equal(final.u, traj.u[-1]) and final.u.flags.c_contiguous
    assert traj.u.flags.c_contiguous
    assert ode == traj.ode == {"steps": 50, "renormalizations": traj.renormalizations,
                               "min_component": traj.min_component}


def test_convergence_study_holds_no_trajectory():
    # every run keeps only its current state; a study that held the N = 4096
    # reference trajectory (101 states, 9.9 MB) peaked at 11.7 MB
    prof = InitialProfile.cosine_simplex([0.4, 0.35, 0.25], [0.1, -0.04, -0.06], 1)
    tracemalloc.start()
    try:
        system = _study_system(KernelSpec.cosine(0.5), prof, 1.0, 2, d=2)
        table = convergence_study([8, 16, 32], system, 1.0, n_ref=64, h=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert table.ode["steps"] == 4 * 100


def test_convergence_study_requires_divisible_sizes():
    prof = InitialProfile.cosine_simplex([0.5, 0.5], [0.1, -0.1], 1)
    system = _study_system(KernelSpec.constant(1.0), prof, 1.0, 1)
    with pytest.raises(ValueError, match="divide"):
        convergence_study([5, 8, 16], system, 0.2, n_ref=64, h=0.01)
    with pytest.raises(ValueError, match="3 lattice sizes"):
        convergence_study([8, 16], system, 0.2, n_ref=64, h=0.01)
