"""Method-of-lines integration of the per-state density dynamics.

The lattice system couples the (k+1)-vector u_x at every site through the
normalized kernel convolution of the top-state density:

    du_x/dt = A u_x + (J^n * u^k)_x M u_x

with A the recover-to-zero generator and M the raise-one-state stencil.
Alongside the forward solver this module provides the adjoint (backward)
flow used to predict fluctuation variances and a discretization-convergence
study against a fine-lattice reference run.  The forward solve is a generator,
``density_steps``; ``integrate`` collects its states for the callers that
read every grid time, and ``final_density`` keeps only the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import TorusLattice, KernelSpec, DiscreteKernel, discretize

MASS_TOL = 1e-9
# round-off: a study with an error at or below this fits no rate
ERROR_FLOOR = 1e-13


def build_A(a, k) -> np.ndarray:
    """Recovery generator: state k decays at rate a and lands at state 0."""
    A = np.zeros((k + 1, k + 1))
    A[0, k] = a
    A[k, k] = -a
    return A


def build_M(k) -> np.ndarray:
    """Kernel-drive stencil: mass moves from state i to i+1 for i < k."""
    M = np.zeros((k + 1, k + 1))
    for i in range(1, k + 1):
        M[i, i - 1] = 1.0
    for i in range(0, k):
        M[i, i] = -1.0
    return M


class ModelParams:
    """Static description of the dynamics: recovery rate a, top state k, kernel."""

    def __init__(self, a, k, kernel: DiscreteKernel):
        if a <= 0:
            raise ValueError("recovery rate a must be > 0")
        if k < 1:
            raise ValueError("threshold state k must be >= 1")
        self.a = float(a)
        self.k = int(k)
        self.kernel = kernel
        self.A = build_A(self.a, self.k)
        self.M = build_M(self.k)

    @property
    def lattice(self) -> TorusLattice:
        return self.kernel.lattice


@dataclass
class DensityField:
    """Per-site probability vectors over states {0..k}."""

    lattice: TorusLattice
    k: int
    u: np.ndarray  # (N, k+1)

    def validate(self, atol=MASS_TOL):
        if self.u.shape != (self.lattice.n_sites, self.k + 1):
            raise ValueError(f"density array has shape {self.u.shape}, expected "
                             f"({self.lattice.n_sites}, {self.k + 1})")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("density field has non-finite entries")
        if np.any(self.u < -atol):
            raise ValueError("density field has negative components")
        if np.max(np.abs(self.u.sum(axis=1) - 1.0)) > atol:
            raise ValueError("per-site state probabilities do not sum to 1")
        return self

    def copy(self) -> "DensityField":
        return DensityField(self.lattice, self.k, self.u.copy())


def profile_field(profile, lattice: TorusLattice) -> DensityField:
    """Sample an initial profile at the embedded lattice points x/n."""
    u = profile.evaluate(lattice.positions())
    return DensityField(lattice, profile.k, u).validate()


@dataclass
class Trajectory:
    """Density trajectory on a uniform time grid."""

    lattice: TorusLattice
    k: int
    times: np.ndarray        # (T+1,)
    u: np.ndarray            # (T+1, N, k+1)
    renormalizations: int = 0

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def field_at(self, t) -> DensityField:
        return DensityField(self.lattice, self.k, self.u[grid_index(self.times, t)])

    def final(self) -> DensityField:
        """The last field, copied: it does not keep the trajectory alive."""
        return DensityField(self.lattice, self.k, self.u[-1].copy())


def drift(u, params: ModelParams) -> np.ndarray:
    """Right-hand side A u_x + (J^n * u^k)_x M u_x, per site."""
    U = u.u if isinstance(u, DensityField) else np.asarray(u, dtype=float)
    conv = params.kernel.conv(U[:, params.k])
    out = U @ params.A.T + conv[:, None] * (U @ params.M.T)
    if not np.all(np.isfinite(out)):
        raise ValueError("drift produced non-finite values")
    return out


def _grid(t_end, h):
    """(times, h'): the uniform grid on [0, t_end] whose step h' is nearest h."""
    if h <= 0:
        raise ValueError("step h must be > 0")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    steps = max(int(round(t_end / h)), 1) if t_end > 0 else 0
    h = t_end / steps if steps else h
    return np.linspace(0.0, steps * h, steps + 1), h


def grid_index(times, t) -> int:
    """Index of time t on a uniform grid; ValueError when t is not a grid time."""
    step = times[1] - times[0] if len(times) > 1 else 1.0
    i = int(round((t - times[0]) / step))
    if i < 0 or i >= len(times) or abs(times[i] - t) > 1e-9:
        raise ValueError(f"time {t} is not on the grid {times[0]}..{times[-1]}")
    return i


def rk4_step(rate, y, h):
    """One classical RK4 step of dy/dt = rate(c, y) from y over a step h.

    c in {0, 1/2, 1} is the stage's fraction of the step, for a rate whose
    coefficients are known at those nodes only.  A negative h marches backward.

    The rate must return a fresh array, which the step may overwrite; y is
    left unchanged.  The step holds one accumulator and one stage buffer and
    forms y + (h/6)(k1 + 2 k2 + 2 k3 + k4) with the textbook expression's
    operations in its order, so its bytes are that expression's.
    """
    acc = rate(0.0, y)                              # k1
    stage = np.multiply(acc, 0.5 * h)
    stage += y
    for scale in (0.5 * h, h):                      # k2, then k3
        k = rate(0.5, stage)
        np.multiply(k, scale, out=stage)
        stage += y
        k *= 2.0
        acc += k
    acc += rate(1.0, stage)                         # k4
    acc *= h / 6.0
    acc += y
    return acc


def density_steps(u0: DensityField, params: ModelParams, t_end, h):
    """Classical fixed-step RK4 for the density system on {0, h, ..., t_end},
    yielding (u, renormalized) per grid time, u0 first.

    Per-site mass is monitored each step; deviations beyond the tolerance are
    renormalized and flagged rather than silently absorbed.  Negative
    components beyond the tolerance abort with a step-size failure.  Only
    the current state is kept, so a caller that reads each grid time as it
    comes, or only the last, never holds the (T+1, N, k+1) trajectory.
    """
    u0.validate()
    if u0.k != params.k or u0.lattice != params.lattice:
        raise ValueError("initial field does not match model parameters")
    times, h = _grid(t_end, h)
    u = u0.u.copy()
    yield u, False
    for m in range(1, len(times)):
        u = rk4_step(lambda c, v: drift(v, params), u, h)
        if not np.all(np.isfinite(u)):
            raise ValueError(f"non-finite state at step {m}; reduce h")
        if np.min(u) < -MASS_TOL:
            raise ValueError(f"positivity floor violated at step {m} "
                             f"(min component {np.min(u):.3e}); reduce h")
        sums = u.sum(axis=1)
        renormalized = bool(np.max(np.abs(sums - 1.0)) > MASS_TOL)
        if renormalized:
            u = u / sums[:, None]
        yield u, renormalized


def integrate(u0: DensityField, params: ModelParams, t_end, h) -> Trajectory:
    """Every grid state of ``density_steps``, for callers that read them all."""
    times = _grid(t_end, h)[0]
    out = np.empty(times.shape + u0.u.shape)
    renorms = 0
    for m, (u, renormalized) in enumerate(density_steps(u0, params, t_end, h)):
        out[m] = u
        renorms += renormalized
    return Trajectory(u0.lattice, u0.k, times, out, renormalizations=renorms)


def final_density(u0: DensityField, params: ModelParams, t_end, h):
    """(u_t_end, steps, renormalizations): the last state of ``density_steps``
    with the solve's counts, holding one grid state at a time."""
    renorms = 0
    for steps, (u, renormalized) in enumerate(density_steps(u0, params, t_end, h)):
        renorms += renormalized
    return DensityField(u0.lattice, u0.k, u), steps, renorms


def _lattice_run(profile, spec: KernelSpec, a, k, t_end, n, d, h):
    """The profile solved to t_end on the lattice of side n:
    (kernel engine, u_t_end, steps, renormalizations)."""
    lattice = TorusLattice(d, n)
    params = ModelParams(a, k, discretize(spec, lattice))
    u, steps, renorms = final_density(profile_field(profile, lattice), params, t_end, h=h)
    return params.kernel.engine, u, steps, renorms


def restrict(fine: DensityField, coarse: TorusLattice) -> DensityField:
    """Subsample a fine-lattice field onto a coarser lattice with n | n_ref."""
    ratio, rem = divmod(fine.lattice.n, coarse.n)
    if rem != 0 or fine.lattice.d != coarse.d:
        raise ValueError(f"coarse side {coarse.n} must divide fine side {fine.lattice.n}")
    idx = fine.lattice.index(coarse.coords(np.arange(coarse.n_sites)) * ratio)
    return DensityField(coarse, fine.k, fine.u[idx])


@dataclass
class ConvergenceTable:
    """Sup-norm errors against the reference run, with a log-log slope fit,
    and what the solves cost."""

    sizes: list
    errors: list
    fit: object  # stats.RateFit, or None when errors sit at the noise floor
    steps: int             # RK4 steps, summed over the reference and study lattices
    renormalizations: int  # renormalized steps, summed likewise
    engines: dict          # lattice side -> DiscreteKernel.engine

    def rows(self):
        return list(zip(self.sizes, self.errors))


def convergence_study(n_list, spec: KernelSpec, profile, a, k, t_end,
                      *, n_ref, h, d=1) -> ConvergenceTable:
    """Integrate on each lattice in n_list and compare against a fine reference."""
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValueError("convergence study needs at least 3 lattice sizes")
    for n in n_list:
        if n_ref % n != 0:
            raise ValueError(f"study size n={n} must divide the reference size {n_ref}")
    engine, ref, steps, renorms = _lattice_run(profile, spec, a, k, t_end, n_ref, d, h)
    engines, errors = {n_ref: engine}, []
    for n in n_list:
        engines[n], final, m, r = _lattice_run(profile, spec, a, k, t_end, n, d, h)
        steps, renorms = steps + m, renorms + r
        errors.append(float(np.max(np.abs(final.u - restrict(ref, final.lattice).u))))
    fit = None
    if min(errors) > ERROR_FLOOR:
        from .stats import rate_fit
        fit = rate_fit(list(zip(n_list, errors)))
    return ConvergenceTable(list(n_list), errors, fit, steps, renorms, engines)


@dataclass
class BackwardTestField:
    """Adjoint flow P_s f on [0, t]: g[m] approximates P_{times[m]} f."""

    lattice: TorusLattice
    k: int
    times: np.ndarray     # (T+1,), same grid as the forward trajectory
    g: np.ndarray         # (T+1, N, k+1); g[-1] is the terminal datum


def backward_fp(f_terminal, u_traj: Trajectory, params: ModelParams) -> BackwardTestField:
    """Solve the adjoint equation backward from g_t = f on the trajectory grid.

        ds g + A* g + (J^n * u^k_s) M* g + (J^n* * <g, M u_s>) e_k = 0

    Each step is ``rk4_step`` on -h from s_{m+1} to s_m, with the forward
    states at its nodes: u_{m+1} at the start, u_m at the end, and at the
    midpoint the cubic Hermite interpolant of the trajectory, which keeps the
    march fourth order.
    """
    f = np.asarray(f_terminal, dtype=float)
    if f.shape != u_traj.u.shape[1:]:
        raise ValueError(f"terminal field has shape {f.shape}, trajectory states "
                         f"have shape {u_traj.u.shape[1:]}")
    if not np.all(np.isfinite(f)):
        raise ValueError("terminal field has non-finite entries")
    h = u_traj.step
    A, M, kern, k = params.A, params.M, params.kernel, params.k

    def rhs(u_nodes, g):
        # ds g = -(A* g + conv(u^k) M* g + conv_adjoint(<g, M u>) e_k)
        conv = kern.conv(u_nodes[:, k])
        inner = np.sum(g * (u_nodes @ M.T), axis=1)
        out = g @ A + conv[:, None] * (g @ M)
        out[:, k] += kern.conv_adjoint(inner)
        return -out

    du = np.array([drift(u, params) for u in u_traj.u])
    out = np.empty(u_traj.u.shape)
    out[-1] = g = f
    for m in range(len(out) - 2, -1, -1):
        u0, u1 = u_traj.u[m], u_traj.u[m + 1]
        umid = 0.5 * (u0 + u1) + (h / 8.0) * (du[m] - du[m + 1])
        nodes = {0.0: u1, 0.5: umid, 1.0: u0}
        g = rk4_step(lambda c, v: rhs(nodes[c], v), g, -h)
        out[m] = g
    return BackwardTestField(u_traj.lattice, u_traj.k, u_traj.times.copy(), out)
