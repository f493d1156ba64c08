"""Method-of-lines integration of the per-state density dynamics.

The lattice system couples the (k+1)-vector u_x at every site through the
normalized kernel convolution of the top-state density:

    du_x/dt = A u_x + (J^n * u^k)_x M u_x

with A the recover-to-zero generator and M the raise-one-state stencil.
Alongside the forward solver this module provides the adjoint (backward)
flow used to predict fluctuation variances and a discretization-convergence
study against a fine-lattice reference run.  The study builds each side with
its caller's ``system(n) -> (params, u0)`` and reports no kernel facts: the
convolution engine is the kernel spec's (``KernelSpec.engine``).  The
forward solve is a generator, ``density_steps``; ``integrate`` collects its
states for the callers that read every grid time, and ``final_density``
keeps only the last.

Both flows compute state-major.  A density is (N, k+1), so in C order its
fast axis has k+1 entries and every per-state operation would run k+1
elements at a time; ``drift`` and ``backward_drift`` work instead on the
(k+1, N) rows V = u.T, each contiguous, and write what they compute into
the rows of the caller's buffer.  ``density_steps`` and ``backward_fp`` keep
their states in that layout (Fortran order as (N, k+1)), so the RK4 step,
the checks and the renormalization run over contiguous rows too, and step in
buffers held for the whole solve.  The layout stays inside this module:
``Trajectory.u`` and ``final_density``'s field are C-ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import TorusLattice, DiscreteKernel

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
    min_component: float = math.inf  # the least component over the solve

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def ode(self) -> dict:
        """The solve's counts, as run.json's ``metrics.ode``."""
        return _ode(len(self.times) - 1, self.renormalizations, self.min_component)

    def field_at(self, t) -> DensityField:
        return DensityField(self.lattice, self.k, self.u[grid_index(self.times, t)])

    def final(self) -> DensityField:
        """The last field, copied: it does not keep the trajectory alive."""
        return DensityField(self.lattice, self.k, self.u[-1].copy())


def _rows(u) -> np.ndarray:
    """The state-major rows u.T, (k+1, N) and C-contiguous, of a density-shaped
    array or field: a view of a state in the solvers' layout, a copy of any other."""
    return np.ascontiguousarray(np.asarray(u.u if isinstance(u, DensityField) else u,
                                           dtype=float).T)


def drift(u, params: ModelParams, out=None) -> np.ndarray:
    """Right-hand side A u_x + (J^n * u^k)_x M u_x, per site, as (N, k+1).

    Computed on the rows V = u.T as M V scaled by conv(V[k]), plus A V; the
    result is the transpose of those rows, so its bytes do not depend on the
    layout of u.  It is written to out, an (N, k+1) array in the solvers'
    layout other than u, and returned (a new array when out is None).
    """
    V = _rows(u)
    rows = np.empty_like(V) if out is None else out.T
    np.matmul(params.M, V, out=rows)
    rows *= params.kernel.conv(V[params.k])
    rows += params.A @ V
    if not np.all(np.isfinite(rows)):
        raise ValueError("drift produced non-finite values")
    return rows.T


def backward_drift(g, u, params: ModelParams, out=None) -> np.ndarray:
    """Right-hand side of the adjoint flow at the forward state u, per site:

        ds g = -(A* g + (J^n * u^k) M* g + (J^n* * <g, M u>) e_k),

    as (N, k+1), computed on the rows of g and u and written to out like
    ``drift``.
    """
    G, V = _rows(g), _rows(u)
    kern, k = params.kernel, params.k
    rows = np.empty_like(G) if out is None else out.T
    np.matmul(params.M.T, G, out=rows)
    rows *= kern.conv(V[k])
    rows += params.A.T @ G
    rows[k] += kern.conv_adjoint(np.sum(G * (params.M @ V), axis=0))
    np.negative(rows, out=rows)
    return rows.T


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


def rk4_step(rate, y, h, out, stage, dy):
    """One classical RK4 step from y over a step h, written to out and returned.

    ``rate(c, v, dv)`` writes the derivative at v into dv, an array other
    than v; c in {0, 1/2, 1} is the stage's fraction of the step, for a rate
    whose coefficients are known at those nodes only.  A negative h marches
    backward.

    out accumulates the step, stage holds the stage's state and dy one
    stage's rate; all three are arrays of y's shape and layout, distinct
    from y and from each other, and y is left unchanged.  The step forms
    y + (h/6)(k1 + 2 k2 + 2 k3 + k4) with the textbook expression's
    operations in its order, so its bytes are that expression's.
    """
    rate(0.0, y, out)                               # k1
    np.multiply(out, 0.5 * h, out=stage)
    stage += y
    for scale in (0.5 * h, h):                      # k2, then k3
        rate(0.5, stage, dy)
        np.multiply(dy, scale, out=stage)
        stage += y
        dy *= 2.0
        out += dy
    rate(1.0, stage, dy)                            # k4
    out += dy
    out *= h / 6.0
    out += y
    return out


def density_steps(u0: DensityField, params: ModelParams, t_end, h):
    """Classical fixed-step RK4 for the density system on {0, h, ..., t_end},
    yielding (u, renormalized, min_component) per grid time, u0 first.

    Per-site mass is monitored each step; deviations beyond the tolerance are
    renormalized and flagged rather than silently absorbed.  Negative
    components beyond the tolerance abort with a step-size failure; the
    least component, as the positivity check saw it, is yielded with the
    state.  Only the current state is kept, so a caller that reads each grid
    time as it comes, or only the last, never holds the (T+1, N, k+1)
    trajectory.  Each u is (N, k+1) in Fortran order, the solver's layout
    (see the module docstring).  The march steps in four buffers held for
    the whole solve (``rk4_step``'s two states, which swap, its stage and
    its rate), so a yielded u stays valid until the next one is drawn; the
    caller copies what it keeps.
    """
    u0.validate()
    if u0.k != params.k or u0.lattice != params.lattice:
        raise ValueError("initial field does not match model parameters")
    times, h = _grid(t_end, h)
    u = u0.u.copy(order="F")
    yield u, False, float(np.min(u))
    nxt, stage, du = (np.empty_like(u) for _ in range(3))
    for m in range(1, len(times)):
        u, nxt = rk4_step(lambda c, v, dv: drift(v, params, dv), u, h, nxt, stage, du), u
        if not np.all(np.isfinite(u)):
            raise ValueError(f"non-finite state at step {m}; reduce h")
        low = float(np.min(u))
        if low < -MASS_TOL:
            raise ValueError(f"positivity floor violated at step {m} "
                             f"(min component {low:.3e}); reduce h")
        sums = u.sum(axis=1)
        renormalized = bool(np.max(np.abs(sums - 1.0)) > MASS_TOL)
        if renormalized:
            u /= sums[:, None]
        yield u, renormalized, low


def _ode(steps, renormalizations, min_component) -> dict:
    return {"steps": steps, "renormalizations": renormalizations,
            "min_component": min_component}


def combined_ode(odes) -> dict:
    """Several solves' counts as one: steps and renormalizations add up, and
    the least component is the least of theirs."""
    return _ode(sum(o["steps"] for o in odes), sum(o["renormalizations"] for o in odes),
                min(o["min_component"] for o in odes))


def integrate(u0: DensityField, params: ModelParams, t_end, h) -> Trajectory:
    """Every grid state of ``density_steps``, for callers that read them all."""
    times = _grid(t_end, h)[0]
    out = np.empty(times.shape + u0.u.shape)
    renorms, low = 0, math.inf
    for m, (u, renormalized, u_min) in enumerate(density_steps(u0, params, t_end, h)):
        out[m] = u
        renorms += renormalized
        low = min(low, u_min)
    return Trajectory(u0.lattice, u0.k, times, out, renorms, low)


def final_density(u0: DensityField, params: ModelParams, t_end, h):
    """(u_t_end, ode): the last state of ``density_steps`` and the solve's
    counts as ``Trajectory.ode`` gives them, holding one grid state at a time."""
    renorms, low = 0, math.inf
    for steps, (u, renormalized, u_min) in enumerate(density_steps(u0, params, t_end, h)):
        renorms += renormalized
        low = min(low, u_min)
    return DensityField(u0.lattice, u0.k, np.ascontiguousarray(u)), _ode(steps, renorms, low)


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
    ode: dict    # the solves' counts, combined over the reference and study lattices

    def rows(self):
        return list(zip(self.sizes, self.errors))


def convergence_study(n_list, system, t_end, *, n_ref, h) -> ConvergenceTable:
    """Integrate on each lattice in n_list and compare against a fine reference.

    ``system(n)`` builds the (params, u0) of side n; the sides are built and
    solved one at a time, so only the reference's final field outlives its solve.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValueError("convergence study needs at least 3 lattice sizes")
    for n in n_list:
        if n_ref % n != 0:
            raise ValueError(f"study size n={n} must divide the reference size {n_ref}")
    params, u0 = system(n_ref)
    ref, ode = final_density(u0, params, t_end, h)
    errors, odes = [], [ode]
    for n in n_list:
        params, u0 = system(n)
        final, ode = final_density(u0, params, t_end, h)
        odes.append(ode)
        errors.append(float(np.max(np.abs(final.u - restrict(ref, final.lattice).u))))
    fit = None
    if min(errors) > ERROR_FLOOR:
        from .stats import rate_fit
        fit = rate_fit(list(zip(n_list, errors)))
    return ConvergenceTable(list(n_list), errors, fit, combined_ode(odes))


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

    Each step is ``rk4_step`` on -h from s_{m+1} to s_m of ``backward_drift``,
    with the forward states at its nodes: u_{m+1} at the start, u_m at the
    end, and at the midpoint the cubic Hermite interpolant of the trajectory,
    which keeps the march fourth order.  The states and g are held in the
    solvers' layout, g in ``rk4_step``'s buffers; ``g`` is returned C-ordered.
    """
    f = np.asarray(f_terminal, dtype=float)
    if f.shape != u_traj.u.shape[1:]:
        raise ValueError(f"terminal field has shape {f.shape}, trajectory states "
                         f"have shape {u_traj.u.shape[1:]}")
    if not np.all(np.isfinite(f)):
        raise ValueError("terminal field has non-finite entries")
    h = u_traj.step
    # the states as density_steps holds them: each one's rows contiguous
    us = np.ascontiguousarray(u_traj.u.transpose(0, 2, 1)).transpose(0, 2, 1)
    du = np.empty_like(us)
    for m, u in enumerate(us):
        drift(u, params, out=du[m])
    out = np.empty(u_traj.u.shape)
    out[-1] = f
    g = f.copy(order="F")
    nxt, stage, dg = (np.empty_like(g) for _ in range(3))
    for m in range(len(out) - 2, -1, -1):
        u0, u1 = us[m], us[m + 1]
        umid = 0.5 * (u0 + u1) + (h / 8.0) * (du[m] - du[m + 1])
        nodes = {0.0: u1, 0.5: umid, 1.0: u0}
        g, nxt = rk4_step(lambda c, v, dv: backward_drift(v, nodes[c], params, dv),
                          g, -h, nxt, stage, dg), g
        out[m] = g
    return BackwardTestField(u_traj.lattice, u_traj.k, u_traj.times.copy(), out)
