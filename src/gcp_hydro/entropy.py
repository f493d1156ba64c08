"""Exhaustive master-equation engine for tiny lattices.

Enumerates every configuration of a small system, evolves the exact law of
the jump process by the forward Kolmogorov equation, and evaluates the
relative entropy of that law against the time-varying product measure built
from the density trajectory.  The production functional is available both
from first principles (adjoint applied to 1, minus the log-derivative of the
product measure) and in the closed quadratic form in the centered variables;
their agreement is the central consistency check of this module.

A configuration's index is sum_x sigma_x (k+1)^x, so reshaping a law to
``(-1, k+1, stride_x)`` puts the digit of site x on the middle axis.  The
operator finds its jump targets and reads its intensities through such
views, without index arrays over the state space.  A view whose stride is
small iterates in short runs, so sites below ``StateSpace.split`` are viewed
in a rotated layout in which their digits vary slowest.  A site's jump
intensity is a sum over the other sites, so the operator stores it as two
half-lattice tables of about sqrt(S) entries per site, one over the sites
below the split and one over the rest, and adds them into a buffer where a
site's flux is formed.  ``apply`` works in buffers allocated with the
operator and writes into the caller's array, and ``law_steps`` steps in four
laws held for the whole solve, so stepping the law allocates nothing after
the first step.  The functionals read the law as the matrix
P[sigma div L, sigma mod L], L = (k+1)^split: its row and column sums are
the laws of the two halves, which give the site marginals, and the
production's intensity moments are two matrix products of P with the half
tables.  The product measure is grown in place in a buffer the caller holds.

A system whose kernel is circulant (a catalog kernel, not a tabulated
one) and whose initial density has equal rows has a law that
stays invariant under the torus translations, with a density that stays
homogeneous.  The report then steps the law on the translation orbits
(``OrbitOperator``): about S/N orbit masses, a sparse generator with N
entries per orbit, and functionals that read the density at site 0.  The
orbit numbers come from the least index over all translations, each a
transposed copy of the index array, so no digit table is built.  Both
operators offer ``apply``, ``profile_law``, ``relative_entropy`` and
``production_expectation``, and ``law_steps`` marches either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .hydro import DensityField, ModelParams, _grid, grid_index, integrate, rk4_step
from .lattice import TorusLattice

STATE_CAP = 1 << 20


class StateSpace:
    """Enumeration of all (k+1)^N configurations of a lattice with a size cap."""

    def __init__(self, lattice: TorusLattice, k: int):
        n_sites = lattice.n_sites
        size = (k + 1) ** n_sites
        if size > STATE_CAP:
            raise ValueError(f"state space of size {(k + 1)}^{n_sites} exceeds the "
                             f"cap {STATE_CAP}")
        self.lattice = lattice
        self.k = int(k)
        self.size = size
        self.strides = (k + 1) ** np.arange(n_sites, dtype=np.int64)
        self.split = n_sites // 2
        self._low = (k + 1) ** self.split   # states of the sites below split

    @cached_property
    def digits(self) -> np.ndarray:
        """(S, N) uint8 table of every configuration, built on first read."""
        digits = np.empty((self.size, len(self.strides)), dtype=np.uint8)
        for x, stride in enumerate(self.strides):
            digits[:, x].reshape(-1, self.k + 1, stride)[...] = np.arange(self.k + 1)[:, None]
        return digits

    def rotate(self, a, out) -> np.ndarray:
        """A law re-indexed with sites split..N-1 varying fastest, written to out."""
        out.reshape(self._low, -1)[...] = a.reshape(-1, self._low).T
        return out

    def unrotate(self, a, out) -> np.ndarray:
        """Inverse of ``rotate``."""
        out.reshape(-1, self._low)[...] = a.reshape(self._low, -1).T
        return out

    def site_shape(self, x) -> tuple:
        """Shape that puts the digit of site x on axis 1 of a reshaped law:
        of ``rotate(law)`` for x < split and of the law itself otherwise, so
        that every site's stride is at least about sqrt(S)."""
        stride = int(self.strides[x])
        if x < self.split:
            stride *= self.size // self._low
        return (-1, self.k + 1, stride)

    def index_of(self, sigma) -> int:
        sigma = np.asarray(sigma, dtype=np.int64)
        return int((sigma * self.strides).sum())

    def config_of(self, index) -> np.ndarray:
        return self.digits[int(index)].astype(np.int16)

    def shift_permutation(self, offset) -> np.ndarray:
        """perm[s] = index of the configuration translated by the lattice offset."""
        site_perm = self.lattice.shift_permutation(offset)
        # translated config at site_perm[x] equals original at x
        new_strides = self.strides[site_perm]
        return (self.digits.astype(np.int64) @ new_strides).astype(np.int64)


def _clamp_law(law, atol=1e-9) -> float:
    """validate_law in place on a float array: returns the negative mass it
    clamped to zero."""
    low = np.min(law)
    if low < -1e-12:
        raise ValueError(f"law has negative mass {low:.3e} beyond tolerance")
    clamped = 0.0
    if low < 0.0:
        clamped = -float(np.sum(law[law < 0.0]))
        np.maximum(law, 0.0, out=law)
    if abs(law.sum() - 1.0) > atol:
        raise ValueError(f"law mass {law.sum()} deviates from 1 beyond {atol}")
    return clamped


def validate_law(law, atol=1e-9) -> np.ndarray:
    """Clamp tiny negative mass and check normalization: law itself when it
    has no negative entry, else a clamped copy."""
    law = np.asarray(law, dtype=float)
    if np.min(law) < 0.0:
        law = law.copy()
    _clamp_law(law, atol)
    return law


def profile_prob(sigma, u: DensityField) -> float:
    """Product probability of one configuration under the per-site marginals."""
    sigma = np.asarray(sigma, dtype=np.int64)
    factors = u.u[np.arange(len(sigma)), sigma]
    if np.any(factors <= 0.0):
        raise ValueError("configuration hits a zero marginal; positive profiles "
                         "are required here")
    return float(np.prod(factors))


def profile_law(u: DensityField, space: StateSpace, out=None) -> np.ndarray:
    """The full product measure over the enumerated configurations, written
    to out (a new array when None).

    Built as the Kronecker product u_{N-1} x ... x u_0, site 0 fastest, and
    grown in place: the product over sites 0..x-1 fills the head of out,
    and site x's factors scale it into the blocks above it, then the head.
    """
    uu = u.u
    if np.min(uu) <= 0.0:
        raise ValueError("profile measure needs strictly positive marginals")
    out = np.empty(space.size) if out is None else out
    size = space.k + 1
    out[:size] = uu[0]
    for x in range(1, space.lattice.n_sites):
        head = out[:size]
        for i in range(space.k, 0, -1):
            np.multiply(uu[x, i], head, out=out[i * size:(i + 1) * size])
        head *= uu[x, 0]
        size *= space.k + 1
    return out


def _kl(law, mu) -> float:
    """sum law * log(law / mu) with 0 log 0 = 0, for a validated law; the
    quotient, its log and the product are formed in place in mu (in the
    compressed arrays when the law has zero-mass entries)."""
    if law.min() <= 0.0:
        support = law > 0.0
        law, mu = law[support], mu[support]
    if mu.min() <= 0.0:
        raise ValueError("law puts mass where the product measure vanishes")
    np.divide(law, mu, out=mu)
    np.log(mu, out=mu)
    return float(np.sum(np.multiply(law, mu, out=mu)))


def relative_entropy(law, u: DensityField, space: StateSpace, out=None) -> float:
    """sum law * log(law / mu) against the product measure of u, with 0 log 0 = 0.

    mu is built in out (a new array when None), other than law, and ``_kl``
    forms the quotient, its log and the product in place in it.
    """
    law = validate_law(law)
    return _kl(law, profile_law(u, space, out))


class MasterOperator:
    """Forward Kolmogorov operator, applied matrix-free over sites.

    A jump at site x cycles its digit i -> i+1 mod (k+1) at rate a from the
    top state k and at the kernel average of the active mask below it.  In
    the view of ``site_shape(x)`` each target is the source shifted by one
    along axis 1.  That average is the Kronecker sum over sites y of
    (J[x, y] / N) 1{sigma_y = k}, the additive twin of ``profile_law``, so
    it splits into a sum over the sites below ``StateSpace.split`` and one
    over the sites from it on: row x of ``low`` holds the first, indexed by
    the low digits, and row x of ``high`` the second, indexed by the high
    digits, and intensity_x(sigma) = low[x, sigma mod L] + high[x, sigma // L]
    with L = (k+1)^split.  No S-sized intensity is stored; ``_intensity``
    writes the part a site reads into the flux buffer when it is needed.

    ``apply`` works in buffers allocated here once (``workspace``), and runs
    its site loop with the ufunc buffer size lowered to the shortest inner run
    of a site view, so that strided views are not copied through buffers.
    """

    engine = "states"

    def __init__(self, space: StateSpace, params: ModelParams):
        if params.lattice != space.lattice or params.k != space.k:
            raise ValueError("state space does not match model parameters")
        self.space = space
        self.params = params
        self.applies = 0
        n_sites = space.lattice.n_sites
        k = params.k
        J = self.J = params.kernel.matrix / n_sites   # production_expectation reads it too
        top = np.arange(k + 1) == k
        self.low = np.zeros((n_sites, space._low))
        self.high = np.zeros((n_sites, space.size // space._low))
        for x in range(n_sites):
            for half, sites in ((self.low, range(space.split)),
                                (self.high, range(space.split, n_sites))):
                row = np.zeros(1)
                for y in sites:
                    row = np.add.outer(J[x, y] * top, row).ravel()
                half[x] = row
        # rotated law, a * law in both layouts, the rotated sum, the flux
        self.workspace = tuple(np.empty(space.size) for _ in range(4)) + (
            np.empty(space.size // (k + 1) * k),)
        # the shortest inner run of a site view, as a multiple of 16 (NumPy's rule)
        self._bufsize = max(16, min(space.site_shape(x)[2] for x in range(n_sites)) // 16 * 16)
        # summed in site order, like apply: the sites below split in the
        # rotated layout, the rest in the law's own
        self.exit_rate = np.empty(space.size)
        rates = (self.workspace[3], self.exit_rate)
        rates[0].fill(0.0)
        for x in range(n_sites):
            if x == space.split:
                space.unrotate(rates[0], out=self.exit_rate)
            view = rates[x >= space.split].reshape(space.site_shape(x))
            view[:, :k] += self._intensity(x)
            view[:, k] += params.a

    @property
    def operator_bytes(self) -> int:
        """Bytes of the two half tables, the exit rates and the workspace."""
        return sum(a.nbytes for a in (self.low, self.high, self.exit_rate) + self.workspace)

    def _intensity(self, x) -> np.ndarray:
        """intensity_x on the sigma_x < k block of the ``site_shape(x)`` view,
        written to the workspace's flux buffer: one broadcast add of the half
        indexed by the digits that vary fastest in that view (the low half in
        the law's layout, the high half in the rotated one) and the other."""
        space, k = self.space, self.space.k
        natural = x >= space.split
        fast, slow = (self.low[x], self.high[x]) if natural else (self.high[x], self.low[x])
        runs = space.site_shape(x)[2] // fast.size
        out = self.workspace[-1].reshape(-1, k, runs, fast.size)
        np.add(slow.reshape(-1, k + 1, runs)[:, :k, :, None], fast, out=out)
        return out.reshape(-1, k, runs * fast.size)

    def apply(self, law, out) -> np.ndarray:
        """The generator applied to law, written to out and returned; out
        and law are distinct, and neither is one of the ``workspace`` buffers."""
        self.applies += 1
        space, k = self.space, self.space.k
        law = np.asarray(law, dtype=float)
        rot, a_law, a_rot, out_rot, _ = self.workspace
        layouts = (space.rotate(law, out=rot), law)
        a_layouts = (np.multiply(rot, self.params.a, out=a_rot),
                     np.multiply(law, self.params.a, out=a_law))
        out_rot.fill(0.0)
        sums = (out_rot, out)
        with np.errstate():
            np.setbufsize(self._bufsize)
            for x in range(space.lattice.n_sites):
                if x == space.split:
                    space.unrotate(out_rot, out=out)
                natural, shape = x >= space.split, space.site_shape(x)
                src = layouts[natural].reshape(shape)
                ov = sums[natural].reshape(shape)
                flux = self._intensity(x)
                ov[:, 1:] += np.multiply(flux, src[:, :k], out=flux)
                ov[:, 0] += a_layouts[natural].reshape(shape)[:, k]
        out -= np.multiply(self.exit_rate, law, out=a_law)
        return out

    def profile_law(self, u: DensityField) -> np.ndarray:
        """``profile_law`` over every state, as a new array."""
        return profile_law(u, self.space)

    def relative_entropy(self, law, u: DensityField) -> float:
        """``relative_entropy`` with mu built in a workspace buffer, which
        ``apply`` leaves free between calls."""
        return relative_entropy(law, u, self.space, self.workspace[0])

    def production_expectation(self, law, u: DensityField) -> float:
        """``production_expectation`` with this operator's half tables."""
        return production_expectation(law, u, self)


def _translate(index, space: StateSpace, axis) -> np.ndarray:
    """index[t(s)] for every s, t a translation by one site along an axis.

    Sites are row-major, so t rotates each block of n^(d-axis) consecutive
    sites by n^(d-1-axis) sites.  Reshaped with two axes per block, one for
    the digits of the block's top n^(d-1-axis) sites and one for the rest,
    the index array is translated by swapping each pair: one transposed
    copy, with no arithmetic on the indices."""
    n, d, base = space.lattice.n, space.lattice.d, space.k + 1
    block, step = n ** (d - axis), n ** (d - 1 - axis)
    shape = (base ** (block - step), base ** step) * n ** axis
    swap = np.arange(len(shape)).reshape(-1, 2)[:, ::-1].ravel()
    return index.reshape(shape).transpose(swap).ravel()


def translation_orbits(space: StateSpace):
    """(orbit, reps, sizes): the orbit number of every index under the
    lattice's translations, and each orbit's least index and size, the
    orbits numbered in increasing order of their least index.

    The least index over the n^d translations is taken by an odometer over
    the axes, the last axis stepping fastest.  Any composition of
    translations is one, so the direction each step takes does not matter.
    The sizes are a count of the least indices, with no sort; three S-sized
    index arrays are held at a time, and no digit table."""
    n, d = space.lattice.n, space.lattice.d
    index = np.arange(space.size, dtype=np.int64)
    least = index.copy()
    for count in range(1, space.lattice.n_sites):
        axis = d - 1
        index = _translate(index, space, axis)
        while count % n ** (d - axis) == 0:   # this axis is back where it began
            axis -= 1
            index = _translate(index, space, axis)
        np.minimum(least, index, out=least)
    del index
    sizes = np.bincount(least, minlength=space.size)
    reps = np.flatnonzero(sizes)
    sizes = sizes[reps]
    number = np.empty(space.size, dtype=np.intp)
    number[reps] = np.arange(len(reps))
    return number[least], reps, sizes


class OrbitOperator:
    """Forward operator of a translation-invariant law, lumped on the
    translation orbits of the configurations.

    With a circulant kernel the generator commutes with the torus
    translations, so a law that starts invariant stays invariant and is
    exactly its orbit masses q(O), each spread evenly over the orbit.  The
    lumped rate from orbit O into O' is the rate of the orbit's least
    configuration rep_O into O' summed over its N sites, so the operator is
    a sparse matrix with N entries per orbit, stored sorted by target:
    ``apply`` gathers q at the sources, scales by the rates and sums each
    target's run with ``np.add.reduceat``, then takes off exit * q.

    The report's functionals need the density at one site only, as it stays
    homogeneous: the product measure of orbit O is |O| prod_i u_i^C[O, i],
    C[O, i] the number of sites of rep_O in state i, and the production's
    intensity moments are W[O, i] = sum_x 1{rep_O,x = i} intensity_x(rep_O).
    """

    engine = "orbits"

    def __init__(self, space: StateSpace, params: ModelParams):
        if params.lattice != space.lattice or params.k != space.k:
            raise ValueError("state space does not match model parameters")
        if params.kernel.spec.table is not None:
            raise ValueError("the orbit engine needs a circulant (catalog) kernel")
        self.space = space
        self.applies = 0
        n_sites, k = space.lattice.n_sites, space.k
        orbit, self.reps, self.sizes = translation_orbits(space)
        self.size = len(self.reps)
        digits = self.reps[:, None] // space.strides % (k + 1)        # of the reps, (M, N)
        J = params.kernel.matrix / n_sites
        self.J0 = J[0]   # c reads site 0's row
        rate = (digits == k) @ J.T                                   # the intensities
        self.site_counts = np.stack([np.sum(digits == i, axis=1) for i in range(k + 1)], axis=1)
        self.moments = np.stack([np.sum(rate, axis=1, where=digits == i)
                                 for i in range(k + 1)], axis=1)
        rate[digits == k] = params.a
        self.exit_rate = rate.sum(axis=1)
        target = np.where(digits < k, space.strides, -k * space.strides)
        del digits
        target += self.reps[:, None]
        target = orbit[target].ravel()
        del orbit
        # sorted by target, each target's entries in a run; every orbit is
        # entered from one (undo a jump of its rep, translate), so no run is
        # empty, as reduceat needs
        order = np.argsort(target, kind="stable")
        runs = np.bincount(target, minlength=self.size)
        del target
        self._starts = np.cumsum(runs) - runs
        self._rate = rate.ravel()[order]
        del rate
        order //= n_sites
        self._source = order
        # the flux entries, and the exit term or the product measure
        self.workspace = (np.empty(len(order)), np.empty(self.size))

    @property
    def operator_bytes(self) -> int:
        """Bytes of the orbit tables, the sparse generator and the workspace."""
        return sum(a.nbytes for a in (self.reps, self.sizes, self.site_counts, self.moments,
                                      self.J0, self.exit_rate, self._source, self._rate,
                                      self._starts) + self.workspace)

    def apply(self, law, out) -> np.ndarray:
        """The lumped generator applied to an orbit law, written to out and
        returned; out and law are distinct."""
        self.applies += 1
        flux, exits = self.workspace
        np.take(law, self._source, out=flux, mode="clip")   # "raise" copies through a buffer
        flux *= self._rate
        np.add.reduceat(flux, self._starts, out=out)
        out -= np.multiply(self.exit_rate, law, out=exits)
        return out

    def profile_law(self, u: DensityField, out=None) -> np.ndarray:
        """The product measure of site 0's marginals, lumped on orbits."""
        u0 = u.u[0]
        if np.min(u0) <= 0.0:
            raise ValueError("profile measure needs strictly positive marginals")
        return np.multiply(self.sizes, np.prod(u0 ** self.site_counts, axis=1), out=out)

    def relative_entropy(self, law, u: DensityField) -> float:
        """The relative entropy of the law against the product measure: on
        orbits, as both are even on each."""
        law = validate_law(law)
        return _kl(law, self.profile_law(u, self.workspace[1]))

    def production_expectation(self, law, u: DensityField) -> float:
        """E_law of the closed production functional, sum_O q(O) F(rep_O): with
        h site 0's centred coefficients and c = (J/N u^k) at site 0,
        F = sum_i h(i) (W[:, i] - c C[:, i]).  Forming F before the sum over
        orbits keeps its terms small: summing q W and c q C apart, each about
        N times a site's share, lost a digit to their cancellation."""
        uu = u.u
        if np.min(uu) <= 0.0:
            raise ValueError("closed-form production needs strictly positive marginals")
        g = _g_table(u)[0]
        h = g - np.sum(g * uu[0])
        c = self.J0 @ uu[:, self.space.k]
        return float(np.asarray(law, dtype=float) @ ((self.moments - c * self.site_counts) @ h))


@dataclass
class LawTrajectory:
    times: np.ndarray   # (T+1,)
    laws: np.ndarray    # (T+1, S)

    def law_at(self, t) -> np.ndarray:
        return self.laws[grid_index(self.times, t)]


def law_steps(initial, op, t_end, h):
    """RK4 on the forward equation, yielding (law, clamped mass) per grid time,
    for either operator (a law on states or on orbits).

    The march holds four laws for the whole solve: ``rk4_step``'s two
    states, which swap, its stage and one stage's rate.  A yielded law stays
    valid until the next one is drawn, so a caller keeps a copy of any law
    it needs later, and a caller that evaluates each grid time as it comes
    never holds the (T+1, S) trajectory.  The initial law is copied and
    left alone.
    """
    times, h = _grid(t_end, h)
    law = np.array(initial, dtype=float)
    del initial
    yield law, _clamp_law(law)
    nxt, stage, dlaw = (np.empty_like(law) for _ in range(3))
    for _ in times[1:]:
        law, nxt = rk4_step(lambda c, v, dv: op.apply(v, dv), law, h, nxt, stage, dlaw), law
        yield law, _clamp_law(law)


def master_evolve(initial, params: ModelParams, space: StateSpace, t_end, h) -> LawTrajectory:
    """RK4 integration of the forward equation for the exact law."""
    times = _grid(t_end, h)[0]
    out = np.empty((len(times), space.size))
    for i, (law, _) in enumerate(law_steps(initial, MasterOperator(space, params), t_end, h)):
        out[i] = law
    return LawTrajectory(times, out)


def _site_digit_sums(low_rows, high_rows, space: StateSpace) -> np.ndarray:
    """(N, k+1): for each site x and digit i, the sum of a per-site row over
    the half-configurations in which sigma_x = i.  Row x of low_rows, over
    the (k+1)^split configurations of the sites below split, serves those
    sites; row x - split of high_rows, over the configurations of the rest,
    serves the others; a single row serves every site of its half.  Each
    sum is a pairwise sum of a reshaped row."""
    k, split, n_sites = space.k, space.split, space.lattice.n_sites
    low_rows = np.broadcast_to(low_rows, (split, space._low))
    high_rows = np.broadcast_to(high_rows, (n_sites - split, space.size // space._low))
    strides = (space.strides // space._low, space.strides)
    return np.stack([(low_rows[x] if x < split else high_rows[x - split])
                     .reshape(-1, k + 1, strides[x < split][x]).sum(axis=(0, 2))
                     for x in range(n_sites)])


def _law_matrix(law, space: StateSpace):
    """The law as the matrix P[sigma div L, sigma mod L], L = (k+1)^split,
    with its row sums (the law of the sites from split on) and column sums
    (that of the sites below it)."""
    P = np.asarray(law, dtype=float).reshape(-1, space._low)
    return P, P.sum(axis=1), P.sum(axis=0)


def site_state_marginals(law, space: StateSpace) -> np.ndarray:
    """(N, k+1) matrix of P(sigma_x = i) under the given law, read from the
    row and column sums of the law's matrix (``_law_matrix``)."""
    _, rows, cols = _law_matrix(law, space)
    return _site_digit_sums(cols, rows, space)


# -- production functional ---------------------------------------------------

def _g_table(u: DensityField) -> np.ndarray:
    """Coefficient table of the closed quadratic form: (N, k+1)."""
    uu = u.u
    k = u.k
    g = np.empty_like(uu)
    g[:, 0] = -1.0
    for i in range(1, k):
        g[:, i] = (uu[:, i - 1] - uu[:, i]) / uu[:, i]
    g[:, k] = uu[:, k - 1] / uu[:, k]
    return g


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


def F_closed_all(space: StateSpace, u: DensityField, params: ModelParams) -> np.ndarray:
    """Vectorized closed form over the whole enumeration."""
    uu = u.u
    if np.min(uu) <= 0.0:
        raise ValueError("closed-form production needs strictly positive marginals")
    n_sites = space.lattice.n_sites
    g = _g_table(u)
    J = params.kernel.matrix
    wk = (space.digits == u.k).astype(float) - uu[:, u.k][None, :]
    conv = wk @ (J.T / n_sites)
    gu = np.sum(g * uu, axis=1)
    out = np.zeros(space.size)
    for x in range(n_sites):
        out += (g[x, space.digits[:, x]] - gu[x]) * conv[:, x]
    return out


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


def production_expectation(law, u: DensityField, op: MasterOperator) -> float:
    """E_law of the closed production functional, from two contractions.

    With h_x(i) = g_x(i) - sum_j g_x(j) u_x(j) and c = (J/N) u^k the closed
    form is sum_x h_x(sigma_x) (intensity_x - c_x), so its expectation is
    sum_{x,i} h_x(i) (Q[x, i] - c_x P(sigma_x = i)) with
    Q[x, i] = E[1{sigma_x = i} intensity_x].  In the law's matrix
    P[r, l] (``_law_matrix``) intensity_x is low_x[l] + high_x[r], so for a
    site from split on, whose digit is read from r, Q[x, i] is a sum over
    its digit's rows of high_x rowsum(P) + (P low_x^T), and for a site below
    split one over its digit's columns of low_x colsum(P) + (high_x P).
    Neither a law-sized flux nor a rotation is formed.
    """
    uu = u.u
    if np.min(uu) <= 0.0:
        raise ValueError("closed-form production needs strictly positive marginals")
    space, k, split = op.space, op.space.k, op.space.split
    P, rows, cols = _law_matrix(law, space)
    g = _g_table(u)
    h = g - np.sum(g * uu, axis=1)[:, None]
    c = op.J @ uu[:, k]
    low, high = op.low, op.high
    q = _site_digit_sums(low[:split] * cols + high[:split] @ P,
                         high[split:] * rows + low[split:] @ P.T, space)
    p = _site_digit_sums(cols, rows, space)
    return float(np.sum(h * (q - c[:, None] * p)))


# -- entropy production report ----------------------------------------------

def double_exp_envelope(c, t):
    """Double-exponential growth envelope C (e^{C (e^{Ct} - 1)} - 1)."""
    t = np.asarray(t, dtype=float)
    return c * (np.exp(c * (np.expm1(c * t))) - 1.0)


def fit_envelope_constant(times, values) -> float:
    """Smallest c whose envelope passes through the entropy at the last grid time."""
    target = float(values[-1])
    t = float(times[-1])
    if target <= 0.0 or t <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while double_exp_envelope(hi, t) < target:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError("envelope constant fit did not bracket the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if double_exp_envelope(mid, t) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class EntropyReport:
    times: np.ndarray
    entropy: np.ndarray            # H(t) on the grid
    production_rhs: np.ndarray     # exact expectation of the production functional
    fd_derivative: np.ndarray      # finite-difference dH/dt (central in the interior)
    envelope: np.ndarray           # fitted double-exponential bound values
    envelope_constant: float
    step: float
    metrics: dict = field(default_factory=dict)   # run.json "metrics": counts and stage walls

    def inequality_margin(self) -> np.ndarray:
        """production_rhs + 10 h - dH/dt; nonnegative when the bound holds."""
        return self.production_rhs + 10.0 * self.step - self.fd_derivative

    def inequality_holds(self) -> bool:
        return bool(np.all(self.inequality_margin() >= 0.0))

    def under_envelope(self, atol=1e-9) -> bool:
        return bool(np.all(self.entropy <= self.envelope + atol))

    def rows(self):
        return [(float(t), float(h), float(r), float(e))
                for t, h, r, e in zip(self.times, self.entropy,
                                      self.production_rhs, self.envelope)]


def entropy_production_check(params: ModelParams, u0: DensityField, t_end, h) -> EntropyReport:
    """Exact entropy trajectory with the production bound checked pointwise.

    The law of the process and the density trajectory are integrated with the
    same step and scheme so the finite-difference entropy derivative and the
    exactly evaluated right-hand side carry matched truncation errors.  Each
    grid time is evaluated as the law reaches it; no law trajectory is kept.

    The kernel and the initial density choose the engine: a catalog kernel
    (circulant, not a tabulated one) and equal rows of u0 make the law
    and the density translation invariant for all time, so the law is stepped
    on orbits (``OrbitOperator``); any other system on every state
    (``MasterOperator``).
    """
    clock = perf_counter()
    traj = integrate(u0, params, t_end, h=h)
    walls = {"density_solve": perf_counter() - clock}
    clock = perf_counter()
    space = StateSpace(params.lattice, params.k)
    invariant = params.kernel.spec.table is None and np.all(u0.u == u0.u[0])
    op = (OrbitOperator if invariant else MasterOperator)(space, params)
    laws = law_steps(op.profile_law(u0), op, t_end, h)
    walls["operator_build"] = perf_counter() - clock
    m = len(traj.times)
    if len(_grid(t_end, h)[0]) != m:
        raise ValueError("law and density grids fell out of step")
    entropy = np.empty(m)
    rhs = np.empty(m)
    clamped = 0.0
    walls["law_stepping"] = walls["functionals"] = 0.0
    clock = perf_counter()
    for i, (law, removed) in enumerate(laws):
        mark = perf_counter()
        walls["law_stepping"] += mark - clock
        u_i = DensityField(params.lattice, params.k, traj.u[i])
        entropy[i] = op.relative_entropy(law, u_i)
        rhs[i] = op.production_expectation(law, u_i)
        clamped += removed
        clock = perf_counter()
        walls["functionals"] += clock - mark
    step = traj.step
    fd = np.gradient(entropy, step) if m > 1 else np.zeros(1)
    c = fit_envelope_constant(traj.times, entropy)
    envelope = double_exp_envelope(c, traj.times)
    entropy_metrics = {"engine": op.engine, "states": space.size, "rk4_steps": m - 1,
                       "master_applies": op.applies, "operator_bytes": op.operator_bytes,
                       "clamped_mass": clamped,
                       "stage_s": {name: round(s, 6) for name, s in walls.items()}}
    if invariant:
        entropy_metrics["orbits"] = op.size
    metrics = {"entropy": entropy_metrics, "ode": traj.ode}
    return EntropyReport(traj.times.copy(), entropy, rhs, fd, envelope, c, step, metrics)
