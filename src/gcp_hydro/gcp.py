"""Exact continuous-time simulation of the kernel-coupled contact dynamics.

Each site holds a state in {0..k}.  A site at the top state k resets to 0 at
rate a; a site below k advances one state at rate (J^n * active)_x, the
normalized kernel average of the current top-state indicator.

Events are drawn by thinning (Lewis & Shedler 1979) over the partition of
sites into active (top state) and passive ones.  Each active site proposes
at its exact rate a; each passive site proposes at the common bound
norm_inf * n_active / N on its intensity, and its proposal is accepted with
probability intensity_x / bound.  A rejected proposal only moves the clock.
Picking a site within either class is O(1).  Activation or deactivation of
one site shifts every intensity by one kernel column, a vectorized O(N)
update; all other events leave the intensities untouched.  With no active
site the proposal rate is exactly zero, so the absorbing state absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hydro import DensityField, ModelParams
from .lattice import TorusLattice

REBUILD_PERIOD = 1 << 20  # full refresh cadence bounding float drift in the intensities


def replica_rng(master_seed, *key) -> np.random.Generator:
    """Counter-based stream that is a pure function of (master seed, key)."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass
class SpinConfig:
    """One lattice configuration: an integer state in {0..k} per site."""

    lattice: TorusLattice
    k: int
    sigma: np.ndarray  # (N,) small ints

    def validate(self):
        if self.sigma.shape != (self.lattice.n_sites,):
            raise ValueError("state array does not match lattice size")
        if self.sigma.min() < 0 or self.sigma.max() > self.k:
            raise ValueError(f"states must lie in [0, {self.k}]")
        return self

    def active_mask(self) -> np.ndarray:
        return self.sigma == self.k

    def state_counts(self) -> np.ndarray:
        return np.bincount(self.sigma, minlength=self.k + 1)

    def copy(self) -> "SpinConfig":
        return SpinConfig(self.lattice, self.k, self.sigma.copy())


@dataclass
class Snapshot:
    time: float
    config: SpinConfig


def sample_initial(u0: DensityField, rng) -> SpinConfig:
    """Independent per-site categorical draw from the given density field."""
    u0.validate()
    cum = np.cumsum(u0.u, axis=1)
    draws = rng.random(u0.lattice.n_sites)
    sigma = (draws[:, None] >= cum).sum(axis=1)
    sigma = np.minimum(sigma, u0.k).astype(np.int16)
    return SpinConfig(u0.lattice, u0.k, sigma)


def rates_from_scratch(config: SpinConfig, params: ModelParams):
    """(intensity, rate) recomputed directly from the definition."""
    active = config.active_mask().astype(float)
    intensity = params.kernel.conv(active)
    rate = np.where(config.active_mask(), params.a, intensity)
    return intensity, rate


class Simulation:
    """Mutable simulation state: configuration, intensities, event clock.

    A single instance is strictly sequential.  Observation times never
    consume randomness: the pending proposal time survives across
    ``simulate_until`` calls, so splitting one run into several calls with
    the same generator reproduces the exact same path.
    """

    def __init__(self, config: SpinConfig, params: ModelParams):
        config.validate()
        if config.k != params.k or config.lattice != params.lattice:
            raise ValueError("configuration does not match model parameters")
        self.config = config.copy()
        self.params = params
        self.time = 0.0
        self.events = 0
        self._pending = None  # time of the next proposal, not yet made
        n = config.lattice.n_sites
        active = config.active_mask()
        # active sites first, then passive; _pos inverts _members
        self._members = np.concatenate([np.flatnonzero(active), np.flatnonzero(~active)])
        self._pos = np.empty(n, dtype=np.int64)
        self._pos[self._members] = np.arange(n)
        self._n_active = int(np.count_nonzero(active))
        self.intensity, _ = rates_from_scratch(config, params)
        # a passive intensity is at most norm_inf / N per active site
        self._unit_bound = params.kernel.norm_inf / n

    # -- rate bookkeeping ------------------------------------------------

    def rate_state(self):
        """Current (intensity, rate, total) as maintained incrementally."""
        rate = np.where(self.config.active_mask(), self.params.a, self.intensity)
        return self.intensity, rate, float(rate.sum())

    def check_integrity(self, rtol=1e-8):
        """Incrementally maintained state vs from-scratch recomputation."""
        active = np.flatnonzero(self.config.active_mask())
        if not np.array_equal(np.sort(self._members[:self._n_active]), active):
            raise AssertionError("active partition drifted from the configuration")
        intensity, rate, total = self.rate_state()
        ref_i, ref_r = rates_from_scratch(self.config, self.params)
        scale = max(np.max(ref_r), 1.0)
        if np.max(np.abs(intensity - ref_i)) > rtol * scale:
            raise AssertionError("incremental intensity drifted from recomputation")
        if np.max(np.abs(rate - ref_r)) > rtol * scale:
            raise AssertionError("incremental rates drifted from recomputation")
        if abs(total - ref_r.sum()) > rtol * max(ref_r.sum(), 1.0):
            raise AssertionError("total rate drifted from recomputation")

    def _swap(self, x, slot):
        """Exchange site x with the site at partition slot ``slot``."""
        p = self._pos[x]
        other = self._members[slot]
        self._members[slot], self._members[p] = x, other
        self._pos[x], self._pos[other] = slot, p

    def _apply_jump(self, x):
        sigma = self.config.sigma
        k = self.params.k
        old = int(sigma[x])
        new = (old + 1) % (k + 1)
        sigma[x] = new
        if old == k:
            self._n_active -= 1
            self._swap(x, self._n_active)
            self.intensity -= self.params.kernel.col(x) / self.config.lattice.n_sites
            if self._n_active == 0:
                self.intensity[:] = 0.0  # no float residue outlives the last active site
        elif new == k:
            self._swap(x, self._n_active)
            self._n_active += 1
            self.intensity += self.params.kernel.col(x) / self.config.lattice.n_sites
        if self.events % REBUILD_PERIOD == 0:
            self.intensity, _ = rates_from_scratch(self.config, self.params)

    # -- event generation --------------------------------------------------

    @property
    def absorbed(self) -> bool:
        return self._n_active == 0

    def _proposal_rate(self) -> float:
        n_act = self._n_active
        return n_act * (self.params.a + self._unit_bound * (len(self._members) - n_act))

    def _propose(self, rng):
        """One proposal: the site that fires, or None when thinning rejects it."""
        n_act = self._n_active
        a = self.params.a
        u = rng.random() * self._proposal_rate()
        if u < a * n_act:
            return int(self._members[min(int(u / a), n_act - 1)])
        bound = self._unit_bound * n_act
        j = min(int((u - a * n_act) / bound), len(self._members) - n_act - 1)
        x = int(self._members[n_act + j])
        return x if rng.random() * bound < self.intensity[x] else None

    def _fire_next(self, rng, horizon=math.inf):
        """Fire the next accepted event at or before ``horizon``; its site, or None.

        None means the process is absorbed or the next proposal lies past the
        horizon; that proposal time then stays pending.
        """
        while not self.absorbed:
            if self._pending is None:
                self._pending = self.time + rng.exponential(1.0 / self._proposal_rate())
            if self._pending > horizon:
                return None
            self.time, self._pending = self._pending, None
            site = self._propose(rng)
            if site is not None:
                self.events += 1
                self._apply_jump(site)
                return site
        return None

    def step(self, rng):
        """Fire one event: returns (site, holding_time), or None when absorbed.

        The holding time includes the time spent on rejected proposals.
        Absorption (no site at the top state) is a terminal outcome of the
        dynamics, not an error.
        """
        start = self.time
        site = self._fire_next(rng)
        return None if site is None else (site, self.time - start)

    def simulate_until(self, times, rng):
        """Snapshots of the exact state at each requested time (sorted, >= current)."""
        times = [float(t) for t in times]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("requested times must be sorted")
        snaps = []
        for t_obs in times:
            if t_obs < self.time:
                raise ValueError(f"requested time {t_obs} lies before the current "
                                 f"clock {self.time}")
            while self._fire_next(rng, t_obs) is not None:
                pass
            # the clock now certifies the state up to the observation time
            self.time = t_obs
            snaps.append(Snapshot(t_obs, self.config.copy()))
        return snaps
