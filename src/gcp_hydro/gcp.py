"""Exact continuous-time simulation of the kernel-coupled contact dynamics.

Each site holds a state in {0..k}.  A site at the top state k resets to 0 at
rate a; a site below k advances one state at rate (J^n * active)_x, the
normalized kernel average of the current top-state indicator.

``Simulation`` steps a range of replicas together as the lanes of (R, N)
arrays; one replica is its R = 1 case.  Events are drawn by thinning (Lewis
& Shedler 1979) over each lane's partition of sites into active (top state)
and passive ones.  Each active site proposes at its exact rate a; each
passive site proposes at the common bound norm_inf * n_active / N on its
intensity, and its proposal is accepted with probability intensity_x /
bound.  A rejected proposal only moves the clock.  One vectorized step makes
one proposal in every live lane, and picking a site within either class is
O(1).  The kernel factors as J[x, y] = sum_j P[x, j] Q[y, j] off the
diagonal (``DiscreteKernel.rank`` = r terms), and each lane keeps the r
running sums n^-d sum_{y active} Q[y]: activation or deactivation of site x
adds or subtracts Q[x] / N, for all toggling lanes at once, and a passive
proposal at x reads its intensity as P[x] . sums.  The cosine kernel has
r = 3^d and the constant kernel r = 1; any other kernel has r = N, and its
sums are the lane's intensities themselves.  All other events leave the sums
untouched.  With no active site a lane's proposal rate is exactly zero, so
the absorbing state absorbs.

Randomness is counter-based (Philox; Salmon et al., SC'11).  Replica r is
lane r % B of block r // B, where B = block_lanes(N), as many lanes as
BLOCK_BYTES of nominal lane state holds, depends on the lattice size only.
The replica driver steps several whole blocks as one Simulation, and a
vectorized step draws one round per (block, round) among its live lanes: one
per block when the lanes started together.  Block b is keyed by the Philox
key of replica_rng(seed, n, b).  Round 0 of that key draws the block's
initial configurations as a (B, N) matrix; round j >= 1 is the (3, B) matrix
at counter (0, 0, j, 0), and a lane's j-th proposal reads its own column of
it: holding time, site, acceptance.  Rounds are always drawn at full width and each lane keeps its
own round counter, so a replica's path is a pure function of (seed, n, r):
it depends neither on which other replicas are stepped with it nor on how
the observation times are split across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hydro import DensityField, ModelParams
from .lattice import TorusLattice

REBUILD_PERIOD = 1 << 20  # per-lane refresh cadence bounding float drift in the kernel sums
# Bytes of nominal lane state one block may hold.  The nominal lane costs 10
# bytes a site (an int16 state and two int32 partition slots, the layout the
# streams were sized with) and LANE_BYTES for its clocks, counters, low-rank
# kernel sums and the vectors of one step; the N-term sums of a gaussian or
# tabulated kernel are left out, so the width depends on N alone.  The count
# fixes the streams, so it is not the real cost: a Simulation stores its slots
# in the narrowest unsigned type that holds a site index, and a lane takes 4
# or 6 bytes a site wherever N <= 65 536.
BLOCK_BYTES = 1 << 20
LANE_BYTES = 256


def lane_bytes(n_sites) -> int:
    """Nominal bytes of one lane's state on N sites, the unit of block_lanes."""
    return 10 * n_sites + LANE_BYTES


def block_lanes(n_sites) -> int:
    """Lanes per block of replicas: as many as BLOCK_BYTES of nominal lane
    state holds, at least one.  A function of the lattice size alone, it
    fixes the streams; the replica driver steps whole blocks, several to a
    task."""
    return max(1, BLOCK_BYTES // lane_bytes(n_sites))


def replica_rng(master_seed, *key) -> np.random.Generator:
    """Counter-based stream that is a pure function of (master seed, key)."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass
class SpinConfig:
    """Lattice configurations: an integer state in {0..k} per site, for one
    replica (shape (N,)) or a stack of replicas (shape (R, N))."""

    lattice: TorusLattice
    k: int
    sigma: np.ndarray  # (N,) or (R, N) small ints

    def validate(self):
        if self.sigma.ndim not in (1, 2) or self.sigma.shape[-1] != self.lattice.n_sites:
            raise ValueError("state array does not match lattice size")
        if self.sigma.min() < 0 or self.sigma.max() > self.k:
            raise ValueError(f"states must lie in [0, {self.k}]")
        return self

    def active_mask(self) -> np.ndarray:
        return self.sigma == self.k

    def state_counts(self) -> np.ndarray:
        """Sites per state: (k+1,), or (R, k+1) for a stack."""
        return np.stack([np.count_nonzero(self.sigma == i, axis=-1)
                         for i in range(self.k + 1)], axis=-1)

    def copy(self) -> "SpinConfig":
        return SpinConfig(self.lattice, self.k, self.sigma.copy())


@dataclass
class Snapshot:
    time: float
    config: SpinConfig  # one row per lane


def sample_initial(u0: DensityField, rng, replicas=None) -> SpinConfig:
    """Independent per-site categorical draws from the density field: one
    configuration, or ``replicas`` of them stacked from an (replicas, N) draw."""
    u0.validate()
    n_sites = u0.lattice.n_sites
    draws = rng.random(n_sites if replicas is None else (replicas, n_sites))
    cum = np.cumsum(u0.u, axis=1)
    sigma = np.zeros(draws.shape, np.int16)
    for i in range(u0.k):
        sigma += draws >= cum[:, i]
    return SpinConfig(u0.lattice, u0.k, sigma)


def rates_from_scratch(config: SpinConfig, params: ModelParams):
    """(intensity, rate) recomputed directly from the definition, per row of a stack."""
    active = config.active_mask()
    intensity = params.kernel.conv(active.astype(float))
    rate = np.where(active, params.a, intensity)
    return intensity, rate


def _partition(active):
    """(members, pos) per row: active sites in index order, then passive ones;
    pos inverts members.  Equal to a stable argsort of ~active, in int32;
    the caller stores them in its slot type."""
    sites = np.arange(active.shape[1], dtype=np.int32)
    pos = np.cumsum(active, axis=1, dtype=np.int32)
    # a passive site's slot: the active count plus the passive sites before it
    passive_slot = sites - pos
    passive_slot += pos[:, -1:]
    pos -= 1
    np.copyto(pos, passive_slot, where=~active)
    members = passive_slot  # reused: every entry is overwritten
    np.put_along_axis(members, pos, np.broadcast_to(sites, pos.shape), axis=1)
    return members, pos


class Simulation:
    """Replicas of the dynamics stepped together, one lane each.

    ``initial`` is a DensityField, from which round 0 of each block draws
    the lanes' configurations, or a SpinConfig that every lane starts from.
    ``replicas`` is a count R (replicas 0..R-1) or a range of replica
    indices.  Observation times never consume randomness: each lane's
    pending proposal time and round counter survive across
    ``simulate_until`` calls.  ``sums`` holds each lane's kernel sums,
    (R, params.kernel.rank).
    """

    def __init__(self, initial, params: ModelParams, seed, replicas=1):
        reps = range(replicas) if isinstance(replicas, (int, np.integer)) else replicas
        if not isinstance(reps, range) or reps.step != 1 or not reps or reps.start < 0:
            raise ValueError("replicas must be a count >= 1 or a nonempty range of "
                             "indices >= 0 with step 1")
        lattice, k = params.lattice, params.k
        if initial.k != k or initial.lattice != lattice:
            raise ValueError("initial state does not match model parameters")
        n_sites, kernel = lattice.n_sites, params.kernel
        width = block_lanes(n_sites)
        self.params = params
        self._width = width
        first = reps.start // width
        rngs = [replica_rng(seed, lattice.n, b)
                for b in range(first, (reps.stop - 1) // width + 1)]
        self._keys = [g.bit_generator.state["state"]["key"] for g in rngs]
        self._rounds = np.random.Generator(np.random.Philox(key=self._keys[0]))
        ids = np.arange(reps.start, reps.stop)
        self._block, self._lane = ids // width - first, ids % width
        if isinstance(initial, DensityField):
            sigma = np.empty((len(reps), n_sites), np.int16)
            self.sums = np.empty((len(reps), kernel.rank))
            for b, g in enumerate(rngs):
                # round 0 and its sums at full width, so a lane's start never
                # depends on which lanes are stepped with it
                block = sample_initial(initial, g, width)
                rows, lane = self._block == b, self._lane[self._block == b]
                sigma[rows] = block.sigma[lane]
                self.sums[rows] = kernel.feature_sums(block.active_mask())[lane]
        else:
            initial.validate()
            sigma = np.array(np.broadcast_to(initial.sigma, (len(reps), n_sites)), np.int16,
                             order="C")
            self.sums = kernel.feature_sums(sigma == k)
        self.config = SpinConfig(lattice, k, sigma)
        # per lane: active sites first, then passive; _pos inverts _members.
        # Slots take the narrowest unsigned type that holds a site index, and
        # are built a block's worth of lanes at a time, which bounds the transients.
        slots = np.min_scalar_type(n_sites - 1)
        self._members, self._pos = np.empty(sigma.shape, slots), np.empty(sigma.shape, slots)
        for lo in range(0, len(reps), width):
            self._members[lo:lo + width], self._pos[lo:lo + width] = _partition(
                sigma[lo:lo + width] == k)
        self._n_active = np.count_nonzero(sigma == k, axis=1)
        self.time = np.zeros(len(reps))
        self._pending = np.full(len(reps), np.nan)  # next proposal time, not yet made
        self._round = np.ones(len(reps), np.int64)  # round of each lane's next proposal
        self._events = np.zeros(len(reps), np.int64)
        self.proposals = self.passive_proposals = self.passive_accepted = self.toggles = 0
        self.rounds = 0  # Philox rounds drawn, one per (block, round) a step reads
        # a passive intensity is at most norm_inf / N per active site
        self._unit_bound = params.kernel.norm_inf / n_sites

    # -- observables ---------------------------------------------------------

    @property
    def events(self) -> int:
        """Events fired, summed over lanes."""
        return int(self._events.sum())

    @property
    def absorbed(self) -> bool:
        """True when no lane has an active site left."""
        return not self._n_active.any()

    def lane_absorbed(self) -> np.ndarray:
        return self._n_active == 0

    def counters(self) -> dict:
        """Simulator counters summed over lanes."""
        return {"replicas": len(self.time), "events": self.events, "toggles": self.toggles,
                "proposals": self.proposals, "passive_proposals": self.passive_proposals,
                "passive_accepted": self.passive_accepted,
                "replicas_absorbed": int(np.count_nonzero(self.lane_absorbed())),
                "rounds": self.rounds}

    # -- rate bookkeeping ------------------------------------------------

    def intensity_at(self, lanes, xs) -> np.ndarray:
        """Intensity at site xs[i] of lane lanes[i], read from the lane's kernel
        sums; exact where the site is passive, the only place the sampler reads one."""
        return self.params.kernel.contract(self.sums, lanes, xs)

    def rate_state(self):
        """Per-lane (rate, total) as maintained incrementally: a at active
        sites, the intensity read from the kernel sums at passive ones."""
        active = self.config.active_mask()
        lanes, xs = np.nonzero(~active)
        rate = np.full(active.shape, float(self.params.a))
        rate[lanes, xs] = self.intensity_at(lanes, xs)
        return rate, rate.sum(axis=1)

    def check_integrity(self, rtol=1e-8):
        """Incrementally maintained state vs from-scratch recomputation, per lane."""
        n_sites = self.config.lattice.n_sites
        slots = np.arange(n_sites)
        in_active_class = slots < self._n_active[:, None]
        if not np.array_equal(np.take_along_axis(self.config.active_mask(), self._members, 1),
                              in_active_class):
            raise AssertionError("active partition drifted from the configuration")
        if not np.array_equal(np.take_along_axis(self._pos, self._members, 1),
                              np.broadcast_to(slots, self._members.shape)):
            raise AssertionError("partition positions do not invert its members")
        rate, total = self.rate_state()
        ref_r = rates_from_scratch(self.config, self.params)[1]
        scale = np.maximum(ref_r.max(axis=1), 1.0)[:, None]
        # a passive site's rate is its intensity
        if np.any(np.abs(rate - ref_r) > rtol * scale):
            raise AssertionError("intensity at a passive site drifted from recomputation")
        ref_total = ref_r.sum(axis=1)
        if np.any(np.abs(total - ref_total) > rtol * np.maximum(ref_total, 1.0)):
            raise AssertionError("total rate drifted from recomputation")

    def _apply_jumps(self, lanes, xs):
        """Advance site xs[i] of lane lanes[i] by one state; lanes are distinct."""
        k, n_sites = self.params.k, self.config.lattice.n_sites
        sigma = self.config.sigma.reshape(-1)
        at = lanes * n_sites + xs
        old = sigma[at]
        down = old == k
        new = old + 1
        new[down] = 0
        sigma[at] = new
        events = self._events[lanes] + 1
        self._events[lanes] = events
        toggle = down | (new == k)
        if toggle.any():
            tl, tx, down = lanes[toggle], xs[toggle], down[toggle]
            # a leaving site swaps into the last active slot, an arriving one
            # into the first passive slot
            slot = self._n_active[tl] - down
            n_act = slot + ~down
            self._n_active[tl] = n_act
            members, pos = self._members.reshape(-1), self._pos.reshape(-1)
            base = tl * n_sites
            p = pos[base + tx]
            other = members[base + slot]
            members[base + slot] = tx
            members[base + p] = other
            pos[base + tx] = slot
            pos[base + other] = p
            # x / -N is exactly -(x / N)
            self.sums[tl] += (self.params.kernel.features_at(tx)
                              / np.where(down, -n_sites, n_sites)[:, None])
            # no float residue outlives a lane's last active site
            self.sums[tl[n_act == 0]] = 0.0
            self.toggles += len(tl)
        for lane in lanes[events % REBUILD_PERIOD == 0]:
            self.sums[lane] = self.params.kernel.feature_sums(self.config.sigma[lane] == k)

    # -- event generation --------------------------------------------------

    def _draws(self, lanes):
        """(3, m) uniforms: each lane's column of its block's current round."""
        tags = (self._block[lanes] << 32) | self._round[lanes]
        # one draw per run of equal tags; ascending lanes at one round are
        # already in tag order
        order = np.argsort(tags, kind="stable")
        tags = tags[order]
        cuts = (np.flatnonzero(tags[1:] != tags[:-1]) + 1).tolist()
        self.rounds += len(cuts) + 1
        out = np.empty((3, len(lanes)))
        for lo, hi in zip([0] + cuts, cuts + [len(lanes)]):
            run = order[lo:hi]
            out[:, run] = self._round_columns(int(tags[lo]), lanes[run])
        return out

    def _round_columns(self, tag, lanes):
        """The lanes' columns of round j = tag & 0xFFFFFFFF of block tag >> 32.

        The round is Generator(Philox(key, counter=[0, 0, j, 0])).random((3, B));
        setting the state of one generator skips building a Philox per round.
        """
        self._rounds.bit_generator.state = {
            "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
            "state": {"key": self._keys[tag >> 32],
                      "counter": np.array([0, 0, tag & 0xFFFFFFFF, 0], np.uint64)}}
        return self._rounds.random((3, self._width))[:, self._lane[lanes]]

    def _rate(self, n_act):
        return n_act * (self.params.a + self._unit_bound * (self.config.lattice.n_sites - n_act))

    def _propose(self, lanes, u, n_act, rate):
        """Each lane's proposed site and whether thinning accepts it."""
        a, n_sites = self.params.a, self.config.lattice.n_sites
        v = u[1] * rate
        # the passive class is empty when every site is active or J = 0
        passive = (v >= a * n_act) & (rate > a * n_act)
        slot = np.minimum((v / a).astype(np.int64), n_act - 1)
        n_pas = n_act[passive]
        bound = self._unit_bound * n_pas
        slot[passive] = n_pas + np.minimum(((v[passive] - a * n_pas) / bound).astype(np.int64),
                                           n_sites - n_pas - 1)
        row = lanes * n_sites
        xs = self._members.reshape(-1)[row + slot]
        accept = ~passive
        accept[passive] = u[2, passive] * bound < self.intensity_at(lanes[passive], xs[passive])
        self.proposals += len(lanes)
        self.passive_proposals += len(n_pas)
        self.passive_accepted += len(n_pas) - int(np.count_nonzero(~accept))
        return xs, accept

    def _run(self, horizon, once=False):
        """Step every live lane until its next proposal lies past ``horizon``.

        With ``once``, a lane also stops after firing one event.  Returns the
        site each lane fired last in this call, or -1.
        """
        fired = np.full(len(self.time), -1, np.int64)
        lanes = np.flatnonzero(self._n_active > 0)
        while len(lanes):
            u = self._draws(lanes)
            n_act = self._n_active[lanes]
            rate = self._rate(n_act)
            pending = self._pending[lanes]
            fresh = np.isnan(pending)
            pending[fresh] = self.time[lanes[fresh]] - np.log1p(-u[0, fresh]) / rate[fresh]
            due = pending <= horizon
            if not due.all():
                self._pending[lanes] = pending
                lanes, u, n_act, rate, pending = (lanes[due], u[:, due], n_act[due],
                                                  rate[due], pending[due])
            self.time[lanes] = pending
            self._pending[lanes] = np.nan
            self._round[lanes] += 1
            xs, accept = self._propose(lanes, u, n_act, rate)
            hit, xs = lanes[accept], xs[accept]
            self._apply_jumps(hit, xs)
            fired[hit] = xs
            if once:
                lanes = lanes[~accept]
            lanes = lanes[self._n_active[lanes] > 0]
        return fired

    def step(self):
        """Fire one event in every lane: (sites, holding times) per lane.

        A lane that is absorbed (no site at the top state, a terminal outcome
        of the dynamics, not an error) reports site -1 and holding time 0.
        The holding time includes the time spent on rejected proposals.
        """
        start = self.time.copy()
        sites = self._run(np.inf, once=True)
        return sites, self.time - start

    def simulate_until(self, times):
        """Snapshots of every lane at each requested time (sorted, >= every lane's clock)."""
        times = [float(t) for t in times]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("requested times must be sorted")
        snaps = []
        for t_obs in times:
            if t_obs < self.time.max():
                raise ValueError(f"requested time {t_obs} lies before the current "
                                 f"clock {self.time.max()}")
            self._run(t_obs)
            # the clock now certifies the state up to the observation time
            self.time[:] = t_obs
            snaps.append(Snapshot(t_obs, self.config.copy()))
        return snaps
