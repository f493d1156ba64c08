import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcp_hydro.gcp import (Simulation, SpinConfig, block_lanes, rates_from_scratch,
                           replica_rng, sample_initial)
from gcp_hydro.hydro import DensityField, ModelParams
from gcp_hydro.lattice import KernelSpec, TorusLattice, discretize


def _params(n=8, k=1, a=1.0, kernel=None, d=1):
    lat = TorusLattice(d, n)
    spec = kernel or KernelSpec.constant(0.0)
    return ModelParams(a, k, discretize(spec, lat))


def _uniform_field(params, vec):
    return DensityField(params.lattice, params.k,
                        np.tile(np.asarray(vec, float), (params.lattice.n_sites, 1)))


# -- initial sampling ---------------------------------------------------------

def test_sample_initial_point_mass():
    p = _params(n=16, k=2)
    u0 = _uniform_field(p, [1.0, 0.0, 0.0])
    sigma = sample_initial(u0, replica_rng(0, 0))
    assert np.all(sigma.sigma == 0)


def test_sample_initial_uniform_frequencies():
    k = 3
    p = _params(n=4096, k=k)
    u0 = _uniform_field(p, [0.25] * 4)
    sigma = sample_initial(u0, replica_rng(1, 0))
    freq = sigma.state_counts() / 4096
    bound = 4.0 * math.sqrt(0.25 * 0.75 / 4096)
    assert np.max(np.abs(freq - 0.25)) < bound


def test_sample_initial_seed_determinism():
    p = _params(n=64, k=1)
    u0 = _uniform_field(p, [0.4, 0.6])
    s1 = sample_initial(u0, replica_rng(7, 3))
    s2 = sample_initial(u0, replica_rng(7, 3))
    assert np.array_equal(s1.sigma, s2.sigma)
    s3 = sample_initial(u0, replica_rng(7, 4))
    assert not np.array_equal(s1.sigma, s3.sigma)


def test_sample_initial_rejects_bad_simplex():
    p = _params(n=4, k=1)
    bad = DensityField(p.lattice, 1, np.tile([0.6, 0.6], (4, 1)))
    with pytest.raises(ValueError, match="sum to 1"):
        sample_initial(bad, replica_rng(0, 0))


# -- rate bookkeeping ---------------------------------------------------------

def test_rate_table_worked_example():
    # d=1, n=4, k=1, a=1.5, J=1, sigma=(1,0,0,1): r=(1.5,.5,.5,1.5), R=4
    p = _params(n=4, k=1, a=1.5, kernel=KernelSpec.constant(1.0))
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 1], np.int16)), p, seed=0)
    rate, total = sim.rate_state()
    np.testing.assert_allclose(rate[0], [1.5, 0.5, 0.5, 1.5], atol=1e-15)
    assert total[0] == pytest.approx(4.0)


def test_incremental_update_after_activation():
    # firing site 1 activates it: its rate becomes a, intensities shift everywhere
    # by column 1 of a non-symmetric table, so a row in its place shows
    spec = KernelSpec.tabulated(np.arange(16.0).reshape(4, 4))
    p = _params(n=4, k=1, a=1.5, kernel=spec)
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 1], np.int16)), p, seed=0)
    sim._apply_jumps(np.array([0]), np.array([1]))
    assert np.array_equal(sim.config.sigma[0], [1, 1, 0, 1])
    rate, total = sim.rate_state()
    ref_r = rates_from_scratch(sim.config, p)[1]
    np.testing.assert_allclose(rate, ref_r, atol=1e-12)
    assert rate[0, 1] == pytest.approx(1.5)
    assert total[0] == pytest.approx(ref_r.sum())
    sim.check_integrity(rtol=1e-12)


def test_single_active_site_decay_and_absorption():
    p = _params(n=8, k=1, a=2.0)
    sigma = np.zeros(8, np.int16)
    sigma[3] = 1
    sim = Simulation(SpinConfig(p.lattice, 1, sigma), p, seed=5)
    sites, holding = sim.step()
    assert sites[0] == 3 and holding[0] > 0
    assert sim.config.sigma[0, 3] == 0
    assert sim.absorbed
    sites, holding = sim.step()
    assert sites[0] == -1 and holding[0] == 0.0


def test_absorption_iff_no_active_sites():
    p = _params(n=6, k=2, a=1.0, kernel=KernelSpec.constant(1.0))
    passive = SpinConfig(p.lattice, 2, np.array([0, 1, 1, 0, 1, 0], np.int16))
    assert Simulation(passive, p, seed=0).absorbed
    act = passive.copy()
    act.sigma[2] = 2
    assert not Simulation(act, p, seed=0).absorbed
    both = Simulation(SpinConfig(p.lattice, 2, np.stack([passive.sigma, act.sigma])), p,
                      seed=0, replicas=2)
    assert np.array_equal(both.lane_absorbed(), [True, False])
    assert not both.absorbed


def test_pure_death_event_count():
    # J = 0: only initially active sites ever fire, exactly once each
    p = _params(n=32, k=2, a=1.0)
    sigma = replica_rng(11, 0).integers(0, 3, 32).astype(np.int16)
    sim = Simulation(SpinConfig(p.lattice, 2, sigma.copy()), p, seed=11)
    fired = []
    while (site := sim.step()[0][0]) >= 0:
        fired.append(site)
    assert sorted(fired) == sorted(np.flatnonzero(sigma == 2))
    assert sim.events == len(fired) == sim.toggles


def test_exponential_survival_fraction():
    # all sites active, J = 0, a = 1: active fraction at t follows e^{-t}
    n, t, reps = 64, 0.7, 500
    p = _params(n=n, k=1, a=1.0)
    sim = Simulation(SpinConfig(p.lattice, 1, np.ones(n, np.int16)), p, seed=21, replicas=reps)
    snap = sim.simulate_until([t])[0]
    total = int(np.sum(snap.config.sigma == 1))
    pt = math.exp(-t)
    se = math.sqrt(pt * (1.0 - pt) / (n * reps))
    assert abs(total / (n * reps) - pt) < 4.0 * se


def test_simulate_until_time_zero_returns_initial():
    p = _params(n=8, k=1, a=1.0, kernel=KernelSpec.constant(1.0))
    sigma = np.array([1, 0, 1, 0, 0, 0, 1, 0], np.int16)
    sim = Simulation(SpinConfig(p.lattice, 1, sigma.copy()), p, seed=3)
    snaps = sim.simulate_until([0.0])
    assert snaps[0].time == 0.0
    assert np.array_equal(snaps[0].config.sigma[0], sigma)


def test_simulate_until_rejects_unsorted_or_past_times():
    p = _params(n=4, k=1, a=1.0, kernel=KernelSpec.constant(1.0))
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 0], np.int16)), p, seed=0)
    with pytest.raises(ValueError, match="sorted"):
        sim.simulate_until([0.5, 0.2])
    sim.simulate_until([0.5])
    with pytest.raises(ValueError, match="before the current clock"):
        sim.simulate_until([0.2])


def test_replicas_must_be_a_count_or_unit_range():
    p = _params(n=4, k=1)
    u0 = _uniform_field(p, [0.5, 0.5])
    for bad in (0, range(3, 3), range(0, 6, 2)):
        with pytest.raises(ValueError, match="replicas"):
            Simulation(u0, p, seed=0, replicas=bad)


# -- counter-based streams ------------------------------------------------------

def test_round_draws_are_philox_counter_rounds():
    # round j of block b is Generator(Philox(key_b, counter=[0, 0, j, 0])), the
    # stream of replica_rng(seed, n, b) jumped j times; round 0 is the block's
    # (B, N) initial draw, and a lane's first proposal reads column `lane` of round 1
    n, seed = 8, 71
    p = _params(n=n, k=1, a=1.0)  # J = 0, so every proposal is accepted
    width = block_lanes(n)
    block_rng = replica_rng(seed, n, 0)
    key = block_rng.bit_generator.state["state"]["key"]

    def round_draws(j):
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, j, 0])).random(
            (3, width))
    for j in (1, 2, 7):
        expected = np.random.Generator(block_rng.bit_generator.jumped(j)).random((3, width))
        assert np.array_equal(round_draws(j), expected)
    u0 = _uniform_field(p, [0.5, 0.5])
    reps = range(5, 9)
    sim = Simulation(u0, p, seed, reps)
    initial = sample_initial(u0, replica_rng(seed, n, 0), width).sigma[5:9]
    assert np.array_equal(sim.config.sigma, initial)
    start_active = sim._members.copy()
    n_act = (initial == 1).sum(axis=1)
    sites, holding = sim.step()
    u = round_draws(1)[:, 5:9]
    np.testing.assert_array_equal(holding, -np.log1p(-u[0]) / n_act)
    slot = np.minimum((u[1] * n_act).astype(int), n_act - 1)
    np.testing.assert_array_equal(sites, start_active[np.arange(4), slot])


def _paths(u0, p, seed, reps, times):
    sim = Simulation(u0, p, seed, reps)
    return np.stack([s.config.sigma for s in sim.simulate_until(times)], axis=1)


@pytest.mark.parametrize("n", [16, 256], ids=["one-block", "block-edges"])
def test_replica_path_independent_of_its_companions(n):
    # a replica's path is a pure function of (seed, n, r): stepping it alone,
    # in a sub-range or in the full range gives the same snapshots bit for bit
    p = _params(n=n, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    u0 = _uniform_field(p, [0.5, 0.5])
    width = block_lanes(n)
    times = [0.3, 0.8]
    full = _paths(u0, p, 9, 2 * width + 6, times)
    sub = range(width - 3, 2 * width + 2)  # spans a block edge where blocks are small
    assert np.array_equal(_paths(u0, p, 9, sub, times), full[sub.start:sub.stop])
    for r in (0, width - 1, width, 2 * width + 5):
        assert np.array_equal(_paths(u0, p, 9, range(r, r + 1), times), full[r:r + 1])


@pytest.mark.parametrize("d, n, k", [(1, 16, 1), (1, 300, 2), (2, 4, 2), (2, 17, 1)],
                         ids=["d1-k1-uint8", "d1-k2-uint16", "d2-k2-uint8", "d2-k1-uint16"])
def test_blocks_stepped_together_match_each_block_alone(d, n, k):
    # one Simulation over a range that starts mid-block and ends in a partial
    # block steps every lane as the Simulations of its blocks stepped alone
    # do, leg after leg, whatever the width of its partition slots
    p = _params(n=n, k=k, a=1.0, kernel=KernelSpec.cosine(0.5), d=d)
    n_sites = p.lattice.n_sites
    u0 = _uniform_field(p, np.full(k + 1, 1.0 / (k + 1)))
    width = block_lanes(n_sites)
    reps = range(width // 2, 2 * width + width // 3)
    pieces = [range(max(lo, reps.start), min(lo + width, reps.stop))
              for lo in range(0, reps.stop, width)]
    together, alone = Simulation(u0, p, 5, reps), [Simulation(u0, p, 5, r) for r in pieces]
    assert len(pieces) == 3 and together._members.dtype == np.min_scalar_type(n_sites - 1)
    for t in (0.2, 0.5):
        together.simulate_until([t])
        for sim in alone:
            sim.simulate_until([t])
        for name in ("time", "_round", "_pending"):
            assert np.array_equal(getattr(together, name),
                                  np.concatenate([getattr(s, name) for s in alone]),
                                  equal_nan=True)
        assert np.array_equal(together.config.sigma,
                              np.concatenate([s.config.sigma for s in alone]))
        counters = together.counters()
        assert counters == {key: sum(s.counters()[key] for s in alone) for key in counters}
        assert counters["rounds"] > 0
    together.check_integrity()
    for sim in alone:
        sim.check_integrity()


def test_checkpoint_consistency_bitwise():
    # observation times consume no randomness: lanes paused at different
    # rounds resume on their own counters
    for spec in (KernelSpec.cosine(0.5), KernelSpec.constant(2.0)):
        p = _params(n=32, k=2, a=1.0, kernel=spec)
        u0 = _uniform_field(p, [0.3, 0.3, 0.4])
        full = Simulation(u0, p, 13, 40).simulate_until([0.4, 1.1])
        split = Simulation(u0, p, 13, 40)
        first = split.simulate_until([0.4])
        assert len(np.unique(split._round)) > 1
        second = split.simulate_until([1.1])
        assert np.array_equal(first[0].config.sigma, full[0].config.sigma)
        assert np.array_equal(second[0].config.sigma, full[1].config.sigma)
        # and observing at 0.4 leaves the path unchanged
        direct = Simulation(u0, p, 13, 40).simulate_until([1.1])
        assert np.array_equal(direct[0].config.sigma, full[1].config.sigma)


def test_rate_integrity_after_many_steps():
    # kernel mass 1 and a = 0.1: the mean-field top-state density settles
    # at 0.8, so the run stays far from absorption
    p = _params(n=32, k=2, a=0.1, kernel=KernelSpec.cosine(0.8))
    u0 = _uniform_field(p, [0.2, 0.3, 0.5])
    sim = Simulation(u0, p, seed=17, replicas=4)
    for _ in range(10_000):
        sites, _ = sim.step()
        assert np.all(sites >= 0)
    assert sim.events == 4 * 10_000
    assert not np.any(sim.lane_absorbed())
    sim.check_integrity(rtol=1e-8)


def test_cosine_replica_absorbs_without_clock_leap():
    # kernel sums updated by +- features leave float residue; once no site
    # is active the process must stop, not fire at a vanishing rate
    from gcp_hydro.hydro import profile_field
    from gcp_hydro.profiles import InitialProfile
    p = _params(n=256, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    profile = InitialProfile.cosine_simplex([0.55, 0.45], [-0.1, 0.1], 1)
    sim = Simulation(profile_field(profile, p.lattice), p, seed=1, replicas=1)
    for _ in range(100_000):
        if not np.any(sim.config.active_mask()):
            break
        sim.step()
    assert not np.any(sim.config.active_mask())
    assert sim.absorbed
    t_end = sim.time[0]
    assert sim.step()[0][0] == -1
    assert sim.time[0] == t_end
    assert not np.any(sim.sums)


def test_first_jump_distribution_matches_rate_table():
    # empirical first-event site frequencies are proportional to the rates
    p = _params(n=4, k=1, a=1.5, kernel=KernelSpec.tabulated(np.ones((4, 4))))
    sigma = np.array([1, 0, 0, 1], np.int16)
    probs = np.array([1.5, 0.5, 0.5, 1.5]) / 4.0
    reps = 20_000
    sim = Simulation(SpinConfig(p.lattice, 1, sigma), p, seed=29, replicas=reps)
    sites, holding = sim.step()
    freq = np.bincount(sites, minlength=4) / reps
    se = np.sqrt(probs * (1.0 - probs) / reps)
    assert np.all(np.abs(freq - probs) < 4.0 * se)
    # holding times are exponential at the total rate R = 4
    assert abs(holding.mean() - 0.25) < 4.0 * 0.25 / math.sqrt(reps)


def test_constant_kernel_and_tabulated_twin_same_law():
    # a constant kernel and the same values as a dense table give one law
    n, reps, t = 16, 600, 0.5
    spec_const = KernelSpec.constant(2.0)
    spec_table = KernelSpec.tabulated(np.full((n, n), 2.0))
    means = []
    for seed, spec in ((31, spec_const), (32, spec_table)):
        p = _params(n=n, k=1, a=1.0, kernel=spec)
        snap = Simulation(_uniform_field(p, [0.5, 0.5]), p, seed, reps).simulate_until([t])[0]
        vals = np.sum(snap.config.sigma == 1, axis=1)
        means.append((np.mean(vals), np.std(vals, ddof=1) / math.sqrt(reps)))
    diff = abs(means[0][0] - means[1][0])
    se = math.hypot(means[0][1], means[1][1])
    assert diff < 4.0 * se


def test_fast_path_integrity_and_determinism():
    p = _params(n=16, k=2, a=1.0, kernel=KernelSpec.constant(3.0))
    u0 = _uniform_field(p, [0.3, 0.3, 0.4])
    results = []
    for _ in range(2):
        sim = Simulation(u0, p, seed=37, replicas=8)
        for _ in range(500):
            sim.step()
        sim.check_integrity()
        results.append(sim.config.sigma.copy())
    assert np.array_equal(results[0], results[1])


def test_fft_kernel_column_updates_match_rates_from_scratch():
    # each toggle adds or subtracts a window of the doubled phi while
    # rates_from_scratch convolves by FFT; a non-symmetric kernel in d=2
    # makes a wrong sign or axis of the window show
    def skew(x, y):
        r = x - y - np.round(x - y)
        return np.prod(1.0 + 0.5 * np.cos(2 * np.pi * r) + 0.3 * np.sin(2 * np.pi * r),
                       axis=-1)
    p = _params(n=24, k=1, a=0.5, kernel=KernelSpec("skew", {}, skew), d=2)
    assert p.kernel.engine == "fft"
    sim = Simulation(_uniform_field(p, [0.5, 0.5]), p, seed=43, replicas=4)
    for _ in range(2000):
        sites, _ = sim.step()
        assert np.all(sites >= 0)
    sim.check_integrity(rtol=1e-10)


# lattices of at most 40 sites and of more than 512, so large-N gathers serve too
_SIDES = {1: st.one_of(st.integers(4, 40), st.integers(513, 700)),
          2: st.sampled_from([6, 24])}


@st.composite
def _factored_case(draw):
    d = draw(st.integers(1, 2))
    n = draw(_SIDES[d])
    name = draw(st.sampled_from(["constant", "cosine", "gaussian", "tabulated"]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    if name == "constant":
        spec = KernelSpec.constant(draw(st.floats(0.01, 3.0)))
    elif name == "cosine":
        spec = KernelSpec.cosine(draw(st.floats(-1.0, 1.0)))
    elif name == "gaussian":
        spec = KernelSpec.gaussian(c=draw(st.floats(0.1, 3.0)),
                                   width=draw(st.floats(0.02, 0.2)))
    else:  # non-symmetric, so a transposed factor shows
        spec = KernelSpec.tabulated(np.random.default_rng(seed).uniform(0.0, 3.0,
                                                                        (n ** d, n ** d)))
    return _params(n=n, k=1, kernel=spec, d=d), seed, draw(st.floats(0.05, 0.95))


@settings(deadline=None, max_examples=40)
@given(_factored_case())
def test_intensity_from_kernel_sums_matches_rates_from_scratch(case):
    # the sampler reads a passive site's intensity from its lane's kernel sums:
    # P[x] . sums for the constant (r = 1) and cosine (r = 3^d) kernels, the
    # sum itself for every other kernel (r = N); after toggles through the
    # incremental path it must match the convolution at every passive site
    p, seed, density = case
    rng = np.random.default_rng(seed)
    lanes, n_sites = 3, p.lattice.n_sites
    sigma = (rng.random((lanes, n_sites)) < density).astype(np.int16)
    sim = Simulation(SpinConfig(p.lattice, 1, sigma), p, seed=0, replicas=lanes)
    for _ in range(6):  # at k = 1 every jump toggles
        sim._apply_jumps(np.arange(lanes), rng.integers(n_sites, size=lanes))
    rows, xs = np.nonzero(~sim.config.active_mask())
    got = sim.intensity_at(rows, xs)
    ref = rates_from_scratch(sim.config, p)[0][rows, xs]
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * p.kernel.norm_inf


@pytest.mark.parametrize("spec", [
    KernelSpec.cosine(0.5),
    KernelSpec.gaussian(c=2.0, width=0.2),
    KernelSpec.tabulated(np.random.default_rng(47).uniform(0.0, 3.0, (3, 3))),
], ids=["cosine", "gaussian", "tabulated"])
def test_simulator_matches_master_equation_k2(spec):
    # cross-validate the simulator's modular jump bookkeeping at k=2, and its
    # thinning of passive proposals, against the enumerated forward equation;
    # on 3 sites a translation-invariant kernel has equal off-diagonal entries
    # and accepts every proposal, so only the random table exercises rejection
    n, k = 3, 2
    p = _params(n=n, k=k, a=1.0, kernel=spec)
    u0 = DensityField(p.lattice, k, np.tile([0.3, 0.3, 0.4], (n, 1)))
    _assert_matches_master_equation(p, u0, 0.6, 20_000, 43)


@pytest.mark.parametrize("spec", [
    KernelSpec.cosine(0.5),
    KernelSpec.tabulated(np.random.default_rng(53).uniform(0.0, 3.0, (9, 9))),
], ids=["cosine", "tabulated"])
def test_simulator_matches_master_equation_d2(spec):
    # a 3x3 torus at k = 1 (512 states): the cosine kernel reads a passive
    # intensity through its 3^2 features, the random table through its rows;
    # a site-dependent start keeps the sites apart, and the replicas span
    # several blocks of lanes
    p = _params(n=3, k=1, a=1.0, kernel=spec, d=2)
    top = np.random.default_rng(59).uniform(0.3, 0.7, 9)
    u0 = DensityField(p.lattice, 1, np.stack([1.0 - top, top], axis=1))
    assert 20_000 > 6 * block_lanes(9)
    _assert_matches_master_equation(p, u0, 0.6, 20_000, 61)


def _assert_matches_master_equation(p, u0, t, reps, seed):
    # each site's state frequencies over the replicas lie within 4 standard
    # errors of the exact law's marginals
    from gcp_hydro.entropy import StateSpace, master_evolve, profile_law
    from oracles import site_state_marginals
    space = StateSpace(p.lattice, p.k)
    law = master_evolve(profile_law(u0, space), p, space, t, 0.005)
    exact = site_state_marginals(law.laws[-1], space)
    sigma = Simulation(u0, p, seed, reps).simulate_until([t])[0].config.sigma
    emp = np.stack([np.mean(sigma == s, axis=0) for s in range(p.k + 1)], axis=1)
    se = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-12) / reps)
    assert np.max(np.abs(emp - exact) / se) < 4.0


def test_spin_config_validation():
    lat = TorusLattice(1, 4)
    with pytest.raises(ValueError, match="states must lie"):
        SpinConfig(lat, 1, np.array([0, 1, 2, 0], np.int16)).validate()
    with pytest.raises(ValueError, match="lattice size"):
        SpinConfig(lat, 1, np.zeros(3, np.int16)).validate()
    stack = SpinConfig(lat, 1, np.array([[0, 1, 1, 0], [1, 1, 1, 0]], np.int16)).validate()
    assert np.array_equal(stack.state_counts(), [[2, 2], [1, 3]])
