import math

import numpy as np
import pytest

from gcp_hydro.gcp import (Simulation, SpinConfig, rates_from_scratch,
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
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 1], np.int16)), p)
    _, rate, total = sim.rate_state()
    np.testing.assert_allclose(rate, [1.5, 0.5, 0.5, 1.5], atol=1e-15)
    assert total == pytest.approx(4.0)


def test_incremental_update_after_activation():
    # firing site 1 activates it: its rate becomes a, intensities shift everywhere
    # by column 1 of a non-symmetric table, so a row in its place shows
    spec = KernelSpec.tabulated(np.arange(16.0).reshape(4, 4))
    p = _params(n=4, k=1, a=1.5, kernel=spec)
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 1], np.int16)), p)
    sim.events += 1  # counted first, as step() does; at 0 the periodic full refresh runs
    sim._apply_jump(1)
    assert np.array_equal(sim.config.sigma, [1, 1, 0, 1])
    _, rate, total = sim.rate_state()
    ref_i, ref_r = rates_from_scratch(sim.config, p)
    np.testing.assert_allclose(rate, ref_r, atol=1e-12)
    assert rate[1] == pytest.approx(1.5)
    assert total == pytest.approx(ref_r.sum())


def test_single_active_site_decay_and_absorption():
    p = _params(n=8, k=1, a=2.0)
    sigma = np.zeros(8, np.int16)
    sigma[3] = 1
    sim = Simulation(SpinConfig(p.lattice, 1, sigma), p)
    rng = replica_rng(5, 0)
    site, holding = sim.step(rng)
    assert site == 3 and holding > 0
    assert sim.config.sigma[3] == 0
    assert sim.absorbed
    assert sim.step(rng) is None


def test_absorption_iff_no_active_sites():
    p = _params(n=6, k=2, a=1.0, kernel=KernelSpec.constant(1.0))
    passive = SpinConfig(p.lattice, 2, np.array([0, 1, 1, 0, 1, 0], np.int16))
    assert Simulation(passive, p).absorbed
    act = passive.copy()
    act.sigma[2] = 2
    assert not Simulation(act, p).absorbed


def test_pure_death_event_count():
    # J = 0: only initially active sites ever fire, exactly once each
    p = _params(n=32, k=2, a=1.0)
    rng = replica_rng(11, 0)
    sigma = rng.integers(0, 3, 32).astype(np.int16)
    sim = Simulation(SpinConfig(p.lattice, 2, sigma.copy()), p)
    n_active = int(np.sum(sigma == 2))
    fired = []
    while (ev := sim.step(rng)) is not None:
        fired.append(ev[0])
    assert len(fired) == n_active
    assert sorted(fired) == sorted(np.flatnonzero(sigma == 2))


def test_exponential_survival_fraction():
    # all sites active, J = 0, a = 1: active fraction at t follows e^{-t}
    n, t, reps = 64, 0.7, 500
    p = _params(n=n, k=1, a=1.0)
    total = 0
    for r in range(reps):
        rng = replica_rng(21, r)
        sim = Simulation(SpinConfig(p.lattice, 1, np.ones(n, np.int16)), p)
        snap = sim.simulate_until([t], rng)[0]
        total += int(np.sum(snap.config.sigma == 1))
    pt = math.exp(-t)
    se = math.sqrt(pt * (1.0 - pt) / (n * reps))
    assert abs(total / (n * reps) - pt) < 4.0 * se


def test_simulate_until_time_zero_returns_initial():
    p = _params(n=8, k=1, a=1.0, kernel=KernelSpec.constant(1.0))
    sigma = np.array([1, 0, 1, 0, 0, 0, 1, 0], np.int16)
    sim = Simulation(SpinConfig(p.lattice, 1, sigma.copy()), p)
    snaps = sim.simulate_until([0.0], replica_rng(3, 0))
    assert snaps[0].time == 0.0
    assert np.array_equal(snaps[0].config.sigma, sigma)


def test_simulate_until_rejects_unsorted_or_past_times():
    p = _params(n=4, k=1, a=1.0, kernel=KernelSpec.constant(1.0))
    sim = Simulation(SpinConfig(p.lattice, 1, np.array([1, 0, 0, 0], np.int16)), p)
    rng = replica_rng(0, 0)
    with pytest.raises(ValueError, match="sorted"):
        sim.simulate_until([0.5, 0.2], rng)
    sim.simulate_until([0.5], rng)
    with pytest.raises(ValueError, match="before the current clock"):
        sim.simulate_until([0.2], rng)


def test_checkpoint_consistency_bitwise():
    for spec in (KernelSpec.cosine(0.5), KernelSpec.constant(2.0)):
        p = _params(n=32, k=2, a=1.0, kernel=spec)
        u0 = _uniform_field(p, [0.3, 0.3, 0.4])
        rng_a, rng_b = replica_rng(13, 0), replica_rng(13, 0)
        sim_a = Simulation(sample_initial(u0, rng_a), p)
        full = sim_a.simulate_until([0.4, 1.1], rng_a)
        sim_b = Simulation(sample_initial(u0, rng_b), p)
        first = sim_b.simulate_until([0.4], rng_b)
        second = sim_b.simulate_until([1.1], rng_b)
        assert np.array_equal(first[0].config.sigma, full[0].config.sigma)
        assert np.array_equal(second[0].config.sigma, full[1].config.sigma)


def test_rate_integrity_after_many_steps():
    # kernel mass 1 and a = 0.1: the mean-field top-state density settles
    # at 0.8, so the run stays far from absorption
    p = _params(n=32, k=2, a=0.1, kernel=KernelSpec.cosine(0.8))
    rng = replica_rng(17, 0)
    u0 = _uniform_field(p, [0.2, 0.3, 0.5])
    sim = Simulation(sample_initial(u0, rng), p)
    steps = 0
    while steps < 10_000 and sim.step(rng) is not None:
        steps += 1
    assert steps == 10_000
    assert not sim.absorbed
    sim.check_integrity(rtol=1e-8)


def test_cosine_replica_absorbs_without_clock_leap():
    # intensities updated by +- kernel columns leave float residue; once no
    # site is active the process must stop, not fire at a vanishing rate
    from gcp_hydro.hydro import profile_field
    from gcp_hydro.profiles import InitialProfile
    p = _params(n=256, k=1, a=1.0, kernel=KernelSpec.cosine(0.5))
    profile = InitialProfile.cosine_simplex([0.55, 0.45], [-0.1, 0.1], 1)
    rng = replica_rng(1, 256, 0)
    sim = Simulation(sample_initial(profile_field(profile, p.lattice), rng), p)
    for _ in range(100_000):
        if not np.any(sim.config.active_mask()):
            break
        sim.step(rng)
    assert not np.any(sim.config.active_mask())
    assert sim.absorbed
    t_end = sim.time
    assert sim.step(rng) is None
    assert sim.time == t_end


def test_first_jump_distribution_matches_rate_table():
    # empirical first-event site frequencies are proportional to the rates
    p = _params(n=4, k=1, a=1.5, kernel=KernelSpec.tabulated(np.ones((4, 4))))
    sigma = np.array([1, 0, 0, 1], np.int16)
    probs = np.array([1.5, 0.5, 0.5, 1.5]) / 4.0
    reps = 20_000
    counts = np.zeros(4)
    hold = 0.0
    for r in range(reps):
        rng = replica_rng(29, r)
        sim = Simulation(SpinConfig(p.lattice, 1, sigma.copy()), p)
        site, dt = sim.step(rng)
        counts[site] += 1
        hold += dt
    freq = counts / reps
    se = np.sqrt(probs * (1.0 - probs) / reps)
    assert np.all(np.abs(freq - probs) < 4.0 * se)
    # holding times are exponential at the total rate R = 4
    assert abs(hold / reps - 0.25) < 4.0 * 0.25 / math.sqrt(reps)


def test_constant_kernel_and_tabulated_twin_same_law():
    # a constant kernel and the same values as a dense table give one law
    n, reps, t = 16, 600, 0.5
    spec_const = KernelSpec.constant(2.0)
    spec_table = KernelSpec.tabulated(np.full((n, n), 2.0))
    means = []
    for tag, spec in enumerate((spec_const, spec_table)):
        p = _params(n=n, k=1, a=1.0, kernel=spec)
        u0 = _uniform_field(p, [0.5, 0.5])
        vals = []
        for r in range(reps):
            rng = replica_rng(31, tag, r)
            sim = Simulation(sample_initial(u0, rng), p)
            snap = sim.simulate_until([t], rng)[0]
            vals.append(np.sum(snap.config.sigma == 1))
        means.append((np.mean(vals), np.std(vals, ddof=1) / math.sqrt(reps)))
    diff = abs(means[0][0] - means[1][0])
    se = math.hypot(means[0][1], means[1][1])
    assert diff < 4.0 * se


def test_fast_path_integrity_and_determinism():
    p = _params(n=16, k=2, a=1.0, kernel=KernelSpec.constant(3.0))
    u0 = _uniform_field(p, [0.3, 0.3, 0.4])
    results = []
    for _ in range(2):
        rng = replica_rng(37, 0)
        sim = Simulation(sample_initial(u0, rng), p)
        for _ in range(500):
            if sim.step(rng) is None:
                break
        sim.check_integrity()
        results.append(sim.config.sigma.copy())
    assert np.array_equal(results[0], results[1])


def test_fft_kernel_column_updates_match_rates_from_scratch():
    # above DENSE_SITE_LIMIT each toggle adds or subtracts a rolled copy of
    # phi while rates_from_scratch convolves by FFT; a non-symmetric kernel
    # in d=2 makes a wrong roll direction or axis show
    from gcp_hydro.lattice import DENSE_SITE_LIMIT

    def skew(x, y):
        r = x - y - np.round(x - y)
        return np.prod(1.0 + 0.5 * np.cos(2 * np.pi * r) + 0.3 * np.sin(2 * np.pi * r),
                       axis=-1)
    p = _params(n=24, k=1, a=0.5, kernel=KernelSpec("skew", {}, skew, 1.8 ** 2, 1.0), d=2)
    assert p.lattice.n_sites > DENSE_SITE_LIMIT
    rng = replica_rng(43, 0)
    sim = Simulation(sample_initial(_uniform_field(p, [0.5, 0.5]), rng), p)
    steps = 0
    while steps < 2000 and sim.step(rng) is not None:
        steps += 1
    assert steps == 2000
    sim.check_integrity(rtol=1e-10)


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
    from gcp_hydro.entropy import (StateSpace, master_evolve, profile_law,
                                   site_state_marginals)
    n, k, t, reps = 3, 2, 0.6, 20_000
    p = _params(n=n, k=k, a=1.0, kernel=spec)
    u0 = DensityField(p.lattice, k, np.tile([0.3, 0.3, 0.4], (n, 1)))
    space = StateSpace(p.lattice, k)
    law = master_evolve(profile_law(u0, space), p, space, t, 0.005)
    exact = site_state_marginals(law.laws[-1], space)
    counts = np.zeros((n, k + 1))
    for r in range(reps):
        rng = replica_rng(43, r)
        sim = Simulation(sample_initial(u0, rng), p)
        snap = sim.simulate_until([t], rng)[0]
        for x in range(n):
            counts[x, snap.config.sigma[x]] += 1
    emp = counts / reps
    se = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-12) / reps)
    assert np.max(np.abs(emp - exact) / se) < 4.0


def test_spin_config_validation():
    lat = TorusLattice(1, 4)
    with pytest.raises(ValueError, match="states must lie"):
        SpinConfig(lat, 1, np.array([0, 1, 2, 0], np.int16)).validate()
    with pytest.raises(ValueError, match="lattice size"):
        SpinConfig(lat, 1, np.zeros(3, np.int16)).validate()
